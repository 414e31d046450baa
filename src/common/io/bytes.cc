#include "common/io/bytes.h"

#include <cstring>

namespace xcluster {

namespace {

Status UnexpectedEnd(const char* what) {
  return Status::Corruption(std::string("unexpected end of input reading ") +
                            what);
}

}  // namespace

Status ByteSource::Skip(size_t n) {
  char buf[256];
  while (n > 0) {
    size_t chunk = n < sizeof(buf) ? n : sizeof(buf);
    XC_RETURN_IF_ERROR(Read(buf, chunk));
    n -= chunk;
  }
  return Status::OK();
}

Status StringSource::Read(void* out, size_t n) {
  if (n > Remaining()) return UnexpectedEnd("bytes");
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status StringSource::Skip(size_t n) {
  if (n > Remaining()) return UnexpectedEnd("skipped bytes");
  pos_ += n;
  return Status::OK();
}

Status BoundedReader::Read(void* out, size_t n) {
  if (n > limit_) return UnexpectedEnd("section payload");
  XC_RETURN_IF_ERROR(inner_->Read(out, n));
  limit_ -= n;
  return Status::OK();
}

Status BoundedReader::Skip(size_t n) {
  if (n > limit_) return UnexpectedEnd("section payload");
  XC_RETURN_IF_ERROR(inner_->Skip(n));
  limit_ -= n;
  return Status::OK();
}

void PutFixed8(ByteSink* sink, uint8_t v) { (void)sink->Append(&v, 1); }

void PutFixed32(ByteSink* sink, uint32_t v) {
  unsigned char buf[4] = {
      static_cast<unsigned char>(v),
      static_cast<unsigned char>(v >> 8),
      static_cast<unsigned char>(v >> 16),
      static_cast<unsigned char>(v >> 24),
  };
  (void)sink->Append(buf, sizeof(buf));
}

void PutFixed64(ByteSink* sink, uint64_t v) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  (void)sink->Append(buf, sizeof(buf));
}

void PutDouble(ByteSink* sink, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(sink, bits);
}

void PutVarint64(ByteSink* sink, uint64_t v) {
  unsigned char buf[10];
  size_t n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(v);
  (void)sink->Append(buf, n);
}

void PutLengthPrefixed(ByteSink* sink, std::string_view data) {
  PutVarint64(sink, data.size());
  (void)sink->Append(data);
}

Status GetFixed8(ByteSource* src, uint8_t* v) { return src->Read(v, 1); }

uint32_t DecodeFixed32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

uint64_t DecodeFixed64(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(u[i]) << (8 * i);
  return v;
}

Status GetFixed32(ByteSource* src, uint32_t* v) {
  char buf[4];
  XC_RETURN_IF_ERROR(src->Read(buf, sizeof(buf)));
  *v = DecodeFixed32(buf);
  return Status::OK();
}

Status GetFixed64(ByteSource* src, uint64_t* v) {
  char buf[8];
  XC_RETURN_IF_ERROR(src->Read(buf, sizeof(buf)));
  *v = DecodeFixed64(buf);
  return Status::OK();
}

Status GetDouble(ByteSource* src, double* v) {
  uint64_t bits = 0;
  XC_RETURN_IF_ERROR(GetFixed64(src, &bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status GetVarint64(ByteSource* src, uint64_t* v) {
  *v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    uint8_t byte = 0;
    XC_RETURN_IF_ERROR(src->Read(&byte, 1));
    *v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Reject non-canonical trailing zero groups past bit 63.
      if (shift == 63 && byte > 1) {
        return Status::Corruption("varint64 overflow");
      }
      return Status::OK();
    }
  }
  return Status::Corruption("varint64 too long");
}

Status GetLengthPrefixed(ByteSource* src, std::string* out) {
  uint64_t n = 0;
  XC_RETURN_IF_ERROR(GetVarint64(src, &n));
  XC_RETURN_IF_ERROR(CheckCount(n, 1, *src, "string"));
  out->resize(static_cast<size_t>(n));
  return src->Read(out->data(), out->size());
}

Status CheckCount(uint64_t count, size_t min_elem_bytes,
                  const ByteSource& src, const char* what) {
  const uint64_t budget = src.Remaining();
  if (min_elem_bytes == 0) min_elem_bytes = 1;
  if (count > budget / min_elem_bytes) {
    return Status::Corruption(std::string(what) + " count " +
                              std::to_string(count) +
                              " exceeds remaining byte budget " +
                              std::to_string(budget));
  }
  return Status::OK();
}

}  // namespace xcluster
