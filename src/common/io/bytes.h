#ifndef XCLUSTER_COMMON_IO_BYTES_H_
#define XCLUSTER_COMMON_IO_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace xcluster {

/// Append-only byte consumer: the writer half of the serialization
/// substrate. Implementations may buffer; Append either accepts all `n`
/// bytes or returns a non-OK Status (no partial-success contract).
class ByteSink {
 public:
  virtual ~ByteSink() = default;

  virtual Status Append(const void* data, size_t n) = 0;

  Status Append(std::string_view data) {
    return Append(data.data(), data.size());
  }

  /// Bytes accepted so far (the logical write offset).
  virtual size_t BytesWritten() const = 0;
};

/// Sequential byte producer: the reader half. Read either fills all `n`
/// bytes of `out` or returns a non-OK Status; it never partially fills.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  virtual Status Read(void* out, size_t n) = 0;

  /// Bytes still available to Read. A Read of more than Remaining() fails
  /// with Corruption ("unexpected end of input").
  virtual size_t Remaining() const = 0;

  /// Discards `n` bytes.
  virtual Status Skip(size_t n);
};

/// ByteSink appending into a caller-owned std::string.
class StringSink : public ByteSink {
 public:
  explicit StringSink(std::string* out) : out_(out) {}

  using ByteSink::Append;
  Status Append(const void* data, size_t n) override {
    out_->append(static_cast<const char*>(data), n);
    return Status::OK();
  }

  size_t BytesWritten() const override { return out_->size(); }

 private:
  std::string* out_;
};

/// ByteSource over a caller-owned byte string (not copied; the view must
/// outlive the source).
class StringSource : public ByteSource {
 public:
  explicit StringSource(std::string_view data) : data_(data) {}

  Status Read(void* out, size_t n) override;
  size_t Remaining() const override { return data_.size() - pos_; }
  Status Skip(size_t n) override;

  /// Offset of the next byte to be read.
  size_t Position() const { return pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Caps the bytes readable from an inner source. Used to confine a section
/// decoder to its declared payload: a corrupt length or count inside the
/// section cannot make the decoder run off into the next one, and
/// Remaining() gives decoders a hard byte budget to validate element counts
/// against before allocating.
class BoundedReader : public ByteSource {
 public:
  /// Exposes at most `limit` bytes of `*inner` (fewer if the inner source
  /// itself has fewer). `inner` must outlive the reader.
  BoundedReader(ByteSource* inner, size_t limit) : inner_(inner) {
    limit_ = limit < inner->Remaining() ? limit : inner->Remaining();
  }

  Status Read(void* out, size_t n) override;
  size_t Remaining() const override { return limit_; }
  Status Skip(size_t n) override;

 private:
  ByteSource* inner_;
  size_t limit_;
};

// --- Little-endian primitive encoding -------------------------------------

void PutFixed8(ByteSink* sink, uint8_t v);
void PutFixed32(ByteSink* sink, uint32_t v);
void PutFixed64(ByteSink* sink, uint64_t v);
/// IEEE-754 bit pattern as fixed64 (exact round trip, unlike text).
void PutDouble(ByteSink* sink, double v);
void PutVarint64(ByteSink* sink, uint64_t v);
/// Varint length prefix + raw bytes.
void PutLengthPrefixed(ByteSink* sink, std::string_view data);

/// The fixed-width decodings of a buffer holding at least 4 (8) bytes.
uint32_t DecodeFixed32(const char* p);
uint64_t DecodeFixed64(const char* p);

Status GetFixed8(ByteSource* src, uint8_t* v);
Status GetFixed32(ByteSource* src, uint32_t* v);
Status GetFixed64(ByteSource* src, uint64_t* v);
Status GetDouble(ByteSource* src, double* v);
Status GetVarint64(ByteSource* src, uint64_t* v);
Status GetLengthPrefixed(ByteSource* src, std::string* out);

/// Guards an element-count read from untrusted input: fails with Corruption
/// unless `count * min_elem_bytes` fits in the source's remaining byte
/// budget. Call before any count-sized allocation.
Status CheckCount(uint64_t count, size_t min_elem_bytes,
                  const ByteSource& src, const char* what);

}  // namespace xcluster

#endif  // XCLUSTER_COMMON_IO_BYTES_H_
