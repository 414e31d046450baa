#include "net/frame.h"

#include <cstring>

#include "common/io/bytes.h"
#include "common/io/crc32c.h"

namespace xcluster {
namespace net {

namespace {

bool KnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kInstallReply);
}

}  // namespace

void EncodeFrame(const Frame& frame, std::string* out) {
  StringSink sink(out);
  const size_t header_start = out->size();
  PutFixed32(&sink, static_cast<uint32_t>(frame.payload.size()));
  PutFixed8(&sink, static_cast<uint8_t>(frame.type));
  PutFixed8(&sink, frame.flags);
  PutFixed8(&sink, 0);  // reserved
  PutFixed8(&sink, 0);
  // CRC over [payload_len, type, flags, reserved] + payload; the CRC field
  // itself is appended after being computed, then the payload.
  uint32_t crc = crc32c::Value(out->data() + header_start, 8);
  crc = crc32c::Extend(crc, frame.payload.data(), frame.payload.size());
  PutFixed32(&sink, crc32c::Mask(crc));
  sink.Append(frame.payload);
}

void FrameDecoder::Feed(const void* data, size_t n) {
  // Reclaim the consumed prefix before growing, so a long-lived connection
  // doesn't accrete every frame it ever received.
  if (consumed_ > 0) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(static_cast<const char*>(data), n);
}

Status FrameDecoder::Next(Frame* out, bool* have_frame) {
  *have_frame = false;
  if (poisoned_) {
    return Status::Corruption("frame decoder poisoned by earlier error");
  }
  const size_t available = buffer_.size() - consumed_;
  if (available < 4) return Status::OK();
  const char* base = buffer_.data() + consumed_;
  const uint32_t payload_len = DecodeFixed32(base);
  if (payload_len > max_payload_bytes_) {
    poisoned_ = true;
    return Status::Corruption(
        "frame payload of " + std::to_string(payload_len) +
        " bytes exceeds the " + std::to_string(max_payload_bytes_) +
        "-byte limit");
  }
  if (available < kFrameHeaderBytes + payload_len) return Status::OK();

  const uint8_t type = static_cast<uint8_t>(base[4]);
  const uint8_t flags = static_cast<uint8_t>(base[5]);
  const uint8_t reserved0 = static_cast<uint8_t>(base[6]);
  const uint8_t reserved1 = static_cast<uint8_t>(base[7]);
  const uint32_t stored_crc = crc32c::Unmask(DecodeFixed32(base + 8));
  uint32_t crc = crc32c::Value(base, 8);
  crc = crc32c::Extend(crc, base + kFrameHeaderBytes, payload_len);
  if (crc != stored_crc) {
    poisoned_ = true;
    return Status::Corruption("frame checksum mismatch");
  }
  if (reserved0 != 0 || reserved1 != 0) {
    poisoned_ = true;
    return Status::Corruption("frame reserved field is nonzero");
  }
  if (!KnownFrameType(type)) {
    poisoned_ = true;
    return Status::Corruption("unknown frame type " + std::to_string(type));
  }

  out->type = static_cast<FrameType>(type);
  out->flags = flags;
  out->payload.assign(base + kFrameHeaderBytes, payload_len);
  consumed_ += kFrameHeaderBytes + payload_len;
  *have_frame = true;
  return Status::OK();
}

}  // namespace net
}  // namespace xcluster
