#ifndef XCLUSTER_NET_FRAME_H_
#define XCLUSTER_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace xcluster {
namespace net {

/// Frame types carried by the wire protocol (docs/SERVING.md "Remote
/// transport"). Values are part of the wire format; never renumber.
enum class FrameType : uint8_t {
  kHello = 1,      ///< client -> server: magic + supported version range
  kHelloAck = 2,   ///< server -> client: protocol version + server role
  kCommand = 3,    ///< one line of the harness grammar (no trailing newline)
  kResponse = 4,   ///< full text response to a kCommand (may be multi-line)
  kBatch = 5,      ///< packed batch request (see protocol.h)
  kBatchReply = 6, ///< packed batch response
  kError = 7,      ///< protocol-level failure; the sender closes after this
  kGoodbye = 8,    ///< orderly close handshake (either direction)
  kShed = 9,       ///< server -> client: batch shed by admission control
                   ///  (carries retry-after; the connection stays open —
                   ///  unlike kError this is not a failure of the stream,
                   ///  just of the one request)
  kStats = 10,     ///< client -> server: typed metrics scrape request
                   ///  (format byte: prometheus / json / harness text)
  kStatsReply = 11,///< server -> client: rendered metrics text
  kFlight = 12,    ///< client -> server: flight-recorder dump request
                   ///  (max-records count; 0 = whole ring)
  kFlightReply = 13,///< server -> client: flight ring as JSON
  kInstall = 14,   ///< client -> server: one chunk of an XCSF image being
                   ///  pushed for installation (replication; see
                   ///  protocol.h InstallFrame). The receiver replies
                   ///  only after the final chunk.
  kInstallReply = 15,///< server -> client: install outcome + the generation
                   ///  the snapshot was installed under
};

/// One decoded frame. `payload` is opaque at this layer; protocol.h gives
/// it structure per type.
struct Frame {
  FrameType type = FrameType::kError;
  uint8_t flags = 0;
  std::string payload;
};

/// Frame wire layout (all integers little-endian):
///
///   u32  payload_len                   ; bytes of payload only
///   u8   type
///   u8   flags
///   u16  reserved (must be 0)
///   u32  masked CRC32C                 ; over [payload_len..reserved] + payload
///   u8[payload_len] payload
///
/// The CRC covers the length field too, so a bit flip anywhere outside the
/// CRC field itself is detected (a flip inside the CRC field trivially
/// mismatches). The stored CRC is masked (crc32c::Mask) because frames are
/// routinely embedded in CRC-summed captures, same rationale as the `.xcsf`
/// section checksums.
inline constexpr size_t kFrameHeaderBytes = 12;

/// Default cap on a single frame's payload. A 10k-query batch packs well
/// under 1 MiB; 16 MiB leaves generous room without letting one peer make
/// the server buffer arbitrary amounts before the CRC check.
inline constexpr size_t kDefaultMaxPayloadBytes = 16u << 20;

/// Appends the encoded frame to `*out`.
void EncodeFrame(const Frame& frame, std::string* out);

/// Incremental frame decoder: feed network bytes in as they arrive, pop
/// complete frames out. The declared payload length is validated against
/// `max_payload_bytes` as soon as the header prefix is available — an
/// oversized frame is rejected before any payload is buffered or allocated
/// (the same reject-before-allocate discipline as the `.xcsf` reader).
///
/// After Next returns an error the decoder is poisoned: the stream offset
/// is unrecoverable, so the connection must be torn down.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload_bytes = kDefaultMaxPayloadBytes)
      : max_payload_bytes_(max_payload_bytes) {}

  /// Appends `n` raw bytes to the internal reassembly buffer.
  void Feed(const void* data, size_t n);

  /// Pops the next complete frame into `*out` and sets `*have_frame`.
  /// `*have_frame` false with an OK status means "need more bytes".
  /// Corruption: bad CRC, nonzero reserved field, unknown frame type, or a
  /// declared payload length over the cap.
  Status Next(Frame* out, bool* have_frame);

  /// Bytes buffered but not yet consumed by a complete frame. Non-zero at
  /// connection close means the peer vanished mid-frame.
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  size_t max_payload_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  ///< prefix of buffer_ already handed out as frames
  bool poisoned_ = false;
};

}  // namespace net
}  // namespace xcluster

#endif  // XCLUSTER_NET_FRAME_H_
