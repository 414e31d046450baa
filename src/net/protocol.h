#ifndef XCLUSTER_NET_PROTOCOL_H_
#define XCLUSTER_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/frame.h"
#include "service/service.h"

namespace xcluster {
namespace net {

/// The one XNET protocol version. Every client, router and replica is
/// built from this tree, so nothing is negotiated down: the hello still
/// carries a [min, max] range, and a range that does not contain this
/// version is refused with an error frame before any other payload is
/// exchanged.
inline constexpr uint32_t kProtocolVersion = 5;

/// Leading magic of a kHello payload; rejects non-protocol peers (e.g. an
/// HTTP client probing the port) before any further decoding.
inline constexpr char kHelloMagic[4] = {'X', 'N', 'E', 'T'};

/// kHello payload: magic + the sender's supported [min, max] version range.
struct HelloRequest {
  uint32_t min_version = kProtocolVersion;
  uint32_t max_version = kProtocolVersion;
};

std::string EncodeHello(const HelloRequest& hello);
Result<HelloRequest> DecodeHello(const std::string& payload);

/// kProtocolVersion when the peer's range contains it; InvalidArgument
/// ("no common protocol version") otherwise.
Result<uint32_t> NegotiateVersion(const HelloRequest& peer);

/// kHelloAck payload: the protocol version and the server's
/// self-description, so a peer can tell a replica from a router.
struct HelloAckFrame {
  uint32_t version = kProtocolVersion;
  std::string role;    ///< "replica" | "router"
  std::string server;  ///< free-form description
};

std::string EncodeHelloAck(const HelloAckFrame& ack);
Result<HelloAckFrame> DecodeHelloAck(const std::string& payload);

/// kBatch payload: one whole batch request packed into a single frame —
/// collection name, options, and every query string — so a 10k-query batch
/// crosses the wire as one frame, not 10k protocol lines.
struct BatchRequestFrame {
  std::string collection;
  BatchOptions options;
  std::vector<std::string> queries;
};

/// The flags byte holds explain (bit0), the bulk lane (bit1) and, when
/// the options carry a nonzero trace id, a trace context (bit2) whose id
/// and sampled fields follow it.
std::string EncodeBatchRequest(const BatchRequestFrame& request);
/// Count-vs-byte-budget validated: the declared query count is checked
/// against the payload size before the vector is reserved.
Result<BatchRequestFrame> DecodeBatchRequest(const std::string& payload);

/// kShed payload: the admission layer refused the batch. The
/// connection remains usable; the client should back off `retry_after_ms`
/// before resubmitting.
struct ShedFrame {
  uint32_t retry_after_ms = 0;
  std::string message;  ///< Status message (quota/deadline context)
};

std::string EncodeShed(const ShedFrame& shed);
Result<ShedFrame> DecodeShed(const std::string& payload);

/// kBatchReply payload: per-query outcomes in slot order plus the batch's
/// wall time and ok/failed counts. Estimates travel as IEEE-754 bit
/// patterns (PutDouble), so a remote batch is bit-identical to the same
/// batch run in-process.
struct BatchReplyItem {
  bool ok = false;
  double estimate = 0.0;
  std::string explanation;  ///< only when the request asked for explain
  std::string error;        ///< Status::ToString() when !ok
};

struct BatchReplyFrame {
  std::vector<BatchReplyItem> items;
  BatchStats stats;  ///< wall_ns, ok and failed cross the wire
  /// Trace id echo: the id under which the server filed the batch in its
  /// flight ring, minted by the server when the request carried none.
  uint64_t trace_id = 0;
};

/// The daemon's reply to a batch: `batch` as a BatchReplyFrame (the
/// explanations only when `explain`), written by EncodeBatchReplyFrame.
/// `trace_id` is the echo field that ends every reply.
std::string EncodeBatchReply(const BatchResult& batch, bool explain,
                             uint64_t trace_id = 0);
Result<BatchReplyFrame> DecodeBatchReply(const std::string& payload);

/// kInstall payload: one chunk of an XCSF synopsis image being
/// pushed to the receiver's SynopsisStore (replication). A snapshot
/// crosses as `chunk_count` kInstall frames sharing the same name,
/// generation, total size, and whole-snapshot CRC; chunks must arrive in
/// order on one connection. The receiver reassembles, verifies the CRC
/// against the complete byte stream, validates the image (its own CRCs
/// verify again inside), installs — pinning `generation` when nonzero, store-
/// assigned otherwise — and answers the final chunk with kInstallReply.
struct InstallFrame {
  std::string name;          ///< collection to install under
  uint64_t generation = 0;   ///< pinned store generation (0 = auto-assign)
  uint64_t total_bytes = 0;  ///< size of the whole encoded snapshot
  uint32_t chunk_index = 0;  ///< 0-based position of this chunk
  uint32_t chunk_count = 0;  ///< total chunks (>= 1)
  uint32_t snapshot_crc = 0; ///< masked CRC32C over the complete snapshot
  std::string chunk;         ///< this chunk's bytes
};

std::string EncodeInstall(const InstallFrame& install);
Result<InstallFrame> DecodeInstall(const std::string& payload);

/// kInstallReply payload: outcome of a completed install push.
struct InstallReplyFrame {
  bool ok = false;
  uint64_t generation = 0;  ///< generation the snapshot landed under
  std::string message;      ///< error context, or per-replica fan-out report
};

std::string EncodeInstallReply(const InstallReplyFrame& reply);
Result<InstallReplyFrame> DecodeInstallReply(const std::string& payload);

/// Default cap on the declared size of a chunked kInstall snapshot.
inline constexpr size_t kDefaultMaxInstallBytes = 256u << 20;

/// A snapshot reassembled from a complete kInstall chunk sequence.
struct InstallSnapshot {
  std::string name;
  uint64_t generation = 0;  ///< pinned store generation (0 = auto-assign)
  std::string bytes;
};

/// One connection's kInstall reassembly, shared by the daemon and the
/// router. The two failure classes are reported differently: Add rejects
/// a broken chunk sequence, which the receiver answers with a closing
/// kError frame; Take rejects a completed sequence whose bytes are not
/// the declared snapshot, which the receiver answers with a kInstallReply
/// with ok clear, as it does a snapshot that fails validation.
class InstallAssembler {
 public:
  /// The first chunk's declared total is checked against chunk_count x
  /// `max_frame_bytes` and against `max_install_bytes` before any chunk
  /// is buffered, so a peer cannot commit the receiver to an allocation
  /// it never backs with real bytes.
  explicit InstallAssembler(size_t max_frame_bytes = kDefaultMaxPayloadBytes,
                            size_t max_install_bytes = kDefaultMaxInstallBytes)
      : max_frame_bytes_(max_frame_bytes),
        max_install_bytes_(max_install_bytes) {}

  /// Decodes and appends one kInstall payload; `*complete` is set once the
  /// final chunk is in. Fails when the payload does not decode, a sequence
  /// starts with a chunk other than 0, the declared total exceeds what the
  /// chunks can carry or the install cap, a header field or the chunk
  /// index departs from the sequence, or the chunks overflow the declared
  /// total. A failure resets the assembler.
  Status Add(const std::string& payload, bool* complete);

  /// After Add reported `complete`: hands out the snapshot and resets the
  /// assembler. Corruption when the reassembled bytes fall short of the
  /// declared total or fail the whole-snapshot CRC.
  Result<InstallSnapshot> Take();

 private:
  void Reset();

  size_t max_frame_bytes_;
  size_t max_install_bytes_;
  InstallFrame header_;  ///< first chunk's fields; empty name = none open
  uint32_t next_chunk_ = 0;
  std::string buffer_;
};

/// The one writer of the kBatchReply layout: a varint slot count; per slot
/// an ok byte, then the estimate's bits and the length-prefixed
/// explanation, or the length-prefixed error; the fixed64 wall time,
/// varint ok and failed counts and the fixed64 trace id. The router
/// forwards or merges replica replies through it, so an estimate never
/// passes through text.
std::string EncodeBatchReplyFrame(const BatchReplyFrame& reply);

/// kStats payload: which rendering of the metrics snapshot to return
/// in the kStatsReply text payload.
enum class StatsFormat : uint8_t {
  kPrometheus = 0,
  kJson = 1,
  kText = 2,
};

std::string EncodeStatsRequest(StatsFormat format);
Result<StatsFormat> DecodeStatsRequest(const std::string& payload);

/// kFlight payload: at most `max_records` newest flight records
/// (0 = the whole retained ring). The kFlightReply payload is the
/// FlightRecorder::ToJson rendering.
std::string EncodeFlightRequest(uint32_t max_records);
Result<uint32_t> DecodeFlightRequest(const std::string& payload);

/// Renders a decoded reply in the exact text format the stdio harness
/// prints for `batch`, so remote output can be diffed line-for-line
/// against `serve --stdin` (only the header's us= differs per run).
std::string FormatBatchReply(const BatchReplyFrame& reply, bool explain);

}  // namespace net
}  // namespace xcluster

#endif  // XCLUSTER_NET_PROTOCOL_H_
