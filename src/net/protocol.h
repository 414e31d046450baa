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

/// Protocol versions this build can speak. The hello handshake negotiates
/// the highest version inside both peers' ranges. v1 is the original
/// command/batch protocol; v2 adds the kShed typed error frame (admission
/// shed + retry-after, connection stays open) and the priority-lane bit in
/// the batch flags byte. A v2 server never sends kShed to a v1 client —
/// it falls back to a kError frame — so old clients keep working. v3 adds
/// the trace-context batch extension (flags bit2 + trace id/sampled fields,
/// echoed on the reply) and the typed kStats/kFlight observability frames;
/// v2/v1 peers never see any of it. v4 adds the cluster layer: the
/// kInstall/kInstallReply replication frames and server metadata
/// (role + description) appended to the hello ack so a router can tell
/// replicas from other routers; v3-and-older peers get the bare ack.
inline constexpr uint32_t kProtocolMinVersion = 1;
inline constexpr uint32_t kProtocolMaxVersion = 4;

/// First version with the kShed frame and the batch lane flag.
inline constexpr uint32_t kProtocolVersionQos = 2;

/// First version with trace contexts and the kStats/kFlight frames.
inline constexpr uint32_t kProtocolVersionTrace = 3;

/// First version with synopsis replication (kInstall/kInstallReply) and
/// hello-ack server metadata.
inline constexpr uint32_t kProtocolVersionCluster = 4;

/// Leading magic of a kHello payload; rejects non-protocol peers (e.g. an
/// HTTP client probing the port) before any further decoding.
inline constexpr char kHelloMagic[4] = {'X', 'N', 'E', 'T'};

/// kHello payload: magic + the sender's supported [min, max] version range.
struct HelloRequest {
  uint32_t min_version = kProtocolMinVersion;
  uint32_t max_version = kProtocolMaxVersion;
};

std::string EncodeHello(const HelloRequest& hello);
Result<HelloRequest> DecodeHello(const std::string& payload);

/// Picks the version both ranges support (the highest), or InvalidArgument
/// when the ranges are disjoint.
Result<uint32_t> NegotiateVersion(const HelloRequest& peer);

/// kHelloAck payload: the negotiated version, plus — iff the negotiated
/// version is v4+ — the server's self-description (role + free-form
/// server string). The v3-and-older ack is exactly the fixed32 version;
/// those decoders reject trailing bytes, so the metadata is appended only
/// when the peer negotiated v4.
struct HelloAckFrame {
  uint32_t version = 0;
  std::string role;    ///< "replica" | "router" (empty from a pre-v4 server)
  std::string server;  ///< free-form description (empty from a pre-v4 server)
};

std::string EncodeHelloAck(uint32_t version);
Result<uint32_t> DecodeHelloAck(const std::string& payload);

/// v4 ack with metadata. Only valid once the hello negotiated v4+.
std::string EncodeHelloAckV4(const HelloAckFrame& ack);

/// Decodes either ack form: metadata fields are filled when present
/// (v4 server) and left empty otherwise.
Result<HelloAckFrame> DecodeHelloAckFrame(const std::string& payload);

/// kBatch payload: one whole batch request packed into a single frame —
/// collection name, options, and every query string — so a 10k-query batch
/// crosses the wire as one frame, not 10k protocol lines.
struct BatchRequestFrame {
  std::string collection;
  BatchOptions options;
  std::vector<std::string> queries;
};

/// `version` gates the v2 lane bit: a v1 encoder always writes the plain
/// 0/1 explain byte a v1 server expects (the bulk tag is dropped, which
/// only costs scheduling priority, never correctness).
std::string EncodeBatchRequest(const BatchRequestFrame& request,
                               uint32_t version = kProtocolMaxVersion);
/// Count-vs-byte-budget validated: the declared query count is checked
/// against the payload size before the vector is reserved.
Result<BatchRequestFrame> DecodeBatchRequest(const std::string& payload);

/// kShed payload (v2+): the admission layer refused the batch. The
/// connection remains usable; the client should back off `retry_after_ms`
/// before resubmitting.
struct ShedFrame {
  uint32_t retry_after_ms = 0;
  std::string message;  ///< Status message (quota/deadline context)
};

std::string EncodeShed(const ShedFrame& shed);
Result<ShedFrame> DecodeShed(const std::string& payload);

/// kBatchReply payload: per-query outcomes in slot order plus the batch
/// aggregate stats. Estimates travel as IEEE-754 bit patterns (PutDouble),
/// so a remote batch is bit-identical to the same batch run in-process.
struct BatchReplyItem {
  bool ok = false;
  double estimate = 0.0;
  uint64_t latency_ns = 0;
  std::string explanation;  ///< only when the request asked for explain
  std::string error;        ///< Status::ToString() when !ok
};

struct BatchReplyFrame {
  std::vector<BatchReplyItem> items;
  BatchStats stats;
  /// Trace id echo (v3+): nonzero iff the request carried a trace context,
  /// so a client learns the id under which the server filed the batch in
  /// its flight ring even when the server generated it.
  uint64_t trace_id = 0;
};

/// `trace_id` nonzero appends the v3 trailing echo — pass 0 for v1/v2
/// peers, whose decoder treats trailing bytes as corruption.
std::string EncodeBatchReply(const BatchResult& batch, bool explain,
                             uint64_t trace_id = 0);
Result<BatchReplyFrame> DecodeBatchReply(const std::string& payload);

/// kInstall payload (v4+): one chunk of an XCSF synopsis image being
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

/// Re-encodes an already-decoded reply byte-for-byte compatibly with
/// EncodeBatchReply — estimates keep their exact IEEE-754 bit patterns —
/// so a router can merge or forward replica replies without an estimate
/// ever passing through text. The trailing v3 trace echo is appended iff
/// `reply.trace_id` is nonzero (zero it for v1/v2 clients).
std::string EncodeBatchReplyFrame(const BatchReplyFrame& reply);

/// kStats payload (v3+): which rendering of the metrics snapshot to return
/// in the kStatsReply text payload.
enum class StatsFormat : uint8_t {
  kPrometheus = 0,
  kJson = 1,
  kText = 2,
};

std::string EncodeStatsRequest(StatsFormat format);
Result<StatsFormat> DecodeStatsRequest(const std::string& payload);

/// kFlight payload (v3+): at most `max_records` newest flight records
/// (0 = the whole retained ring). The kFlightReply payload is the
/// FlightRecorder::ToJson rendering.
std::string EncodeFlightRequest(uint32_t max_records);
Result<uint32_t> DecodeFlightRequest(const std::string& payload);

/// Renders a decoded reply in the exact text format the stdio harness
/// prints for `batch`, so remote output can be diffed line-for-line
/// against `serve --stdin` (only the us= latency fields differ per run).
std::string FormatBatchReply(const BatchReplyFrame& reply, bool explain);

}  // namespace net
}  // namespace xcluster

#endif  // XCLUSTER_NET_PROTOCOL_H_
