#ifndef XCLUSTER_NET_CLIENT_H_
#define XCLUSTER_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace xcluster {
namespace net {

/// Client-side retry contract for retryable (Unavailable) refusals:
/// connection-capacity rejections and admission sheds. Non-retryable
/// errors (corruption, I/O, invalid requests) never retry.
struct RetryOptions {
  /// Total tries including the first; 1 disables retry.
  int max_attempts = 1;

  /// Exponential backoff base: attempt k (1-based failures) waits
  /// initial << (k-1) ms, capped at max_backoff_ms — unless the server
  /// sent a retry-after hint, which takes precedence as the base.
  uint64_t initial_backoff_ms = 25;
  uint64_t max_backoff_ms = 2000;

  /// Seed for the deterministic jitter stream (xoshiro256**); jitter
  /// multiplies the base by a uniform factor in [0.5, 1.0] so a thundering
  /// herd of shed clients decorrelates.
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
};

/// The delay before retry number `attempt` (1-based count of failures so
/// far): the server's `retry_after_ms` hint when nonzero, else the
/// exponential schedule from `options`, jittered into [0.5x, 1.0x].
/// Exposed for tests; NetClient::Batch and ConnectWithRetry use it.
uint64_t BackoffDelayMs(const RetryOptions& options, int attempt,
                        uint64_t retry_after_ms, uint64_t jitter_draw);

struct NetClientOptions {
  /// Per-read stall budget (SO_RCVTIMEO). A server that stops responding
  /// surfaces as an IOError instead of hanging the caller. 0 disables.
  uint64_t recv_timeout_ms = 30000;

  /// connect(2) budget: an unreachable or black-holed server surfaces as
  /// DeadlineExceeded instead of hanging for the kernel SYN-retry budget.
  /// 0 = unbounded blocking connect.
  uint64_t connect_timeout_ms = 10000;

  /// Frame payload cap for responses (mirrors the server-side decoder).
  size_t max_frame_bytes = kDefaultMaxPayloadBytes;

  /// Applied by Batch() to admission sheds and by ConnectWithRetry() to
  /// capacity rejections.
  RetryOptions retry;
};

/// Blocking client for the NetServer wire protocol: connects, performs
/// the hello handshake, then exchanges one frame per request.
/// Not thread-safe; use one client per thread (connections are cheap and
/// the server multiplexes).
class NetClient {
 public:
  /// Connects and completes the handshake. Failures carry strerror or
  /// handshake context; an ack naming any version but kProtocolVersion is
  /// Corruption. A connection-capacity rejection comes back as
  /// Unavailable (retryable); a connect timeout as DeadlineExceeded.
  static Result<NetClient> Connect(const std::string& host, uint16_t port,
                                   NetClientOptions options = {});

  /// Connect with the options' retry policy applied to Unavailable
  /// (capacity) rejections: bounded attempts with exponential backoff +
  /// jitter. Other failures return immediately.
  static Result<NetClient> ConnectWithRetry(const std::string& host,
                                            uint16_t port,
                                            NetClientOptions options = {});

  NetClient(NetClient&&) = default;
  NetClient& operator=(NetClient&&) = default;

  /// Closes with a goodbye handshake if still connected.
  ~NetClient();

  /// Sends one line of the harness grammar (no newline) and returns the
  /// response text. Batches must go through Batch() — the server rejects
  /// `batch` command lines on this transport.
  Result<std::string> Command(const std::string& line);

  /// Sends a packed batch and decodes the reply. Estimates come back as
  /// IEEE-754 bit patterns: bit-identical to running the same batch
  /// in-process.
  ///
  /// When the server sheds the batch (kShed frame), the connection
  /// stays open and the client retries per the options' RetryOptions,
  /// honoring the server's retry-after hint with jittered backoff. Once
  /// attempts are exhausted the Unavailable status is returned and
  /// last_retry_after_ms() carries the hint.
  Result<BatchReplyFrame> Batch(const std::string& collection,
                                const std::vector<std::string>& queries,
                                const BatchOptions& options = {});

  /// Typed metrics scrape: the server's metrics snapshot rendered in
  /// `format` (Prometheus text, JSON, or the harness text table).
  Result<std::string> StatsScrape(StatsFormat format);

  /// Flight-recorder dump: the server's newest `max_records` batch
  /// completion records as JSON (0 = the whole retained ring).
  Result<std::string> FlightDump(uint32_t max_records = 0);

  /// Pushes an XCSF image into the server's catalog under `name`, chunked
  /// to fit the frame payload cap, CRC'd over the whole byte stream. A
  /// nonzero `generation` pins the store generation the snapshot lands
  /// under (how a router keeps a fleet in lockstep); 0 lets the server
  /// assign. `chunk_bytes` 0 picks a default. Returns the server's install
  /// outcome.
  Result<InstallReplyFrame> Install(const std::string& name,
                                    const std::string& bytes,
                                    uint64_t generation = 0,
                                    size_t chunk_bytes = 0);

  /// Trace id echoed by the last successful Batch() (server-assigned when
  /// the request carried none); 0 before the first.
  uint64_t last_trace_id() const { return last_trace_id_; }

  /// Retry-after hint (ms) from the most recent shed, 0 if none.
  uint64_t last_retry_after_ms() const { return last_retry_after_ms_; }

  /// Attempts consumed by the last Batch() call (1 = no retry needed).
  int last_attempts() const { return last_attempts_; }

  /// Orderly close (kGoodbye handshake). Idempotent; the destructor calls
  /// it best-effort.
  Status Close();

  /// Server self-description from the hello ack ("replica" | "router"
  /// and a free-form server string).
  const std::string& server_role() const { return server_role_; }
  const std::string& server_description() const { return server_description_; }

  bool connected() const { return fd_.valid(); }

 private:
  NetClient(ScopedFd fd, NetClientOptions options)
      : fd_(std::move(fd)), options_(options),
        decoder_(options.max_frame_bytes) {}

  /// Writes one frame.
  Status SendFrame(FrameType type, const std::string& payload);

  /// Blocks until one complete frame arrives. A kError frame from the
  /// server is surfaced as a non-OK Status (Corruption for protocol
  /// errors carry the server's message).
  Status ReadFrame(Frame* frame);

  /// Sends `request`, expects a reply of `want` (kError → error status;
  /// kShed → Unavailable without closing the connection).
  Status RoundTrip(FrameType request_type, const std::string& payload,
                   FrameType want, Frame* reply);

  ScopedFd fd_;
  NetClientOptions options_;
  FrameDecoder decoder_;
  std::string server_role_;
  std::string server_description_;
  uint64_t last_retry_after_ms_ = 0;
  uint64_t last_trace_id_ = 0;
  int last_attempts_ = 0;
};

}  // namespace net
}  // namespace xcluster

#endif  // XCLUSTER_NET_CLIENT_H_
