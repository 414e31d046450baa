#ifndef XCLUSTER_NET_SERVER_H_
#define XCLUSTER_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "service/harness.h"
#include "service/service.h"

namespace xcluster {
namespace net {

/// Tuning knobs for the socket front end (docs/SERVING.md "Remote
/// transport").
struct NetServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; NetServer::port() reports the pick

  /// Concurrent connection cap. A connection beyond it is greeted with a
  /// kError frame and closed — load is shed at accept, not buffered.
  size_t max_connections = 64;

  /// Per-frame payload cap, enforced by the decoder before any payload is
  /// buffered (see FrameDecoder).
  size_t max_frame_bytes = kDefaultMaxPayloadBytes;

  /// Cap on the declared size of a chunked kInstall snapshot. The first
  /// chunk's `total_bytes` is checked against this before any chunk is
  /// buffered, so a peer cannot commit the server to an allocation it
  /// never backs with real bytes (chunk_count alone bounds nothing — a
  /// uint32 count times the frame cap is petabytes).
  size_t max_install_bytes = kDefaultMaxInstallBytes;

  /// Per-connection pending-write cap. A client that stops reading while
  /// responses accumulate past this is disconnected rather than allowed
  /// to pin server memory.
  size_t max_write_buffer_bytes = 64u << 20;

  /// Default per-request deadline applied to batch frames that carry none
  /// (nanoseconds, wired into the Executor's deadline support; 0 = none).
  uint64_t default_deadline_ns = 0;

  /// How long a graceful drain waits for responses to flush before
  /// force-closing the stragglers.
  uint64_t drain_timeout_ms = 5000;

  /// Deterministic trace-sampling rate for batches that arrive without a
  /// client sampling decision (hash of the trace id vs. this rate; see
  /// telemetry::SampleTrace). Every batch gets a trace id — server-
  /// generated when the client sent none — so flight records are always
  /// identifiable; this rate only governs span recording. A client that
  /// sent sampled=1 is honored regardless.
  double trace_sample = 0.0;
};

/// Gives a decoded batch the trace context it flies under, for the daemon
/// and the router alike: a minted trace id when the client sent none (so
/// every flight record is addressable), the client's sampling decision or
/// else `trace_sample`'s, and the request's wire size.
void StampBatchTrace(size_t wire_bytes, double trace_sample,
                     BatchOptions* options);

/// Router-mode dispatch: the cluster router implements this to reuse
/// NetServer's poll machinery. NetServer keeps everything both modes do
/// alike (the hello, whose ack names the role "router", goodbye, `stats`
/// frames and kInstall reassembly) and hands over the rest.
///
/// Both calls run on the event-loop thread: implementations must not
/// block (hand work to their own pool) and reply asynchronously through
/// NetServer::PostFrames, which is safe from any thread. Replies posted
/// for a connection that has gone are dropped silently.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;

  /// One decoded kCommand, kBatch or kFlight frame from connection
  /// `conn_id` (`peer` is its remote address).
  virtual void OnFrame(uint64_t conn_id, const std::string& peer,
                       Frame frame) = 0;

  /// A complete kInstall snapshot, reassembled and CRC-checked; the
  /// handler owes the connection its kInstallReply.
  virtual void OnInstall(uint64_t conn_id, InstallSnapshot snapshot) = 0;
};

/// Socket front end for an EstimationService: a single-threaded poll event
/// loop with non-blocking accept and per-connection read/write buffers and
/// frame state machines. Single-line commands run through the same
/// ServiceHarness dispatch as `serve --stdin`; batch frames carry packed
/// payloads into EstimateBatch, whose worker pool provides the
/// parallelism. Responses are written non-blocking and buffered, so a
/// slow-reading client never stalls the loop (only itself).
///
/// Lifecycle: Start() binds, listens, and spawns the loop thread (bind
/// and listen failures come back with strerror context). RequestDrain()
/// — safe from any thread and from signal handlers via drain_fd() — stops
/// accepting, finishes in-flight requests, flushes and closes every
/// connection, then exits the loop. AwaitTermination() joins.
class NetServer {
 public:
  /// Lifetime counters (atomics; readable from any thread, also exported
  /// through telemetry as net.* when compiled in).
  struct Stats {
    uint64_t accepted = 0;            ///< connections admitted
    uint64_t rejected = 0;            ///< shed at the connection cap
    uint64_t frames_rx = 0;
    uint64_t frames_tx = 0;
    uint64_t bytes_rx = 0;
    uint64_t bytes_tx = 0;
    uint64_t protocol_errors = 0;     ///< bad frames / handshake violations
    uint64_t midframe_disconnects = 0;///< peer vanished inside a frame
    uint64_t write_overflows = 0;     ///< slow clients disconnected
    uint64_t sheds = 0;               ///< batches refused by admission
  };

  /// `service` may be nullptr when a FrameHandler supplies the dispatch
  /// (router mode); with a null service and no handler every content
  /// frame is answered with an error.
  NetServer(EstimationService* service, NetServerOptions options);

  /// Installs the router-mode dispatch hook, which also makes the hello
  /// ack's role "router". Must be called before Start().
  void set_frame_handler(FrameHandler* handler) { handler_ = handler; }

  /// Queues `frames` for connection `conn_id` and wakes the event loop to
  /// write them; with `close` the connection is closed after the flush.
  /// Thread-safe; frames for an already-gone connection are dropped.
  void PostFrames(uint64_t conn_id, std::vector<Frame> frames,
                  bool close = false);

  /// Drains and joins.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds host:port, starts listening, and spawns the event loop.
  Status Start();

  /// The bound port (meaningful after Start; resolves port 0).
  uint16_t port() const { return port_; }

  /// Begins a graceful drain. Callable from any thread; idempotent.
  void RequestDrain();

  /// Write end of the wake pipe: a signal handler may write(2) one byte
  /// here to trigger the same graceful drain (write is async-signal-safe;
  /// RequestDrain itself allocates nothing either, but exposing the fd
  /// keeps handlers down to a single syscall).
  int drain_fd() const { return wake_write_.get(); }

  /// Blocks until the event loop has exited (i.e. the drain completed).
  void AwaitTermination();

  /// RequestDrain + AwaitTermination.
  void Stop();

  Stats stats() const;

  /// Currently open connections; returns to 0 after a drain and after
  /// every fault-suite disconnect.
  size_t active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    ScopedFd fd;
    FrameDecoder decoder;
    std::string outbuf;
    size_t outbuf_pos = 0;
    bool hello_done = false;
    bool closing = false;  ///< flush pending writes, then close
    uint64_t id = 0;       ///< stable handle for PostFrames/FrameHandler
    std::string peer;      ///< remote address "host:port" (best effort)
    InstallAssembler install;  ///< in-progress chunked kInstall push
  };

  /// Completed work queued from other threads (router pool completions),
  /// drained by the event loop on a wake.
  struct PostedReply {
    uint64_t conn_id = 0;
    std::vector<Frame> frames;
    bool close = false;
  };

  void Loop();
  void AcceptPending(int listen_fd);
  /// Reads available bytes and dispatches complete frames. Returns false
  /// when the connection should be destroyed immediately.
  bool ReadAndDispatch(Connection* conn);
  /// Flushes buffered writes. Returns false when the connection should be
  /// destroyed (flushed a closing connection, write error, or overflow).
  bool FlushWrites(Connection* conn);
  void DispatchFrame(Connection* conn, Frame&& frame);
  void HandleInstall(Connection* conn, Frame&& frame);
  void SendFrame(Connection* conn, FrameType type, std::string payload);
  void SendError(Connection* conn, const std::string& message);
  void BeginDrain();
  void DrainPostedReplies();
  void SetConnectionGauge();

  EstimationService* service_;
  NetServerOptions options_;
  ServiceHarness harness_;
  FrameHandler* handler_ = nullptr;

  std::mutex posted_mu_;
  std::vector<PostedReply> posted_;
  uint64_t next_conn_id_ = 1;  // loop-thread only

  ScopedFd listen_fd_;
  ScopedFd wake_read_;
  ScopedFd wake_write_;
  uint16_t port_ = 0;
  std::thread loop_thread_;
  std::mutex join_mu_;
  std::atomic<bool> started_{false};

  std::list<Connection> connections_;
  bool draining_ = false;          ///< loop-thread state
  uint64_t drain_deadline_ns_ = 0;

  std::atomic<size_t> active_connections_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> frames_rx_{0};
  std::atomic<uint64_t> frames_tx_{0};
  std::atomic<uint64_t> bytes_rx_{0};
  std::atomic<uint64_t> bytes_tx_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> midframe_disconnects_{0};
  std::atomic<uint64_t> write_overflows_{0};
  std::atomic<uint64_t> sheds_{0};
};

}  // namespace net
}  // namespace xcluster

#endif  // XCLUSTER_NET_SERVER_H_
