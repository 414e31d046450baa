#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>
#include <vector>

#include "common/telemetry/telemetry.h"
#include "net/protocol.h"

namespace xcluster {
namespace net {

namespace {

/// Best-effort "host:port" for an accepted peer (empty on failure; the
/// address is attribution metadata, never load-bearing).
std::string FormatPeer(const sockaddr_storage& addr, socklen_t addr_len) {
  char host[INET6_ADDRSTRLEN] = {0};
  uint16_t port = 0;
  if (addr.ss_family == AF_INET &&
      addr_len >= static_cast<socklen_t>(sizeof(sockaddr_in))) {
    const auto* in4 = reinterpret_cast<const sockaddr_in*>(&addr);
    if (::inet_ntop(AF_INET, &in4->sin_addr, host, sizeof(host)) == nullptr) {
      return "";
    }
    port = ntohs(in4->sin_port);
  } else if (addr.ss_family == AF_INET6 &&
             addr_len >= static_cast<socklen_t>(sizeof(sockaddr_in6))) {
    const auto* in6 = reinterpret_cast<const sockaddr_in6*>(&addr);
    if (::inet_ntop(AF_INET6, &in6->sin6_addr, host, sizeof(host)) ==
        nullptr) {
      return "";
    }
    port = ntohs(in6->sin6_port);
  } else {
    return "";
  }
  return std::string(host) + ":" + std::to_string(port);
}

}  // namespace

NetServer::NetServer(EstimationService* service, NetServerOptions options)
    : service_(service), options_(std::move(options)), harness_(service) {}

NetServer::~NetServer() {
  if (started_.load()) Stop();
}

Status NetServer::Start() {
  if (started_.exchange(true)) {
    return Status::Unsupported("server already started");
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::IOError(std::string("pipe: ") + ::strerror(errno));
  }
  wake_read_ = ScopedFd(pipe_fds[0]);
  wake_write_ = ScopedFd(pipe_fds[1]);
  XC_RETURN_IF_ERROR(SetNonBlocking(wake_read_.get()));

  XCLUSTER_ASSIGN_OR_RETURN(listen_fd_,
                            TcpListen(options_.host, options_.port));
  XCLUSTER_ASSIGN_OR_RETURN(port_, LocalPort(listen_fd_.get()));
  XC_RETURN_IF_ERROR(SetNonBlocking(listen_fd_.get()));

  loop_thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void NetServer::RequestDrain() {
  if (!started_.load()) return;
  const uint8_t byte = 1;
  // The only syscall here is write(2), so signal handlers may call this
  // directly (or write to drain_fd() themselves).
  [[maybe_unused]] ssize_t ignored = ::write(wake_write_.get(), &byte, 1);
}

void NetServer::PostFrames(uint64_t conn_id, std::vector<Frame> frames,
                           bool close) {
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    posted_.push_back(PostedReply{conn_id, std::move(frames), close});
  }
  // Wake byte 2 = posted replies pending (1 = drain; see Loop).
  const uint8_t byte = 2;
  [[maybe_unused]] ssize_t ignored = ::write(wake_write_.get(), &byte, 1);
}

void NetServer::AwaitTermination() {
  std::lock_guard<std::mutex> lock(join_mu_);
  if (loop_thread_.joinable()) loop_thread_.join();
}

void NetServer::Stop() {
  RequestDrain();
  AwaitTermination();
}

NetServer::Stats NetServer::stats() const {
  Stats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.frames_rx = frames_rx_.load(std::memory_order_relaxed);
  stats.frames_tx = frames_tx_.load(std::memory_order_relaxed);
  stats.bytes_rx = bytes_rx_.load(std::memory_order_relaxed);
  stats.bytes_tx = bytes_tx_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.midframe_disconnects =
      midframe_disconnects_.load(std::memory_order_relaxed);
  stats.write_overflows = write_overflows_.load(std::memory_order_relaxed);
  stats.sheds = sheds_.load(std::memory_order_relaxed);
  return stats;
}

void NetServer::SetConnectionGauge() {
  active_connections_.store(connections_.size(), std::memory_order_relaxed);
  XCLUSTER_GAUGE_SET("net.connections", connections_.size());
}

void NetServer::SendFrame(Connection* conn, FrameType type,
                          std::string payload) {
  Frame frame;
  frame.type = type;
  frame.payload = std::move(payload);
  EncodeFrame(frame, &conn->outbuf);
  frames_tx_.fetch_add(1, std::memory_order_relaxed);
  XCLUSTER_COUNTER_INC("net.frames.tx");
  if (conn->outbuf.size() - conn->outbuf_pos >
      options_.max_write_buffer_bytes) {
    // Slow client: responses are piling up faster than it reads them.
    // Closing is handled by the caller noticing `closing` + the overflow
    // flag; mark and let FlushWrites report the connection dead.
    write_overflows_.fetch_add(1, std::memory_order_relaxed);
    conn->closing = true;
    conn->outbuf.clear();
    conn->outbuf_pos = 0;
  }
}

void NetServer::SendError(Connection* conn, const std::string& message) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  XCLUSTER_COUNTER_INC("net.protocol_errors");
  SendFrame(conn, FrameType::kError, message);
  conn->closing = true;
}

void StampBatchTrace(size_t wire_bytes, double trace_sample,
                     BatchOptions* options) {
  if (options->trace.trace_id == 0) {
    options->trace.trace_id = telemetry::GenerateTraceId();
  }
  options->trace.sampled =
      options->trace.sampled ||
      telemetry::SampleTrace(options->trace.trace_id, trace_sample);
  options->wire_bytes = wire_bytes;
}

void NetServer::DispatchFrame(Connection* conn, Frame&& frame) {
  if (!conn->hello_done) {
    if (frame.type != FrameType::kHello) {
      SendError(conn, "expected hello frame before any request");
      return;
    }
    Result<HelloRequest> hello = DecodeHello(frame.payload);
    if (!hello.ok()) {
      SendError(conn, hello.status().ToString());
      return;
    }
    Result<uint32_t> version = NegotiateVersion(hello.value());
    if (!version.ok()) {
      SendError(conn, version.status().ToString());
      return;
    }
    conn->hello_done = true;
    HelloAckFrame ack;
    ack.role = handler_ != nullptr ? "router" : "replica";
    ack.server = "xclusterd";
    SendFrame(conn, FrameType::kHelloAck, EncodeHelloAck(ack));
    return;
  }

  // Router mode: a FrameHandler takes the request frames, replying
  // asynchronously via PostFrames. The frames both modes answer alike
  // (handled below: hello, goodbye, stats, install reassembly) never
  // reach it.
  if (handler_ != nullptr &&
      (frame.type == FrameType::kCommand || frame.type == FrameType::kBatch ||
       frame.type == FrameType::kFlight)) {
    handler_->OnFrame(conn->id, conn->peer, std::move(frame));
    return;
  }
  if (service_ == nullptr && handler_ == nullptr &&
      frame.type != FrameType::kGoodbye && frame.type != FrameType::kHello) {
    SendError(conn, "server has no estimation service");
    return;
  }

  switch (frame.type) {
    case FrameType::kCommand: {
      const uint64_t start_ns = telemetry::MonotonicNowNs();
      std::string response;
      bool quit = false;
      if (frame.payload.size() > harness_.max_line_bytes()) {
        // Same protocol error the stdio harness gives an over-budget line.
        response = "err line too long (exceeds " +
                   std::to_string(harness_.max_line_bytes()) + " bytes)\n";
      } else if (frame.payload.find('\n') != std::string::npos) {
        response = "err command must be a single line\n";
      } else {
        response = harness_.ExecuteLine(frame.payload, &quit, conn->peer);
      }
      SendFrame(conn, FrameType::kResponse, std::move(response));
      if (quit) conn->closing = true;
      XCLUSTER_HISTOGRAM_RECORD_NS("net.request_latency_ns",
                                   telemetry::MonotonicNowNs() - start_ns);
      return;
    }
    case FrameType::kBatch: {
      const uint64_t start_ns = telemetry::MonotonicNowNs();
      Result<BatchRequestFrame> request = DecodeBatchRequest(frame.payload);
      if (!request.ok()) {
        SendError(conn, request.status().ToString());
        return;
      }
      BatchOptions options = request.value().options;
      if (options.deadline_ns == 0) {
        options.deadline_ns = options_.default_deadline_ns;
      }
      StampBatchTrace(frame.payload.size(), options_.trace_sample, &options);
      XCLUSTER_COUNTER_INC("net.batches");
      telemetry::ScopedTraceContext trace_scope(options.trace);
      XCLUSTER_TRACE_SPAN("net.batch");
      BatchResult batch = service_->EstimateBatch(
          request.value().collection, request.value().queries, options);
      if (!batch.admission.ok() &&
          batch.admission.code() == Status::Code::kUnavailable) {
        // Admission shed: a typed, retryable refusal — not a protocol
        // error, so the connection stays open.
        sheds_.fetch_add(1, std::memory_order_relaxed);
        XCLUSTER_COUNTER_INC("net.sheds");
        ShedFrame shed;
        shed.retry_after_ms = static_cast<uint32_t>(batch.retry_after_ms);
        shed.message = batch.admission.message();
        SendFrame(conn, FrameType::kShed, EncodeShed(shed));
        XCLUSTER_HISTOGRAM_RECORD_NS("net.request_latency_ns",
                                     telemetry::MonotonicNowNs() - start_ns);
        return;
      }
      SendFrame(conn, FrameType::kBatchReply,
                EncodeBatchReply(batch, options.explain,
                                 options.trace.trace_id));
      XCLUSTER_HISTOGRAM_RECORD_NS("net.request_latency_ns",
                                   telemetry::MonotonicNowNs() - start_ns);
      return;
    }
    case FrameType::kStats: {
      // The process's metrics registry, in either mode.
      Result<StatsFormat> format = DecodeStatsRequest(frame.payload);
      if (!format.ok()) {
        SendError(conn, format.status().ToString());
        return;
      }
      const telemetry::MetricsSnapshot snapshot =
          telemetry::MetricsRegistry::Global().Snapshot();
      SendFrame(conn, FrameType::kStatsReply,
                format.value() == StatsFormat::kPrometheus
                    ? snapshot.ToPrometheus()
                : format.value() == StatsFormat::kJson ? snapshot.ToJson()
                                                       : snapshot.ToText());
      return;
    }
    case FrameType::kFlight: {
      Result<uint32_t> max_records = DecodeFlightRequest(frame.payload);
      if (!max_records.ok()) {
        SendError(conn, max_records.status().ToString());
        return;
      }
      SendFrame(conn, FrameType::kFlightReply,
                service_->flight().ToJson(max_records.value()));
      return;
    }
    case FrameType::kInstall:
      HandleInstall(conn, std::move(frame));
      return;
    case FrameType::kGoodbye:
      SendFrame(conn, FrameType::kGoodbye, "");
      conn->closing = true;
      return;
    case FrameType::kHello:
      SendError(conn, "unexpected second hello");
      return;
    default:
      SendError(conn, "unexpected frame type " +
                          std::to_string(static_cast<int>(frame.type)));
      return;
  }
}

void NetServer::HandleInstall(Connection* conn, Frame&& frame) {
  bool complete = false;
  Status added = conn->install.Add(frame.payload, &complete);
  if (!added.ok()) {
    SendError(conn, added.ToString());
    return;
  }
  XCLUSTER_COUNTER_INC("net.install.chunks");
  if (!complete) return;

  InstallReplyFrame reply;
  Result<InstallSnapshot> snapshot = conn->install.Take();
  if (!snapshot.ok()) {
    reply.message = snapshot.status().ToString();
  } else if (handler_ != nullptr) {
    handler_->OnInstall(conn->id, std::move(snapshot).value());
    return;
  } else {
    Result<std::shared_ptr<const StoredSynopsis>> installed =
        service_->store().InstallFromWire(snapshot.value().name,
                                          snapshot.value().bytes, conn->peer,
                                          snapshot.value().generation);
    if (installed.ok()) {
      reply.ok = true;
      reply.generation = installed.value()->generation();
      XCLUSTER_COUNTER_INC("net.install.ok");
    } else {
      reply.message = installed.status().ToString();
    }
  }
  if (!reply.ok) XCLUSTER_COUNTER_INC("net.install.failed");
  SendFrame(conn, FrameType::kInstallReply, EncodeInstallReply(reply));
}

void NetServer::DrainPostedReplies() {
  std::vector<PostedReply> batch;
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    batch.swap(posted_);
  }
  for (PostedReply& posted : batch) {
    for (Connection& conn : connections_) {
      if (conn.id != posted.conn_id) continue;
      for (Frame& frame : posted.frames) {
        SendFrame(&conn, frame.type, std::move(frame.payload));
      }
      if (posted.close) conn.closing = true;
      break;  // ids are unique; replies to dead connections drop silently
    }
  }
}

bool NetServer::ReadAndDispatch(Connection* conn) {
  char chunk[65536];
  while (!conn->closing) {
    const ssize_t got = ::recv(conn->fd.get(), chunk, sizeof(chunk), 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;  // hard socket error
    }
    if (got == 0) {  // peer closed
      if (conn->decoder.buffered_bytes() > 0) {
        midframe_disconnects_.fetch_add(1, std::memory_order_relaxed);
        XCLUSTER_COUNTER_INC("net.disconnects.midframe");
      }
      return false;
    }
    bytes_rx_.fetch_add(static_cast<uint64_t>(got),
                        std::memory_order_relaxed);
    XCLUSTER_COUNTER_ADD("net.bytes.rx", got);
    conn->decoder.Feed(chunk, static_cast<size_t>(got));
    for (;;) {
      Frame frame;
      bool have_frame = false;
      Status decoded = conn->decoder.Next(&frame, &have_frame);
      if (!decoded.ok()) {
        SendError(conn, decoded.ToString());
        return true;  // keep the connection to flush the error frame
      }
      if (!have_frame) break;
      frames_rx_.fetch_add(1, std::memory_order_relaxed);
      XCLUSTER_COUNTER_INC("net.frames.rx");
      DispatchFrame(conn, std::move(frame));
      if (conn->closing) break;
    }
    if (got < static_cast<ssize_t>(sizeof(chunk))) break;  // likely drained
  }
  return true;
}

bool NetServer::FlushWrites(Connection* conn) {
  while (conn->outbuf_pos < conn->outbuf.size()) {
    const ssize_t sent =
        ::send(conn->fd.get(), conn->outbuf.data() + conn->outbuf_pos,
               conn->outbuf.size() - conn->outbuf_pos, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;  // peer gone; nothing left to say
    }
    conn->outbuf_pos += static_cast<size_t>(sent);
    bytes_tx_.fetch_add(static_cast<uint64_t>(sent),
                        std::memory_order_relaxed);
    XCLUSTER_COUNTER_ADD("net.bytes.tx", sent);
  }
  if (conn->outbuf_pos == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->outbuf_pos = 0;
    if (conn->closing) return false;  // flushed; orderly close
  } else if (conn->outbuf_pos > (1u << 20)) {
    conn->outbuf.erase(0, conn->outbuf_pos);
    conn->outbuf_pos = 0;
  }
  return true;
}

void NetServer::AcceptPending(int listen_fd) {
  for (;;) {
    sockaddr_storage addr;
    socklen_t addr_len = sizeof(addr);
    const int fd =
        ::accept(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (or transient error): try again next poll round
    }
    Connection conn;
    conn.fd = ScopedFd(fd);
    conn.decoder = FrameDecoder(options_.max_frame_bytes);
    conn.install =
        InstallAssembler(options_.max_frame_bytes, options_.max_install_bytes);
    conn.id = next_conn_id_++;
    conn.peer = FormatPeer(addr, addr_len);
    if (!SetNonBlocking(fd).ok()) continue;  // ScopedFd closes it
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (connections_.size() >= options_.max_connections) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      XCLUSTER_COUNTER_INC("net.connections.rejected");
      SendFrame(&conn, FrameType::kError,
                "server at connection capacity (" +
                    std::to_string(options_.max_connections) + ")");
      conn.closing = true;  // flush the error, then close
    } else {
      accepted_.fetch_add(1, std::memory_order_relaxed);
      XCLUSTER_COUNTER_INC("net.connections.accepted");
    }
    connections_.push_back(std::move(conn));
    SetConnectionGauge();
  }
}

void NetServer::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  listen_fd_.Reset();  // stop accepting
  drain_deadline_ns_ =
      telemetry::MonotonicNowNs() + options_.drain_timeout_ms * 1000000ull;
  for (Connection& conn : connections_) {
    if (conn.hello_done && !conn.closing) {
      SendFrame(&conn, FrameType::kGoodbye, "");
    }
    conn.closing = true;
  }
}

void NetServer::Loop() {
  std::vector<pollfd> pollfds;
  std::vector<std::list<Connection>::iterator> poll_conns;
  while (!(draining_ && connections_.empty())) {
    pollfds.clear();
    poll_conns.clear();
    pollfds.push_back({wake_read_.get(), POLLIN, 0});
    int listen_index = -1;
    if (!draining_ && listen_fd_.valid()) {
      listen_index = static_cast<int>(pollfds.size());
      pollfds.push_back({listen_fd_.get(), POLLIN, 0});
    }
    const size_t conn_base = pollfds.size();
    for (auto it = connections_.begin(); it != connections_.end(); ++it) {
      short events = 0;
      if (!it->closing) events |= POLLIN;
      if (it->outbuf_pos < it->outbuf.size()) events |= POLLOUT;
      pollfds.push_back({it->fd.get(), events, 0});
      poll_conns.push_back(it);
    }

    int timeout_ms = -1;
    if (draining_) {
      const uint64_t now_ns = telemetry::MonotonicNowNs();
      timeout_ms = now_ns >= drain_deadline_ns_
                       ? 0
                       : static_cast<int>(
                             (drain_deadline_ns_ - now_ns) / 1000000 + 1);
    }
    const int ready = ::poll(pollfds.data(), pollfds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;  // poll itself failed: bail out

    if (pollfds[0].revents & POLLIN) {
      // Wake bytes are commands: 2 = posted replies pending, anything else
      // (1, and whatever a legacy signal handler writes) = drain.
      char wake_bytes[64];
      bool drain = false;
      bool posted = false;
      ssize_t got;
      while ((got = ::read(wake_read_.get(), wake_bytes,
                           sizeof(wake_bytes))) > 0) {
        for (ssize_t i = 0; i < got; ++i) {
          if (wake_bytes[i] == 2) {
            posted = true;
          } else {
            drain = true;
          }
        }
      }
      // Posted replies land in connection outbufs here; the per-connection
      // pass below flushes any non-empty outbuf, so they go out this same
      // loop round.
      if (posted) DrainPostedReplies();
      if (drain) BeginDrain();
    }
    if (listen_index >= 0 && !draining_ &&
        (pollfds[listen_index].revents & POLLIN)) {
      AcceptPending(listen_fd_.get());
    }

    for (size_t i = 0; i < poll_conns.size(); ++i) {
      auto it = poll_conns[i];
      Connection& conn = *it;
      const short revents = pollfds[conn_base + i].revents;
      bool alive = true;
      if (revents & (POLLERR | POLLNVAL)) alive = false;
      if (alive && (revents & POLLIN)) alive = ReadAndDispatch(&conn);
      if (alive && conn.outbuf_pos < conn.outbuf.size()) {
        alive = FlushWrites(&conn);
      }
      // A closing connection with nothing left to flush is done; POLLHUP
      // with no readable data likewise (reads would just return EOF).
      if (alive && conn.closing && conn.outbuf_pos == conn.outbuf.size()) {
        alive = false;
      }
      if (alive && (revents & POLLHUP) && !(revents & POLLIN)) alive = false;
      if (!alive) {
        connections_.erase(it);
        SetConnectionGauge();
      }
    }

    if (draining_ &&
        telemetry::MonotonicNowNs() >= drain_deadline_ns_) {
      // Stragglers kept the drain past its budget; force-close them.
      connections_.clear();
      SetConnectionGauge();
    }
  }
}

}  // namespace net
}  // namespace xcluster
