#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/io/crc32c.h"
#include "common/rng.h"

namespace xcluster {
namespace net {

uint64_t BackoffDelayMs(const RetryOptions& options, int attempt,
                        uint64_t retry_after_ms, uint64_t jitter_draw) {
  uint64_t base;
  if (retry_after_ms > 0) {
    base = retry_after_ms;
  } else {
    const int shift = std::min(attempt - 1, 32);
    base = options.initial_backoff_ms << shift;
  }
  base = std::max<uint64_t>(1, std::min(base, options.max_backoff_ms));
  // Multiplicative jitter in [0.5, 1.0]: never sooner than half the hint,
  // never later than the full cap.
  const double factor =
      0.5 + 0.5 * (static_cast<double>(jitter_draw >> 11) /
                   static_cast<double>(1ull << 53));
  const uint64_t delay = static_cast<uint64_t>(
      static_cast<double>(base) * factor);
  return std::max<uint64_t>(1, delay);
}

Result<NetClient> NetClient::Connect(const std::string& host, uint16_t port,
                                     NetClientOptions options) {
  XCLUSTER_ASSIGN_OR_RETURN(
      ScopedFd fd, TcpConnect(host, port, options.connect_timeout_ms));
  if (options.recv_timeout_ms > 0) {
    XC_RETURN_IF_ERROR(SetRecvTimeout(fd.get(), options.recv_timeout_ms));
  }
  NetClient client(std::move(fd), options);
  XC_RETURN_IF_ERROR(
      client.SendFrame(FrameType::kHello, EncodeHello(HelloRequest{})));
  Frame ack;
  XC_RETURN_IF_ERROR(client.ReadFrame(&ack));
  if (ack.type == FrameType::kError) {
    // Capacity rejections are retryable by contract; everything else
    // (e.g. a refused hello) passes the server's message through as a
    // hard error.
    if (ack.payload.find("connection capacity") != std::string::npos) {
      return Status::Unavailable("server error: " + ack.payload);
    }
    return Status::Corruption("server error: " + ack.payload);
  }
  if (ack.type != FrameType::kHelloAck) {
    return Status::Corruption("handshake: expected hello ack, got frame type " +
                              std::to_string(static_cast<int>(ack.type)));
  }
  Result<HelloAckFrame> decoded = DecodeHelloAck(ack.payload);
  if (!decoded.ok()) return decoded.status();
  HelloAckFrame ack_frame = std::move(decoded).value();
  if (ack_frame.version != kProtocolVersion) {
    return Status::Corruption(
        "handshake: server acked protocol version " +
        std::to_string(ack_frame.version) + ", this build speaks " +
        std::to_string(kProtocolVersion));
  }
  client.server_role_ = std::move(ack_frame.role);
  client.server_description_ = std::move(ack_frame.server);
  return client;
}

Result<NetClient> NetClient::ConnectWithRetry(const std::string& host,
                                              uint16_t port,
                                              NetClientOptions options) {
  Rng jitter(options.retry.jitter_seed);
  const int attempts = std::max(1, options.retry.max_attempts);
  for (int attempt = 1;; ++attempt) {
    Result<NetClient> client = Connect(host, port, options);
    if (client.ok() ||
        client.status().code() != Status::Code::kUnavailable ||
        attempt >= attempts) {
      return client;
    }
    const uint64_t delay =
        BackoffDelayMs(options.retry, attempt, 0, jitter.Next());
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
}

NetClient::~NetClient() {
  if (fd_.valid()) Close();  // best-effort goodbye
}

Status NetClient::SendFrame(FrameType type, const std::string& payload) {
  if (!fd_.valid()) return Status::IOError("client is closed");
  Frame frame;
  frame.type = type;
  frame.payload = payload;
  std::string wire;
  EncodeFrame(frame, &wire);
  Status written = WriteAll(fd_.get(), wire.data(), wire.size());
  if (!written.ok()) fd_.Reset();
  return written;
}

Status NetClient::ReadFrame(Frame* frame) {
  if (!fd_.valid()) return Status::IOError("client is closed");
  for (;;) {
    bool have_frame = false;
    Status decoded = decoder_.Next(frame, &have_frame);
    if (!decoded.ok()) {
      fd_.Reset();
      return decoded;
    }
    if (have_frame) return Status::OK();
    char chunk[65536];
    size_t got = 0;
    Status read = ReadSome(fd_.get(), chunk, sizeof(chunk), &got);
    if (!read.ok()) {
      fd_.Reset();
      return read;
    }
    if (got == 0) {
      const size_t pending = decoder_.buffered_bytes();
      fd_.Reset();
      if (pending > 0) {
        return Status::Corruption(
            "server closed the connection mid-frame (" +
            std::to_string(pending) + " bytes pending)");
      }
      return Status::IOError("server closed the connection");
    }
    decoder_.Feed(chunk, got);
  }
}

Status NetClient::RoundTrip(FrameType request_type, const std::string& payload,
                            FrameType want, Frame* reply) {
  XC_RETURN_IF_ERROR(SendFrame(request_type, payload));
  XC_RETURN_IF_ERROR(ReadFrame(reply));
  if (reply->type == FrameType::kShed) {
    // Admission shed: the request was refused but the connection is fine.
    // Surface Unavailable + the retry-after hint; Batch() applies the
    // retry policy on top.
    Result<ShedFrame> shed = DecodeShed(reply->payload);
    if (!shed.ok()) {
      fd_.Reset();
      return shed.status();
    }
    last_retry_after_ms_ = shed.value().retry_after_ms;
    return Status::Unavailable(shed.value().message);
  }
  if (reply->type == FrameType::kError) {
    fd_.Reset();  // the server closes after an error frame
    return Status::Corruption("server error: " + reply->payload);
  }
  if (reply->type != want) {
    fd_.Reset();
    return Status::Corruption(
        "expected frame type " + std::to_string(static_cast<int>(want)) +
        ", got " + std::to_string(static_cast<int>(reply->type)));
  }
  return Status::OK();
}

Result<std::string> NetClient::Command(const std::string& line) {
  Frame reply;
  XC_RETURN_IF_ERROR(
      RoundTrip(FrameType::kCommand, line, FrameType::kResponse, &reply));
  return std::move(reply.payload);
}

Result<BatchReplyFrame> NetClient::Batch(
    const std::string& collection, const std::vector<std::string>& queries,
    const BatchOptions& options) {
  BatchRequestFrame request;
  request.collection = collection;
  request.options = options;
  request.queries = queries;
  const std::string payload = EncodeBatchRequest(request);
  Rng jitter(options_.retry.jitter_seed);
  const int attempts = std::max(1, options_.retry.max_attempts);
  last_attempts_ = 0;
  for (int attempt = 1;; ++attempt) {
    last_attempts_ = attempt;
    Frame reply;
    Status sent =
        RoundTrip(FrameType::kBatch, payload, FrameType::kBatchReply, &reply);
    if (sent.ok()) {
      Result<BatchReplyFrame> decoded = DecodeBatchReply(reply.payload);
      if (decoded.ok()) last_trace_id_ = decoded.value().trace_id;
      return decoded;
    }
    if (sent.code() != Status::Code::kUnavailable || attempt >= attempts) {
      return sent;
    }
    const uint64_t delay = BackoffDelayMs(options_.retry, attempt,
                                          last_retry_after_ms_,
                                          jitter.Next());
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
}

Result<std::string> NetClient::StatsScrape(StatsFormat format) {
  Frame reply;
  XC_RETURN_IF_ERROR(RoundTrip(FrameType::kStats, EncodeStatsRequest(format),
                               FrameType::kStatsReply, &reply));
  return std::move(reply.payload);
}

Result<std::string> NetClient::FlightDump(uint32_t max_records) {
  Frame reply;
  XC_RETURN_IF_ERROR(RoundTrip(FrameType::kFlight,
                               EncodeFlightRequest(max_records),
                               FrameType::kFlightReply, &reply));
  return std::move(reply.payload);
}

Result<InstallReplyFrame> NetClient::Install(const std::string& name,
                                             const std::string& bytes,
                                             uint64_t generation,
                                             size_t chunk_bytes) {
  // Headroom for the install header fields inside the frame payload cap.
  const size_t overhead = name.size() + 64;
  const size_t max_chunk = options_.max_frame_bytes > overhead
                               ? options_.max_frame_bytes - overhead
                               : 1;
  if (chunk_bytes == 0) chunk_bytes = 1u << 20;
  chunk_bytes = std::min(chunk_bytes, max_chunk);

  InstallFrame frame;
  frame.name = name;
  frame.generation = generation;
  frame.total_bytes = bytes.size();
  frame.chunk_count = static_cast<uint32_t>(
      bytes.empty() ? 1 : (bytes.size() + chunk_bytes - 1) / chunk_bytes);
  frame.snapshot_crc =
      crc32c::Mask(crc32c::Value(bytes.data(), bytes.size()));
  for (uint32_t i = 0; i < frame.chunk_count; ++i) {
    frame.chunk_index = i;
    const size_t offset = static_cast<size_t>(i) * chunk_bytes;
    frame.chunk = bytes.substr(
        offset, std::min(chunk_bytes, bytes.size() - offset));
    XC_RETURN_IF_ERROR(SendFrame(FrameType::kInstall, EncodeInstall(frame)));
  }
  // The server replies only after the final chunk (a broken sequence is
  // answered with a closing kError frame, which surfaces here too).
  Frame reply;
  XC_RETURN_IF_ERROR(ReadFrame(&reply));
  if (reply.type == FrameType::kError) {
    fd_.Reset();
    return Status::Corruption("server error: " + reply.payload);
  }
  if (reply.type != FrameType::kInstallReply) {
    fd_.Reset();
    return Status::Corruption(
        "expected install reply, got frame type " +
        std::to_string(static_cast<int>(reply.type)));
  }
  return DecodeInstallReply(reply.payload);
}

Status NetClient::Close() {
  if (!fd_.valid()) return Status::OK();
  Status sent = SendFrame(FrameType::kGoodbye, "");
  if (sent.ok()) {
    Frame ack;
    // The ack is advisory; a server that closed first is still a clean
    // shutdown from the caller's point of view.
    (void)ReadFrame(&ack);
  }
  fd_.Reset();
  return Status::OK();
}

}  // namespace net
}  // namespace xcluster
