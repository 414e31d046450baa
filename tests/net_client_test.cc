#include "net/client.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cmath>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "service/service.h"

namespace xcluster {
namespace net {
namespace {

/// A hand-rolled one-connection server for misbehaving-peer scenarios the
/// real NetServer would never produce. `script` runs with the accepted fd.
class FakeServer {
 public:
  explicit FakeServer(std::function<void(int fd)> script) {
    Result<ScopedFd> listener = TcpListen("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listen_fd_ = std::move(listener).value();
    Result<uint16_t> port = LocalPort(listen_fd_.get());
    EXPECT_TRUE(port.ok());
    port_ = port.value();
    // Capture the fd by value: the destructor Reset()s listen_fd_ to kick
    // the thread out of accept, which must not race the member read.
    thread_ = std::thread([listen = listen_fd_.get(),
                           script = std::move(script)] {
      const int fd = ::accept(listen, nullptr, nullptr);
      if (fd < 0) return;
      ScopedFd conn(fd);
      script(conn.get());
    });
  }

  ~FakeServer() {
    listen_fd_.Reset();
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }

 private:
  ScopedFd listen_fd_;
  uint16_t port_ = 0;
  std::thread thread_;
};

/// Reads until `n` bytes arrived or the peer closed (ignores content).
void DrainBytes(int fd, size_t n) {
  char chunk[4096];
  size_t total = 0;
  while (total < n) {
    size_t got = 0;
    if (!ReadSome(fd, chunk, std::min(sizeof(chunk), n - total), &got).ok() ||
        got == 0) {
      return;
    }
    total += got;
  }
}

size_t HelloWireSize() {
  Frame hello;
  hello.type = FrameType::kHello;
  hello.payload = EncodeHello(HelloRequest{});
  std::string wire;
  EncodeFrame(hello, &wire);
  return wire.size();
}

TEST(NetClientTest, ConnectionRefusedCarriesStrerrorContext) {
  // Grab an ephemeral port, then close the listener so nothing is there.
  uint16_t port = 0;
  {
    Result<ScopedFd> listener = TcpListen("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    Result<uint16_t> bound = LocalPort(listener.value().get());
    ASSERT_TRUE(bound.ok());
    port = bound.value();
  }
  Result<NetClient> client = NetClient::Connect("127.0.0.1", port);
  ASSERT_FALSE(client.ok());
  EXPECT_NE(client.status().ToString().find("connect"), std::string::npos)
      << client.status().ToString();
}

TEST(NetClientTest, GarbageServerFailsTheHandshakeNotTheProcess) {
  FakeServer server([](int fd) {
    const std::string banner = "HTTP/1.1 400 Bad Request\r\n\r\n";
    (void)WriteAll(fd, banner.data(), banner.size());
    DrainBytes(fd, HelloWireSize());
  });
  Result<NetClient> client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_FALSE(client.ok());
  // "HTTP" read as a length prefix is absurdly large — rejected before
  // the client buffers it.
  EXPECT_EQ(client.status().code(), Status::Code::kCorruption)
      << client.status().ToString();
}

TEST(NetClientTest, SilentServerHitsTheRecvTimeout) {
  FakeServer server([](int fd) {
    DrainBytes(fd, HelloWireSize());  // swallow the hello, answer nothing
    char parting;
    size_t got = 0;
    (void)ReadSome(fd, &parting, 1, &got);  // wait for the client to give up
  });
  NetClientOptions options;
  options.recv_timeout_ms = 100;
  Result<NetClient> client =
      NetClient::Connect("127.0.0.1", server.port(), options);
  ASSERT_FALSE(client.ok());
  EXPECT_NE(client.status().ToString().find("timed out"), std::string::npos)
      << client.status().ToString();
}

TEST(NetClientTest, ServerClosingMidFrameIsReportedAsSuch) {
  FakeServer server([](int fd) {
    DrainBytes(fd, HelloWireSize());
    // First bytes of a valid hello ack, then close.
    Frame ack;
    ack.type = FrameType::kHelloAck;
    ack.payload = EncodeHelloAck(HelloAckFrame{});
    std::string wire;
    EncodeFrame(ack, &wire);
    (void)WriteAll(fd, wire.data(), wire.size() / 2);
  });
  Result<NetClient> client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_FALSE(client.ok());
  EXPECT_NE(client.status().ToString().find("mid-frame"), std::string::npos)
      << client.status().ToString();
}

TEST(NetClientTest, VersionNegotiationRejectsDisjointRanges) {
  HelloRequest future;
  future.min_version = kProtocolVersion + 1;
  future.max_version = kProtocolVersion + 3;
  Result<uint32_t> negotiated = NegotiateVersion(future);
  ASSERT_FALSE(negotiated.ok());
  EXPECT_EQ(negotiated.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(negotiated.status().ToString().find("no common protocol"),
            std::string::npos)
      << negotiated.status().ToString();

  // A peer that stops short of this build's version is refused too: a
  // version-4 peer expects per-slot latencies in every batch reply.
  HelloRequest old;
  old.min_version = 4;
  old.max_version = 4;
  negotiated = NegotiateVersion(old);
  ASSERT_FALSE(negotiated.ok());
  EXPECT_NE(negotiated.status().ToString().find("no common protocol"),
            std::string::npos)
      << negotiated.status().ToString();

  // Any range that contains the one version settles on it.
  HelloRequest wide;
  wide.min_version = 0;
  wide.max_version = 100;
  negotiated = NegotiateVersion(wide);
  ASSERT_TRUE(negotiated.ok());
  EXPECT_EQ(negotiated.value(), kProtocolVersion);
}

TEST(NetClientTest, AckNamingAnotherVersionFailsTheHandshake) {
  FakeServer server([](int fd) {
    DrainBytes(fd, HelloWireSize());
    HelloAckFrame stale;
    stale.version = kProtocolVersion - 1;
    stale.role = "replica";
    stale.server = "xclusterd";
    Frame ack;
    ack.type = FrameType::kHelloAck;
    ack.payload = EncodeHelloAck(stale);
    std::string wire;
    EncodeFrame(ack, &wire);
    (void)WriteAll(fd, wire.data(), wire.size());
    char parting;
    size_t got = 0;
    (void)ReadSome(fd, &parting, 1, &got);  // wait for the client to leave
  });
  Result<NetClient> client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), Status::Code::kCorruption)
      << client.status().ToString();
  EXPECT_NE(client.status().ToString().find(
                "protocol version " + std::to_string(kProtocolVersion - 1)),
            std::string::npos)
      << client.status().ToString();
}

TEST(NetClientTest, HelloRejectsForeignMagic) {
  std::string payload = EncodeHello(HelloRequest{});
  payload[0] = 'Y';
  Result<HelloRequest> decoded = DecodeHello(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("magic"), std::string::npos)
      << decoded.status().ToString();

  // Inverted version range is rejected even with good magic.
  HelloRequest inverted;
  inverted.min_version = 3;
  inverted.max_version = 1;
  decoded = DecodeHello(EncodeHello(inverted));
  ASSERT_FALSE(decoded.ok());
}

TEST(NetClientTest, BatchRequestRoundTripsThroughTheCodec) {
  BatchRequestFrame request;
  request.collection = "books";
  request.options.deadline_ns = 1500000;
  request.options.explain = true;
  request.queries = {"/A", "//A[range(1,9)]/B", std::string(2048, 'q'), ""};

  Result<BatchRequestFrame> decoded =
      DecodeBatchRequest(EncodeBatchRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().collection, "books");
  EXPECT_EQ(decoded.value().options.deadline_ns, 1500000u);
  EXPECT_TRUE(decoded.value().options.explain);
  EXPECT_EQ(decoded.value().queries, request.queries);
}

TEST(NetClientTest, BatchRequestCountBeyondPayloadIsRejectedBeforeReserve) {
  BatchRequestFrame request;
  request.collection = "books";
  request.queries = {"/A"};
  std::string payload = EncodeBatchRequest(request);
  // The varint query count sits right after collection (len-prefixed) +
  // deadline (8) + explain (1). Overwrite count=1 with a huge varint by
  // rebuilding: declare 2^40 queries with no bodies behind them.
  BatchRequestFrame empty;
  empty.collection = "books";
  std::string forged = EncodeBatchRequest(empty);
  forged.pop_back();                       // drop count=0
  for (int i = 0; i < 5; ++i) forged.push_back('\xff');
  forged.push_back('\x3f');                // varint: large count
  Result<BatchRequestFrame> decoded = DecodeBatchRequest(forged);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), Status::Code::kCorruption)
      << decoded.status().ToString();
}

TEST(NetClientTest, BatchReplyPreservesEstimateBitPatterns) {
  BatchResult batch;
  QueryResult fine;
  fine.status = Status::OK();
  fine.estimate = 0.1 + 0.2;  // 0.30000000000000004 — exact bits must survive
  fine.explanation = "line one\nline two";
  QueryResult tiny;
  tiny.status = Status::OK();
  tiny.estimate = 5e-324;  // smallest subnormal
  QueryResult failed;
  failed.status = Status::InvalidArgument("bad query");
  batch.results = {fine, tiny, failed};
  batch.stats.ok = 2;
  batch.stats.failed = 1;
  batch.stats.wall_ns = 777;

  Result<BatchReplyFrame> decoded =
      DecodeBatchReply(EncodeBatchReply(batch, /*explain=*/true));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const BatchReplyFrame& reply = decoded.value();
  ASSERT_EQ(reply.items.size(), 3u);
  EXPECT_TRUE(reply.items[0].ok);
  EXPECT_EQ(reply.items[0].estimate, 0.1 + 0.2);
  EXPECT_EQ(reply.items[0].explanation, "line one\nline two");
  EXPECT_EQ(reply.items[1].estimate, 5e-324);
  EXPECT_FALSE(reply.items[2].ok);
  EXPECT_EQ(reply.items[2].error, failed.status.ToString());
  EXPECT_EQ(reply.stats.ok, 2u);
  EXPECT_EQ(reply.stats.failed, 1u);
  EXPECT_EQ(reply.stats.wall_ns, 777u);

  // Trailing garbage after a well-formed reply is corruption, not slack.
  std::string padded = EncodeBatchReply(batch, true) + "zz";
  EXPECT_FALSE(DecodeBatchReply(padded).ok());
}

TEST(NetClientTest, FormatBatchReplyMatchesHarnessShape) {
  BatchResult batch;
  QueryResult one;
  one.status = Status::OK();
  one.estimate = 150.0;
  QueryResult failed;
  failed.status = Status::InvalidArgument("bad query");
  batch.results = {one, failed};
  batch.stats.ok = 1;
  batch.stats.failed = 1;
  batch.stats.wall_ns = 42000;
  Result<BatchReplyFrame> reply =
      DecodeBatchReply(EncodeBatchReply(batch, false));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(FormatBatchReply(reply.value(), false),
            "ok batch n=2 ok=1 err=1 us=42\n"
            "0 ok 150\n"
            "1 err InvalidArgument: bad query\n");
}

TEST(NetClientTest, ParseHostPortAcceptsValidAndRejectsJunk) {
  Result<HostPort> parsed = ParseHostPort("127.0.0.1:8080");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().host, "127.0.0.1");
  EXPECT_EQ(parsed.value().port, 8080);

  EXPECT_FALSE(ParseHostPort("no-port-here").ok());
  EXPECT_FALSE(ParseHostPort("host:notanumber").ok());
  EXPECT_FALSE(ParseHostPort("host:99999").ok());
  EXPECT_FALSE(ParseHostPort(":1234").ok());
}

}  // namespace
}  // namespace net
}  // namespace xcluster
