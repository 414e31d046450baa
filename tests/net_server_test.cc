#include "net/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry/telemetry.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "raw_peer.h"
#include "service/harness.h"
#include "service/service.h"

namespace xcluster {
namespace net {
namespace {

XCluster MakeFixture() {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNone, 10.0);
  SynNodeId b = synopsis.AddNode("B", ValueType::kNone, 100.0);
  synopsis.AddEdge(r, a, 10.0);
  synopsis.AddEdge(a, b, 10.0);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return XCluster(std::move(synopsis));
}

/// Spins (up to ~5s) until `done` holds; the event loop runs on its own
/// thread, so observable effects of a disconnect are eventually-consistent.
bool WaitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 5000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

class NetServerTest : public ::testing::Test {
 protected:
  NetServerTest() {
    ServiceOptions options;
    options.executor.num_threads = 2;
    service_ = std::make_unique<EstimationService>(options);
    service_->store().Install("books", MakeFixture());
  }

  /// Starts a loopback server with the given options (host/port forced).
  void StartServer(NetServerOptions options = {}) {
    options.host = "127.0.0.1";
    options.port = 0;
    server_ = std::make_unique<NetServer>(service_.get(), options);
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  NetClient ConnectOrDie() {
    Result<NetClient> client = NetClient::Connect("127.0.0.1",
                                                  server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::unique_ptr<EstimationService> service_;
  std::unique_ptr<NetServer> server_;
};

TEST_F(NetServerTest, CommandRoundTripMatchesStdioResponses) {
  StartServer();
  NetClient client = ConnectOrDie();

  Result<std::string> reply = client.Command("estimate books /A");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().rfind("ok estimate 10 us=", 0), 0u)
      << reply.value();

  reply = client.Command("list");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().rfind("ok list 1\n", 0), 0u) << reply.value();

  reply = client.Command("estimate missing /A");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().rfind("err NotFound", 0), 0u) << reply.value();

  // The text `batch` command needs follow-up lines, which frames don't
  // have; the transport directs callers to the packed batch frame.
  reply = client.Command("batch books 2");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().rfind("err batch requires", 0), 0u)
      << reply.value();

  EXPECT_TRUE(client.Close().ok());
  EXPECT_TRUE(WaitFor([&] { return server_->active_connections() == 0; }));
}

TEST_F(NetServerTest, BatchFrameIsBitIdenticalToInProcessRun) {
  StartServer();
  std::vector<std::string> queries = {"/A", "/A/B", "][broken", "/A"};
  // In-process reference run on an identical second service, so the
  // remote run's plan/reach caches start equally cold.
  EstimationService reference;
  reference.store().Install("books", MakeFixture());
  BatchResult expected = reference.EstimateBatch("books", queries, {});

  NetClient client = ConnectOrDie();
  Result<BatchReplyFrame> reply = client.Batch("books", queries, {});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().items.size(), expected.results.size());
  for (size_t i = 0; i < expected.results.size(); ++i) {
    const BatchReplyItem& item = reply.value().items[i];
    EXPECT_EQ(item.ok, expected.results[i].status.ok()) << i;
    if (item.ok) {
      // PutDouble ships the IEEE-754 bit pattern, so exact equality is
      // the contract, not an approximation.
      EXPECT_EQ(item.estimate, expected.results[i].estimate) << i;
    } else {
      EXPECT_EQ(item.error, expected.results[i].status.ToString()) << i;
    }
  }
  EXPECT_EQ(reply.value().stats.ok, expected.stats.ok);
  EXPECT_EQ(reply.value().stats.failed, expected.stats.failed);
}

TEST_F(NetServerTest, BatchEstimatesAreWorkerCountInvariant) {
  StartServer();
  std::vector<std::string> queries;
  for (int i = 0; i < 200; ++i) {
    queries.push_back(i % 2 == 0 ? "/A" : "/A/B");
  }
  NetClient client = ConnectOrDie();
  Result<BatchReplyFrame> serial = client.Batch("books", queries, {});
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  ServiceOptions wide;
  wide.executor.num_threads = 8;
  EstimationService wide_service(wide);
  wide_service.store().Install("books", MakeFixture());
  NetServerOptions net_options;
  net_options.host = "127.0.0.1";
  NetServer wide_server(&wide_service, net_options);
  ASSERT_TRUE(wide_server.Start().ok());
  Result<NetClient> wide_client =
      NetClient::Connect("127.0.0.1", wide_server.port());
  ASSERT_TRUE(wide_client.ok());
  Result<BatchReplyFrame> parallel =
      wide_client.value().Batch("books", queries, {});
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ASSERT_EQ(parallel.value().items.size(), serial.value().items.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(parallel.value().items[i].estimate,
              serial.value().items[i].estimate)
        << queries[i];
  }
}

TEST_F(NetServerTest, OversizedFrameRejectedWithErrorFrame) {
  NetServerOptions options;
  options.max_frame_bytes = 1024;
  StartServer(options);
  NetClient client = ConnectOrDie();

  Result<std::string> reply =
      client.Command("estimate books " + std::string(4096, 'x'));
  EXPECT_FALSE(reply.ok());
  EXPECT_NE(reply.status().ToString().find("exceeds"), std::string::npos)
      << reply.status().ToString();

  NetServer::Stats stats = server_->stats();
  EXPECT_GE(stats.protocol_errors, 1u);
  EXPECT_TRUE(WaitFor([&] { return server_->active_connections() == 0; }));
}

TEST_F(NetServerTest, MidFrameDisconnectIsCountedAndReleasesConnection) {
  StartServer();
  {
    Result<ScopedFd> raw = TcpConnect("127.0.0.1", server_->port());
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    ASSERT_TRUE(WaitFor([&] { return server_->active_connections() == 1; }));

    // First half of a legitimate hello frame, then vanish.
    Frame hello;
    hello.type = FrameType::kHello;
    hello.payload = EncodeHello(HelloRequest{});
    std::string wire;
    EncodeFrame(hello, &wire);
    ASSERT_TRUE(
        WriteAll(raw.value().get(), wire.data(), wire.size() / 2).ok());
    // Let the server observe the partial frame before the close.
    ASSERT_TRUE(WaitFor([&] { return server_->stats().bytes_rx > 0; }));
  }  // ScopedFd closes the socket mid-frame

  EXPECT_TRUE(WaitFor(
      [&] { return server_->stats().midframe_disconnects == 1; }));
  EXPECT_TRUE(WaitFor([&] { return server_->active_connections() == 0; }));
}

TEST_F(NetServerTest, GarbageBeforeHelloGetsProtocolError) {
  StartServer();
  Result<ScopedFd> raw = TcpConnect("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());
  // A valid frame of the wrong type: command before hello.
  Frame premature;
  premature.type = FrameType::kCommand;
  premature.payload = "estimate books /A";
  std::string wire;
  EncodeFrame(premature, &wire);
  ASSERT_TRUE(WriteAll(raw.value().get(), wire.data(), wire.size()).ok());

  // The error frame comes back, then the server closes.
  FrameDecoder decoder;
  char chunk[4096];
  Frame reply;
  bool have_frame = false;
  while (!have_frame) {
    size_t got = 0;
    ASSERT_TRUE(ReadSome(raw.value().get(), chunk, sizeof(chunk), &got).ok());
    ASSERT_GT(got, 0u) << "server closed before sending the error frame";
    decoder.Feed(chunk, got);
    ASSERT_TRUE(decoder.Next(&reply, &have_frame).ok());
  }
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_NE(reply.payload.find("expected hello"), std::string::npos)
      << reply.payload;
  EXPECT_TRUE(WaitFor([&] { return server_->active_connections() == 0; }));
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(NetServerTest, HelloWithoutTheProtocolVersionIsRefused) {
  StartServer();
  Result<RawPeer> peer = RawPeer::Connect(server_->port());
  ASSERT_TRUE(peer.ok()) << peer.status().ToString();
  Frame answer;
  // Version 4 alone: the batch_reply layout that carried per-slot
  // latencies.
  ASSERT_TRUE(peer.value().Hello(4, 4, &answer).ok());
  EXPECT_EQ(answer.type, FrameType::kError);
  EXPECT_NE(answer.payload.find("no common protocol version"),
            std::string::npos)
      << answer.payload;
  EXPECT_TRUE(WaitFor([&] { return server_->active_connections() == 0; }));
}

TEST_F(NetServerTest, ConnectionCapShedsWithCapacityError) {
  NetServerOptions options;
  options.max_connections = 2;
  StartServer(options);

  NetClient first = ConnectOrDie();
  NetClient second = ConnectOrDie();
  ASSERT_TRUE(WaitFor([&] { return server_->active_connections() == 2; }));
#if XCLUSTER_TELEMETRY_ENABLED
  const telemetry::Counter* frames_tx =
      telemetry::MetricsRegistry::Global().GetCounter("net.frames.tx");
  const uint64_t counted_before = frames_tx->value();
  const uint64_t sent_before = server_->stats().frames_tx;
#endif

  Result<NetClient> third = NetClient::Connect("127.0.0.1", server_->port());
  EXPECT_FALSE(third.ok());
  EXPECT_NE(third.status().ToString().find("connection capacity"),
            std::string::npos)
      << third.status().ToString();
  EXPECT_TRUE(WaitFor([&] { return server_->stats().rejected == 1; }));
#if XCLUSTER_TELEMETRY_ENABLED
  // The refusal is a frame like any other: the exported counter sees it.
  EXPECT_TRUE(WaitFor([&] {
    const uint64_t sent = server_->stats().frames_tx - sent_before;
    return sent >= 1 && frames_tx->value() - counted_before == sent;
  })) << "net.frames.tx grew by " << frames_tx->value() - counted_before
      << ", stats().frames_tx by " << server_->stats().frames_tx - sent_before;
#endif

  // The admitted connections keep working while the cap sheds the third.
  Result<std::string> reply = first.Command("estimate books /A");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().rfind("ok estimate", 0), 0u);

  // Releasing one slot re-opens admission.
  EXPECT_TRUE(second.Close().ok());
  ASSERT_TRUE(WaitFor([&] { return server_->active_connections() == 1; }));
  Result<NetClient> fourth = NetClient::Connect("127.0.0.1", server_->port());
  EXPECT_TRUE(fourth.ok()) << fourth.status().ToString();
}

TEST_F(NetServerTest, QuitCommandClosesTheConnection) {
  StartServer();
  NetClient client = ConnectOrDie();
  Result<std::string> reply = client.Command("quit");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value(), "ok bye\n");
  EXPECT_TRUE(WaitFor([&] { return server_->active_connections() == 0; }));
}

TEST_F(NetServerTest, DrainFinishesInFlightConnectionsAndStops) {
  StartServer();
  NetClient client = ConnectOrDie();
  ASSERT_TRUE(WaitFor([&] { return server_->active_connections() == 1; }));

  server_->RequestDrain();
  server_->AwaitTermination();
  EXPECT_EQ(server_->active_connections(), 0u);

  // Drained server no longer accepts.
  Result<NetClient> late = NetClient::Connect("127.0.0.1", server_->port());
  EXPECT_FALSE(late.ok());
}

TEST_F(NetServerTest, DrainViaWakePipeByte) {
  StartServer();
  // What a SIGTERM handler does: one write(2) on the drain fd.
  const char byte = 1;
  ASSERT_EQ(::write(server_->drain_fd(), &byte, 1), 1);
  server_->AwaitTermination();
  EXPECT_EQ(server_->active_connections(), 0u);
}

TEST_F(NetServerTest, FaultSuiteLeavesNoConnectionBehind) {
  NetServerOptions options;
  options.max_frame_bytes = 4096;
  StartServer(options);

  // 1. Abrupt close with no traffic at all.
  { auto raw = TcpConnect("127.0.0.1", server_->port()); }
  // 2. Mid-frame disconnect.
  {
    auto raw = TcpConnect("127.0.0.1", server_->port());
    ASSERT_TRUE(raw.ok());
    Frame hello;
    hello.type = FrameType::kHello;
    hello.payload = EncodeHello(HelloRequest{});
    std::string wire;
    EncodeFrame(hello, &wire);
    ASSERT_TRUE(WriteAll(raw.value().get(), wire.data(), 5).ok());
    ASSERT_TRUE(WaitFor([&] { return server_->stats().bytes_rx >= 5; }));
  }
  // 3. Oversized frame.
  {
    Result<NetClient> client =
        NetClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    Result<std::string> reply =
        client.value().Command(std::string(1 << 20, 'x'));
    EXPECT_FALSE(reply.ok());
  }
  // 4. Pure garbage bytes.
  {
    auto raw = TcpConnect("127.0.0.1", server_->port());
    ASSERT_TRUE(raw.ok());
    const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(
        WriteAll(raw.value().get(), garbage.data(), garbage.size()).ok());
    // "GET " decodes as a huge length: the server answers with an error
    // frame and closes; we just vanish without reading it.
  }
  // 5. A well-behaved client, to prove service continues.
  {
    NetClient client = ConnectOrDie();
    Result<std::string> reply = client.Command("estimate books /A/B");
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.value().rfind("ok estimate 100 us=", 0), 0u)
        << reply.value();
  }

  EXPECT_TRUE(WaitFor([&] { return server_->active_connections() == 0; }))
      << "leaked connections: " << server_->active_connections();
  NetServer::Stats stats = server_->stats();
  EXPECT_GE(stats.midframe_disconnects, 1u);
  EXPECT_GE(stats.protocol_errors, 1u);
  EXPECT_GE(stats.accepted, 5u);
}

}  // namespace
}  // namespace net
}  // namespace xcluster
