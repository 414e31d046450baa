// Overload and fault scenarios for the QoS-enabled serving stack: flash
// crowds, quota exhaustion, slow consumers, and the client retry contract,
// driven against live in-process services and socket servers. The
// scenario shapes mirror scripts/chaos_smoke.sh; these are the
// deterministic in-process versions that run under ASan/TSan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry/metrics.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "service/admission.h"
#include "service/service.h"

namespace xcluster {
namespace net {
namespace {

using telemetry::MonotonicNowNs;

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

bool WaitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 5000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// Flash crowd: three bulk floods hammer a quota-limited collection while
// an interactive caller issues point batches against an unlimited one.
// The interactive lane must see zero sheds and bounded latency; the bulk
// lane must be shed and then succeed within its bounded retry budget.
TEST(OverloadTest, FlashCrowdShedsBulkButNotInteractive) {
  ServiceOptions options;
  options.executor.num_threads = 8;
  options.executor.queue_capacity = 1024;
  EstimationService service(options);
  service.store().Install("books", MakeFixture());
  service.store().Install("bulkdata", MakeFixture());
  service.admission().SetQuota("bulkdata", /*rate_per_sec=*/100.0,
                               /*burst=*/16.0);

  constexpr int kFloodThreads = 3;
  constexpr int kBulkBatch = 16;
  std::atomic<int> bulk_sheds{0};
  std::atomic<int> bulk_successes_after_shed{0};
  std::atomic<bool> flood_failed{false};
  std::vector<std::thread> flood;
  flood.reserve(kFloodThreads);
  for (int t = 0; t < kFloodThreads; ++t) {
    flood.emplace_back([&] {
      const std::vector<std::string> queries(kBulkBatch, "/A");
      BatchOptions bulk;
      bulk.lane = Lane::kBulk;
      bool was_shed = false;
      // Bounded retry loop: every flood thread must land one batch after
      // being shed, honoring the server's retry-after hint.
      for (int attempt = 0; attempt < 100; ++attempt) {
        BatchResult batch = service.EstimateBatch("bulkdata", queries, bulk);
        if (batch.admission.ok()) {
          if (was_shed) {
            ++bulk_successes_after_shed;
            return;
          }
          continue;  // admitted before any shed: flood again
        }
        EXPECT_EQ(batch.admission.code(), Status::Code::kUnavailable);
        EXPECT_GT(batch.retry_after_ms, 0u);
        was_shed = true;
        ++bulk_sheds;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(batch.retry_after_ms));
      }
      flood_failed = true;  // never recovered within the retry budget
    });
  }

  // Interactive point batches, issued concurrently with the flood.
  constexpr int kInteractiveBatches = 100;
  std::vector<uint64_t> wall_ns;
  wall_ns.reserve(kInteractiveBatches);
  const std::vector<std::string> point = {"/A", "/A/B", "/A", "/A/B"};
  for (int i = 0; i < kInteractiveBatches; ++i) {
    const uint64_t begin = MonotonicNowNs();
    BatchResult batch = service.EstimateBatch("books", point, BatchOptions{});
    wall_ns.push_back(MonotonicNowNs() - begin);
    ASSERT_TRUE(batch.admission.ok()) << batch.admission.ToString();
    EXPECT_EQ(batch.stats.ok, point.size());
  }
  for (std::thread& thread : flood) thread.join();

  EXPECT_FALSE(flood_failed.load())
      << "a shed bulk client never recovered within its retry budget";
  EXPECT_GT(bulk_sheds.load(), 0);
  EXPECT_EQ(bulk_successes_after_shed.load(), kFloodThreads);

  std::sort(wall_ns.begin(), wall_ns.end());
  const uint64_t p99 = wall_ns[wall_ns.size() * 99 / 100];
  EXPECT_LT(p99, uint64_t{1'000'000'000}) << "interactive p99 " << p99
                                          << "ns under flood";

  const AdmissionController::Stats stats = service.admission().stats();
  EXPECT_EQ(stats.lane_shed[static_cast<size_t>(Lane::kInteractive)], 0u);
  EXPECT_GT(stats.lane_shed[static_cast<size_t>(Lane::kBulk)], 0u);
  EXPECT_GT(stats.shed_quota, 0u);
}

// Quota exhaustion and recovery: a shed batch reports Unavailable on every
// slot plus the batch-level retry-after hint, and the same batch succeeds
// once the hinted wait has refilled the bucket.
TEST(OverloadTest, QuotaShedCarriesRetryAfterAndRecovers) {
  ServiceOptions options;
  options.executor.num_threads = 2;
  EstimationService service(options);
  service.store().Install("books", MakeFixture());
  service.admission().SetQuota("books", /*rate_per_sec=*/200.0,
                               /*burst=*/4.0);

  const std::vector<std::string> queries = {"/A", "/A/B", "/A", "/A/B"};
  BatchResult first = service.EstimateBatch("books", queries, BatchOptions{});
  ASSERT_TRUE(first.admission.ok()) << first.admission.ToString();
  EXPECT_EQ(first.stats.ok, queries.size());

  BatchResult shed = service.EstimateBatch("books", queries, BatchOptions{});
  ASSERT_FALSE(shed.admission.ok());
  EXPECT_EQ(shed.admission.code(), Status::Code::kUnavailable);
  EXPECT_GT(shed.retry_after_ms, 0u);
  ASSERT_EQ(shed.results.size(), queries.size());
  for (const QueryResult& result : shed.results) {
    EXPECT_EQ(result.status.code(), Status::Code::kUnavailable);
  }
  // Nothing reached the workers: the batch was refused as a unit.
  EXPECT_EQ(shed.stats.ok, 0u);

  std::this_thread::sleep_for(
      std::chrono::milliseconds(shed.retry_after_ms + 5));
  BatchResult retried =
      service.EstimateBatch("books", queries, BatchOptions{});
  EXPECT_TRUE(retried.admission.ok()) << retried.admission.ToString();
  EXPECT_EQ(retried.stats.ok, queries.size());
}

// Fail-fast satellite: a batch whose deadline has already elapsed marks
// every remaining query deadline_expired up front — no task dispatch, no
// estimator work.
TEST(OverloadTest, ExpiredBatchFailsFastWithoutDispatch) {
  ServiceOptions options;
  options.executor.num_threads = 2;
  EstimationService service(options);
  service.store().Install("books", MakeFixture());

  const uint64_t submitted_before = service.executor().stats().submitted;
  BatchOptions expired;
  expired.deadline_ns = 1;  // relative: expires 1ns after the batch starts
  const std::vector<std::string> queries(64, "/A");
  BatchResult batch = service.EstimateBatch("books", queries, expired);
  EXPECT_TRUE(batch.admission.ok());  // cold EWMA: not shed, just expired
  EXPECT_EQ(batch.stats.ok, 0u);
  EXPECT_EQ(batch.stats.failed, queries.size());
  for (const QueryResult& result : batch.results) {
    EXPECT_EQ(result.status.code(), Status::Code::kDeadlineExceeded);
  }
  // The fail-fast path must not have fed the executor at all.
  EXPECT_EQ(service.executor().stats().submitted, submitted_before);
}

// Client retry contract over a live socket: a client whose batch is shed
// receives the typed kShed frame (connection stays open), backs off
// per the server hint, and succeeds within its attempt budget.
TEST(OverloadTest, ShedBatchRetriesOverSocketAndSucceeds) {
  ServiceOptions options;
  options.executor.num_threads = 2;
  EstimationService service(options);
  service.store().Install("books", MakeFixture());
  service.admission().SetQuota("books", /*rate_per_sec=*/100.0,
                               /*burst=*/4.0);

  NetServerOptions net_options;
  net_options.host = "127.0.0.1";
  NetServer server(&service, net_options);
  ASSERT_TRUE(server.Start().ok());

  NetClientOptions client_options;
  client_options.retry.max_attempts = 10;
  client_options.retry.initial_backoff_ms = 5;
  Result<NetClient> client =
      NetClient::Connect("127.0.0.1", server.port(), client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const std::vector<std::string> queries = {"/A", "/A/B", "/A", "/A/B"};
  Result<BatchReplyFrame> first = client.value().Batch("books", queries, {});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(client.value().last_attempts(), 1);

  // Bucket drained: this batch is shed at least once, then admitted after
  // the hinted refill wait. The same connection carries all attempts.
  Result<BatchReplyFrame> second = client.value().Batch("books", queries, {});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(client.value().last_attempts(), 1);
  EXPECT_EQ(second.value().stats.ok, queries.size());
  EXPECT_GE(server.stats().sheds, 1u);

  // With retries disabled the shed surfaces as Unavailable + hint.
  NetClientOptions no_retry;
  Result<NetClient> impatient =
      NetClient::Connect("127.0.0.1", server.port(), no_retry);
  ASSERT_TRUE(impatient.ok());
  Result<BatchReplyFrame> refused =
      impatient.value().Batch("books", queries, {});
  if (!refused.ok()) {
    EXPECT_EQ(refused.status().code(), Status::Code::kUnavailable);
    EXPECT_GT(impatient.value().last_retry_after_ms(), 0u);
    // The kShed frame does not close the connection: the same client can
    // keep issuing commands.
    Result<std::string> still_alive =
        impatient.value().Command("estimate books /A");
    EXPECT_TRUE(still_alive.ok()) << still_alive.status().ToString();
  }
}

// Slow consumer: a client that floods requests but never reads its
// responses trips the write-buffer cap and is disconnected, while a
// well-behaved client on the same server keeps getting answers.
TEST(OverloadTest, SlowConsumerIsDisconnectedOthersUnaffected) {
  ServiceOptions options;
  options.executor.num_threads = 2;
  EstimationService service(options);
  service.store().Install("books", MakeFixture());

  NetServerOptions net_options;
  net_options.host = "127.0.0.1";
  net_options.max_write_buffer_bytes = 64 * 1024;
  NetServer server(&service, net_options);
  ASSERT_TRUE(server.Start().ok());

  Result<ScopedFd> slow = TcpConnect("127.0.0.1", server.port());
  ASSERT_TRUE(slow.ok());
  const int fd = slow.value().get();
  {
    Frame hello;
    hello.type = FrameType::kHello;
    hello.payload = EncodeHello(HelloRequest{});
    std::string wire;
    EncodeFrame(hello, &wire);
    ASSERT_TRUE(WriteAll(fd, wire.data(), wire.size()).ok());
  }
  // Never read the ack or anything else; blast commands whose responses
  // echo a large token, so the per-connection outbuf outruns the cap no
  // matter how much the kernel socket buffers absorb.
  const std::string big_command(48 * 1024, 'z');
  Frame flood;
  flood.type = FrameType::kCommand;
  flood.payload = big_command;
  std::string wire;
  EncodeFrame(flood, &wire);
  bool write_failed = false;
  for (int i = 0; i < 256 && !write_failed; ++i) {
    // Once the server disconnects us mid-flood the write fails; that is
    // the expected outcome, not an error.
    write_failed = !WriteAll(fd, wire.data(), wire.size()).ok();
  }
  EXPECT_TRUE(
      WaitFor([&] { return server.stats().write_overflows >= 1; }))
      << "slow consumer was never disconnected";

  // Service continues for a client that reads its responses.
  Result<NetClient> healthy = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  Result<std::string> reply = healthy.value().Command("estimate books /A");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().rfind("ok estimate 10 us=", 0), 0u);
  EXPECT_TRUE(WaitFor([&] { return server.active_connections() <= 1; }));
}

// Connect timeout satellite: a connect() against a non-routable address
// returns DeadlineExceeded within the configured budget instead of
// hanging for the kernel's SYN-retry cycle.
TEST(OverloadTest, ConnectTimeoutSurfacesAsDeadlineExceeded) {
  NetClientOptions options;
  options.connect_timeout_ms = 200;
  const uint64_t begin = MonotonicNowNs();
  // TEST-NET-1 (192.0.2.0/24) is reserved and never routable.
  Result<NetClient> client = NetClient::Connect("192.0.2.1", 9, options);
  const uint64_t elapsed_ms = (MonotonicNowNs() - begin) / 1'000'000;
  ASSERT_FALSE(client.ok());
  // Some sandboxes refuse the route immediately (EACCES/ENETUNREACH →
  // IOError); where the packet black-holes, the poll timeout must fire.
  if (client.status().code() == Status::Code::kDeadlineExceeded) {
    EXPECT_NE(client.status().ToString().find("timed out"),
              std::string::npos);
    EXPECT_LT(elapsed_ms, 5000u) << "timeout did not bound the connect";
  }
}

// Determinism gate: estimates with QoS enabled (admission on by default,
// bulk lane, quotas installed) are bit-identical between a 1-worker and an
// 8-worker service.
TEST(OverloadTest, EstimatesAreBitIdenticalAcrossWorkersWithQosEnabled) {
  std::vector<std::string> queries;
  for (int i = 0; i < 200; ++i) {
    queries.push_back(i % 2 == 0 ? "/A" : "/A/B");
  }

  auto run = [&](size_t workers) {
    ServiceOptions options;
    options.executor.num_threads = workers;
    EstimationService service(options);
    service.store().Install("books", MakeFixture());
    service.admission().SetQuota("books", 1e9, 1e9);  // present, never sheds
    BatchOptions bulk;
    bulk.lane = Lane::kBulk;
    return service.EstimateBatch("books", queries, bulk);
  };

  BatchResult serial = run(1);
  BatchResult parallel = run(8);
  ASSERT_EQ(serial.results.size(), parallel.results.size());
  EXPECT_EQ(serial.stats.ok, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(serial.results[i].status.ok());
    ASSERT_TRUE(parallel.results[i].status.ok());
    // Bit-for-bit, not approximately: the QoS layer reorders scheduling,
    // never arithmetic.
    EXPECT_EQ(serial.results[i].estimate, parallel.results[i].estimate)
        << queries[i];
  }
}

}  // namespace
}  // namespace net
}  // namespace xcluster
