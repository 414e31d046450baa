#include "service/admission.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry/metrics.h"
#include "net/client.h"
#include "service/executor.h"
#include "worker_pin.h"

namespace xcluster {
namespace {

using telemetry::MonotonicNowNs;

constexpr uint64_t kMs = 1'000'000;    // ns per millisecond
constexpr uint64_t kSec = 1'000'000'000;

TEST(LaneTest, NamesRoundTrip) {
  EXPECT_STREQ(LaneName(Lane::kInteractive), "interactive");
  EXPECT_STREQ(LaneName(Lane::kBulk), "bulk");
  Lane lane = Lane::kBulk;
  EXPECT_TRUE(ParseLane("interactive", &lane));
  EXPECT_EQ(lane, Lane::kInteractive);
  EXPECT_TRUE(ParseLane("bulk", &lane));
  EXPECT_EQ(lane, Lane::kBulk);
  EXPECT_FALSE(ParseLane("batch", &lane));
  EXPECT_FALSE(ParseLane("", &lane));
}

// The bucket takes its clock as a parameter, so refill arithmetic is
// testable exactly: 10 tokens/sec, burst 5, starting full at t=0.
TEST(TokenBucketTest, BurstThenRefillMath) {
  TokenBucket bucket(10.0, 5.0, 0);
  uint64_t retry_after_ms = 0;
  EXPECT_TRUE(bucket.TryCharge(5.0, 0, &retry_after_ms));
  EXPECT_DOUBLE_EQ(bucket.TokensAt(0), 0.0);

  // Empty: one token is 1/10 s away.
  EXPECT_FALSE(bucket.TryCharge(1.0, 0, &retry_after_ms));
  EXPECT_EQ(retry_after_ms, 100u);

  // After exactly that wait the same charge succeeds.
  EXPECT_TRUE(bucket.TryCharge(1.0, 100 * kMs, &retry_after_ms));

  // The bucket never refills past its burst.
  EXPECT_DOUBLE_EQ(bucket.TokensAt(60 * kSec), 5.0);
}

// An oversized request (cost > burst) is admitted when the bucket is full
// and drives it into debt, so it pays the long-run rate instead of being
// unadmittable forever.
TEST(TokenBucketTest, OversizedChargeGoesIntoDebt) {
  TokenBucket bucket(10.0, 5.0, 0);
  uint64_t retry_after_ms = 0;
  EXPECT_TRUE(bucket.TryCharge(50.0, 0, &retry_after_ms));
  EXPECT_DOUBLE_EQ(bucket.TokensAt(0), -45.0);

  // Until the debt is repaid even a single-token charge waits:
  // (1 - (-45)) / 10 per sec = 4.6 s.
  EXPECT_FALSE(bucket.TryCharge(1.0, 0, &retry_after_ms));
  EXPECT_EQ(retry_after_ms, 4600u);

  // Five seconds of refill clears the debt and caps at the burst.
  EXPECT_DOUBLE_EQ(bucket.TokensAt(5 * kSec + 500 * kMs), 5.0);
}

TEST(BackoffTest, RetryAfterHintTakesPrecedence) {
  net::RetryOptions options;
  options.initial_backoff_ms = 25;
  options.max_backoff_ms = 2000;
  // jitter_draw with all-ones mantissa bits: factor rounds to exactly 1.0,
  // so the delay is the undamped base — the easiest point to pin down.
  const uint64_t kFullDraw = ~uint64_t{0};
  // No hint: exponential 25, 50, 100, ... capped at max.
  EXPECT_EQ(net::BackoffDelayMs(options, 1, 0, kFullDraw), 25u);
  EXPECT_EQ(net::BackoffDelayMs(options, 2, 0, kFullDraw), 50u);
  EXPECT_EQ(net::BackoffDelayMs(options, 3, 0, kFullDraw), 100u);
  EXPECT_LE(net::BackoffDelayMs(options, 30, 0, kFullDraw),
            options.max_backoff_ms);
  // A server hint replaces the schedule as the base.
  EXPECT_EQ(net::BackoffDelayMs(options, 1, 500, kFullDraw), 500u);
}

TEST(BackoffTest, JitterStaysWithinHalfToFull) {
  net::RetryOptions options;
  // Draw 0: factor exactly 0.5. The full draw lands within 1ms of the base.
  EXPECT_EQ(net::BackoffDelayMs(options, 1, 1000, 0), 500u);
  for (uint64_t draw : {uint64_t{1}, uint64_t{1} << 40, ~uint64_t{0}}) {
    const uint64_t delay = net::BackoffDelayMs(options, 1, 1000, draw);
    EXPECT_GE(delay, 500u);
    EXPECT_LE(delay, 1000u);
    // Deterministic: the same draw always produces the same delay.
    EXPECT_EQ(delay, net::BackoffDelayMs(options, 1, 1000, draw));
  }
}

TEST(AdmissionTest, QuotaShedsWholeBatchWithRetryAfter) {
  Executor executor;  // inline; quotas apply regardless of pool mode
  AdmissionController admission(&executor, AdmissionOptions{});
  admission.SetQuota("books", 1000.0, 8.0);

  uint64_t retry_after_ms = 0;
  EXPECT_TRUE(admission
                  .AdmitBatch("books", Lane::kInteractive, 8, 0,
                              &retry_after_ms)
                  .ok());
  Status shed = admission.AdmitBatch("books", Lane::kInteractive, 8, 0,
                                     &retry_after_ms);
  EXPECT_EQ(shed.code(), Status::Code::kUnavailable);
  EXPECT_GE(retry_after_ms, kMinRetryAfterMs);

  // Collections without a quota are never quota-shed.
  EXPECT_TRUE(admission
                  .AdmitBatch("other", Lane::kBulk, 1000, 0, &retry_after_ms)
                  .ok());

  const AdmissionController::Stats stats = admission.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed_quota, 1u);
  EXPECT_EQ(stats.shed_deadline, 0u);
  EXPECT_EQ(stats.lane_admitted[static_cast<size_t>(Lane::kInteractive)], 8u);
  EXPECT_EQ(stats.lane_shed[static_cast<size_t>(Lane::kInteractive)], 8u);
  EXPECT_EQ(stats.lane_admitted[static_cast<size_t>(Lane::kBulk)], 1000u);

  EXPECT_TRUE(admission.RemoveQuota("books"));
  EXPECT_FALSE(admission.RemoveQuota("books"));
  // Quota gone: the formerly exhausted collection admits freely.
  EXPECT_TRUE(admission
                  .AdmitBatch("books", Lane::kInteractive, 64, 0,
                              &retry_after_ms)
                  .ok());
}

// Deficit round robin by lane: with the one worker pinned, a freshly
// arrived interactive batch (weight 8) overtakes a bulk batch's deep
// backlog (weight 1) at pop time. The bulk flow's turn comes first (it
// joined the round first) and pops one task; the interactive flow's turn
// then pops all eight of its tasks.
TEST(AdmissionTest, InteractiveOvertakesBulkBacklog) {
  ExecutorOptions executor_options;
  executor_options.num_threads = 1;
  executor_options.queue_capacity = 1024;
  Executor executor(executor_options);
  AdmissionController admission(&executor, AdmissionOptions{});  // 8:1
  WorkerPin pin(&executor);

  constexpr int kBulk = 32;
  constexpr int kInteractive = 8;
  std::mutex order_mu;
  std::vector<std::string> completion_order;
  auto record = [&](const char* label) {
    return [&, label](const Executor::TaskContext&) {
      std::lock_guard<std::mutex> lock(order_mu);
      completion_order.push_back(label);
    };
  };

  const ExecutorFlow bulk = admission.NewFlow(Lane::kBulk);
  const ExecutorFlow interactive = admission.NewFlow(Lane::kInteractive);
  EXPECT_NE(bulk.id, interactive.id);
  EXPECT_EQ(bulk.weight, 1u);
  EXPECT_EQ(interactive.weight, 8u);
  for (int i = 0; i < kBulk; ++i) {
    ASSERT_TRUE(executor.Submit(record("bulk"), 0, bulk).ok());
  }
  for (int i = 0; i < kInteractive; ++i) {
    ASSERT_TRUE(executor.Submit(record("interactive"), 0, interactive).ok());
  }
  pin.Release();
  executor.Shutdown(true);

  ASSERT_EQ(completion_order.size(), static_cast<size_t>(kBulk + kInteractive));
  size_t last_interactive = 0;
  for (size_t i = 0; i < completion_order.size(); ++i) {
    if (completion_order[i] == "interactive") last_interactive = i;
  }
  size_t bulk_before = 0;
  for (size_t i = 0; i < last_interactive; ++i) {
    if (completion_order[i] == "bulk") ++bulk_before;
  }
  EXPECT_LE(bulk_before, 1u)
      << "interactive batch queued behind the bulk backlog";
}

// Deadline-slack shedding: once the executor has timed a slow task and a
// backlog exists, a batch whose deadline is already unreachable is shed
// at admission instead of expiring query by query in the queue.
TEST(AdmissionTest, UnreachableDeadlineIsShedAfterWarmup) {
  ExecutorOptions executor_options;
  executor_options.num_threads = 1;
  Executor executor(executor_options);
  AdmissionController admission(&executor, AdmissionOptions{});

  // Cold executor: no samples, never sheds on slack.
  uint64_t retry_after_ms = 0;
  EXPECT_EQ(executor.EstimatedBacklogWaitNs(), 0u);
  EXPECT_TRUE(admission
                  .AdmitBatch("c", Lane::kInteractive, 1,
                              MonotonicNowNs() + 1, &retry_after_ms)
                  .ok());

  // Warm the EWMA with one deliberately slow task.
  std::atomic<int> done{0};
  ASSERT_TRUE(executor
                  .Submit([&](const Executor::TaskContext&) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                    ++done;
                  })
                  .ok());
  while (done.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Pin the worker and build a backlog so the slack estimate is real.
  WorkerPin pin(&executor);
  const ExecutorFlow backlog = admission.NewFlow(Lane::kBulk);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(executor
                    .Submit([&](const Executor::TaskContext&) { ++done; }, 0,
                            backlog)
                    .ok());
  }
  EXPECT_GT(executor.EstimatedBacklogWaitNs(), 0u);

  // ~50ms EWMA x 5 backlogged tasks: a 1ns-slack deadline cannot be met.
  Status shed = admission.AdmitBatch("c", Lane::kInteractive, 4,
                                     MonotonicNowNs() + 1, &retry_after_ms);
  EXPECT_EQ(shed.code(), Status::Code::kUnavailable);
  EXPECT_GE(retry_after_ms, kMinRetryAfterMs);
  EXPECT_EQ(admission.stats().shed_deadline, 1u);

  // A deadline-free batch is never slack-shed, whatever the backlog.
  EXPECT_TRUE(
      admission.AdmitBatch("c", Lane::kBulk, 4, 0, &retry_after_ms).ok());
  // And a generous deadline clears the estimate.
  EXPECT_TRUE(admission
                  .AdmitBatch("c", Lane::kInteractive, 4,
                              MonotonicNowNs() + 60 * kSec, &retry_after_ms)
                  .ok());

  pin.Release();
  executor.Shutdown(true);
  EXPECT_EQ(done.load(), 5);
}

// Shutdown with work still queued: the controller stops admitting, and
// the executor invokes every queued task of every flow exactly once, with
// `cancelled` set, so completion-counting callers never hang.
TEST(AdmissionTest, ShutdownCancelsQueuedTasksExactlyOnce) {
  ExecutorOptions executor_options;
  executor_options.num_threads = 1;
  Executor executor(executor_options);
  AdmissionController admission(&executor, AdmissionOptions{});
  WorkerPin pin(&executor);

  std::atomic<int> invoked{0};
  std::atomic<int> cancelled{0};
  const ExecutorFlow flows[] = {admission.NewFlow(Lane::kBulk),
                                  admission.NewFlow(Lane::kInteractive)};
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(executor
                    .Submit(
                        [&](const Executor::TaskContext& ctx) {
                          ++invoked;
                          if (ctx.cancelled) ++cancelled;
                        },
                        0, flows[i % 2])
                    .ok());
  }
  EXPECT_EQ(executor.queue_depth(), static_cast<size_t>(kTasks));
  admission.Shutdown();

  // Post-shutdown traffic is refused, not queued.
  uint64_t retry_after_ms = 0;
  EXPECT_EQ(admission.AdmitBatch("c", Lane::kBulk, 1, 0, &retry_after_ms)
                .code(),
            Status::Code::kUnsupported);

  std::thread releaser([&] { pin.ReleaseAfterShutdown(&executor); });
  executor.Shutdown(/*drain=*/false);
  releaser.join();
  EXPECT_EQ(executor.queue_depth(), 0u);
  EXPECT_EQ(executor
                .Submit([](const Executor::TaskContext&) {}, 0, flows[0])
                .code(),
            Status::Code::kUnsupported);
  EXPECT_EQ(invoked.load(), kTasks);
  EXPECT_EQ(cancelled.load(), kTasks);
}

// One cap bounds the queue across every flow: once queue_capacity tasks
// of any flows are queued, a submission on a new flow gets
// ResourceExhausted, the signal EstimateBatch's flow control absorbs.
TEST(AdmissionTest, QueueCapacityBoundsAllFlowsTogether) {
  ExecutorOptions executor_options;
  executor_options.num_threads = 1;
  executor_options.queue_capacity = 4;
  Executor executor(executor_options);
  AdmissionController admission(&executor, AdmissionOptions{});
  WorkerPin pin(&executor);

  std::atomic<int> done{0};
  auto task = [&](const Executor::TaskContext&) { ++done; };
  const ExecutorFlow bulk = admission.NewFlow(Lane::kBulk);
  const ExecutorFlow interactive = admission.NewFlow(Lane::kInteractive);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(executor.Submit(task, 0, i < 3 ? bulk : interactive).ok());
  }
  EXPECT_EQ(executor.Submit(task, 0, interactive).code(),
            Status::Code::kResourceExhausted);
  EXPECT_EQ(executor.Submit(task, 0, admission.NewFlow(Lane::kBulk)).code(),
            Status::Code::kResourceExhausted);
  EXPECT_EQ(executor.queue_depth(), 4u);
  EXPECT_EQ(executor.stats().rejected, 2u);

  pin.Release();
  executor.Shutdown(true);
  EXPECT_EQ(done.load(), 4);
}

}  // namespace
}  // namespace xcluster
