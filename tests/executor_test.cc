#include "service/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry/metrics.h"
#include "worker_pin.h"

namespace xcluster {
namespace {

using telemetry::MonotonicNowNs;

TEST(ExecutorTest, InlineModeRunsOnSubmittingThread) {
  Executor executor;  // num_threads = 0
  EXPECT_EQ(executor.num_threads(), 0u);
  const std::thread::id self = std::this_thread::get_id();
  bool ran = false;
  Status status = executor.Submit([&](const Executor::TaskContext& ctx) {
    EXPECT_EQ(std::this_thread::get_id(), self);
    EXPECT_FALSE(ctx.deadline_expired);
    EXPECT_FALSE(ctx.cancelled);
    ran = true;
  });
  EXPECT_TRUE(status.ok());
  EXPECT_TRUE(ran);  // inline: completed before Submit returned
  EXPECT_EQ(executor.EstimatedBacklogWaitNs(), 0u);  // nothing ever queues
}

TEST(ExecutorTest, PooledTasksAllExecute) {
  ExecutorOptions options;
  options.num_threads = 4;
  options.queue_capacity = 1024;
  Executor executor(options);
  std::atomic<int> ran{0};
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        executor.Submit([&](const Executor::TaskContext&) { ++ran; }).ok());
  }
  executor.Shutdown(true);
  EXPECT_EQ(ran.load(), 500);
  const Executor::Stats stats = executor.stats();
  EXPECT_EQ(stats.submitted, 500u);
  EXPECT_EQ(stats.executed, 500u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ExecutorTest, QueueFullReturnsResourceExhausted) {
  ExecutorOptions options;
  options.num_threads = 1;
  options.queue_capacity = 2;
  Executor executor(options);

  // Block the single worker so the queue backs up deterministically.
  WorkerPin pin(&executor);

  // Fill the two queue slots, then overflow.
  ASSERT_TRUE(executor.Submit([](const Executor::TaskContext&) {}).ok());
  ASSERT_TRUE(executor.Submit([](const Executor::TaskContext&) {}).ok());
  Status overflow = executor.Submit([](const Executor::TaskContext&) {});
  EXPECT_EQ(overflow.code(), Status::Code::kResourceExhausted);
  EXPECT_EQ(executor.stats().rejected, 1u);

  pin.Release();
  executor.Shutdown(true);
  // The rejected task never ran; everything accepted did.
  EXPECT_EQ(executor.stats().executed, 3u);
}

TEST(ExecutorTest, ExpiredDeadlineIsReportedNotDropped) {
  ExecutorOptions options;
  options.num_threads = 1;
  Executor executor(options);

  WorkerPin pin(&executor);

  // Queued behind the blocker with an already-elapsed deadline.
  std::atomic<bool> expired{false};
  ASSERT_TRUE(executor
                  .Submit(
                      [&](const Executor::TaskContext& ctx) {
                        expired = ctx.deadline_expired;
                      },
                      MonotonicNowNs() - 1)
                  .ok());
  pin.Release();
  executor.Shutdown(true);
  EXPECT_TRUE(expired.load());
  EXPECT_EQ(executor.stats().expired, 1u);
}

TEST(ExecutorTest, FutureDeadlineDoesNotExpire) {
  ExecutorOptions options;
  options.num_threads = 2;
  Executor executor(options);
  std::atomic<bool> expired{false};
  ASSERT_TRUE(executor
                  .Submit(
                      [&](const Executor::TaskContext& ctx) {
                        if (ctx.deadline_expired) expired = true;
                      },
                      MonotonicNowNs() + 60'000'000'000ull)
                  .ok());
  executor.Shutdown(true);
  EXPECT_FALSE(expired.load());
}

TEST(ExecutorTest, ShutdownDrainsQueuedTasks) {
  ExecutorOptions options;
  options.num_threads = 2;
  options.queue_capacity = 4096;
  Executor executor(options);
  std::atomic<int> ran{0};
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        executor.Submit([&](const Executor::TaskContext&) { ++ran; }).ok());
  }
  executor.Shutdown(true);  // must not return before every task ran
  EXPECT_EQ(ran.load(), 2000);
  EXPECT_EQ(executor.stats().cancelled, 0u);
}

TEST(ExecutorTest, ShutdownWithoutDrainCancelsButStillInvokes) {
  ExecutorOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4096;
  Executor executor(options);

  WorkerPin pin(&executor);

  std::atomic<int> invoked{0};
  std::atomic<int> cancelled{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(executor
                    .Submit([&](const Executor::TaskContext& ctx) {
                      ++invoked;
                      if (ctx.cancelled) ++cancelled;
                    })
                    .ok());
  }
  std::thread releaser([&] { pin.ReleaseAfterShutdown(&executor); });
  executor.Shutdown(false);
  releaser.join();
  // Every queued task was invoked exactly once, flagged as cancelled —
  // completion-counting callers never hang across shutdown.
  EXPECT_EQ(invoked.load(), 100);
  EXPECT_EQ(cancelled.load(), 100);
}

TEST(ExecutorTest, SubmitAfterShutdownIsRejected) {
  Executor executor(ExecutorOptions{.num_threads = 1, .queue_capacity = 4});
  executor.Shutdown(true);
  Status status = executor.Submit([](const Executor::TaskContext&) {});
  EXPECT_EQ(status.code(), Status::Code::kUnsupported);

  Executor inline_executor;
  inline_executor.Shutdown(true);
  EXPECT_EQ(inline_executor.Submit([](const Executor::TaskContext&) {}).code(),
            Status::Code::kUnsupported);
}

// Tasks that name no flow share the default one: a plain FIFO, the
// order the router's forwarding pool relies on.
TEST(ExecutorTest, DefaultFlowIsFifo) {
  Executor executor(ExecutorOptions{.num_threads = 1, .queue_capacity = 64});
  WorkerPin pin(&executor);
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(executor
                    .Submit([&, i](const Executor::TaskContext&) {
                      std::lock_guard<std::mutex> lock(mu);
                      order.push_back(i);
                    })
                    .ok());
  }
  pin.Release();
  executor.Shutdown(true);
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[i], i);
}

// Deficit round robin: flows take turns in the order they joined, each
// turn popping up to the flow's weight; a drained flow leaves the round.
TEST(ExecutorTest, FlowsTakeTurnsByWeight) {
  Executor executor(ExecutorOptions{.num_threads = 1, .queue_capacity = 64});
  WorkerPin pin(&executor);
  std::mutex mu;
  std::string order;
  auto submit = [&](char label, ExecutorFlow flow) {
    ASSERT_TRUE(executor
                    .Submit(
                        [&, label](const Executor::TaskContext&) {
                          std::lock_guard<std::mutex> lock(mu);
                          order += label;
                        },
                        0, flow)
                    .ok());
  };
  for (int i = 0; i < 4; ++i) submit('a', ExecutorFlow{7, 2});
  for (int i = 0; i < 3; ++i) submit('b', ExecutorFlow{8, 1});
  for (int i = 0; i < 3; ++i) submit('c', ExecutorFlow{9, 3});
  pin.Release();
  executor.Shutdown(true);
  EXPECT_EQ(order, "aabcccaabb");
}

// TaskContext::queue_ns is the whole wait in the one queue: a task queued
// behind a worker pinned for 20 ms, and behind the 2 ms tasks that start
// before it, reports at least all of that, whichever flow it is on.
TEST(ExecutorTest, QueueWaitCoversTheWholeWait) {
  constexpr uint64_t kMs = 1'000'000;
  Executor executor(ExecutorOptions{.num_threads = 1, .queue_capacity = 64});
  WorkerPin pin(&executor);
  std::mutex mu;
  std::vector<uint64_t> waits;  // in start order
  constexpr int kTasks = 16;
  for (int i = 0; i < kTasks; ++i) {
    const ExecutorFlow flow{i % 2 == 0 ? 1u : 2u, i % 2 == 0 ? 8u : 1u};
    ASSERT_TRUE(executor
                    .Submit(
                        [&](const Executor::TaskContext& ctx) {
                          {
                            std::lock_guard<std::mutex> lock(mu);
                            waits.push_back(ctx.queue_ns);
                          }
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(2));
                        },
                        0, flow)
                    .ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pin.Release();
  executor.Shutdown(true);
  ASSERT_EQ(waits.size(), static_cast<size_t>(kTasks));
  for (size_t k = 0; k < waits.size(); ++k) {
    EXPECT_GE(waits[k], 20 * kMs + k * 2 * kMs) << "task started " << k;
  }
}

// Many producers racing many workers over a small queue: accepted +
// rejected must account for every submission, and every accepted task
// must run exactly once. (The concurrency suites run under TSan in CI.)
TEST(ExecutorTest, MpmcStress) {
  ExecutorOptions options;
  options.num_threads = 4;
  options.queue_capacity = 64;
  Executor executor(options);

  constexpr int kProducers = 8;
  constexpr int kPerProducer = 500;
  std::atomic<int> ran{0};
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        Status status =
            executor.Submit([&](const Executor::TaskContext&) { ++ran; });
        if (status.ok()) {
          ++accepted;
        } else {
          EXPECT_EQ(status.code(), Status::Code::kResourceExhausted);
          ++rejected;
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  executor.Shutdown(true);

  EXPECT_EQ(accepted + rejected, kProducers * kPerProducer);
  EXPECT_EQ(ran.load(), accepted.load());
  const Executor::Stats stats = executor.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(accepted.load()));
  EXPECT_EQ(stats.rejected, static_cast<uint64_t>(rejected.load()));
  EXPECT_EQ(stats.executed, static_cast<uint64_t>(accepted.load()));
}

// A reader hammering stats() while producers submit tasks (some with
// already-expired deadlines) must only ever observe consistent snapshots:
// the documented invariants hold in every read, and counters are monotone
// across consecutive reads.
TEST(ExecutorTest, StatsSnapshotsAreConsistentAndMonotone) {
  ExecutorOptions options;
  options.num_threads = 4;
  options.queue_capacity = 64;
  Executor executor(options);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread reader([&] {
    Executor::Stats prev;
    while (!stop.load(std::memory_order_acquire)) {
      const Executor::Stats stats = executor.stats();
      if (stats.executed > stats.submitted) ++violations;
      if (stats.expired > stats.executed) ++violations;
      if (stats.cancelled > stats.executed) ++violations;
      if (stats.submitted < prev.submitted || stats.executed < prev.executed ||
          stats.expired < prev.expired || stats.rejected < prev.rejected ||
          stats.cancelled < prev.cancelled) {
        ++violations;
      }
      prev = stats;
    }
  });

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Every third task carries an elapsed deadline so expired_ moves.
        const uint64_t deadline =
            (i % 3 == 0) ? MonotonicNowNs() - 1 : uint64_t{0};
        (void)executor.Submit([](const Executor::TaskContext&) {}, deadline);
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  executor.Shutdown(true);
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(violations.load(), 0);
  const Executor::Stats stats = executor.stats();
  EXPECT_EQ(stats.executed, stats.submitted);
  EXPECT_GT(stats.expired, 0u);
}

}  // namespace
}  // namespace xcluster
