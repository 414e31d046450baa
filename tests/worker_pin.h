// Occupies one executor worker until Release(), so a test can queue work
// behind a busy worker deterministically.

#ifndef XCLUSTER_TESTS_WORKER_PIN_H_
#define XCLUSTER_TESTS_WORKER_PIN_H_

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "service/executor.h"

namespace xcluster {

class WorkerPin {
 public:
  /// Submits the pinning task and returns once a worker runs it.
  explicit WorkerPin(Executor* executor) {
    EXPECT_TRUE(executor
                    ->Submit([this](const Executor::TaskContext&) {
                      std::unique_lock<std::mutex> lock(mu_);
                      busy_ = true;
                      cv_.notify_all();
                      cv_.wait(lock, [this] { return released_; });
                    })
                    .ok());
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return busy_; });
  }

  WorkerPin(const WorkerPin&) = delete;
  WorkerPin& operator=(const WorkerPin&) = delete;

  /// Lets the pinned worker go; safe from any thread.
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  /// Lets the pinned worker go once `executor` refuses work as shut down,
  /// so every task still queued is popped after Shutdown's drain decision.
  void ReleaseAfterShutdown(Executor* executor) {
    while (executor->Submit([](const Executor::TaskContext&) {}).code() !=
           Status::Code::kUnsupported) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Release();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool busy_ = false;
  bool released_ = false;
};

}  // namespace xcluster

#endif  // XCLUSTER_TESTS_WORKER_PIN_H_
