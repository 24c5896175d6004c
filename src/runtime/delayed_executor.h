// Single-threaded delayed-task executor (wall clock).
//
// Plays the role the event queue plays in the simulation: "network"
// delays in the threaded runtime are tasks posted with a deadline. One
// worker thread pops tasks in deadline order and runs them. As a
// Scheduler on steady_now() it is the wall clock a net::Lan runs on.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/scheduler.h"

namespace aqua::runtime {

class DelayedExecutor final : public Scheduler {
 public:
  using Clock = std::chrono::steady_clock;

  DelayedExecutor();
  ~DelayedExecutor();

  DelayedExecutor(const DelayedExecutor&) = delete;
  DelayedExecutor& operator=(const DelayedExecutor&) = delete;

  /// Scheduler on steady_now(): run `task` at `at` on the executor
  /// thread (at once if `at` has passed). Returns false if the executor
  /// is shutting down.
  [[nodiscard]] TimePoint now() const override { return steady_now(); }
  bool run_at(TimePoint at, Task task) override;

  /// Stop accepting tasks, discard pending ones, join the thread.
  void shutdown();

 private:
  struct Entry {
    Clock::time_point at;
    std::uint64_t seq;
    Task task;
  };
  struct Order {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void worker();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::priority_queue<Entry, std::vector<Entry>, Order> tasks_;
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace aqua::runtime
