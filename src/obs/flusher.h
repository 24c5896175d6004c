// Periodic snapshot flusher.
//
// Drives a flush callback through a sim::PeriodicTask on either clock of
// a Scheduler: on sim::Simulator flushes are ordinary simulation events,
// so a seeded run flushes at bit-identical sim times every run
// (tests/obs_flusher_test pins this); on runtime::DelayedExecutor they
// run on the executor's thread, the threaded runtime's monitoring loop.
//
// Header-only on purpose: aqua_obs itself links only common/stats/trace
// (the layers below core), so the *caller* (a bench, tool, or test that
// already links sim/runtime) provides the clock.
//
// The callback decides what a "flush" means — typically serializing
// obs::write_metrics_json / write_snapshot_json to a stream. The flusher
// only schedules; it never touches a Telemetry directly.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>

#include "common/assert.h"
#include "common/scheduler.h"
#include "common/time.h"
#include "sim/periodic.h"

namespace aqua::obs {

class SnapshotFlusher {
 public:
  /// Called once per tick with the 0-based flush index.
  using FlushFn = std::function<void(std::size_t flush_index)>;

  SnapshotFlusher() = default;
  SnapshotFlusher(const SnapshotFlusher&) = delete;
  SnapshotFlusher& operator=(const SnapshotFlusher&) = delete;
  ~SnapshotFlusher() { stop(); }

  /// Flush every `period` on the scheduler's clock, first flush after
  /// `period`. Stops when stop() is called, the flusher is destroyed, or
  /// the scheduler stops running tasks. On a DelayedExecutor one flush in
  /// progress may still finish after stop() returns; the executor's
  /// shutdown() joins it.
  void start(Scheduler& scheduler, Duration period, FlushFn flush) {
    AQUA_REQUIRE(flush != nullptr, "flush callback must be callable");
    stop();
    count_ = std::make_shared<std::atomic<std::size_t>>(0);
    task_.start(scheduler, period, period, [count = count_, flush = std::move(flush)] {
      flush(count->fetch_add(1, std::memory_order_relaxed));
    });
  }

  /// Prevent further flushes. Idempotent.
  void stop() { task_.stop(); }

  /// Flushes fired so far under the current start() call.
  [[nodiscard]] std::size_t flushes() const {
    return count_ ? count_->load(std::memory_order_relaxed) : 0;
  }

 private:
  sim::PeriodicTask task_;
  std::shared_ptr<std::atomic<std::size_t>> count_;
};

}  // namespace aqua::obs
