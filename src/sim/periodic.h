// Self-rescheduling periodic task.
//
// Several components (dependability-manager audits, staleness-probe
// ticks, background load processes, snapshot flushes) need "run f every
// T until stopped"; PeriodicTask packages the reschedule-from-inside-the-
// event pattern with safe cancellation, on either clock of a Scheduler.
// On a runtime::DelayedExecutor stop() may come from another thread; a
// firing already running then still finishes.
#pragma once

#include <atomic>
#include <functional>
#include <memory>

#include "common/assert.h"
#include "common/scheduler.h"
#include "common/time.h"

namespace aqua::sim {

class PeriodicTask {
 public:
  /// Inert task; call start().
  PeriodicTask() = default;

  /// Runs `fn` every `period`, first firing after `period` (or
  /// `first_delay` if given). The task stops when stop() is called or the
  /// object is destroyed.
  PeriodicTask(Scheduler& scheduler, Duration period, std::function<void()> fn)
      : PeriodicTask(scheduler, period, period, std::move(fn)) {}

  PeriodicTask(Scheduler& scheduler, Duration first_delay, Duration period,
               std::function<void()> fn) {
    start(scheduler, first_delay, period, std::move(fn));
  }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;
  PeriodicTask(PeriodicTask&&) = default;
  PeriodicTask& operator=(PeriodicTask&&) = default;

  ~PeriodicTask() { stop(); }

  /// (Re)start the task; an already-running schedule is stopped first.
  void start(Scheduler& scheduler, Duration first_delay, Duration period,
             std::function<void()> fn) {
    AQUA_REQUIRE(period > Duration::zero(), "periodic task period must be positive");
    AQUA_REQUIRE(first_delay >= Duration::zero(), "first delay must be non-negative");
    AQUA_REQUIRE(fn != nullptr, "periodic task function must be callable");
    stop();
    state_ = std::make_shared<State>();
    state_->scheduler = &scheduler;
    state_->period = period;
    state_->fn = std::move(fn);
    schedule(state_, first_delay);
  }

  /// Prevent any further firings. Safe to call repeatedly or on an inert
  /// task; safe to call from inside the task function.
  void stop() {
    if (state_) state_->stopped = true;
    state_.reset();
  }

  [[nodiscard]] bool running() const { return state_ != nullptr; }

 private:
  struct State {
    Scheduler* scheduler = nullptr;
    Duration period{};
    std::function<void()> fn;
    std::atomic<bool> stopped{false};
  };

  static void schedule(const std::shared_ptr<State>& state, Duration delay) {
    state->scheduler->run_at(state->scheduler->now() + delay, [state] {
      if (state->stopped) return;
      state->fn();
      if (!state->stopped) schedule(state, state->period);
    });
  }

  std::shared_ptr<State> state_;
};

}  // namespace aqua::sim
