// Deterministic discrete-event simulation kernel.
//
// The whole AQuA-RS deployment (LAN, gateways, replicas, clients) runs as
// callbacks scheduled on one Simulator. Events at equal timestamps execute
// in scheduling order (FIFO), which — together with seeded Rng streams —
// makes every run bit-reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "common/scheduler.h"
#include "common/time.h"

namespace aqua::sim {

using EventFn = std::function<void()>;

namespace detail {
struct EventState {
  EventFn fn;
  bool cancelled = false;
  bool fired = false;
};
}  // namespace detail

/// Cancellation handle for a scheduled event. Default-constructed handles
/// are inert; handles outliving their event are safe to cancel (no-op).
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing. Idempotent; returns true if the event
  /// was still pending.
  bool cancel();

  /// True if the event has neither fired nor been cancelled.
  [[nodiscard]] bool pending() const;

 private:
  friend class Simulator;
  explicit EventHandle(std::shared_ptr<detail::EventState> state) : state_(std::move(state)) {}
  std::shared_ptr<detail::EventState> state_;
};

class Simulator final : public Scheduler {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at the epoch (t = 0).
  [[nodiscard]] TimePoint now() const override { return now_; }

  /// Schedule `fn` at absolute time `at` (>= now()).
  EventHandle schedule_at(TimePoint at, EventFn fn);

  /// Scheduler: schedule_at without a handle; never refuses.
  bool run_at(TimePoint at, Task task) override {
    schedule_at(at, std::move(task));
    return true;
  }

  /// Schedule `fn` after `delay` (>= 0) from now.
  EventHandle schedule_after(Duration delay, EventFn fn);

  /// Execute the next pending event, advancing the clock to its
  /// timestamp. Returns false when no events remain.
  bool step();

  /// Run until the event queue drains or stop() is called.
  void run();

  /// Run all events with timestamp <= `until`, then advance the clock to
  /// `until` (even if idle). Stops early if stop() is called.
  void run_until(TimePoint until);

  /// run_until(now() + duration).
  void run_for(Duration duration);

  /// Request that the current run()/run_until() return after the event in
  /// progress. Further runs may be issued afterwards.
  void stop() { stopped_ = true; }

  /// Events scheduled and not yet fired or cancelled.
  [[nodiscard]] std::size_t pending_events() const { return live_count_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Guard for randomized fault scenarios: refuse to execute more than
  /// `max_events` further events. run()/run_until() then return as if the
  /// queue had drained; event_budget_exhausted() reports the truncation so
  /// a property test can fail loudly instead of spinning forever on a
  /// pathological generated script.
  void set_event_budget(std::uint64_t max_events) { budget_ = max_events; }
  void clear_event_budget() { budget_.reset(); }
  [[nodiscard]] bool event_budget_exhausted() const {
    return budget_.has_value() && *budget_ == 0;
  }

 private:
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    std::shared_ptr<detail::EventState> state;
  };
  struct EntryOrder {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;  // min-heap on time
      return a.seq > b.seq;                  // FIFO among ties
    }
  };

  /// Fire the front event (skipping cancelled ones). Returns false if the
  /// queue is empty.
  bool execute_next();
  void drop_cancelled_front();

  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_count_ = 0;
  std::optional<std::uint64_t> budget_;
  bool stopped_ = false;
  std::priority_queue<Entry, std::vector<Entry>, EntryOrder> queue_;
};

}  // namespace aqua::sim
