// A clock and a deferred-task queue behind one interface, so code written
// against it runs on either time base: sim::Simulator on simulated time
// (deterministic, one thread), and runtime::DelayedExecutor on
// steady_now() (one worker thread). net::Lan is written against it.
#pragma once

#include <functional>

#include "common/time.h"

namespace aqua {

class Scheduler {
 public:
  using Task = std::function<void()>;

  /// Current time on this scheduler's clock.
  [[nodiscard]] virtual TimePoint now() const = 0;

  /// Run `task` at `at` (>= now()) on the scheduler's thread. Returns
  /// false, discarding the task, when the scheduler is shutting down.
  virtual bool run_at(TimePoint at, Task task) = 0;

 protected:
  ~Scheduler() = default;
};

}  // namespace aqua
