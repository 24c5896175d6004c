// Executes a ScenarioScript against the threaded wall-clock runtime.
//
// Same script format as the simulated ScenarioRunner, scheduled on a
// DelayedExecutor against the real clock instead of the simulator, and
// applied through the same net::Lan hooks (LanWindows), since the
// threaded system's own Lan runs on the wall clock: LAN spikes force a
// spike window, drop and delay windows go through the Lan's message
// filter, and a crash kills the replica worker and its host, so every
// client evicts it through the Lan's host-state notice. Load ramps retune
// per-replica sampler modulation blocks, queue bursts submit background
// requests, QoS renegotiation calls set_qos. What a threaded deployment
// cannot express (process restart) is recorded as unsupported rather
// than silently skipped, so a test can assert exactly which subset ran.
// The runner needs the system's own Lan; a ThreadedSystem over an
// external transport (UdpTransport) cannot be driven by it.
//
// Timelines here are NOT bit-reproducible (real scheduling), but the
// recorded set of applied actions is; the chaos tests assert on that and
// on end-state counters, and the whole thing runs under TSan.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>

#include "fault/lan_windows.h"
#include "fault/scenario.h"
#include "runtime/delayed_executor.h"
#include "runtime/threaded_system.h"
#include "trace/timeline.h"

namespace aqua::fault {

class ThreadedScenarioRunner {
 public:
  /// `system` must run on its own Lan: over an external transport
  /// (config.transport set, e.g. UdpTransport) there is no Lan to crash a
  /// host on or to filter, and the constructor throws. The message
  /// filter's coin flips come from a fixed seed.
  ThreadedScenarioRunner(runtime::ThreadedSystem& system, ScenarioScript script,
                         ScenarioHooks hooks);

  ThreadedScenarioRunner(const ThreadedScenarioRunner&) = delete;
  ThreadedScenarioRunner& operator=(const ThreadedScenarioRunner&) = delete;

  /// Validate and post every action on the executor (wall-clock offsets
  /// relative to now). Call once, before or while the workload runs.
  void start();

  /// Block until every posted action (including window ends) has fired.
  void wait();

  /// Thread-safe snapshot of the recorded timeline (timestamps are
  /// microseconds since start()).
  [[nodiscard]] trace::Timeline timeline() const;

  [[nodiscard]] std::size_t unsupported_actions() const;
  [[nodiscard]] const ScenarioScript& script() const { return script_; }

 private:
  void apply(const ScenarioAction& action);
  void end_window(const ScenarioAction& action);
  void note(const char* kind, std::string detail);
  void finished_one();

  runtime::ThreadedSystem& system_;
  ScenarioScript script_;
  ScenarioHooks hooks_;
  LanWindows lan_windows_;
  TimePoint started_at_{};
  bool started_ = false;

  mutable std::mutex mutex_;  // guards timeline_, counters
  std::condition_variable done_cv_;
  std::size_t outstanding_ = 0;
  trace::Timeline timeline_;
  std::size_t unsupported_ = 0;

  /// Declared last, so its thread starts after and stops before the
  /// state its tasks touch.
  runtime::DelayedExecutor executor_;
};

}  // namespace aqua::fault
