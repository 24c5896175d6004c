// Executes a ScenarioScript against the threaded wall-clock runtime.
//
// Same script format as the simulated ScenarioRunner, scheduled on a
// DelayedExecutor against the real clock instead of the simulator: LAN
// spikes and delay windows retune the LocalTransport's LoadModulation,
// load ramps retune per-replica sampler modulation blocks, crashes kill
// the replica worker and withdraw it from every client, queue bursts
// submit background requests, QoS renegotiation calls set_qos. Actions a
// threaded deployment cannot express (process restart, probabilistic
// message drop — LocalTransport has no drop filter) are recorded as
// unsupported rather than silently skipped, so a test can assert exactly
// which subset ran.
//
// Timelines here are NOT bit-reproducible (real scheduling), but the
// recorded set of applied actions is; the chaos tests assert on that and
// on end-state counters, and the whole thing runs under TSan.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fault/scenario.h"
#include "runtime/delayed_executor.h"
#include "runtime/threaded_system.h"
#include "stats/variates.h"
#include "trace/timeline.h"

namespace aqua::fault {

/// Control blocks the runner retunes; the test wires them into the system
/// before building it (ThreadedSystemConfig::net.modulation, and each
/// replica's sampler through stats::make_modulated_sampler).
struct ThreadedScenarioHooks {
  /// The LocalTransport's delay modulation; spike windows scale it,
  /// delay windows add to it.
  stats::LoadModulationPtr net;
  /// Entry i belongs to the replica added i-th.
  std::vector<stats::LoadModulationPtr> replica_load;
};

class ThreadedScenarioRunner {
 public:
  ThreadedScenarioRunner(runtime::ThreadedSystem& system, ScenarioScript script,
                         ThreadedScenarioHooks hooks);

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
  void unsupported_locked(const ScenarioAction& action, const char* why);
  void finished_one();

  runtime::ThreadedSystem& system_;
  ScenarioScript script_;
  ThreadedScenarioHooks hooks_;
  runtime::DelayedExecutor executor_;
  std::chrono::steady_clock::time_point started_at_{};
  bool started_ = false;

  mutable std::mutex mutex_;  // guards timeline_, counters, window state
  std::condition_variable done_cv_;
  std::size_t outstanding_ = 0;
  trace::Timeline timeline_;
  std::size_t unsupported_ = 0;
  int spike_windows_ = 0;
  int delay_windows_ = 0;
};

}  // namespace aqua::fault
