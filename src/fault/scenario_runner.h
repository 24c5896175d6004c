// Executes a ScenarioScript against a simulated AQuA deployment.
//
// The runner schedules every scripted action on the system's simulator
// clock, applies it through the fault-injection hooks (Lan spike
// override/message filter, per-replica LoadModulation blocks, replica
// crash/restart, chaos-endpoint queue bursts, handler QoS renegotiation)
// and records a structured trace::Timeline: each fault as it fires, every
// host liveness transition, every QoS-violation callback, and an
// end-of-run summary row per client. Because the simulator is
// deterministic, running the same (system seed, script, runner seed)
// twice yields bit-identical timeline CSV — the replay and determinism
// tests assert exactly that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/lan_windows.h"
#include "fault/scenario.h"
#include "gateway/system.h"
#include "trace/timeline.h"

namespace aqua::fault {

class ScenarioRunner {
 public:
  /// `seed` feeds the runner's own streams (message-filter coin flips);
  /// it is independent of the system seed on purpose, so the same fault
  /// pattern can be replayed over different workload randomness.
  ScenarioRunner(gateway::AquaSystem& system, ScenarioScript script, ScenarioHooks hooks = {},
                 std::uint64_t seed = 1);

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Validate the script and schedule every action relative to the
  /// current simulated time. Idempotent; run() calls it if needed.
  void install();

  /// Install (if not yet), drive the system until every client finished
  /// (bounded by `max_time`), then append per-client summary rows.
  /// Returns run_until_clients_done's verdict.
  bool run(Duration max_time, Duration poll = sec(1));

  [[nodiscard]] const trace::Timeline& timeline() const { return timeline_; }
  [[nodiscard]] std::string timeline_csv() const { return timeline_.to_csv_string(); }
  [[nodiscard]] const ScenarioScript& script() const { return script_; }

  /// Actions that could not be applied (bad target index, missing load
  /// hook). Deterministic scripts should assert this is 0.
  [[nodiscard]] std::size_t unsupported_actions() const { return unsupported_; }

 private:
  void apply(const ScenarioAction& action);
  void end_window(const ScenarioAction& action);
  void schedule_ramp(const ScenarioAction& action);
  void send_burst(const ScenarioAction& action);
  void note(const char* kind, std::string detail);
  void unsupported(const ScenarioAction& action, const char* why);

  gateway::AquaSystem& system_;
  ScenarioScript script_;
  ScenarioHooks hooks_;
  LanWindows lan_windows_;
  trace::Timeline timeline_;
  bool installed_ = false;
  std::size_t unsupported_ = 0;

  // Chaos endpoint for queue bursts (created lazily on its own host).
  EndpointId chaos_endpoint_{};
  bool chaos_endpoint_ready_ = false;
  std::uint64_t burst_sequence_ = 0;
};

}  // namespace aqua::fault
