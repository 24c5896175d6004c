// Deterministic fault-injection scenario scripts.
//
// A ScenarioScript is a list of timestamped fault actions — LAN spike
// windows, per-replica load ramps, crash/restart, message drop/delay
// filters, queue-backlog bursts, QoS renegotiation — describing one
// adverse-timing regime (Tars and Poloczek/Ciucu both show selection
// policies behave qualitatively differently under correlated load
// transitions than under steady noise, so these regimes need first-class
// scripting, not ad-hoc bench code). Scripts are data: the same script
// replays on the deterministic simulator (bit-identical timelines per
// seed, see ScenarioRunner) and on the threaded wall-clock runtime
// (ThreadedScenarioRunner).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/qos.h"
#include "stats/variates.h"

namespace aqua::fault {

/// Wiring a runner cannot reach through the system facade: the
/// per-replica load-modulation blocks. Entry i belongs to the replica
/// added i-th; the test builds each replica's service model through
/// replica::make_modulated_service (stats::make_modulated_sampler on the
/// threaded runtime) with the matching block. A missing or null entry
/// makes load ramps on that replica "unsupported" (recorded in the
/// timeline, never fatal).
struct ScenarioHooks {
  std::vector<stats::LoadModulationPtr> replica_load;
};

enum class ActionKind {
  /// Force a LAN spike window: every message delay is multiplied by
  /// `factor` for `duration` (§3's "occasional periods of high traffic").
  kLanSpike,
  /// Ramp the targeted replica's service-time factor linearly from 1 to
  /// `factor` over `duration` in `count` steps, then release (a host that
  /// gets progressively loaded, then recovers).
  kLoadRamp,
  /// Crash the targeted replica at `at` (process crash, or the whole host
  /// when `whole_host`).
  kCrashReplica,
  /// Restart the targeted replica (fresh endpoint, rejoins the group).
  kRestartReplica,
  /// Drop every off-path message with probability `factor` for `duration`.
  kDropMessages,
  /// Add `extra_delay` to every message for `duration` (congested switch).
  kDelayMessages,
  /// Enqueue `count` background requests on the targeted replica at `at`
  /// (a burst of traffic from clients outside this experiment).
  kQueueBurst,
  /// Renegotiate the targeted client's QoS spec at `at` (§5.4.2).
  kRenegotiateQos,
};

[[nodiscard]] std::string to_string(ActionKind kind);

struct ScenarioAction {
  Duration at{};            ///< Offset from scenario start.
  ActionKind kind{};
  Duration duration{};      ///< Window length for windowed actions.
  std::size_t target = 0;   ///< Replica index (creation order) or client index.
  double factor = 1.0;      ///< Spike multiplier / ramp peak / drop probability.
  Duration extra_delay{};   ///< kDelayMessages: per-message extra delay.
  std::size_t count = 0;    ///< kQueueBurst size; kLoadRamp step count.
  bool whole_host = false;  ///< kCrashReplica: crash the host, not just the process.
  core::QosSpec qos{};      ///< kRenegotiateQos: the new spec.

  /// One-line canonical rendering, e.g. "t=2000ms lan_spike dur=500ms x6".
  [[nodiscard]] std::string describe() const;

  friend bool operator==(const ScenarioAction&, const ScenarioAction&) = default;
};

struct ScenarioScript {
  std::string name = "scenario";
  std::vector<ScenarioAction> actions;

  // Fluent builders (all offsets relative to scenario start).
  ScenarioScript& lan_spike(Duration at, Duration duration, double factor);
  ScenarioScript& load_ramp(Duration at, Duration duration, std::size_t replica,
                            double peak_factor, std::size_t steps = 4);
  ScenarioScript& crash_replica(Duration at, std::size_t replica, bool whole_host = false);
  ScenarioScript& restart_replica(Duration at, std::size_t replica);
  ScenarioScript& drop_messages(Duration at, Duration duration, double probability);
  ScenarioScript& delay_messages(Duration at, Duration duration, Duration extra);
  ScenarioScript& queue_burst(Duration at, std::size_t replica, std::size_t requests);
  ScenarioScript& renegotiate_qos(Duration at, std::size_t client, core::QosSpec qos);

  /// Reject malformed scripts (negative offsets, zero-length windows,
  /// out-of-range probabilities, sub-1 factors) before anything runs.
  void validate() const;

  /// Latest instant any action is still in effect (max of at + duration).
  [[nodiscard]] Duration horizon() const;

  /// Multi-line canonical rendering; shrunk failing scripts are reported
  /// with this.
  [[nodiscard]] std::string describe() const;

  friend bool operator==(const ScenarioScript&, const ScenarioScript&) = default;
};

}  // namespace aqua::fault
