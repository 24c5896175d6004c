// The net::Lan side of a scenario's network windows, shared by
// ScenarioRunner (simulated time) and ThreadedScenarioRunner (wall clock):
// a spike window forces a spike on the Lan, drop and delay windows feed
// its message filter. Counters tolerate overlapping windows; the most
// recently opened window's parameters win. The filter's coin flips come
// from its own seeded stream, so the Lan's draws stay unperturbed. The
// filter runs on sending threads under the Lan's lock, so the window
// state has its own mutex, and the Lan is never called while it is held.
#pragma once

#include <cstdint>
#include <mutex>

#include "common/rng.h"
#include "fault/scenario.h"
#include "net/lan.h"

namespace aqua::fault {

class LanWindows {
 public:
  /// Installs the message filter when `script` has a drop or delay
  /// window. `lan` must outlive this object.
  LanWindows(net::Lan& lan, const ScenarioScript& script, std::uint64_t seed);
  /// Removes the filter this object installed.
  ~LanWindows();

  LanWindows(const LanWindows&) = delete;
  LanWindows& operator=(const LanWindows&) = delete;

  /// Open or close the window of a kLanSpike, kDropMessages or
  /// kDelayMessages action.
  void open(const ScenarioAction& action);
  void close(const ScenarioAction& action);

 private:
  net::Lan& lan_;
  bool filtering_ = false;

  std::mutex mutex_;  // guards everything below
  Rng rng_;
  int spike_windows_ = 0;
  int drop_windows_ = 0;
  double drop_probability_ = 0.0;
  int delay_windows_ = 0;
  Duration extra_delay_{};
};

}  // namespace aqua::fault
