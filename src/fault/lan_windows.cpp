#include "fault/lan_windows.h"

#include <algorithm>

namespace aqua::fault {

LanWindows::LanWindows(net::Lan& lan, const ScenarioScript& script, std::uint64_t seed)
    : lan_(lan), rng_(Rng{seed}.fork("fault-filter")) {
  filtering_ = std::any_of(script.actions.begin(), script.actions.end(), [](const auto& action) {
    return action.kind == ActionKind::kDropMessages || action.kind == ActionKind::kDelayMessages;
  });
  if (filtering_) {
    lan_.set_message_filter([this](EndpointId, EndpointId, const net::Payload&) {
      std::lock_guard lock(mutex_);
      net::FilterVerdict verdict;
      if (drop_windows_ > 0 && rng_.bernoulli(drop_probability_)) verdict.drop = true;
      if (delay_windows_ > 0) verdict.extra_delay = extra_delay_;
      return verdict;
    });
  }
}

LanWindows::~LanWindows() {
  if (filtering_) lan_.set_message_filter(nullptr);
}

void LanWindows::open(const ScenarioAction& action) {
  std::unique_lock lock(mutex_);
  if (action.kind == ActionKind::kDropMessages) {
    ++drop_windows_;
    drop_probability_ = action.factor;
  } else if (action.kind == ActionKind::kDelayMessages) {
    ++delay_windows_;
    extra_delay_ = action.extra_delay;
  } else if (action.kind == ActionKind::kLanSpike) {
    ++spike_windows_;
    lock.unlock();
    lan_.force_spike(action.factor);
  }
}

void LanWindows::close(const ScenarioAction& action) {
  std::unique_lock lock(mutex_);
  if (action.kind == ActionKind::kDropMessages && --drop_windows_ <= 0) {
    drop_windows_ = 0;
    drop_probability_ = 0.0;
  } else if (action.kind == ActionKind::kDelayMessages && --delay_windows_ <= 0) {
    delay_windows_ = 0;
    extra_delay_ = Duration::zero();
  } else if (action.kind == ActionKind::kLanSpike && --spike_windows_ <= 0) {
    spike_windows_ = 0;
    lock.unlock();
    lan_.clear_forced_spike();
  }
}

}  // namespace aqua::fault
