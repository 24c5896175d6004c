#include "fault/threaded_runner.h"

#include <sstream>
#include <utility>

#include "common/assert.h"

namespace aqua::fault {

ThreadedScenarioRunner::ThreadedScenarioRunner(runtime::ThreadedSystem& system,
                                               ScenarioScript script,
                                               ThreadedScenarioHooks hooks)
    : system_(system), script_(std::move(script)), hooks_(std::move(hooks)) {}

void ThreadedScenarioRunner::start() {
  AQUA_REQUIRE(!started_, "scenario already started");
  script_.validate();
  started_ = true;
  started_at_ = std::chrono::steady_clock::now();

  const auto windowed = [](const ScenarioAction& action) {
    return action.kind == ActionKind::kLanSpike || action.kind == ActionKind::kDelayMessages ||
           action.kind == ActionKind::kLoadRamp;
  };

  // Count before posting: a zero-offset action can fire on the executor
  // thread before this loop finishes, and its finished_one() must see the
  // final total.
  std::size_t total = 0;
  for (const ScenarioAction& action : script_.actions) total += windowed(action) ? 2U : 1U;
  {
    std::lock_guard lock(mutex_);
    outstanding_ = total;
    timeline_.add(TimePoint{}, "scenario",
                  script_.name + " actions=" + std::to_string(script_.actions.size()));
  }

  for (const ScenarioAction& action : script_.actions) {
    executor_.post_after(action.at, [this, action] { apply(action); });
    if (windowed(action)) {
      executor_.post_after(action.at + action.duration, [this, action] { end_window(action); });
    }
  }
}

void ThreadedScenarioRunner::wait() {
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

trace::Timeline ThreadedScenarioRunner::timeline() const {
  std::lock_guard lock(mutex_);
  return timeline_;
}

std::size_t ThreadedScenarioRunner::unsupported_actions() const {
  std::lock_guard lock(mutex_);
  return unsupported_;
}

void ThreadedScenarioRunner::apply(const ScenarioAction& action) {
  switch (action.kind) {
    case ActionKind::kLanSpike: {
      if (!hooks_.net) {
        std::lock_guard lock(mutex_);
        unsupported_locked(action, "no net modulation hook");
        finished_one();
        return;
      }
      {
        std::lock_guard lock(mutex_);
        ++spike_windows_;
      }
      hooks_.net->set_factor(action.factor);
      break;
    }
    case ActionKind::kDelayMessages: {
      if (!hooks_.net) {
        std::lock_guard lock(mutex_);
        unsupported_locked(action, "no net modulation hook");
        finished_one();
        return;
      }
      {
        std::lock_guard lock(mutex_);
        ++delay_windows_;
      }
      hooks_.net->set_extra(action.extra_delay);
      break;
    }
    case ActionKind::kLoadRamp: {
      if (action.target >= hooks_.replica_load.size() || !hooks_.replica_load[action.target]) {
        std::lock_guard lock(mutex_);
        unsupported_locked(action, "no load hook for replica");
        finished_one();
        return;
      }
      // The wall-clock runner applies the peak immediately (the stepped
      // interpolation is a simulation nicety; what the chaos test needs
      // is "this replica got slow, then recovered").
      hooks_.replica_load[action.target]->set_factor(action.factor);
      break;
    }
    case ActionKind::kCrashReplica: {
      const std::vector<runtime::ThreadedReplica*> replicas = system_.replicas();
      if (action.target >= replicas.size()) {
        std::lock_guard lock(mutex_);
        unsupported_locked(action, "replica index out of range");
        finished_one();
        return;
      }
      runtime::ThreadedReplica* replica = replicas[action.target];
      replica->crash();
      // The runtime has no failure detector; the runner plays that role
      // and delivers the "view change" to every client.
      for (runtime::ThreadedClient* client : system_.clients()) {
        client->remove_replica(replica->id());
      }
      break;
    }
    case ActionKind::kQueueBurst: {
      const std::vector<runtime::ThreadedReplica*> replicas = system_.replicas();
      if (action.target >= replicas.size()) {
        std::lock_guard lock(mutex_);
        unsupported_locked(action, "replica index out of range");
        finished_one();
        return;
      }
      for (std::size_t i = 0; i < action.count; ++i) {
        proto::Request request;
        request.id = RequestId{(std::uint64_t{1} << 40) + i};
        request.client = ClientId{0xC4A05};
        request.argument = static_cast<std::int64_t>(i);
        replicas[action.target]->submit(request);  // replies to nobody
      }
      break;
    }
    case ActionKind::kRenegotiateQos: {
      const std::vector<runtime::ThreadedClient*> clients = system_.clients();
      if (action.target >= clients.size()) {
        std::lock_guard lock(mutex_);
        unsupported_locked(action, "client index out of range");
        finished_one();
        return;
      }
      clients[action.target]->set_qos(action.qos);
      break;
    }
    case ActionKind::kRestartReplica: {
      std::lock_guard lock(mutex_);
      unsupported_locked(action, "threaded replicas cannot restart");
      finished_one();
      return;
    }
    case ActionKind::kDropMessages: {
      std::lock_guard lock(mutex_);
      unsupported_locked(action, "threaded transport has no drop filter");
      finished_one();
      return;
    }
  }
  std::lock_guard lock(mutex_);
  note("fault", action.describe());
  finished_one();
}

void ThreadedScenarioRunner::end_window(const ScenarioAction& action) {
  bool noted = false;
  switch (action.kind) {
    case ActionKind::kLanSpike:
      if (hooks_.net) {
        std::lock_guard lock(mutex_);
        if (--spike_windows_ <= 0) {
          spike_windows_ = 0;
          hooks_.net->set_factor(1.0);
        }
        note("fault_end", to_string(action.kind));
        noted = true;
      }
      break;
    case ActionKind::kDelayMessages:
      if (hooks_.net) {
        std::lock_guard lock(mutex_);
        if (--delay_windows_ <= 0) {
          delay_windows_ = 0;
          hooks_.net->set_extra(Duration::zero());
        }
        note("fault_end", to_string(action.kind));
        noted = true;
      }
      break;
    case ActionKind::kLoadRamp:
      if (action.target < hooks_.replica_load.size() && hooks_.replica_load[action.target]) {
        hooks_.replica_load[action.target]->reset();
        std::lock_guard lock(mutex_);
        note("fault_end", to_string(action.kind));
        noted = true;
      }
      break;
    default:
      break;
  }
  std::lock_guard lock(mutex_);
  (void)noted;
  finished_one();
}

void ThreadedScenarioRunner::note(const char* kind, std::string detail) {
  const auto elapsed = std::chrono::duration_cast<Duration>(std::chrono::steady_clock::now() -
                                                            started_at_);
  timeline_.add(TimePoint{elapsed}, kind, std::move(detail));
}

void ThreadedScenarioRunner::unsupported_locked(const ScenarioAction& action, const char* why) {
  ++unsupported_;
  note("unsupported", action.describe() + " (" + why + ")");
}

void ThreadedScenarioRunner::finished_one() {
  if (outstanding_ > 0) --outstanding_;
  if (outstanding_ == 0) done_cv_.notify_all();
}

}  // namespace aqua::fault
