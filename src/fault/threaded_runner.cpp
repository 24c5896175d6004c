#include "fault/threaded_runner.h"

#include <utility>

#include "common/assert.h"

namespace aqua::fault {

ThreadedScenarioRunner::ThreadedScenarioRunner(runtime::ThreadedSystem& system,
                                               ScenarioScript script, ScenarioHooks hooks)
    : system_(system),
      script_(std::move(script)),
      hooks_(std::move(hooks)),
      lan_windows_(system.lan(), script_, /*seed=*/1) {}

void ThreadedScenarioRunner::start() {
  AQUA_REQUIRE(!started_, "scenario already started");
  script_.validate();
  started_ = true;
  started_at_ = executor_.now();

  const auto windowed = [](const ScenarioAction& action) {
    return action.kind == ActionKind::kLanSpike || action.kind == ActionKind::kDropMessages ||
           action.kind == ActionKind::kDelayMessages || action.kind == ActionKind::kLoadRamp;
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
    executor_.run_at(started_at_ + action.at, [this, action] { apply(action); });
    if (windowed(action)) {
      executor_.run_at(started_at_ + action.at + action.duration,
                       [this, action] { end_window(action); });
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
  const auto unsupported = [&](const char* why) {
    std::lock_guard lock(mutex_);
    ++unsupported_;
    note("unsupported", action.describe() + " (" + why + ")");
    finished_one();
  };
  switch (action.kind) {
    case ActionKind::kLanSpike:
    case ActionKind::kDropMessages:
    case ActionKind::kDelayMessages:
      lan_windows_.open(action);
      break;
    case ActionKind::kLoadRamp:
      if (action.target >= hooks_.replica_load.size() || !hooks_.replica_load[action.target]) {
        return unsupported("no load hook for replica");
      }
      // The wall-clock runner applies the peak immediately (the stepped
      // interpolation is a simulation nicety; what the chaos test needs
      // is "this replica got slow, then recovered").
      hooks_.replica_load[action.target]->set_factor(action.factor);
      break;
    case ActionKind::kCrashReplica: {
      const std::vector<runtime::ThreadedReplica*> replicas = system_.replicas();
      if (action.target >= replicas.size()) return unsupported("replica index out of range");
      runtime::ThreadedReplica* replica = replicas[action.target];
      replica->crash();
      // The host goes down with it: the Lan drops its traffic and tells
      // the clients, which evict the replica as the failure detector
      // would have them.
      net::Lan& lan = system_.lan();
      lan.set_host_alive(lan.endpoint_host(replica->endpoint()), false);
      break;
    }
    case ActionKind::kQueueBurst: {
      const std::vector<runtime::ThreadedReplica*> replicas = system_.replicas();
      if (action.target >= replicas.size()) return unsupported("replica index out of range");
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
      if (action.target >= clients.size()) return unsupported("client index out of range");
      clients[action.target]->set_qos(action.qos);
      break;
    }
    case ActionKind::kRestartReplica:
      return unsupported("threaded replicas cannot restart");
  }
  std::lock_guard lock(mutex_);
  note("fault", action.describe());
  finished_one();
}

void ThreadedScenarioRunner::end_window(const ScenarioAction& action) {
  bool noted = true;
  switch (action.kind) {
    case ActionKind::kLanSpike:
    case ActionKind::kDropMessages:
    case ActionKind::kDelayMessages:
      lan_windows_.close(action);
      break;
    case ActionKind::kLoadRamp:
      noted = action.target < hooks_.replica_load.size() && hooks_.replica_load[action.target];
      if (noted) hooks_.replica_load[action.target]->reset();
      break;
    default:
      noted = false;
      break;
  }
  std::lock_guard lock(mutex_);
  if (noted) note("fault_end", to_string(action.kind));
  finished_one();
}

void ThreadedScenarioRunner::note(const char* kind, std::string detail) {
  timeline_.add(TimePoint{executor_.now() - started_at_}, kind, std::move(detail));
}

void ThreadedScenarioRunner::finished_one() {
  if (outstanding_ > 0) --outstanding_;
  if (outstanding_ == 0) done_cv_.notify_all();
}

}  // namespace aqua::fault
