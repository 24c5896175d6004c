#include "fault/scenario_runner.h"

#include <sstream>
#include <utility>

#include "common/assert.h"
#include "net/payload.h"
#include "proto/messages.h"

namespace aqua::fault {
namespace {

/// Client id stamped on chaos-endpoint burst requests so replica-side
/// logs can tell background load from experiment traffic.
constexpr std::uint64_t kChaosClientId = 0xC4A05;

/// Burst request ids start far above any handler-issued id.
constexpr std::uint64_t kBurstRequestBase = std::uint64_t{1} << 40;

}  // namespace

ScenarioRunner::ScenarioRunner(gateway::AquaSystem& system, ScenarioScript script,
                               ScenarioHooks hooks, std::uint64_t seed)
    : system_(system),
      script_(std::move(script)),
      hooks_(std::move(hooks)),
      lan_windows_(system.lan(), script_, seed) {}

void ScenarioRunner::install() {
  if (installed_) return;
  script_.validate();
  installed_ = true;

  note("scenario", script_.name + " actions=" + std::to_string(script_.actions.size()));

  // Host liveness transitions, as the failure detector will see them.
  system_.lan().subscribe_host_state([this](HostId host, bool alive) {
    std::ostringstream out;
    out << "host=" << host.value() << " alive=" << (alive ? 1 : 0);
    note("host_state", out.str());
  });

  // QoS-violation callbacks per client (additional observer; the client
  // app keeps its own count).
  const std::vector<gateway::ClientApp*> clients = system_.clients();
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i]->on_qos_violation([this, i](double fraction) {
      std::ostringstream out;
      out << "client=" << i << " timely_fraction=" << fraction;
      note("qos_violation", out.str());
    });
  }

  sim::Simulator& sim = system_.simulator();
  for (const ScenarioAction& action : script_.actions) {
    sim.schedule_after(action.at, [this, action] { apply(action); });
    const bool windowed = action.kind == ActionKind::kLanSpike ||
                          action.kind == ActionKind::kDropMessages ||
                          action.kind == ActionKind::kDelayMessages ||
                          action.kind == ActionKind::kLoadRamp;
    if (windowed) {
      sim.schedule_after(action.at + action.duration, [this, action] { end_window(action); });
    }
  }
}

bool ScenarioRunner::run(Duration max_time, Duration poll) {
  install();
  const bool finished = system_.run_until_clients_done(max_time, poll);
  const std::vector<gateway::ClientApp*> clients = system_.clients();
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const trace::ClientRunReport report = clients[i]->report();
    std::ostringstream out;
    out << "client=" << i << " issued=" << clients[i]->issued()
        << " answered=" << report.answered << " timing_failures=" << report.timing_failures
        << " qos_violations=" << report.qos_violation_callbacks
        << " redispatches=" << report.redispatches;
    note("summary", out.str());
  }
  note("scenario_end", finished ? "clients_done" : "timed_out");
  return finished;
}

void ScenarioRunner::apply(const ScenarioAction& action) {
  switch (action.kind) {
    case ActionKind::kLanSpike:
    case ActionKind::kDropMessages:
    case ActionKind::kDelayMessages:
      lan_windows_.open(action);
      break;
    case ActionKind::kLoadRamp:
      if (action.target >= hooks_.replica_load.size() || !hooks_.replica_load[action.target]) {
        unsupported(action, "no load hook for replica");
        return;
      }
      schedule_ramp(action);
      break;
    case ActionKind::kCrashReplica: {
      const std::vector<replica::ReplicaServer*> replicas = system_.replicas();
      if (action.target >= replicas.size()) {
        unsupported(action, "replica index out of range");
        return;
      }
      if (action.whole_host) {
        replicas[action.target]->crash_host();
      } else {
        replicas[action.target]->crash_process();
      }
      break;
    }
    case ActionKind::kRestartReplica: {
      const std::vector<replica::ReplicaServer*> replicas = system_.replicas();
      if (action.target >= replicas.size()) {
        unsupported(action, "replica index out of range");
        return;
      }
      replicas[action.target]->restart();
      break;
    }
    case ActionKind::kQueueBurst:
      send_burst(action);
      return;  // send_burst records its own timeline entry
    case ActionKind::kRenegotiateQos: {
      const std::vector<gateway::ClientApp*> clients = system_.clients();
      if (action.target >= clients.size()) {
        unsupported(action, "client index out of range");
        return;
      }
      clients[action.target]->handler().set_qos(action.qos);
      break;
    }
  }
  note("fault", action.describe());
}

void ScenarioRunner::end_window(const ScenarioAction& action) {
  switch (action.kind) {
    case ActionKind::kLanSpike:
    case ActionKind::kDropMessages:
    case ActionKind::kDelayMessages:
      lan_windows_.close(action);
      break;
    case ActionKind::kLoadRamp:
      if (action.target < hooks_.replica_load.size() && hooks_.replica_load[action.target]) {
        hooks_.replica_load[action.target]->reset();
      }
      break;
    default:
      return;
  }
  note("fault_end", to_string(action.kind));
}

void ScenarioRunner::schedule_ramp(const ScenarioAction& action) {
  const stats::LoadModulationPtr& modulation = hooks_.replica_load[action.target];
  const Duration step = action.duration / static_cast<std::int64_t>(action.count);
  for (std::size_t i = 0; i < action.count; ++i) {
    const double factor =
        1.0 + (action.factor - 1.0) * static_cast<double>(i + 1) / static_cast<double>(action.count);
    // Step 0 applies immediately (we are already at action.at).
    if (i == 0) {
      modulation->set_factor(factor);
    } else {
      system_.simulator().schedule_after(
          step * static_cast<std::int64_t>(i),
          [modulation, factor] { modulation->set_factor(factor); });
    }
  }
}

void ScenarioRunner::send_burst(const ScenarioAction& action) {
  const std::vector<replica::ReplicaServer*> replicas = system_.replicas();
  if (action.target >= replicas.size()) {
    unsupported(action, "replica index out of range");
    return;
  }
  if (!chaos_endpoint_ready_) {
    // The chaos endpoint lives on its own host and swallows every reply:
    // background traffic from clients outside the experiment.
    chaos_endpoint_ = system_.lan().create_endpoint(
        system_.new_host(), [](EndpointId, const net::Payload&) {});
    chaos_endpoint_ready_ = true;
  }
  const EndpointId target = replicas[action.target]->endpoint();
  for (std::size_t i = 0; i < action.count; ++i) {
    proto::Request request;
    request.id = RequestId{kBurstRequestBase + burst_sequence_++};
    request.client = ClientId{kChaosClientId};
    request.argument = static_cast<std::int64_t>(i);
    system_.lan().unicast(chaos_endpoint_, target,
                          net::Payload::make<proto::Request>(request, proto::kRequestBytes));
  }
  note("fault", action.describe());
}

void ScenarioRunner::note(const char* kind, std::string detail) {
  timeline_.add(system_.simulator().now(), kind, std::move(detail));
}

void ScenarioRunner::unsupported(const ScenarioAction& action, const char* why) {
  ++unsupported_;
  note("unsupported", action.describe() + " (" + why + ")");
}

}  // namespace aqua::fault
