#include "runtime/threaded_system.h"

#include <cstdint>
#include <thread>

#include "common/assert.h"
#include "obs/scrape.h"
#include "runtime/timer_slack.h"

namespace aqua::runtime {

ThreadedSystem::ThreadedSystem(ThreadedSystemConfig config)
    : config_(config), rng_(config.seed) {
  if (config_.transport == nullptr) {
    local_transport_ = std::make_unique<LocalTransport>(config_.net, rng_.fork("net"));
    config_.transport = local_transport_.get();
  }
  if (config_.client.telemetry == nullptr) config_.client.telemetry = config_.telemetry;
  if (config_.scrape_port >= 0 && config_.client.telemetry != nullptr) {
    scrape_ = std::make_unique<obs::ScrapeServer>(
        *config_.client.telemetry, static_cast<std::uint16_t>(config_.scrape_port));
  }
}

ThreadedSystem::~ThreadedSystem() {
  // Phased teardown. The scrape server goes first so no HTTP snapshot
  // races teardown. Then client endpoints: once shut down, no reply can
  // be recorded. Then replica endpoints (no message can reach a worker),
  // then replica workers (an in-flight reply degrades to a counted
  // transport drop and still finds the clients alive), then the clients,
  // and last an owned transport.
  scrape_.reset();
  for (auto& client : clients_) client->shutdown();
  for (auto& replica : replicas_) replica->shutdown();
  replicas_.clear();
  clients_.clear();
}

ThreadedReplica& ThreadedSystem::add_replica(stats::SamplerPtr service_time,
                                             replica::ReplicaConfig config) {
  const ReplicaId id = replica_ids_.next();
  if (config.telemetry == nullptr) config.telemetry = config_.telemetry;
  // One host per replica, so transport liveness maps 1:1 to replicas. A
  // sampled model's draw ignores the queue length: the sampler's stream.
  replicas_.push_back(std::make_unique<ThreadedReplica>(
      id, replica::make_sampled_service(std::move(service_time)),
      rng_.fork("replica").fork(id.value()), *config_.transport, HostId{id.value()},
      std::move(config)));
  return *replicas_.back();
}

ThreadedClient& ThreadedSystem::add_client(core::QosSpec qos) {
  AQUA_REQUIRE(!replicas_.empty(), "add replicas before clients");
  ThreadedClientConfig client_config = config_.client;
  client_config.id = client_ids_.next();  // distinct trace-id namespaces
  client_config.transport = config_.transport;
  client_config.host = HostId{1'000 + client_config.id.value()};  // clear of replica hosts
  clients_.push_back(std::make_unique<ThreadedClient>(
      qos, rng_.fork("client").fork(clients_.size() + 1), client_config));
  // In-process assembly: wire the directory directly — deterministic, no
  // Subscribe/Announce round trip to wait for.
  for (auto& replica : replicas_) {
    clients_.back()->add_peer_replica(replica->id(), replica->endpoint());
  }
  return *clients_.back();
}

std::vector<ThreadedReplica*> ThreadedSystem::replicas() {
  std::vector<ThreadedReplica*> out;
  out.reserve(replicas_.size());
  for (auto& r : replicas_) out.push_back(r.get());
  return out;
}

std::vector<ThreadedClient*> ThreadedSystem::clients() {
  std::vector<ThreadedClient*> out;
  out.reserve(clients_.size());
  for (auto& c : clients_) out.push_back(c.get());
  return out;
}

std::vector<WorkloadStats> ThreadedSystem::run_workload(std::size_t requests, Duration think) {
  AQUA_REQUIRE(requests >= 1, "workload needs at least one request");
  std::vector<WorkloadStats> stats(clients_.size());
  std::vector<std::thread> drivers;
  drivers.reserve(clients_.size());
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    drivers.emplace_back([this, c, requests, think, &stats] {
      use_precise_timers();  // think time is emulated with a sleep
      ThreadedClient& client = *clients_[c];
      WorkloadStats& s = stats[c];
      for (std::size_t i = 0; i < requests; ++i) {
        const auto outcome = client.invoke(static_cast<std::int64_t>(i));
        ++s.requests;
        if (outcome.answered) ++s.answered;
        if (outcome.timely) ++s.timely;
        s.mean_response_ms += to_ms(outcome.response_time);
        s.mean_redundancy += static_cast<double>(outcome.redundancy);
        s.mean_selection_overhead_us += static_cast<double>(count_us(outcome.selection_overhead));
        std::this_thread::sleep_for(think);
      }
      const auto n = static_cast<double>(s.requests);
      s.mean_response_ms /= n;
      s.mean_redundancy /= n;
      s.mean_selection_overhead_us /= n;
    });
  }
  for (std::thread& t : drivers) t.join();
  return stats;
}

}  // namespace aqua::runtime
