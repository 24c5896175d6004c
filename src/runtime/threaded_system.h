// Assembly for wall-clock deployments: replica threads + clients, with a
// closed-loop workload driver that mirrors the paper's experiment shape
// (issue, wait for the reply, think, repeat) on real threads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "net/lan.h"
#include "runtime/delayed_executor.h"
#include "runtime/threaded_client.h"
#include "runtime/threaded_replica.h"

namespace aqua::obs {
class ScrapeServer;
}

namespace aqua::runtime {

struct ThreadedSystemConfig {
  std::uint64_t seed = 1;
  ThreadedClientConfig client;
  /// Delay model of the system's own wall-clock net::Lan (unused when
  /// `transport` is set).
  net::LanConfig net = net::in_process_lan(usec(200), usec(50));

  /// Optional telemetry hub (non-owning; must outlive the system),
  /// shared by every replica and — unless client.telemetry is set —
  /// every client. All of them update it concurrently.
  obs::Telemetry* telemetry = nullptr;

  /// When >= 0 and telemetry is attached, serve live scrape endpoints
  /// (/metrics, /snapshot, /trace, ...) on 127.0.0.1:<scrape_port>
  /// (0 picks an ephemeral port; see ScrapeServer).
  int scrape_port = -1;

  /// The transport every replica and client endpoint lives on
  /// (non-owning; must outlive the system). Null builds a net::Lan with
  /// `net` on a wall-clock DelayedExecutor. The transport must take sends
  /// from any thread and deliver on its own: UdpTransport and a Lan on
  /// the wall clock do; a Lan on a sim::Simulator delivers only when the
  /// simulator is stepped.
  net::Transport* transport = nullptr;
};

/// Aggregate outcome of one client's closed-loop workload.
struct WorkloadStats {
  std::size_t requests = 0;
  std::size_t answered = 0;
  std::size_t timely = 0;
  double mean_response_ms = 0.0;
  double mean_redundancy = 0.0;
  double mean_selection_overhead_us = 0.0;

  [[nodiscard]] double failure_probability() const {
    return requests == 0 ? 0.0
                         : 1.0 - static_cast<double>(timely) / static_cast<double>(requests);
  }
};

class ThreadedSystem {
 public:
  explicit ThreadedSystem(ThreadedSystemConfig config = {});
  ~ThreadedSystem();

  ThreadedSystem(const ThreadedSystem&) = delete;
  ThreadedSystem& operator=(const ThreadedSystem&) = delete;

  /// Add a replica worker thread with the given service-time sampler.
  /// `config.telemetry` defaults to the system's hub.
  ThreadedReplica& add_replica(stats::SamplerPtr service_time,
                               replica::ReplicaConfig config = {});

  /// Add a client over all replicas added SO FAR (each on its own host,
  /// so transport liveness maps 1:1 to replicas).
  ThreadedClient& add_client(core::QosSpec qos);

  [[nodiscard]] std::vector<ThreadedReplica*> replicas();
  [[nodiscard]] std::vector<ThreadedClient*> clients();

  /// Run every client's closed-loop workload concurrently (one driver
  /// thread per client): `requests` requests each, sleeping `think`
  /// between a reply and the next request. Blocks until all finish.
  std::vector<WorkloadStats> run_workload(std::size_t requests, Duration think);

  /// Live scrape server, or nullptr when scrape_port < 0 / no telemetry.
  [[nodiscard]] obs::ScrapeServer* scrape_server() { return scrape_.get(); }

  /// The system's own Lan, for fault injection (host crash, spikes,
  /// message filter). Throws when config.transport was set.
  [[nodiscard]] net::Lan& lan();

 private:
  ThreadedSystemConfig config_;
  Rng rng_;
  /// Built when config.transport is null; declared before the replicas
  /// and clients so they outlive their endpoints, and the executor after
  /// the Lan so it stops (discarding pending hops, joining a delivery in
  /// progress) before the Lan is destroyed.
  std::unique_ptr<net::Lan> lan_;
  std::unique_ptr<DelayedExecutor> executor_;
  IdGenerator<ReplicaId> replica_ids_;
  IdGenerator<ClientId> client_ids_;
  std::vector<std::unique_ptr<ThreadedReplica>> replicas_;
  std::vector<std::unique_ptr<ThreadedClient>> clients_;
  std::unique_ptr<obs::ScrapeServer> scrape_;
};

}  // namespace aqua::runtime
