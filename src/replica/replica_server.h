// Server replica: the simulation driver of ReplicaCore (Stages 3-4 of
// Figure 2). A request from the Lan is queued in the core (t2); when the
// server frees up, the gateway overhead elapses as a simulator event,
// then the core stamps t3 and draws the service time, and at its end the
// reply goes back with piggybacked performance data (t_s, t_q, queue
// length) and a PerfUpdate to every other live subscriber (§5.4.1). This
// driver adds the Lan endpoint, the group join and Announce, and crashes
// of the process or its host.
#pragma once

#include <cstdint>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "net/group.h"
#include "net/lan.h"
#include "replica/replica_core.h"
#include "replica/service_model.h"
#include "sim/simulator.h"

namespace aqua::replica {

class ReplicaServer {
 public:
  /// Creates the replica's endpoint on `host` and joins `group`.
  ReplicaServer(sim::Simulator& simulator, net::Lan& lan, net::MulticastGroup& group,
                ReplicaId id, HostId host, ServiceModelPtr service_model, Rng rng,
                ReplicaConfig config = {});

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  [[nodiscard]] ReplicaId id() const { return core_.id(); }
  [[nodiscard]] HostId host() const { return host_; }
  [[nodiscard]] EndpointId endpoint() const { return endpoint_; }
  [[nodiscard]] bool alive() const { return core_.alive(); }

  /// The core's counters (see ReplicaCore). total_busy_time() includes
  /// the gateway overhead: redundant dispatch inflates it, and
  /// cancel-on-first-reply reclaims the share that was still queued.
  [[nodiscard]] std::size_t queue_length() const { return core_.queue_length(); }
  [[nodiscard]] bool busy() const { return core_.busy(); }
  [[nodiscard]] std::uint64_t serviced_requests() const { return core_.serviced(); }
  [[nodiscard]] std::uint64_t purged_requests() const { return core_.purged(); }
  [[nodiscard]] std::uint64_t cancels_ignored() const { return core_.cancels_ignored(); }
  [[nodiscard]] Duration total_busy_time() const { return core_.busy_time(); }

  /// Crash this replica process only: the queue is lost, the in-service
  /// request never replies, and the group excludes the member after the
  /// failure-detection delay. The host stays up.
  void crash_process();

  /// Crash the whole host (drops every endpoint on it and triggers
  /// host-level failure detection).
  void crash_host();

  /// Restart after a crash: fresh endpoint, empty queue, rejoins the
  /// group. The host is revived if it was down.
  void restart();

 private:
  void open_endpoint();
  bool crash(const char* what);
  void on_receive(EndpointId from, const net::Payload& message);
  void start_next();
  void finish_current();

  sim::Simulator& simulator_;
  net::Lan& lan_;
  net::MulticastGroup& group_;
  HostId host_;
  Duration gateway_overhead_;
  ReplicaCore core_;
  EndpointId endpoint_;
  sim::EventHandle completion_;
};

}  // namespace aqua::replica
