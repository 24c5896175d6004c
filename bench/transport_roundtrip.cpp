// Transport round-trip comparison: one ping-pong hop pair through each
// net::Transport backend.
//
// The sim row is virtual time — the Lan's modelled two-way delay
// (stack + wire + jitter), the number every seeded experiment runs on.
// The udp row is wall-clock time through real kernel sockets on
// loopback, acks and dedup included — what a request leg actually costs
// when gateway and replica are separate processes — with the datagrams
// each round trip put on the wire (DATA, standalone ACK and retransmit
// frames): 2 when every ack rides on the next DATA frame.
//
// replica_batch_pacing is the threaded replica's service rate: the wall
// time of kBatch copies queued at once on one runtime::ThreadedReplica
// over the in-process transport, divided by kBatch draws. A FIFO server
// that starts each copy the instant the one before it ends reads 1.0;
// worker wake-up lateness and reply sends that delay the next copy push
// it up. CI keeps all of them in BENCH_transport.json so a regression in
// either substrate shows up in the same diff.
#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>

#include "bench_json.h"
#include "net/lan.h"
#include "net/udp_transport.h"
#include "replica/service_model.h"
#include "runtime/local_transport.h"
#include "runtime/threaded_replica.h"
#include "sim/simulator.h"
#include "stats/variates.h"

namespace {

using namespace aqua;

constexpr int kPings = 200;

/// Mean modelled RTT through the simulated Lan (virtual microseconds).
double sim_rtt_us() {
  sim::Simulator sim;
  net::LanConfig cfg;  // defaults: the config every experiment uses
  net::Lan lan{sim, Rng{1}, cfg};

  EndpointId echo{};
  echo = lan.create_endpoint(HostId{2}, [&](EndpointId from, const net::Payload&) {
    lan.unicast(echo, from, net::Payload::make(std::string{"pong"}, 100));
  });
  int completed = 0;
  TimePoint ping_sent{};
  Duration total{};
  EndpointId pinger{};
  pinger = lan.create_endpoint(HostId{1}, [&](EndpointId, const net::Payload&) {
    total += sim.now() - ping_sent;
    if (++completed < kPings) {
      ping_sent = sim.now();
      lan.unicast(pinger, echo, net::Payload::make(std::string{"ping"}, 100));
    }
  });
  ping_sent = sim.now();
  lan.unicast(pinger, echo, net::Payload::make(std::string{"ping"}, 100));
  sim.run();
  return static_cast<double>(count_us(total)) / kPings;
}

struct UdpRoundTrips {
  double rtt_us = 0.0;  // mean wall-clock round trip
  double datagrams_per_roundtrip = 0.0;
  std::uint64_t retransmits = 0;
};

/// Sequential ping-pongs through kernel UDP on loopback.
UdpRoundTrips udp_round_trips() {
  net::UdpTransport udp;

  EndpointId echo{};
  echo = udp.create_endpoint(HostId{2}, [&](EndpointId from, const net::Payload&) {
    udp.unicast(echo, from, net::Payload::make(std::string{"pong"}, 100));
  });
  std::mutex mutex;
  std::condition_variable cv;
  int received = 0;
  const EndpointId pinger =
      udp.create_endpoint(HostId{1}, [&](EndpointId, const net::Payload&) {
        std::lock_guard lock(mutex);
        ++received;
        cv.notify_one();
      });

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kPings; ++i) {
    udp.unicast(pinger, echo, net::Payload::make(std::string{"ping"}, 100));
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return received > i; });
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  UdpRoundTrips out;
  out.rtt_us = static_cast<double>(
                   std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count()) /
               kPings;
  out.retransmits = udp.messages_retransmitted();
  out.datagrams_per_roundtrip =
      static_cast<double>(udp.messages_sent() + udp.acks_sent() + out.retransmits) / kPings;
  return out;
}

constexpr int kBatch = 2000;
constexpr Duration kDraw = usec(20);

/// Wall time of kBatch copies queued on one threaded replica, from the
/// first submit to the last reply, over kBatch x kDraw. The median of
/// three batches, so one descheduled run does not decide it.
double replica_batch_pacing() {
  std::array<double, 3> ratios{};
  for (double& ratio : ratios) {
    std::mutex mutex;
    std::condition_variable cv;
    int replies = 0;
    runtime::NetDelayModel no_delay;
    no_delay.base = Duration::zero();
    no_delay.jitter_max = Duration::zero();
    runtime::LocalTransport transport{no_delay, Rng{1}};
    const EndpointId client =
        transport.create_endpoint(HostId{2}, [&](EndpointId, const net::Payload&) {
          std::lock_guard lock(mutex);
          if (++replies == kBatch) cv.notify_one();
        });
    runtime::ThreadedReplica replica{
        ReplicaId{1}, replica::make_sampled_service(stats::make_constant(kDraw)), Rng{1},
        transport, HostId{1}};
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kBatch; ++i) {
      replica.submit(proto::Request{RequestId{static_cast<std::uint64_t>(i) + 1}, ClientId{1},
                                    "invoke", i},
                     client);
    }
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return replies == kBatch; });
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ratio = std::chrono::duration<double, std::micro>(elapsed).count() /
            static_cast<double>(kBatch * count_us(kDraw));
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[1];
}

}  // namespace

int main() {
  std::printf("=== Transport round-trip: simulated Lan vs kernel UDP ===\n");
  std::printf("%d sequential ping-pongs per backend\n\n", kPings);

  const double sim_us = sim_rtt_us();
  const UdpRoundTrips udp = udp_round_trips();
  const double pacing = replica_batch_pacing();

  std::printf("%-24s %12.1f us  (virtual time, modelled delay)\n", "sim Lan RTT", sim_us);
  std::printf("%-24s %12.1f us  (wall clock, loopback sockets)\n", "udp loopback RTT",
              udp.rtt_us);
  std::printf("%-24s %12.2f     (DATA + standalone ACK + retransmit)\n",
              "udp datagrams/roundtrip", udp.datagrams_per_roundtrip);
  std::printf("%-24s %12llu\n", "udp retransmits",
              static_cast<unsigned long long>(udp.retransmits));
  std::printf("%-24s %12.3f     (%d queued %lld us copies, wall time / draws)\n",
              "replica batch pacing", pacing, kBatch, static_cast<long long>(count_us(kDraw)));

  aqua::bench::write_bench_json(
      "BENCH_transport.json", "transport_roundtrip",
      {{"sim_rtt_us", sim_us, "us"},
       {"udp_rtt_us", udp.rtt_us, "us"},
       {"udp_datagrams_per_roundtrip", udp.datagrams_per_roundtrip, "count"},
       {"udp_retransmits", static_cast<double>(udp.retransmits), "count"},
       {"replica_batch_pacing", pacing, "ratio"}});
  return 0;
}
