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
// udp_allocs_per_roundtrip counts global operator new calls across the
// same ping-pongs, on every thread of the process (a counting override
// in this binary only): the wire's allocation budget, which CI caps.
// udp_contended_roundtrips_per_s has 4 threads ping-pong at once through
// one shared endpoint, the pattern a transport-wide lock serializes.
//
// replica_batch_pacing is the threaded replica's service rate: the wall
// time of kBatch copies queued at once on one runtime::ThreadedReplica
// over a zero-delay Lan on the wall clock, divided by kBatch draws. A FIFO server
// that starts each copy the instant the one before it ends reads 1.0;
// worker wake-up lateness and reply sends that delay the next copy push
// it up. CI keeps all of them in BENCH_transport.json so a regression in
// either substrate shows up in the same diff.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "net/lan.h"
#include "net/udp_transport.h"
#include "replica/service_model.h"
#include "runtime/delayed_executor.h"
#include "runtime/threaded_replica.h"
#include "sim/simulator.h"
#include "stats/variates.h"

namespace {

/// Global operator new calls so far, on every thread.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// libstdc++'s array and nothrow forms call these. Aligned allocations
// are not counted; nothing on the wire makes one. Not inlined, so the
// compiler never pairs the malloc inside with a delete expression
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace aqua;

constexpr int kPings = 200;
/// Round trips before the counted ones, so one-time table growth is not
/// charged to the steady state.
constexpr int kWarmupPings = 50;

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
  double allocs_per_roundtrip = 0.0;  // every thread, warm-up excluded
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

  const auto ping = [&](int i) {
    udp.unicast(pinger, echo, net::Payload::make(std::string{"ping"}, 100));
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return received > i; });
  };
  for (int i = 0; i < kWarmupPings; ++i) ping(i);
  // The last reply's ack then goes out alone, so the timer's reused ACK
  // buffers have grown before the count starts.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t sent_before = udp.messages_sent();
  const std::uint64_t acks_before = udp.acks_sent();
  const std::uint64_t retransmits_before = udp.messages_retransmitted();
  const std::uint64_t allocs_before = g_allocations.load();
  const auto start = std::chrono::steady_clock::now();
  for (int i = kWarmupPings; i < kWarmupPings + kPings; ++i) ping(i);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const std::uint64_t allocs = g_allocations.load() - allocs_before;
  UdpRoundTrips out;
  out.rtt_us = static_cast<double>(
                   std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count()) /
               kPings;
  out.retransmits = udp.messages_retransmitted() - retransmits_before;
  out.datagrams_per_roundtrip =
      static_cast<double>(udp.messages_sent() - sent_before + udp.acks_sent() - acks_before +
                          out.retransmits) /
      kPings;
  out.allocs_per_roundtrip = static_cast<double>(allocs) / kPings;
  return out;
}

constexpr int kContendedThreads = 4;
constexpr int kContendedPings = 2000;  // per thread

/// Round trips per second when kContendedThreads threads each ping-pong
/// through one shared endpoint to one of two echo endpoints.
double udp_contended_roundtrips_per_s() {
  net::UdpTransport udp;
  std::array<EndpointId, 2> echoes{};
  std::array<std::atomic<std::uint64_t>, 2> echo_ids{};
  for (std::size_t i = 0; i < echoes.size(); ++i) {
    echoes[i] = udp.create_endpoint(HostId{2 + i}, [&, i](EndpointId from, const net::Payload& m) {
      udp.unicast(EndpointId{echo_ids[i].load()}, from, m);
    });
    echo_ids[i].store(echoes[i].value());
  }
  std::mutex mutex;
  std::array<std::condition_variable, kContendedThreads> cvs;
  std::array<int, kContendedThreads> received{};
  const EndpointId shared =
      udp.create_endpoint(HostId{1}, [&](EndpointId, const net::Payload& m) {
        const auto t = static_cast<std::size_t>(*m.get_if<std::int64_t>());
        {
          std::lock_guard lock(mutex);
          ++received[t];
        }
        cvs[t].notify_one();
      });

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kContendedThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto slot = static_cast<std::size_t>(t);
      for (int i = 0; i < kContendedPings; ++i) {
        udp.unicast(shared, echoes[slot % echoes.size()],
                    net::Payload::make(std::int64_t{t}, 100));
        std::unique_lock lock(mutex);
        cvs[slot].wait(lock, [&] { return received[slot] > i; });
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return kContendedThreads * kContendedPings / seconds;
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
    runtime::DelayedExecutor executor;
    net::Lan transport{executor, Rng{1}, net::in_process_lan(Duration::zero(), Duration::zero())};
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
    executor.shutdown();  // no delivery may run on the Lan once it is gone
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
  const double contended = udp_contended_roundtrips_per_s();
  const double pacing = replica_batch_pacing();

  std::printf("%-24s %12.1f us  (virtual time, modelled delay)\n", "sim Lan RTT", sim_us);
  std::printf("%-24s %12.1f us  (wall clock, loopback sockets)\n", "udp loopback RTT",
              udp.rtt_us);
  std::printf("%-24s %12.2f     (DATA + standalone ACK + retransmit)\n",
              "udp datagrams/roundtrip", udp.datagrams_per_roundtrip);
  std::printf("%-24s %12llu\n", "udp retransmits",
              static_cast<unsigned long long>(udp.retransmits));
  std::printf("%-24s %12.2f     (operator new calls, every thread)\n", "udp allocs/roundtrip",
              udp.allocs_per_roundtrip);
  std::printf("%-24s %12.0f     (%d threads through one shared endpoint)\n",
              "udp contended rt/s", contended, kContendedThreads);
  std::printf("%-24s %12.3f     (%d queued %lld us copies, wall time / draws)\n",
              "replica batch pacing", pacing, kBatch, static_cast<long long>(count_us(kDraw)));

  aqua::bench::write_bench_json(
      "BENCH_transport.json", "transport_roundtrip",
      {{"sim_rtt_us", sim_us, "us"},
       {"udp_rtt_us", udp.rtt_us, "us"},
       {"udp_datagrams_per_roundtrip", udp.datagrams_per_roundtrip, "count"},
       {"udp_retransmits", static_cast<double>(udp.retransmits), "count"},
       {"udp_allocs_per_roundtrip", udp.allocs_per_roundtrip, "count"},
       {"udp_contended_roundtrips_per_s", contended, "1/s"},
       {"replica_batch_pacing", pacing, "ratio"}});
  return 0;
}
