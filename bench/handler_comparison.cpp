// Handler design space (§2): the timing fault handler (this paper) vs
// AQuA's active voting handler ([16]-style majority voting) and passive
// primary/backup handler ([17]), both run as presets of the same request
// engine. First-reply delivery optimises the latency tail but trusts
// every reply; majority voting masks value faults and crashes at the
// cost of waiting for the median replica.
//
// Metrics over the same fleet: response time (mean/p99), wrong results
// delivered, requests unanswered within their slot — with and without a
// value-faulty replica in the fleet.
#include <cstdio>
#include <memory>
#include <vector>

#include "gateway/system.h"
#include "gateway/timing_fault_handler.h"
#include "stats/summary.h"

namespace {

using namespace aqua;
using namespace aqua::gateway;

constexpr std::uint64_t kSeed = 1234;
constexpr int kRequests = 100;
constexpr Duration kSlot = msec(400);

struct Outcome {
  stats::SampleSet response_ms;
  std::size_t requests = 0;
  std::size_t wrong = 0;
  std::size_t unanswered = 0;
};

using MakeHandler = std::unique_ptr<TimingFaultHandler> (*)(AquaSystem&);

std::unique_ptr<TimingFaultHandler> timing(AquaSystem& system) {
  return std::make_unique<TimingFaultHandler>(system.simulator(), system.lan(), system.group(),
                                              ClientId{77}, HostId{1000},
                                              core::QosSpec{msec(200), 0.9}, Rng{kSeed});
}
std::unique_ptr<TimingFaultHandler> voting(AquaSystem& system) {
  return make_voting_handler(system.simulator(), system.lan(), system.group(), ClientId{77},
                             HostId{1000});
}
std::unique_ptr<TimingFaultHandler> passive(AquaSystem& system) {
  return make_passive_handler(system.simulator(), system.lan(), system.group(), ClientId{77},
                              HostId{1000});
}

/// One request per 400 ms slot over five replicas. The first is the
/// fastest (the passive primary) and value-faulty at `fault_rate`; with
/// `crash_fastest` it dies at the start of request 50's slot. The echo
/// service makes the argument the ground truth.
Outcome run(MakeHandler make_handler, double fault_rate, bool crash_fastest = false) {
  SystemConfig sys_cfg;
  sys_cfg.seed = kSeed;
  AquaSystem system{sys_cfg};
  replica::ReplicaConfig faulty;
  faulty.value_fault_rate = fault_rate;
  auto& fastest = system.add_replica(
      replica::make_sampled_service(stats::make_truncated_normal(msec(30), msec(6))), faulty);
  for (int i = 0; i < 4; ++i) {
    system.add_replica(replica::make_sampled_service(
        stats::make_truncated_normal(msec(45), msec(10))));
  }

  Outcome outcome;
  // Outlives every slot: a reply can land after its own slot ended.
  std::vector<bool> answered(kRequests, false);
  auto& sim = system.simulator();
  auto handler = make_handler(system);
  sim.run_for(msec(50));
  for (int i = 0; i < kRequests; ++i) {
    if (crash_fastest && i == 50) fastest.crash_host();
    handler->invoke(i, [&outcome, &answered, i](const ReplyInfo& info) {
      answered[static_cast<std::size_t>(i)] = true;
      outcome.response_ms.add(to_ms(info.response_time));
      if (info.result != i) ++outcome.wrong;
    });
    sim.run_for(kSlot);
    ++outcome.requests;
    if (!answered[static_cast<std::size_t>(i)]) ++outcome.unanswered;
  }
  return outcome;
}

void print_row(const char* name, const Outcome& o) {
  std::printf("%-26s %10zu %12.1f %10.1f %9zu %12zu\n", name, o.requests,
              o.response_ms.empty() ? 0.0 : o.response_ms.summary().mean(),
              o.response_ms.empty() ? 0.0 : o.response_ms.quantile(0.99), o.wrong, o.unanswered);
}

}  // namespace

int main() {
  std::printf("=== Handler comparison: first-reply (this paper) vs majority voting ===\n");
  std::printf("5 replicas; the FASTEST one is value-faulty in the faulty scenarios\n\n");
  std::printf("%-26s %10s %12s %10s %9s %12s\n", "handler / fleet", "requests", "mean ms",
              "p99 ms", "wrong", "unanswered");
  for (double fault_rate : {0.0, 0.3, 1.0}) {
    char timing_name[64], voting_name[64], passive_name[64];
    std::snprintf(timing_name, sizeof timing_name, "timing   (fault %.0f%%)", fault_rate * 100);
    std::snprintf(voting_name, sizeof voting_name, "voting   (fault %.0f%%)", fault_rate * 100);
    std::snprintf(passive_name, sizeof passive_name, "passive  (fault %.0f%%)", fault_rate * 100);
    print_row(timing_name, run(timing, fault_rate));
    print_row(voting_name, run(voting, fault_rate));
    print_row(passive_name, run(passive, fault_rate));
  }

  std::printf("\ncrash scenario: the fastest replica (the passive PRIMARY) dies mid-run\n");
  std::printf("%-26s %10s %12s %10s %9s %12s\n", "handler", "requests", "mean ms", "p99 ms",
              "wrong", "unanswered");
  print_row("timing   (crash)", run(timing, 0.0, /*crash_fastest=*/true));
  print_row("passive  (crash)", run(passive, 0.0, /*crash_fastest=*/true));
  std::printf("\nexpected shape: the timing fault handler is consistently faster (first\n");
  std::printf("reply, usually from the fastest replica) but delivers every corrupted\n");
  std::printf("result the faulty replica wins the race with; the voting handler pays\n");
  std::printf("median-replica latency and masks the value faults completely; the\n");
  std::printf("passive handler matches timing latency fault-free (it uses only the\n");
  std::printf("primary) but its crash p99 shows the failure-detection outage that\n");
  std::printf("Algorithm 1's redundancy hides.\n");
  return 0;
}
