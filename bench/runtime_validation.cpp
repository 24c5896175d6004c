// Wall-clock validation: the Figure 4/5 behaviour on REAL threads.
//
// The simulation reproduces the paper's figures; this harness checks the
// same qualitative claims outside the simulator — millisecond-scale
// service times on replica worker threads, delta measured from the real
// clock — so the results depend on genuine OS scheduling, not on the
// event kernel. Scaled down ~10x from the paper (service ~N(10ms, 5ms),
// deadlines 15..26ms) to keep the run short.
#include <cstdio>

#include "runtime/threaded_system.h"

int main() {
  using namespace aqua;
  using namespace aqua::runtime;

  std::printf("=== Runtime validation: selection on real threads ===\n");
  std::printf("5 replica threads, service ~ N(10ms, 5ms), 60 requests per point\n\n");
  std::printf("%-16s %-8s %16s %14s %12s %18s\n", "deadline (ms)", "Pc", "mean |K|",
              "fail prob", "budget", "selection (us)");

  bool all_within_budget = true;
  for (double pc : {0.9, 0.0}) {
    for (std::int64_t deadline_ms : {15, 18, 22, 26}) {
      ThreadedSystemConfig cfg;
      cfg.seed = 42;
      cfg.net = net::in_process_lan(usec(300), usec(100));
      ThreadedSystem system{cfg};
      for (int i = 0; i < 5; ++i) {
        system.add_replica(stats::make_truncated_normal(msec(10), msec(5)));
      }
      system.add_client(core::QosSpec{msec(deadline_ms), pc});
      const auto stats = system.run_workload(60, msec(8));
      const WorkloadStats& s = stats[0];
      const double budget = 1.0 - pc;
      if (s.failure_probability() > budget) all_within_budget = false;
      std::printf("%-16lld %-8.2f %16.2f %14.3f %12.2f %18.1f\n",
                  static_cast<long long>(deadline_ms), pc, s.mean_redundancy,
                  s.failure_probability(), budget, s.mean_selection_overhead_us);
    }
  }
  std::printf("\nexpected shape (as in Figures 4/5, scaled): redundancy decreases with\n");
  std::printf("the deadline and with lower Pc; observed failures stay within 1-Pc.\n");
  std::printf("within budget everywhere: %s\n", all_within_budget ? "yes" : "NO");
  return 0;
}
