// The same selection algorithm on real threads (aqua::runtime).
//
// Three replica worker threads with real sleeps, a client that runs
// Algorithm 1 with delta measured from the actual wall clock (exactly as
// the paper's implementation measures it), and a crash of the fastest
// replica mid-run. Durations are millisecond-scale so the demo finishes
// in about a second of wall time.
#include <cstdio>

#include "runtime/threaded_system.h"

int main() {
  using namespace aqua;
  using namespace aqua::runtime;

  ThreadedSystemConfig cfg;
  cfg.client.failure_tracker.min_samples = 5;
  ThreadedSystem system{cfg};
  ThreadedReplica& fast = system.add_replica(stats::make_truncated_normal(msec(3), usec(800)));
  system.add_replica(stats::make_truncated_normal(msec(6), usec(1500)));
  system.add_replica(stats::make_truncated_normal(msec(9), msec(2)));
  ThreadedClient& client = system.add_client(core::QosSpec{msec(25), 0.9});

  std::printf("threaded runtime: 3 replica threads, deadline 25ms, Pc=0.9\n\n");
  std::printf("%-6s %-12s %-14s %-8s %-10s %s\n", "req", "redundancy", "response(ms)", "timely",
              "replica", "selection overhead");

  int timely = 0;
  for (int i = 1; i <= 30; ++i) {
    if (i == 15) {
      std::printf("--- fastest replica crashes; client learns via membership change ---\n");
      fast.crash();
      client.remove_replica(fast.id());
    }
    const auto outcome = client.invoke(i);
    if (outcome.timely) ++timely;
    std::printf("%-6d %-12zu %-14.2f %-8s %-10llu %.1fus\n", i, outcome.redundancy,
                to_ms(outcome.response_time), outcome.timely ? "yes" : "NO",
                static_cast<unsigned long long>(outcome.first_replica.value()),
                static_cast<double>(count_us(outcome.selection_overhead)));
  }
  std::printf("\ntimely: %d/30 (budget 27/30); observed timely fraction %.3f\n", timely,
              client.timely_fraction());
  return 0;
}
