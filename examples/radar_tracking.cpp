// Radar-tracking scenario — the paper's time-critical motivating
// application (SS1: "stateless applications such as search engines and
// radar-tracking applications").
//
// A periodic tracking client must correlate each radar return within a
// tight deadline, with high probability, or the track degrades. Replicas
// are compute-bound correlators. Mid-run, one replica's host crashes;
// the example shows the membership change propagating to the handler,
// the repository eviction, and the track-quality accounting before,
// during and after the failure.
#include <cstdio>
#include <vector>

#include "gateway/system.h"

int main() {
  using namespace aqua;
  using namespace aqua::gateway;

  SystemConfig config;
  config.seed = 99;
  AquaSystem system{config};

  // Five correlator replicas, ~35ms of compute per return.
  std::vector<replica::ReplicaServer*> correlators;
  for (int i = 0; i < 5; ++i) {
    correlators.push_back(&system.add_replica(
        replica::make_sampled_service(stats::make_truncated_normal(msec(35), msec(8)))));
  }

  // The tracker: a return every 100ms; each must be correlated within
  // 80ms with probability >= 0.95.
  ClientWorkload workload;
  workload.total_requests = 300;
  workload.think_time = stats::make_constant(msec(100));
  ClientApp& tracker = system.add_client(core::QosSpec{msec(80), 0.95}, workload);
  tracker.on_qos_violation([&system](double fraction) {
    std::printf("  [%8.1fms] QoS VIOLATION callback: timely fraction %.3f < 0.95\n",
                to_ms(system.simulator().now() - TimePoint{}), fraction);
  });

  // Crash correlator 0's host at t=12s; restart it at t=25s.
  system.simulator().schedule_after(sec(12), [&] {
    std::printf("  [%8.1fms] correlator-1 host CRASH\n",
                to_ms(system.simulator().now() - TimePoint{}));
    correlators[0]->crash_host();
  });
  system.simulator().schedule_after(sec(25), [&] {
    std::printf("  [%8.1fms] correlator-1 RESTART\n",
                to_ms(system.simulator().now() - TimePoint{}));
    correlators[0]->restart();
  });

  std::printf("radar tracking: 5 correlators, 300 returns @10Hz, deadline 80ms, Pc=0.95\n\n");
  system.run_until_clients_done(sec(120));

  // Track quality in 5-second windows around the failure.
  std::printf("\ntrack quality by 5s window (timely / returns):\n");
  const auto& history = tracker.handler().history();
  const Duration window = sec(5);
  TimePoint window_start{};
  std::size_t timely = 0, total = 0;
  for (const RequestRecord& record : history) {
    while (record.intercepted_at >= window_start + window) {
      if (total > 0) {
        std::printf("  [%5.0fs - %5.0fs) %3zu/%-3zu %s\n", to_ms(window_start - TimePoint{}) / 1000,
                    to_ms(window_start + window - TimePoint{}) / 1000, timely, total,
                    timely == total ? "" : "<-- degraded");
      }
      window_start += window;
      timely = 0;
      total = 0;
    }
    ++total;
    if (record.timely) ++timely;
  }
  if (total > 0) {
    std::printf("  [%5.0fs - ...  ) %3zu/%-3zu\n", to_ms(window_start - TimePoint{}) / 1000,
                timely, total);
  }

  const auto report = tracker.report();
  std::printf("\noverall: %s\n", report.summary_line().c_str());
  std::printf("redispatched requests: %zu\n", report.redispatches);
  std::printf("replicas known to the tracker at the end: %zu (correlator restarted and "
              "rediscovered)\n",
              tracker.handler().known_replicas());
  return 0;
}
