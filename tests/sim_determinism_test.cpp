// Determinism: identical seeds and schedules must produce identical
// execution traces — the property that makes every experiment in this
// repository reproducible.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"
#include "stats/variates.h"

namespace aqua::sim {
namespace {

/// A small stochastic workload: events reschedule themselves with random
/// delays and record (time, draw) pairs.
std::vector<std::pair<std::int64_t, std::int64_t>> run_workload(std::uint64_t seed) {
  Simulator sim;
  Rng rng{seed};
  const auto sampler = stats::make_exponential(msec(3));
  std::vector<std::pair<std::int64_t, std::int64_t>> trace;

  // Three interleaved self-rescheduling processes.
  std::vector<std::shared_ptr<std::function<void()>>> ticks;
  for (int p = 0; p < 3; ++p) {
    std::shared_ptr<std::function<void()>> tick = std::make_shared<std::function<void()>>();
    ticks.push_back(tick);
    Rng process_rng = rng.fork(static_cast<std::uint64_t>(p));
    *tick = [&sim, &trace, &sampler, tick, process_rng]() mutable {
      if (trace.size() >= 300) return;
      const Duration delay = sampler->sample(process_rng);
      trace.emplace_back(count_us(sim.now()), count_us(delay));
      sim.schedule_after(delay, [tick] { (*tick)(); });
    };
    sim.schedule_after(usec(p * 100), [tick] { (*tick)(); });
  }
  sim.run_for(sec(10));
  for (auto& tick : ticks) *tick = nullptr;  // each process holds itself: break the cycle
  return trace;
}

TEST(DeterminismTest, SameSeedSameTrace) {
  const auto a = run_workload(1234);
  const auto b = run_workload(1234);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, DifferentSeedDifferentTrace) {
  const auto a = run_workload(1);
  const auto b = run_workload(2);
  EXPECT_NE(a, b);
}

TEST(DeterminismTest, TraceIsNonTrivial) {
  const auto a = run_workload(7);
  EXPECT_GT(a.size(), 100u);
}

TEST(DeterminismTest, RepeatedRunsOfManySeedsStable) {
  for (std::uint64_t seed : {10u, 20u, 30u, 40u}) {
    EXPECT_EQ(run_workload(seed), run_workload(seed)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace aqua::sim
