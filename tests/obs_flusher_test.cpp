// SnapshotFlusher: sim-clock flushes must be deterministic events on the
// simulator timeline; wall-clock flushes must fire and stop cleanly.
#include "obs/flusher.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "runtime/delayed_executor.h"
#include "sim/simulator.h"

namespace aqua::obs {
namespace {

std::vector<TimePoint> run_flush_schedule(Duration period, Duration horizon) {
  sim::Simulator simulator;
  SnapshotFlusher flusher;
  std::vector<TimePoint> flush_times;
  flusher.start(simulator, period, [&](std::size_t index) {
    EXPECT_EQ(index, flush_times.size());  // 0-based, monotonic
    flush_times.push_back(simulator.now());
  });
  simulator.run_until(TimePoint{horizon});
  flusher.stop();
  return flush_times;
}

TEST(SimFlusher, FirstFlushAfterOnePeriodThenEveryPeriod) {
  const std::vector<TimePoint> times = run_flush_schedule(msec(10), msec(45));
  ASSERT_EQ(times.size(), 4u);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(times[i], TimePoint{msec(10 * (static_cast<std::int64_t>(i) + 1))});
  }
}

TEST(SimFlusher, ScheduleIsDeterministicAcrossRuns) {
  const std::vector<TimePoint> first = run_flush_schedule(usec(3333), msec(100));
  const std::vector<TimePoint> second = run_flush_schedule(usec(3333), msec(100));
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 30u);
}

TEST(SimFlusher, StopHaltsFurtherFlushes) {
  sim::Simulator simulator;
  SnapshotFlusher flusher;
  flusher.start(simulator, msec(5), [](std::size_t) {});
  simulator.run_until(TimePoint{msec(12)});
  EXPECT_EQ(flusher.flushes(), 2u);
  flusher.stop();
  simulator.run_until(TimePoint{msec(50)});
  EXPECT_EQ(flusher.flushes(), 2u);
}

TEST(SimFlusher, RestartResetsTheFlushIndex) {
  sim::Simulator simulator;
  SnapshotFlusher flusher;
  flusher.start(simulator, msec(5), [](std::size_t) {});
  simulator.run_until(TimePoint{msec(11)});
  EXPECT_EQ(flusher.flushes(), 2u);
  // start() implies stop(): the old task is cancelled, the index resets.
  std::vector<std::size_t> indices;
  flusher.start(simulator, msec(2), [&](std::size_t index) { indices.push_back(index); });
  simulator.run_until(TimePoint{msec(16)});
  EXPECT_EQ(flusher.flushes(), 2u);
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1}));
}

TEST(WallFlusher, FiresAndStops) {
  runtime::DelayedExecutor executor;
  SnapshotFlusher flusher;
  flusher.start(executor, msec(1), [](std::size_t) {});

  // Wait (bounded) for at least two ticks.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (flusher.flushes() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(flusher.flushes(), 2u);

  flusher.stop();
  executor.shutdown();  // joins any in-flight flush
  const std::size_t after_stop = flusher.flushes();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(flusher.flushes(), after_stop);
}

}  // namespace
}  // namespace aqua::obs
