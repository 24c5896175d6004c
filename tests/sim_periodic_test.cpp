#include "sim/periodic.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace aqua::sim {
namespace {

TEST(PeriodicTaskTest, FiresAtEveryPeriod) {
  Simulator sim;
  std::vector<std::int64_t> fired_at;
  PeriodicTask task{sim, msec(10), [&] { fired_at.push_back(count_us(sim.now())); }};
  sim.run_for(msec(45));
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{10'000, 20'000, 30'000, 40'000}));
}

TEST(PeriodicTaskTest, FirstDelayCanDiffer) {
  Simulator sim;
  std::vector<std::int64_t> fired_at;
  PeriodicTask task{sim, msec(1), msec(10), [&] { fired_at.push_back(count_us(sim.now())); }};
  sim.run_for(msec(25));
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{1'000, 11'000, 21'000}));
}

TEST(PeriodicTaskTest, StopPreventsFurtherFirings) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task{sim, msec(10), [&] { ++fired; }};
  sim.run_for(msec(25));
  EXPECT_EQ(fired, 2);
  task.stop();
  EXPECT_FALSE(task.running());
  sim.run_for(msec(100));
  EXPECT_EQ(fired, 2);
}

TEST(PeriodicTaskTest, DestructionStopsTheTask) {
  Simulator sim;
  int fired = 0;
  {
    PeriodicTask task{sim, msec(10), [&] { ++fired; }};
    sim.run_for(msec(15));
  }
  sim.run_for(msec(100));
  EXPECT_EQ(fired, 1);
}

TEST(PeriodicTaskTest, StopFromInsideTheTask) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task;
  task.start(sim, msec(10), msec(10), [&] {
    if (++fired == 3) task.stop();
  });
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(PeriodicTaskTest, RestartReplacesSchedule) {
  Simulator sim;
  int slow = 0, fast = 0;
  PeriodicTask task{sim, msec(100), [&] { ++slow; }};
  task.start(sim, msec(10), msec(10), [&] { ++fast; });
  sim.run_for(msec(105));
  EXPECT_EQ(slow, 0);  // old schedule cancelled
  EXPECT_EQ(fast, 10);
}

TEST(PeriodicTaskTest, Validation) {
  Simulator sim;
  PeriodicTask task;
  EXPECT_THROW(task.start(sim, msec(1), Duration::zero(), [] {}), std::invalid_argument);
  EXPECT_THROW(task.start(sim, -msec(1), msec(1), [] {}), std::invalid_argument);
  EXPECT_THROW(task.start(sim, msec(1), msec(1), nullptr), std::invalid_argument);
}

TEST(PeriodicTaskTest, InertTaskIsSafe) {
  PeriodicTask task;
  EXPECT_FALSE(task.running());
  task.stop();
  task.stop();
}

}  // namespace
}  // namespace aqua::sim
