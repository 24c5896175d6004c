#include "core/failure_tracker.h"

#include <gtest/gtest.h>

#include "core/selection.h"

namespace aqua::core {
namespace {

TEST(FailureTrackerTest, StartsClean) {
  TimingFailureTracker tracker;
  EXPECT_EQ(tracker.total(), 0u);
  EXPECT_EQ(tracker.failures(), 0u);
  EXPECT_DOUBLE_EQ(tracker.timely_fraction(), 1.0);
  EXPECT_FALSE(tracker.violates(0.99));
}

TEST(FailureTrackerTest, CountsOutcomes) {
  TimingFailureTracker tracker;
  tracker.record(true);
  tracker.record(false);
  tracker.record(true);
  tracker.record(true);
  EXPECT_EQ(tracker.total(), 4u);
  EXPECT_EQ(tracker.failures(), 1u);
  EXPECT_DOUBLE_EQ(tracker.timely_fraction(), 0.75);
}

TEST(FailureTrackerTest, MinSamplesGateViolations) {
  FailureTrackerConfig cfg;
  cfg.min_samples = 10;
  TimingFailureTracker tracker{cfg};
  for (int i = 0; i < 9; ++i) tracker.record(false);
  EXPECT_FALSE(tracker.violates(0.9));  // not enough evidence yet
  tracker.record(false);
  EXPECT_TRUE(tracker.violates(0.9));
}

TEST(FailureTrackerTest, ViolatesComparesAgainstRequestedProbability) {
  FailureTrackerConfig cfg;
  cfg.min_samples = 4;
  TimingFailureTracker tracker{cfg};
  tracker.record(true);
  tracker.record(true);
  tracker.record(true);
  tracker.record(false);  // 0.75 timely
  EXPECT_FALSE(tracker.violates(0.5));
  EXPECT_FALSE(tracker.violates(0.75));  // equality is not a violation
  EXPECT_TRUE(tracker.violates(0.9));
}

TEST(FailureTrackerTest, ZeroMinProbabilityNeverViolates) {
  FailureTrackerConfig cfg;
  cfg.min_samples = 1;
  TimingFailureTracker tracker{cfg};
  for (int i = 0; i < 20; ++i) tracker.record(false);
  EXPECT_FALSE(tracker.violates(0.0));
}

TEST(FailureTrackerTest, ValidatesProbability) {
  TimingFailureTracker tracker;
  EXPECT_THROW((void)tracker.violates(-0.1), std::invalid_argument);
  EXPECT_THROW((void)tracker.violates(1.1), std::invalid_argument);
}

TEST(FailureTrackerTest, WindowedModeForgetsOldOutcomes) {
  FailureTrackerConfig cfg;
  cfg.min_samples = 5;
  cfg.window = 10;
  TimingFailureTracker tracker{cfg};
  // 10 failures -> fully violating.
  for (int i = 0; i < 10; ++i) tracker.record(false);
  EXPECT_TRUE(tracker.violates(0.5));
  // 10 successes push the failures out of the window.
  for (int i = 0; i < 10; ++i) tracker.record(true);
  EXPECT_DOUBLE_EQ(tracker.timely_fraction(), 1.0);
  EXPECT_FALSE(tracker.violates(0.5));
  // Cumulative counters still remember everything.
  EXPECT_EQ(tracker.total(), 20u);
  EXPECT_EQ(tracker.failures(), 10u);
}

TEST(FailureTrackerTest, WindowedFractionIsOverWindowOnly) {
  FailureTrackerConfig cfg;
  cfg.window = 4;
  TimingFailureTracker tracker{cfg};
  tracker.record(false);
  tracker.record(false);
  tracker.record(true);
  tracker.record(true);
  tracker.record(true);
  tracker.record(true);  // window: T T T T
  EXPECT_DOUBLE_EQ(tracker.timely_fraction(), 1.0);
}

TEST(FailureTrackerTest, ResetClearsEverything) {
  TimingFailureTracker tracker;
  tracker.record(false);
  tracker.record(false);
  tracker.reset();
  EXPECT_EQ(tracker.total(), 0u);
  EXPECT_DOUBLE_EQ(tracker.timely_fraction(), 1.0);
}

TEST(OverheadEstimatorTest, KeepsMostRecentValue) {
  OverheadEstimator estimator;
  EXPECT_EQ(estimator.current(), Duration::zero());
  estimator.record(usec(300));
  EXPECT_EQ(estimator.current(), usec(300));
  estimator.record(usec(150));
  EXPECT_EQ(estimator.current(), usec(150));
}

TEST(OverheadEstimatorTest, IgnoresNegativeMeasurements) {
  OverheadEstimator estimator{usec(100)};
  estimator.record(usec(-5));
  EXPECT_EQ(estimator.current(), usec(100));
}

TEST(OverheadEstimatorTest, InitialValueRespected) {
  OverheadEstimator estimator{usec(250)};
  EXPECT_EQ(estimator.current(), usec(250));
}

}  // namespace
}  // namespace aqua::core
