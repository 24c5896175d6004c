#include "stats/summary.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.h"

namespace aqua::stats {
namespace {

TEST(SummaryStatsTest, EmptyAccumulatorThrowsOnQueries) {
  SummaryStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW((void)s.mean(), std::invalid_argument);
  EXPECT_THROW((void)s.min(), std::invalid_argument);
  EXPECT_THROW((void)s.max(), std::invalid_argument);
}

TEST(SummaryStatsTest, SingleSample) {
  SummaryStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_THROW((void)s.variance(), std::invalid_argument);
}

TEST(SummaryStatsTest, KnownMoments) {
  SummaryStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SummaryStatsTest, NegativeValues) {
  SummaryStats s;
  s.add(-10.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -10.0);
  EXPECT_NEAR(s.variance(), 200.0, 1e-12);
}

TEST(SummaryStatsTest, MergeMatchesSequential) {
  Rng rng{5};
  SummaryStats whole, left, right;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(0.0, 100.0);
    whole.add(v);
    (i < 200 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(SummaryStatsTest, MergeWithEmptySides) {
  SummaryStats a;
  a.add(1.0);
  a.add(3.0);
  SummaryStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  SummaryStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(SampleSetTest, QuantilesAreExact) {
  SampleSet set;
  for (int i = 1; i <= 100; ++i) set.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(set.quantile(0.01), 1.0);
  EXPECT_DOUBLE_EQ(set.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(set.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(set.quantile(1.0), 100.0);
}

TEST(SampleSetTest, QuantileAfterInterleavedAdds) {
  SampleSet set;
  set.add(30.0);
  set.add(10.0);
  EXPECT_DOUBLE_EQ(set.quantile(0.5), 10.0);
  set.add(20.0);
  EXPECT_DOUBLE_EQ(set.quantile(0.5), 20.0);  // re-sorts lazily
  EXPECT_DOUBLE_EQ(set.quantile(1.0), 30.0);
}

TEST(SampleSetTest, EmptyThrows) {
  SampleSet set;
  EXPECT_THROW((void)set.quantile(0.5), std::invalid_argument);
}

TEST(SampleSetTest, RejectsBadLevels) {
  SampleSet set;
  set.add(1.0);
  EXPECT_THROW((void)set.quantile(0.0), std::invalid_argument);
  EXPECT_THROW((void)set.quantile(1.5), std::invalid_argument);
}

TEST(SampleSetTest, SummaryTracksAdds) {
  SampleSet set;
  set.add(usec(1000));
  set.add(usec(3000));
  EXPECT_EQ(set.count(), 2u);
  EXPECT_DOUBLE_EQ(set.summary().mean(), 2000.0);
}

}  // namespace
}  // namespace aqua::stats
