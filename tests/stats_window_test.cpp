#include "stats/sliding_window.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/time.h"

namespace aqua::stats {
namespace {

TEST(SlidingWindowTest, StartsEmpty) {
  SlidingWindow<int> w{5};
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.capacity(), 5u);
  EXPECT_FALSE(w.full());
}

TEST(SlidingWindowTest, RejectsZeroCapacity) {
  EXPECT_THROW(SlidingWindow<int>{0}, std::invalid_argument);
}

TEST(SlidingWindowTest, FillsUpToCapacity) {
  SlidingWindow<int> w{3};
  w.push(1);
  w.push(2);
  EXPECT_EQ(w.size(), 2u);
  EXPECT_FALSE(w.full());
  w.push(3);
  EXPECT_TRUE(w.full());
  EXPECT_EQ(w.samples(), (std::vector<int>{1, 2, 3}));
}

TEST(SlidingWindowTest, EvictsOldestWhenFull) {
  SlidingWindow<int> w{3};
  for (int i = 1; i <= 5; ++i) w.push(i);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.samples(), (std::vector<int>{3, 4, 5}));
}

TEST(SlidingWindowTest, SamplesAreOldestFirstAcrossWrap) {
  SlidingWindow<int> w{4};
  for (int i = 0; i < 10; ++i) w.push(i);
  EXPECT_EQ(w.samples(), (std::vector<int>{6, 7, 8, 9}));
}

TEST(SlidingWindowTest, LatestAndOldestTrackEnds) {
  SlidingWindow<int> w{3};
  w.push(10);
  EXPECT_EQ(w.latest(), 10);
  EXPECT_EQ(w.oldest(), 10);
  w.push(20);
  w.push(30);
  w.push(40);  // evicts 10
  EXPECT_EQ(w.latest(), 40);
  EXPECT_EQ(w.oldest(), 20);
}

TEST(SlidingWindowTest, LatestOnEmptyThrows) {
  SlidingWindow<int> w{2};
  EXPECT_THROW((void)w.latest(), std::invalid_argument);
  EXPECT_THROW((void)w.oldest(), std::invalid_argument);
}

TEST(SlidingWindowTest, ClearResets) {
  SlidingWindow<int> w{3};
  w.push(1);
  w.push(2);
  w.clear();
  EXPECT_TRUE(w.empty());
  w.push(9);
  EXPECT_EQ(w.samples(), (std::vector<int>{9}));
}

TEST(SlidingWindowTest, CapacityOneKeepsOnlyLatest) {
  SlidingWindow<int> w{1};
  w.push(1);
  w.push(2);
  w.push(3);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.latest(), 3);
  EXPECT_EQ(w.samples(), (std::vector<int>{3}));
}

TEST(SlidingWindowTest, WorksWithDurations) {
  SlidingWindow<Duration> w{2};
  w.push(msec(5));
  w.push(msec(7));
  w.push(msec(9));
  EXPECT_EQ(w.samples(), (std::vector<Duration>{msec(7), msec(9)}));
}

class SlidingWindowParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SlidingWindowParamTest, AlwaysRetainsTheLastCapacitySamples) {
  const std::size_t capacity = GetParam();
  SlidingWindow<std::size_t> w{capacity};
  constexpr std::size_t kTotal = 100;
  for (std::size_t i = 0; i < kTotal; ++i) w.push(i);
  const auto samples = w.samples();
  ASSERT_EQ(samples.size(), std::min(capacity, kTotal));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i], kTotal - samples.size() + i);
  }
}

INSTANTIATE_TEST_SUITE_P(WindowSizes, SlidingWindowParamTest,
                         ::testing::Values(1, 2, 3, 5, 10, 20, 50, 100, 128));

}  // namespace
}  // namespace aqua::stats
