#include "stats/empirical_pmf.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/time.h"

namespace aqua::stats {
namespace {

std::vector<Duration> durations(std::initializer_list<std::int64_t> us) {
  std::vector<Duration> out;
  for (auto v : us) out.push_back(Duration{v});
  return out;
}

TEST(EmpiricalPmfTest, DefaultIsEmpty) {
  EmpiricalPmf pmf;
  EXPECT_TRUE(pmf.empty());
  EXPECT_EQ(pmf.support_size(), 0u);
  EXPECT_DOUBLE_EQ(pmf.cdf_at(msec(100)), 0.0);
}

TEST(EmpiricalPmfTest, FromEmptySamplesIsEmpty) {
  EXPECT_TRUE(EmpiricalPmf::from_samples({}).empty());
}

TEST(EmpiricalPmfTest, RelativeFrequenciesFromSamples) {
  const auto samples = durations({100, 200, 200, 300});
  const auto pmf = EmpiricalPmf::from_samples(samples);
  ASSERT_EQ(pmf.support_size(), 3u);
  EXPECT_EQ(pmf.atoms()[0].value, usec(100));
  EXPECT_DOUBLE_EQ(pmf.atoms()[0].probability, 0.25);
  EXPECT_EQ(pmf.atoms()[1].value, usec(200));
  EXPECT_DOUBLE_EQ(pmf.atoms()[1].probability, 0.5);
  EXPECT_DOUBLE_EQ(pmf.atoms()[2].probability, 0.25);
}

TEST(EmpiricalPmfTest, DeltaIsPointMass) {
  const auto pmf = EmpiricalPmf::delta(msec(5));
  ASSERT_EQ(pmf.support_size(), 1u);
  EXPECT_DOUBLE_EQ(pmf.cdf_at(msec(5)), 1.0);
  EXPECT_DOUBLE_EQ(pmf.cdf_at(msec(5) - usec(1)), 0.0);
}

TEST(EmpiricalPmfTest, CdfIsRightContinuousStepFunction) {
  const auto pmf = EmpiricalPmf::from_samples(durations({100, 200, 300, 400}));
  EXPECT_DOUBLE_EQ(pmf.cdf_at(usec(99)), 0.0);
  EXPECT_DOUBLE_EQ(pmf.cdf_at(usec(100)), 0.25);
  EXPECT_DOUBLE_EQ(pmf.cdf_at(usec(150)), 0.25);
  EXPECT_DOUBLE_EQ(pmf.cdf_at(usec(200)), 0.5);
  EXPECT_DOUBLE_EQ(pmf.cdf_at(usec(399)), 0.75);
  EXPECT_DOUBLE_EQ(pmf.cdf_at(usec(400)), 1.0);
  EXPECT_DOUBLE_EQ(pmf.cdf_at(sec(10)), 1.0);
}

TEST(EmpiricalPmfTest, MinMaxMean) {
  const auto pmf = EmpiricalPmf::from_samples(durations({100, 300}));
  EXPECT_EQ(pmf.min(), usec(100));
  EXPECT_EQ(pmf.max(), usec(300));
  EXPECT_DOUBLE_EQ(pmf.mean_us(), 200.0);
}

TEST(EmpiricalPmfTest, VarianceOfSymmetricTwoPoint) {
  const auto pmf = EmpiricalPmf::from_samples(durations({0, 200}));
  EXPECT_DOUBLE_EQ(pmf.variance_us2(), 100.0 * 100.0);
}

TEST(EmpiricalPmfTest, MomentsOfEmptyThrow) {
  EmpiricalPmf pmf;
  EXPECT_THROW((void)pmf.mean_us(), std::invalid_argument);
  EXPECT_THROW((void)pmf.variance_us2(), std::invalid_argument);
  EXPECT_THROW((void)pmf.min(), std::invalid_argument);
  EXPECT_THROW((void)pmf.max(), std::invalid_argument);
  EXPECT_THROW((void)pmf.quantile(0.5), std::invalid_argument);
}

TEST(EmpiricalPmfTest, QuantileNearestAtom) {
  const auto pmf = EmpiricalPmf::from_samples(durations({100, 200, 300, 400}));
  EXPECT_EQ(pmf.quantile(0.25), usec(100));
  EXPECT_EQ(pmf.quantile(0.26), usec(200));
  EXPECT_EQ(pmf.quantile(0.5), usec(200));
  EXPECT_EQ(pmf.quantile(1.0), usec(400));
}

TEST(EmpiricalPmfTest, QuantileRejectsOutOfRangeLevels) {
  const auto pmf = EmpiricalPmf::delta(msec(1));
  EXPECT_THROW((void)pmf.quantile(0.0), std::invalid_argument);
  EXPECT_THROW((void)pmf.quantile(1.1), std::invalid_argument);
}

TEST(EmpiricalPmfTest, ShiftTranslatesSupport) {
  const auto pmf = EmpiricalPmf::from_samples(durations({100, 200}));
  const auto shifted = pmf.shifted(msec(1));
  EXPECT_EQ(shifted.min(), usec(1100));
  EXPECT_EQ(shifted.max(), usec(1200));
  EXPECT_DOUBLE_EQ(shifted.cdf_at(usec(1100)), 0.5);
  // Probabilities unchanged.
  EXPECT_DOUBLE_EQ(shifted.atoms()[0].probability, 0.5);
}

TEST(EmpiricalPmfTest, ShiftByZeroIsIdentity) {
  const auto pmf = EmpiricalPmf::from_samples(durations({5, 10}));
  const auto shifted = pmf.shifted(Duration::zero());
  EXPECT_EQ(shifted.min(), pmf.min());
  EXPECT_EQ(shifted.max(), pmf.max());
}

TEST(EmpiricalPmfTest, NegativeShiftAllowed) {
  const auto pmf = EmpiricalPmf::delta(msec(2));
  const auto shifted = pmf.shifted(-msec(3));
  EXPECT_EQ(shifted.min(), -msec(1));
}

TEST(EmpiricalPmfTest, FromAtomsValidatesProbabilities) {
  EXPECT_THROW(EmpiricalPmf::from_atoms({}), std::invalid_argument);
  EXPECT_THROW(EmpiricalPmf::from_atoms({{usec(1), 0.5}}), std::invalid_argument);
  EXPECT_THROW(EmpiricalPmf::from_atoms({{usec(1), 0.6}, {usec(2), 0.6}}),
               std::invalid_argument);
  EXPECT_THROW(EmpiricalPmf::from_atoms({{usec(1), -0.5}, {usec(2), 1.5}}),
               std::invalid_argument);
}

TEST(EmpiricalPmfTest, FromAtomsMergesDuplicateValues) {
  const auto pmf = EmpiricalPmf::from_atoms({{usec(5), 0.25}, {usec(5), 0.25}, {usec(9), 0.5}});
  ASSERT_EQ(pmf.support_size(), 2u);
  EXPECT_DOUBLE_EQ(pmf.atoms()[0].probability, 0.5);
}

TEST(EmpiricalPmfTest, BinningMergesNearbyValues) {
  const auto pmf = EmpiricalPmf::from_samples(durations({100, 140, 199, 250}));
  const auto binned = pmf.binned(usec(100));
  ASSERT_EQ(binned.support_size(), 2u);
  EXPECT_EQ(binned.atoms()[0].value, usec(100));
  EXPECT_DOUBLE_EQ(binned.atoms()[0].probability, 0.75);
  EXPECT_EQ(binned.atoms()[1].value, usec(200));
  EXPECT_DOUBLE_EQ(binned.atoms()[1].probability, 0.25);
}

TEST(EmpiricalPmfTest, BinningPreservesTotalProbability) {
  const auto pmf = EmpiricalPmf::from_samples(durations({13, 27, 54, 91, 105, 160}));
  const auto binned = pmf.binned(usec(50));
  double total = 0.0;
  for (const auto& atom : binned.atoms()) total += atom.probability;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(EmpiricalPmfTest, BinningRejectsNonPositiveWidth) {
  const auto pmf = EmpiricalPmf::delta(msec(1));
  EXPECT_THROW(pmf.binned(Duration::zero()), std::invalid_argument);
}

TEST(EmpiricalPmfTest, BinningNegativeValuesFloorsTowardMinusInfinity) {
  const auto pmf = EmpiricalPmf::from_atoms({{usec(-150), 0.5}, {usec(150), 0.5}});
  const auto binned = pmf.binned(usec(100));
  EXPECT_EQ(binned.atoms()[0].value, usec(-200));
  EXPECT_EQ(binned.atoms()[1].value, usec(100));
}

TEST(KolmogorovDistanceTest, IdenticalPmfsHaveZeroDistance) {
  const auto pmf = EmpiricalPmf::from_samples(durations({100, 200, 300}));
  EXPECT_DOUBLE_EQ(kolmogorov_distance(pmf, pmf), 0.0);
}

TEST(KolmogorovDistanceTest, DisjointSupportsHaveDistanceOne) {
  const auto a = EmpiricalPmf::from_samples(durations({1, 2, 3}));
  const auto b = EmpiricalPmf::from_samples(durations({100, 200}));
  EXPECT_DOUBLE_EQ(kolmogorov_distance(a, b), 1.0);
}

TEST(KolmogorovDistanceTest, KnownGap) {
  // a: mass 1 at 10; b: half at 5, half at 15 -> sup gap at t in [10,15): |1 - 0.5|.
  const auto a = EmpiricalPmf::delta(usec(10));
  const auto b = EmpiricalPmf::from_samples(durations({5, 15}));
  EXPECT_DOUBLE_EQ(kolmogorov_distance(a, b), 0.5);
  EXPECT_DOUBLE_EQ(kolmogorov_distance(b, a), 0.5);  // symmetric
}

TEST(KolmogorovDistanceTest, BinningErrorIsBounded) {
  // Flooring to bins of width w can only move cdf mass earlier; the
  // distance to the original is at most the largest bin probability.
  const auto pmf = EmpiricalPmf::from_samples(
      durations({103, 177, 239, 301, 388, 442, 519, 674}));
  const auto binned = pmf.binned(usec(100));
  const double d = kolmogorov_distance(pmf, binned);
  EXPECT_GT(d, 0.0);
  EXPECT_LE(d, 0.25 + 1e-12);  // at most two of eight samples share a bin
}

TEST(KolmogorovDistanceTest, EmptyOperandThrows) {
  const auto pmf = EmpiricalPmf::delta(usec(1));
  EXPECT_THROW(kolmogorov_distance(pmf, EmpiricalPmf{}), std::invalid_argument);
  EXPECT_THROW(kolmogorov_distance(EmpiricalPmf{}, pmf), std::invalid_argument);
}

TEST(EmpiricalPmfTest, CdfOnLargeWindowMatchesDirectCount) {
  std::vector<Duration> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(usec(i));
  const auto pmf = EmpiricalPmf::from_samples(samples);
  EXPECT_NEAR(pmf.cdf_at(usec(250)), 0.25, 1e-9);
  EXPECT_NEAR(pmf.cdf_at(usec(731)), 0.731, 1e-9);
}

}  // namespace
}  // namespace aqua::stats
