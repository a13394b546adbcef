#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace scholar {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng rng(11);
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 6000; ++i) ++seen[rng.NextBounded(6)];
  for (int v = 0; v < 6; ++v) {
    // Each face of a fair die: expected 1000, allow generous slack.
    EXPECT_GT(seen[v], 800) << "value " << v;
    EXPECT_LT(seen[v], 1200) << "value " << v;
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NextDoubleRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble(-3.0, 5.0);
    ASSERT_GE(d, -3.0);
    ASSERT_LT(d, 5.0);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(19);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
  Rng rng2(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng2.NextBernoulli(0.0));
    EXPECT_TRUE(rng2.NextBernoulli(1.0));
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(31);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.08);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(37);
  const double lambda = 0.5;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double e = rng.NextExponential(lambda);
    ASSERT_GE(e, 0.0);
    sum += e;
  }
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.1);
}

TEST(RngTest, LogNormalMedian) {
  Rng rng(41);
  std::vector<double> samples(9999);
  for (double& s : samples) s = rng.NextLogNormal(1.0, 0.5);
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  // Median of LogNormal(mu, sigma) is exp(mu).
  EXPECT_NEAR(samples[samples.size() / 2], std::exp(1.0), 0.15);
}

TEST(RngTest, ParetoRespectsMinimum) {
  Rng rng(43);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(rng.NextPareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, ZipfRanksAreMonotoneInFrequency) {
  Rng rng(47);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.NextZipf(10, 1.0)];
  // Rank 0 must dominate rank 3 which must dominate rank 9.
  EXPECT_GT(counts[0], counts[3]);
  EXPECT_GT(counts[3], counts[9]);
  EXPECT_GT(counts[9], 0);

  // The shares of the three most frequent ids match the pmf
  // (i+1)^-s / H(n, s) within 5 binomial standard errors.
  constexpr int kDraws = 100000;
  const std::pair<uint64_t, double> params[] = {
      {10, 1.0}, {5, 2.0}, {200000, 1.1}, {3, 0.5}};
  for (const auto& [n, s] : params) {
    double harmonic = 0.0;
    for (uint64_t i = 1; i <= n; ++i) {
      harmonic += std::pow(static_cast<double>(i), -s);
    }
    std::vector<int> top(3, 0);
    for (int i = 0; i < kDraws; ++i) {
      const uint64_t id = rng.NextZipf(n, s);
      ASSERT_LT(id, n);
      if (id < 3) ++top[id];
    }
    for (uint64_t id = 0; id < 3; ++id) {
      const double pmf =
          std::pow(static_cast<double>(id + 1), -s) / harmonic;
      const double se = std::sqrt(pmf * (1.0 - pmf) / kDraws);
      EXPECT_NEAR(static_cast<double>(top[id]) / kDraws, pmf, 5.0 * se)
          << "n=" << n << " s=" << s << " id=" << id;
    }
  }
}

TEST(RngTest, ZipfZeroExponentIsUniform) {
  Rng rng(53);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 25000; ++i) ++counts[rng.NextZipf(5, 0.0)];
  for (int c : counts) {
    EXPECT_GT(c, 4300);
    EXPECT_LT(c, 5700);
  }
}

TEST(RngTest, ZipfSingleElement) {
  Rng rng(59);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.NextZipf(1, 2.0), 0u);
}

TEST(RngTest, NextDiscreteProportions) {
  Rng rng(61);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) {
    size_t idx = rng.NextDiscrete(weights);
    ASSERT_LT(idx, 3u);
    ++counts[idx];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(RngTest, NextDiscreteZeroTotalReturnsSize) {
  Rng rng(67);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_EQ(rng.NextDiscrete(weights), weights.size());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(71);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> original = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, original);  // Astronomically unlikely to match.
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ShuffleEmptyAndSingle) {
  Rng rng(73);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {5};
  rng.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{5});
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(79);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1.Next() == child2.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(DiscreteSamplerTest, MatchesWeights) {
  std::vector<double> weights = {2.0, 1.0, 0.0, 1.0};
  DiscreteSampler sampler(weights);
  EXPECT_EQ(sampler.size(), 4u);
  Rng rng(83);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[sampler.Sample(&rng)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[1], 2.0, 0.25);
  EXPECT_NEAR(static_cast<double>(counts[3]) / counts[1], 1.0, 0.15);
}

TEST(DiscreteSamplerTest, SingleElement) {
  DiscreteSampler sampler({5.0});
  Rng rng(89);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(sampler.Sample(&rng), 0u);
}

class RngSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanNearHalf) {
  Rng rng(GetParam());
  double sum = 0.0;
  for (int i = 0; i < 5000; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / 5000.0, 0.5, 0.03);
}

TEST_P(RngSeedSweep, BoundedIsFullRangeOverManyDraws) {
  Rng rng(GetParam());
  uint64_t max_seen = 0, min_seen = 99;
  for (int i = 0; i < 3000; ++i) {
    uint64_t v = rng.NextBounded(100);
    max_seen = std::max(max_seen, v);
    min_seen = std::min(min_seen, v);
  }
  EXPECT_EQ(max_seen, 99u);
  EXPECT_EQ(min_seen, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0, 1, 42, 1234567, 0xdeadbeef));

}  // namespace
}  // namespace scholar
