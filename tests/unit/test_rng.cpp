#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

namespace tfmcc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, SubstreamsAreIndependentAndDeterministic) {
  Rng root{7};
  Rng s1 = root.substream(1);
  Rng s2 = root.substream(2);
  Rng s1_again = Rng{7}.substream(1);
  EXPECT_EQ(s1.next_u64(), s1_again.next_u64());
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (s1.next_u64() == s2.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01NeverZero) {
  Rng r{3};
  for (int i = 0; i < 100000; ++i) {
    const double u = r.uniform01();
    ASSERT_GT(u, 0.0);
    ASSERT_LE(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanIsHalf) {
  Rng r{4};
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRange) {
  Rng r{5};
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform(2.0, 3.0);
    ASSERT_GE(v, 2.0);
    ASSERT_LE(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r{6};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(0, 3);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntMatchesStdUniformIntDistribution) {
  // uniform_int writes out libstdc++'s uniform_int_distribution<int64_t>;
  // there the std:: template is the oracle, over small, negative, 32-bit
  // edge, rejection-heavy (span just past 2^63) and full-int64 ranges.
#if defined(__GLIBCXX__)
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, 0},           {0, 1},           {0, 3},
      {-5, 1000},       {8, 48},          {-1, 1},
      {0, 0xffffffff},  {0, 0x100000000}, {0, (1LL << 62) + 12345},
      {-1, kMax},       {0, kMax},        {kMin, 0},
      {kMin + 1, kMax}, {kMin, kMax - 1}, {kMin, kMax},
      {kMax - 3, kMax}, {kMin, kMin + 3}};
  for (const std::uint64_t seed : {1ULL, 77ULL, 2001ULL}) {
    Mt19937_64 ours{seed};
    std::mt19937_64 oracle{seed};
    for (const auto& [lo, hi] : ranges) {
      std::uniform_int_distribution<std::int64_t> dist{lo, hi};
      for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(uniform_int(ours, lo, hi), dist(oracle))
            << "seed " << seed << " range [" << lo << ", " << hi << "] draw "
            << i;
      }
    }
  }
#else
  GTEST_SKIP() << "the oracle is libstdc++'s algorithm";
#endif
}

TEST(Rng, UniformIntIsPinned) {
  // Recorded from libstdc++ 12; the written-out algorithm gives these
  // values on any standard library.
  Rng r{2001};
  const std::int64_t small[] = {19, 39, 27, 13, 10, 15, 43, 25};
  for (const std::int64_t v : small) EXPECT_EQ(r.uniform_int(8, 48), v);
  const std::int64_t wide[] = {5304195762737668426LL, 1195187932226113401LL,
                               1122484798260625556LL, 4626375348271256340LL};
  for (const std::int64_t v : wide) {
    EXPECT_EQ(r.uniform_int(-1, std::numeric_limits<std::int64_t>::max()), v);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r{8};
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r{9};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng r{10};
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Mt19937_64, ReproducesStdEngineAcrossRefills) {
  // std::mt19937_64 is the oracle: same seeding, same stream, over more
  // than three refills of the 312-word state.
  for (const std::uint64_t seed :
       {0ULL, 1ULL, 5489ULL, 0x9e3779b97f4a7c15ULL, ~0ULL}) {
    Mt19937_64 ours{seed};
    std::mt19937_64 oracle{seed};
    for (int i = 0; i < 4 * 312 + 17; ++i) {
      ASSERT_EQ(ours(), oracle()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Mt19937_64, DrivesStdDistributions) {
  // A UniformRandomBitGenerator: the std:: distributions draw the same
  // values from it as from std::mt19937_64.
  Mt19937_64 ours{77};
  std::mt19937_64 oracle{77};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(std::uniform_int_distribution<std::int64_t>(-5, 1000)(ours),
              std::uniform_int_distribution<std::int64_t>(-5, 1000)(oracle));
    ASSERT_EQ(std::normal_distribution<double>(1.0, 2.0)(ours),
              std::normal_distribution<double>(1.0, 2.0)(oracle));
    ASSERT_EQ(std::geometric_distribution<std::int64_t>(0.1)(ours),
              std::geometric_distribution<std::int64_t>(0.1)(oracle));
  }
}

TEST(Rng, CommonDrawsArePinned) {
  // The explicit uniform01 / uniform / bernoulli / exponential formulas give
  // these values on any standard library (recorded before they replaced
  // the std:: distributions, which produced the same values on libstdc++).
  Rng r{2001};
  EXPECT_EQ(r.uniform01(), 0x1.725777e966c53p-1);
  EXPECT_EQ(r.uniform01(), 0x1.ecb0ef363e674p-3);
  EXPECT_EQ(r.uniform01(), 0x1.06b546c2ed924p-1);
  EXPECT_EQ(r.uniform(-2.0, 3.0), -0x1.5dab4951b0453p+0);
  EXPECT_EQ(r.uniform(-2.0, 3.0), -0x1.b5a93eab2cfa8p+0);
  EXPECT_EQ(r.uniform(-2.0, 3.0), -0x1.0dfb2756c0e1bp+0);
  const bool coins[] = {false, true, false, true, false, false, true, true};
  for (const bool coin : coins) EXPECT_EQ(r.bernoulli(0.5), coin);
  EXPECT_EQ(r.exponential(0.25), 0x1.43629638b3e72p-3);
  EXPECT_EQ(r.exponential(0.25), 0x1.100801b9e43d6p-2);
  EXPECT_EQ(r.exponential(0.25), 0x1.648659751265p-3);
}

#if defined(__GLIBCXX__)
/// Replays an Rng's raw 64-bit stream into the std:: distributions.
struct Replay {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return rng.next_u64(); }
  Rng& rng;
};

TEST(Rng, CommonDrawsMatchLibstdcxxDistributions) {
  // On libstdc++ the explicit formulas equal the std:: distributions they
  // replaced, fed the same raw 64-bit stream.
  for (const std::uint64_t seed : {3ULL, 4ULL, 2001ULL}) {
    Rng ours{seed};
    Rng raw{seed};
    Replay replay{raw};
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(ours.uniform01(),
                1.0 - std::uniform_real_distribution<double>(0.0, 1.0)(replay));
      ASSERT_EQ(ours.uniform(-3.5, 7.25),
                std::uniform_real_distribution<double>(-3.5, 7.25)(replay));
      ASSERT_EQ(ours.bernoulli(0.3), std::bernoulli_distribution{0.3}(replay));
      ASSERT_EQ(ours.exponential(5.0),
                std::exponential_distribution<double>{1.0 / 5.0}(replay));
    }
  }
}
#endif

}  // namespace
}  // namespace tfmcc
