#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

namespace ecad::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 20; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 15);
}

TEST(Rng, NextIndexStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_index(10), 10u);
  }
  EXPECT_EQ(rng.next_index(1), 0u);
}

TEST(Rng, NextIndexCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_index(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextDoubleRange) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.next_double(-3.0, 4.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 4.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(9);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_gaussian();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, BernoulliRespectsProbability) {
  Rng rng(13);
  int heads = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.next_bool(0.25)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.25, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.split();
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (parent() != child()) ++differing;
  }
  EXPECT_GT(differing, 8);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(31);
  std::vector<int> values(50);
  std::iota(values.begin(), values.end(), 0);
  std::vector<int> shuffled = values;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, values);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, ShuffleHandlesDegenerateSizes) {
  Rng rng(1);
  std::vector<int> empty;
  rng.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{42});
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }
bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// The inverse of mt19937_64's output tempering.
std::uint64_t untemper(std::uint64_t y) {
  y ^= y >> 43;
  y ^= (y << 37) & 0xfff7eee000000000ull;
  std::uint64_t x = y;
  for (int i = 0; i < 4; ++i) x = y ^ ((x << 17) & 0x71d67fffeda60000ull);
  y = x;
  for (int i = 0; i < 3; ++i) x = y ^ ((x >> 29) & 0x5555555555555555ull);
  return x;
}

// An Rng whose next engine outputs are `outputs`: the serialized state (312
// words, then the index of the word read next) of a seeded engine, with the
// index set to 0 and the first words replaced by the outputs' preimages.
Rng rng_emitting(const std::vector<std::uint64_t>& outputs) {
  Rng seeded(17);
  seeded();  // the first call twists the fresh state
  std::istringstream in(seeded.serialize());
  std::vector<std::uint64_t> words(312);
  for (std::uint64_t& word : words) in >> word;
  for (std::size_t i = 0; i < outputs.size(); ++i) words[i] = untemper(outputs[i]);
  std::ostringstream out;
  for (std::uint64_t word : words) out << word << ' ';
  out << 0;
  Rng rng;
  rng.deserialize(out.str());
  return rng;
}

// Seeded engines, and one whose first outputs round to 2^64 (from 2^64 - 2^10
// up), just below it, and at the extremes.
std::vector<Rng> fill_sources() {
  return {Rng(3), Rng(0xfeedull),
          rng_emitting({~0ull, ~0ull - 1, 0ull - 1024, 0ull - 1025, 0ull - 2048, 0ull, 1ull,
                        1ull << 63, (1ull << 63) - 1, 0ull - 1024, ~0ull, 0ull - 512})};
}

TEST(Rng, CraftedStateEmitsTheChosenOutputs) {
  Rng rng = rng_emitting({0ull - 1024, 42ull, ~0ull, 0x0123456789abcdefull});
  EXPECT_EQ(rng(), 0ull - 1024);
  EXPECT_EQ(rng(), 42ull);
  EXPECT_EQ(rng(), ~0ull);
  EXPECT_EQ(rng(), 0x0123456789abcdefull);
}

constexpr std::size_t kFillLengths[] = {0, 1, 255, 256, 257, 100000};

TEST(Rng, FillGaussianMatchesSuccessiveDraws) {
  const std::pair<double, double> params[] = {{0.0, 1.0}, {0.0, 0.0625}, {-3.5, 2.25}, {1e3, 1e-3}};
  for (const Rng& source : fill_sources()) {
    for (std::size_t n : kFillLengths) {
      for (const auto& [mean, stddev] : params) {
        Rng filled = source;
        Rng single = source;
        std::vector<double> values(n);
        filled.fill_gaussian(values, mean, stddev);
        std::size_t mismatches = 0;
        for (double value : values) {
          std::normal_distribution<double> dist(mean, stddev);
          if (!same_bits(value, dist(single))) ++mismatches;
        }
        EXPECT_EQ(mismatches, 0u) << "n=" << n << " mean=" << mean << " stddev=" << stddev;
        EXPECT_EQ(filled(), single()) << "engine position after n=" << n;

        Rng filled_float = source;
        std::vector<float> floats(n);
        filled_float.fill_gaussian(floats, mean, stddev);
        Rng one_by_one = source;
        for (std::size_t i = 0; i < n; ++i) {
          if (!same_bits(floats[i], static_cast<float>(one_by_one.next_gaussian(mean, stddev)))) {
            ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0u) << "float fill, n=" << n;
        EXPECT_EQ(filled_float(), one_by_one());
      }
    }
  }
}

TEST(Rng, FillUniformMatchesSuccessiveDraws) {
  const std::pair<double, double> ranges[] = {{0.0, 1.0}, {-0.05, 0.05}, {-3.0, 4.0}, {2.5, 2.75}};
  for (const Rng& source : fill_sources()) {
    for (std::size_t n : kFillLengths) {
      for (const auto& [lo, hi] : ranges) {
        Rng filled = source;
        Rng single = source;
        std::vector<double> values(n);
        filled.fill_uniform(values, lo, hi);
        std::size_t mismatches = 0;
        for (double value : values) {
          std::uniform_real_distribution<double> dist(lo, hi);
          if (!same_bits(value, dist(single))) ++mismatches;
        }
        EXPECT_EQ(mismatches, 0u) << "n=" << n << " lo=" << lo << " hi=" << hi;
        EXPECT_EQ(filled(), single()) << "engine position after n=" << n;

        Rng filled_float = source;
        std::vector<float> floats(n);
        filled_float.fill_uniform(floats, lo, hi);
        Rng one_by_one = source;
        for (std::size_t i = 0; i < n; ++i) {
          if (!same_bits(floats[i], static_cast<float>(one_by_one.next_double(lo, hi)))) {
            ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0u) << "float fill, n=" << n;
        EXPECT_EQ(filled_float(), one_by_one());
      }
    }
  }
  // An output from 2^64 - 2^10 up rounds to 1.0 and is clamped to the
  // largest double below it; smaller outputs keep their rounded value.
  Rng extreme = rng_emitting({0ull - 1024, ~0ull, 0ull - 4096});
  EXPECT_EQ(extreme.next_double(), 0x1.fffffffffffffp-1);
  EXPECT_EQ(extreme.next_double(), 0x1.fffffffffffffp-1);
  EXPECT_EQ(extreme.next_double(), 0x1.ffffffffffffep-1);
}

TEST(Rng, SingleDrawsMatchTheStandardDistributions) {
  for (const Rng& source : fill_sources()) {
    Rng ours = source;
    Rng reference = source;
    for (int i = 0; i < 1000; ++i) {
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      ASSERT_TRUE(same_bits(ours.next_double(), unit(reference)));
      std::normal_distribution<double> normal(0.0, 1.0);
      ASSERT_TRUE(same_bits(ours.next_gaussian(), normal(reference)));
    }
  }
}

}  // namespace
}  // namespace ecad::util
