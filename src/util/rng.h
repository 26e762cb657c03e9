// Deterministic random source used by every stochastic component.
//
// All search, initialization, and synthetic-data code takes an explicit
// `Rng&` so experiments are reproducible bit-for-bit from the seed recorded
// in the experiment configuration (Core Guidelines: no hidden global state).
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "util/span.h"

namespace ecad::util {

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : engine_(seed) {}

  /// Uniform in [0, bound). `bound` must be > 0.
  std::uint64_t next_index(std::uint64_t bound);

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1).
  double next_double();

  /// Uniform real in [lo, hi).
  double next_double(double lo, double hi);

  /// Standard normal (mean 0, stddev 1).
  double next_gaussian();

  /// Gaussian with explicit mean/stddev.
  double next_gaussian(double mean, double stddev);

  /// Fills `out` with the values of out.size() successive
  /// next_gaussian(mean, stddev) calls and leaves the engine where they would.
  /// The float overload stores each double value rounded to float.
  void fill_gaussian(ecad::span<double> out, double mean, double stddev);
  void fill_gaussian(ecad::span<float> out, double mean, double stddev);

  /// Fills `out` with the values of out.size() successive next_double(lo, hi)
  /// calls and leaves the engine where they would.  The float overload
  /// stores each double value rounded to float.
  void fill_uniform(ecad::span<double> out, double lo, double hi);
  void fill_uniform(ecad::span<float> out, double lo, double hi);

  /// Bernoulli trial.
  bool next_bool(double probability_true = 0.5);

  /// Derive an independent child generator (for per-thread / per-worker use).
  Rng split();

  /// Full engine state as a portable ASCII string (classic-locale digits),
  /// suitable for embedding in a checkpoint. Restoring via `deserialize`
  /// continues the stream bit-identically.
  std::string serialize() const;

  /// Restore state produced by `serialize`. Throws std::invalid_argument on
  /// malformed input.
  void deserialize(const std::string& state);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_index(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// UniformRandomBitGenerator interface so std::distributions also work.
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

}  // namespace ecad::util
