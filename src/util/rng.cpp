#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <locale>
#include <sstream>
#include <stdexcept>

namespace ecad::util {

namespace {

// std::generate_canonical<double, 53> of one engine output, as libstdc++
// computes it for mt19937_64: double(x) / 2^64, clamped below 1.  double(x)
// is summed from its two exact 32-bit halves, which rounds x once, the same
// as an unsigned 64-bit conversion but without that conversion's branch on
// the top bit.
double canonical(std::uint64_t x) {
  const double high = static_cast<double>(static_cast<std::uint32_t>(x >> 32));
  const double low = static_cast<double>(static_cast<std::uint32_t>(x));
  const double u = (high * 0x1p32 + low) * 0x1p-64;
  return u < 1.0 ? u : 0x1.fffffffffffffp-1;
}

// std::uniform_real_distribution<double>(lo, hi) of one engine output.
double uniform(std::mt19937_64& engine, double lo, double hi) {
  return canonical(engine()) * (hi - lo) + lo;
}

// Draws per round of a Gaussian fill; its pair arrays live on the stack.
constexpr std::size_t kGaussianChunk = 256;

// The (y, r²) pair each of `n` successive std::normal_distribution<double>
// draws keeps (Marsaglia and Bray's polar method: uniform pairs in [-1, 1)²
// until one lands in the unit disc, minus its centre), in stream order.  A
// round draws one pair per value still missing, so it never consumes a pair
// beyond the one that completes the n-th draw.
void polar_pairs(std::mt19937_64& engine, std::size_t n, double* y, double* r2) {
  std::size_t produced = 0;
  while (produced < n) {
    const std::size_t round = n - produced;
    for (std::size_t i = 0; i < round; ++i) {
      const double a = 2.0 * canonical(engine()) - 1.0;
      const double b = 2.0 * canonical(engine()) - 1.0;
      const double rr = a * a + b * b;
      y[produced] = b;
      r2[produced] = rr;
      produced += (rr <= 1.0 && rr != 0.0) ? 1 : 0;
    }
  }
}

// The values of out.size() std::normal_distribution<double>(mean, stddev)
// draws: the pairs first, then the transforms, whose log calls are
// independent of each other and overlap.
template <typename T>
void fill_gaussian_values(std::mt19937_64& engine, ecad::span<T> out, double mean,
                          double stddev) {
  double y[kGaussianChunk];
  double r2[kGaussianChunk];
  for (std::size_t begin = 0; begin < out.size(); begin += kGaussianChunk) {
    const std::size_t n = std::min(kGaussianChunk, out.size() - begin);
    polar_pairs(engine, n, y, r2);
    for (std::size_t i = 0; i < n; ++i) {
      const double value = y[i] * std::sqrt(-2 * std::log(r2[i]) / r2[i]) * stddev + mean;
      out[begin + i] = static_cast<T>(value);
    }
  }
}

}  // namespace

std::uint64_t Rng::next_index(std::uint64_t bound) {
  assert(bound > 0);
  std::uniform_int_distribution<std::uint64_t> dist(0, bound - 1);
  return dist(engine_);
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::next_double() { return uniform(engine_, 0.0, 1.0); }

double Rng::next_double(double lo, double hi) { return uniform(engine_, lo, hi); }

double Rng::next_gaussian() { return next_gaussian(0.0, 1.0); }

double Rng::next_gaussian(double mean, double stddev) {
  double value = 0.0;
  fill_gaussian_values(engine_, ecad::span<double>(&value, 1), mean, stddev);
  return value;
}

void Rng::fill_gaussian(ecad::span<double> out, double mean, double stddev) {
  fill_gaussian_values(engine_, out, mean, stddev);
}

void Rng::fill_gaussian(ecad::span<float> out, double mean, double stddev) {
  fill_gaussian_values(engine_, out, mean, stddev);
}

void Rng::fill_uniform(ecad::span<double> out, double lo, double hi) {
  for (double& v : out) v = uniform(engine_, lo, hi);
}

void Rng::fill_uniform(ecad::span<float> out, double lo, double hi) {
  for (float& v : out) v = static_cast<float>(uniform(engine_, lo, hi));
}

bool Rng::next_bool(double probability_true) {
  return next_double() < probability_true;
}

std::string Rng::serialize() const {
  // The standard guarantees operator<< / operator>> round-trip mt19937_64
  // exactly; the classic locale keeps the digits free of grouping separators
  // so checkpoints are portable across machines.
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << engine_;
  return out.str();
}

void Rng::deserialize(const std::string& state) {
  std::istringstream in(state);
  in.imbue(std::locale::classic());
  std::mt19937_64 engine;
  in >> engine;
  if (in.fail()) {
    throw std::invalid_argument("rng: malformed serialized engine state");
  }
  engine_ = engine;
}

Rng Rng::split() {
  // Two draws decorrelate the child from subsequent parent output.
  std::uint64_t a = engine_();
  std::uint64_t b = engine_();
  return Rng(a ^ (b << 1) ^ 0xa5a5a5a5a5a5a5a5ull);
}

}  // namespace ecad::util
