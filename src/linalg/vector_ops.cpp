#include "linalg/vector_ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ecad::linalg {

namespace {

// Checked in every build: a release build would otherwise read or write past
// the shorter span.
void check_same_size(const char* who, std::size_t a, std::size_t b) {
  if (a != b) {
    throw std::invalid_argument(std::string(who) + ": spans of length " + std::to_string(a) +
                                " and " + std::to_string(b));
  }
}

}  // namespace

void add_inplace(ecad::span<float> out, ecad::span<const float> x) {
  check_same_size("add_inplace", out.size(), x.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += x[i];
}

void sub_inplace(ecad::span<float> out, ecad::span<const float> x) {
  check_same_size("sub_inplace", out.size(), x.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] -= x[i];
}

void scale_inplace(ecad::span<float> out, float s) {
  for (float& v : out) v *= s;
}

void axpy(ecad::span<float> out, float s, ecad::span<const float> x) {
  check_same_size("axpy", out.size(), x.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += s * x[i];
}

void mul_inplace(ecad::span<float> out, ecad::span<const float> x) {
  check_same_size("mul_inplace", out.size(), x.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] *= x[i];
}

float dot(ecad::span<const float> a, ecad::span<const float> b) {
  check_same_size("dot", a.size(), b.size());
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

float sum(ecad::span<const float> x) {
  float acc = 0.0f;
  for (float v : x) acc += v;
  return acc;
}

float max_value(ecad::span<const float> x) {
  if (x.empty()) throw std::invalid_argument("max_value: empty span");
  float best = x[0];
  for (float v : x) best = std::max(best, v);
  return best;
}

std::size_t argmax(ecad::span<const float> x) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > x[best]) best = i;
  }
  return best;
}

float norm2(ecad::span<const float> x) { return std::sqrt(dot(x, x)); }

float squared_distance(ecad::span<const float> a, ecad::span<const float> b) {
  check_same_size("squared_distance", a.size(), b.size());
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace ecad::linalg
