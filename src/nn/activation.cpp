#include "nn/activation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "nn/activation_kernels.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace ecad::nn {

namespace {
constexpr float kLeakySlope = 0.01f;


// The inputs a port must reproduce this process's libm on before it
// replaces the scalar calls: the ports' branch boundaries and the values
// beside them, both signs, zeros, subnormals, the largest finite values,
// infinities and NaN, the two inputs on which an FMA-free evaluation of
// glibc's expf rounds differently from its FMA build, and a stride over all
// 2^32 bit patterns.
std::vector<float> check_inputs() {
  std::vector<std::uint32_t> patterns;
  for (std::uint32_t boundary :
       {0x41b00000u, 0x42b17218u, 0x4195b844u, 0x3eb17218u, 0x3f851592u, 0x24000000u,
        0x33000000u, 0x3f800000u, 0x42b00000u, 0x42b17217u, 0x42cff1b4u, 0x42ce8ecfu,
        0x00000001u, 0x00800000u, 0x7f800000u}) {
    for (std::uint32_t sign : {0u, 0x80000000u}) {
      for (std::uint32_t neighbour : {boundary - 1, boundary, boundary + 1}) {
        patterns.push_back(sign | neighbour);
      }
    }
  }
  for (std::uint32_t special : {0x00000000u, 0x80000000u, 0x7fc00000u, 0xffc00000u, 0x7f800001u,
                                0xc27c65d9u, 0x4202422fu}) {
    patterns.push_back(special);
  }
  for (std::uint32_t i = 0; i < 4096; ++i) patterns.push_back(i * 1048573u);
  std::vector<float> inputs(patterns.size());
  std::memcpy(inputs.data(), patterns.data(), patterns.size() * sizeof(float));
  return inputs;
}

// `port` when it returns the bits of `reference` on every check input (a NaN
// matching any NaN), else nullptr: that function keeps its scalar loop, and
// nn.activation_scalar_fallbacks counts it.
detail::FloatMap checked(detail::FloatMap port, float (*reference)(float)) {
  static util::Gauge& fallbacks = util::metrics().gauge("nn.activation_scalar_fallbacks");
  if (port == nullptr) return nullptr;
  const std::vector<float> inputs = check_inputs();
  std::vector<float> outputs(inputs.size());
  port(inputs.data(), outputs.data(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const float expected = reference(inputs[i]);
    const bool same = std::memcmp(&outputs[i], &expected, sizeof expected) == 0 ||
                      (std::isnan(outputs[i]) && std::isnan(expected));
    if (!same) {
      fallbacks.add(1.0);
      return nullptr;
    }
  }
  return port;
}

// The widest body's ports, each checked on its first use, which is inside a
// training step or an evaluation, never at set-up.
const detail::ActivationBody& active_body() {
  return detail::supported_activation_bodies().front();
}

detail::FloatMap tanh_port() {
  static const detail::FloatMap port =
      checked(active_body().tanh, [](float x) { return std::tanh(x); });
  return port;
}

detail::FloatMap expm1_port() {
  static const detail::FloatMap port =
      checked(active_body().expm1, [](float x) { return std::expm1(x); });
  return port;
}

detail::FloatMap exp_port() {
  static const detail::FloatMap port =
      checked(active_body().exp, [](float x) { return std::exp(x); });
  return port;
}

// Runs `port` between two elementwise steps (ELU, sigmoid, the ELU
// gradient) through a stack chunk: chunk[j] = load(i), the port maps the
// chunk in place, then store(i, chunk[j]).
template <typename Load, typename Store>
void map_through(detail::FloatMap port, std::size_t n, const Load& load, const Store& store) {
  constexpr std::size_t kChunk = 256;
  float chunk[kChunk];
  for (std::size_t begin = 0; begin < n; begin += kChunk) {
    const std::size_t m = std::min(kChunk, n - begin);
    for (std::size_t j = 0; j < m; ++j) chunk[j] = load(begin + j);
    port(chunk, chunk, m);
    for (std::size_t j = 0; j < m; ++j) store(begin + j, chunk[j]);
  }
}

}  // namespace

std::string_view to_string(Activation activation) {
  switch (activation) {
    case Activation::ReLU: return "relu";
    case Activation::Sigmoid: return "sigmoid";
    case Activation::Tanh: return "tanh";
    case Activation::LeakyReLU: return "leaky_relu";
    case Activation::Elu: return "elu";
    case Activation::Identity: return "identity";
  }
  return "?";
}

Activation activation_from_name(std::string_view name) {
  const std::string lower = util::to_lower(name);
  if (lower == "relu") return Activation::ReLU;
  if (lower == "sigmoid" || lower == "logistic") return Activation::Sigmoid;
  if (lower == "tanh") return Activation::Tanh;
  if (lower == "leaky_relu" || lower == "leakyrelu") return Activation::LeakyReLU;
  if (lower == "elu") return Activation::Elu;
  if (lower == "identity" || lower == "linear" || lower == "none") return Activation::Identity;
  throw std::invalid_argument("activation_from_name: unknown activation '" + std::string(name) +
                              "'");
}

float activate_scalar(Activation activation, float z) {
  switch (activation) {
    case Activation::ReLU: return z > 0.0f ? z : 0.0f;
    case Activation::Sigmoid: return 1.0f / (1.0f + std::exp(-z));
    case Activation::Tanh: return std::tanh(z);
    case Activation::LeakyReLU: return z > 0.0f ? z : kLeakySlope * z;
    case Activation::Elu: return z > 0.0f ? z : std::expm1(z);
    case Activation::Identity: return z;
  }
  return z;
}

void apply_activation(Activation activation, const linalg::Matrix& z, linalg::Matrix& y) {
  if (&y != &z) y.reshape_discard(z.rows(), z.cols());
  const float* in = z.raw();
  float* out = y.raw();
  const std::size_t n = z.size();
  switch (activation) {
    case Activation::ReLU:
      for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
      break;
    case Activation::Sigmoid:
      if (const detail::FloatMap exp = exp_port()) {
        map_through(
            exp, n, [&](std::size_t i) { return -in[i]; },
            [&](std::size_t i, float e) { out[i] = 1.0f / (1.0f + e); });
        break;
      }
      for (std::size_t i = 0; i < n; ++i) out[i] = 1.0f / (1.0f + std::exp(-in[i]));
      break;
    case Activation::Tanh:
      if (const detail::FloatMap tanh = tanh_port()) {
        tanh(in, out, n);
        break;
      }
      for (std::size_t i = 0; i < n; ++i) out[i] = std::tanh(in[i]);
      break;
    case Activation::LeakyReLU:
      for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : kLeakySlope * in[i];
      break;
    case Activation::Elu:
      if (const detail::FloatMap expm1 = expm1_port()) {
        // Positive lanes pass 0 through the port, which takes its fast path.
        map_through(
            expm1, n, [&](std::size_t i) { return in[i] > 0.0f ? 0.0f : in[i]; },
            [&](std::size_t i, float e) { out[i] = in[i] > 0.0f ? in[i] : e; });
        break;
      }
      for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : std::expm1(in[i]);
      break;
    case Activation::Identity:
      if (&y != &z) std::copy(in, in + n, out);
      break;
  }
}

void apply_activation_gradient(Activation activation, const linalg::Matrix& z,
                               const linalg::Matrix& a, linalg::Matrix& delta) {
  if (delta.rows() != z.rows() || delta.cols() != z.cols() || a.rows() != z.rows() ||
      a.cols() != z.cols()) {
    throw std::invalid_argument("apply_activation_gradient: shape mismatch");
  }
  const float* pre = z.raw();
  const float* post = a.raw();
  float* d = delta.raw();
  const std::size_t n = z.size();
  switch (activation) {
    // The ReLU-family loops are selects rather than conditional stores, so
    // they vectorize (see -fno-trapping-math in CMakeLists.txt).  A NaN z
    // compares false and keeps d.
    case Activation::ReLU:
      for (std::size_t i = 0; i < n; ++i) d[i] = pre[i] <= 0.0f ? 0.0f : d[i];
      break;
    case Activation::Sigmoid:
      for (std::size_t i = 0; i < n; ++i) d[i] *= post[i] * (1.0f - post[i]);
      break;
    case Activation::Tanh:
      for (std::size_t i = 0; i < n; ++i) d[i] *= 1.0f - post[i] * post[i];
      break;
    case Activation::LeakyReLU:
      for (std::size_t i = 0; i < n; ++i) d[i] = pre[i] <= 0.0f ? d[i] * kLeakySlope : d[i];
      break;
    case Activation::Elu:
      if (const detail::FloatMap exp = exp_port()) {
        // Positive and NaN lanes pass 0 through the port and keep d.
        map_through(
            exp, n, [&](std::size_t i) { return pre[i] <= 0.0f ? pre[i] : 0.0f; },
            [&](std::size_t i, float e) { d[i] = pre[i] <= 0.0f ? d[i] * e : d[i]; });
        break;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (pre[i] <= 0.0f) d[i] *= std::exp(pre[i]);
      }
      break;
    case Activation::Identity:
      break;
  }
}

void softmax_rows(const linalg::Matrix& z, linalg::Matrix& y) {
  if (&y != &z) y.reshape_discard(z.rows(), z.cols());
  const std::size_t cols = z.cols();
  for (std::size_t r = 0; r < z.rows(); ++r) {
    const float* in = z.raw() + r * cols;
    float* out = y.raw() + r * cols;
    float max_v = in[0];
    for (std::size_t c = 1; c < cols; ++c) max_v = std::max(max_v, in[c]);
    float total = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      out[c] = std::exp(in[c] - max_v);
      total += out[c];
    }
    const float inv = 1.0f / total;
    for (std::size_t c = 0; c < cols; ++c) out[c] *= inv;
  }
}

}  // namespace ecad::nn
