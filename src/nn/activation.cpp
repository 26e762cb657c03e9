#include "nn/activation.h"

#include <cmath>
#include <stdexcept>

#include "util/string_util.h"

namespace ecad::nn {

namespace {
constexpr float kLeakySlope = 0.01f;
}

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
      for (std::size_t i = 0; i < n; ++i) out[i] = 1.0f / (1.0f + std::exp(-in[i]));
      break;
    case Activation::Tanh:
      for (std::size_t i = 0; i < n; ++i) out[i] = std::tanh(in[i]);
      break;
    case Activation::LeakyReLU:
      for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : kLeakySlope * in[i];
      break;
    case Activation::Elu:
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
