#include "nn/initializer.h"

#include <cmath>

namespace ecad::nn {

InitScheme default_init_for(Activation activation) {
  switch (activation) {
    case Activation::ReLU:
    case Activation::LeakyReLU:
    case Activation::Elu:
      return InitScheme::He;
    case Activation::Sigmoid:
    case Activation::Tanh:
    case Activation::Identity:
      return InitScheme::Xavier;
  }
  return InitScheme::Xavier;
}

void initialize_weights(linalg::Matrix& weights, InitScheme scheme, util::Rng& rng) {
  const double fan_in = static_cast<double>(weights.rows());
  const double fan_out = static_cast<double>(weights.cols());
  switch (scheme) {
    case InitScheme::Xavier: {
      const double limit = std::sqrt(6.0 / (fan_in + fan_out));
      rng.fill_uniform(weights.data(), -limit, limit);
      break;
    }
    case InitScheme::He: {
      const double stddev = std::sqrt(2.0 / std::max(1.0, fan_in));
      rng.fill_gaussian(weights.data(), 0.0, stddev);
      break;
    }
    case InitScheme::Uniform: {
      rng.fill_uniform(weights.data(), -0.05, 0.05);
      break;
    }
  }
}

}  // namespace ecad::nn
