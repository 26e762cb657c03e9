#include "nn/activation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace ecad::nn {
namespace {

TEST(Activation, NamesRoundTrip) {
  for (Activation activation :
       {Activation::ReLU, Activation::Sigmoid, Activation::Tanh, Activation::LeakyReLU,
        Activation::Elu, Activation::Identity}) {
    EXPECT_EQ(activation_from_name(to_string(activation)), activation);
  }
  EXPECT_EQ(activation_from_name("logistic"), Activation::Sigmoid);
  EXPECT_EQ(activation_from_name("linear"), Activation::Identity);
  EXPECT_THROW(activation_from_name("swish"), std::invalid_argument);
}

TEST(Activation, ScalarValues) {
  EXPECT_FLOAT_EQ(activate_scalar(Activation::ReLU, -2.0f), 0.0f);
  EXPECT_FLOAT_EQ(activate_scalar(Activation::ReLU, 3.0f), 3.0f);
  EXPECT_NEAR(activate_scalar(Activation::Sigmoid, 0.0f), 0.5f, 1e-6);
  EXPECT_NEAR(activate_scalar(Activation::Tanh, 100.0f), 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(activate_scalar(Activation::LeakyReLU, -1.0f), -0.01f);
  EXPECT_NEAR(activate_scalar(Activation::Elu, -100.0f), -1.0f, 1e-5);
  EXPECT_FLOAT_EQ(activate_scalar(Activation::Identity, -7.5f), -7.5f);
}

class ActivationParamTest : public ::testing::TestWithParam<Activation> {};

// A 1/64 grid over [-40, 40] (sigmoid and tanh saturate to exactly 0/1/±1
// well inside it), signed zeros, tiny and subnormal magnitudes, ±inf and a
// quiet NaN.
std::vector<float> edge_grid() {
  std::vector<float> zs;
  for (int i = -40 * 64; i <= 40 * 64; ++i) zs.push_back(static_cast<float>(i) / 64.0f);
  for (float magnitude : {0.0f, 1e-7f, 1e-30f, 1e-40f, std::numeric_limits<float>::denorm_min(),
                          std::numeric_limits<float>::infinity()}) {
    zs.push_back(magnitude);
    zs.push_back(-magnitude);
  }
  zs.push_back(std::numeric_limits<float>::quiet_NaN());
  return zs;
}

TEST_P(ActivationParamTest, MatrixApplyMatchesScalar) {
  const Activation activation = GetParam();
  std::vector<float> zs = edge_grid();
  util::Rng rng(3);
  for (int i = 0; i < 64; ++i) zs.push_back(static_cast<float>(rng.next_double(-3.0, 3.0)));
  linalg::Matrix z(1, zs.size());
  std::copy(zs.begin(), zs.end(), z.raw());
  linalg::Matrix y;
  apply_activation(activation, z, y);
  for (std::size_t i = 0; i < zs.size(); ++i) {
    const float expected = activate_scalar(activation, zs[i]);
    EXPECT_EQ(std::memcmp(&y.data()[i], &expected, sizeof(float)), 0)
        << to_string(activation) << " at z=" << zs[i] << ": " << y.data()[i] << " vs "
        << expected;
  }
}

TEST_P(ActivationParamTest, InPlaceApplyAllowed) {
  const Activation activation = GetParam();
  util::Rng rng(5);
  linalg::Matrix z = linalg::Matrix::random_uniform(3, 3, rng, -2.0f, 2.0f);
  const linalg::Matrix original = z;
  apply_activation(activation, z, z);
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_NEAR(z.data()[i], activate_scalar(activation, original.data()[i]), 1e-6f);
  }
}

TEST_P(ActivationParamTest, GradientMatchesFiniteDifference) {
  const Activation activation = GetParam();
  util::Rng rng(7);
  // Avoid the ReLU kink at exactly 0 by sampling away from it.
  linalg::Matrix z(1, 16);
  for (std::size_t i = 0; i < z.size(); ++i) {
    float v = static_cast<float>(rng.next_double(-2.0, 2.0));
    if (std::fabs(v) < 0.05f) v = 0.1f;
    z.data()[i] = v;
  }
  linalg::Matrix a;
  apply_activation(activation, z, a);
  linalg::Matrix delta(1, 16, 1.0f);
  apply_activation_gradient(activation, z, a, delta);

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < z.size(); ++i) {
    const float fd = (activate_scalar(activation, z.data()[i] + eps) -
                      activate_scalar(activation, z.data()[i] - eps)) /
                     (2.0f * eps);
    EXPECT_NEAR(delta.data()[i], fd, 5e-3f) << to_string(activation) << " at z=" << z.data()[i];
  }
}

// Reference: delta·f'(z) from z alone, recomputing f(z) the way
// apply_activation does.
float pre_activation_gradient(Activation activation, float z, float delta) {
  switch (activation) {
    case Activation::ReLU: return z <= 0.0f ? 0.0f : delta;
    case Activation::Sigmoid: {
      const float s = 1.0f / (1.0f + std::exp(-z));
      return delta * (s * (1.0f - s));
    }
    case Activation::Tanh: {
      const float t = std::tanh(z);
      return delta * (1.0f - t * t);
    }
    case Activation::LeakyReLU: return z <= 0.0f ? delta * 0.01f : delta;
    case Activation::Elu: return z <= 0.0f ? delta * std::exp(z) : delta;
    case Activation::Identity: return delta;
  }
  return delta;
}

TEST_P(ActivationParamTest, PostActivationGradientIsBitIdenticalToPreActivationFormula) {
  const Activation activation = GetParam();
  const std::vector<float> zs = edge_grid();
  util::Rng rng(11);
  linalg::Matrix z(1, zs.size());
  linalg::Matrix delta(1, zs.size());
  for (std::size_t i = 0; i < zs.size(); ++i) {
    z.data()[i] = zs[i];
    delta.data()[i] = static_cast<float>(rng.next_double(-2.0, 2.0));
  }
  linalg::Matrix expected = delta;
  for (std::size_t i = 0; i < zs.size(); ++i) {
    expected.data()[i] = pre_activation_gradient(activation, zs[i], delta.data()[i]);
  }
  linalg::Matrix a;
  apply_activation(activation, z, a);
  apply_activation_gradient(activation, z, a, delta);
  for (std::size_t i = 0; i < zs.size(); ++i) {
    EXPECT_EQ(std::memcmp(&delta.data()[i], &expected.data()[i], sizeof(float)), 0)
        << to_string(activation) << " at z=" << zs[i] << ": " << delta.data()[i] << " vs "
        << expected.data()[i];
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationParamTest,
                         ::testing::Values(Activation::ReLU, Activation::Sigmoid,
                                           Activation::Tanh, Activation::LeakyReLU,
                                           Activation::Elu, Activation::Identity),
                         [](const auto& info) { return std::string(to_string(info.param)); });

TEST(Activation, GradientRejectsMismatchedShapes) {
  const linalg::Matrix z(2, 3);
  linalg::Matrix delta(2, 3);
  EXPECT_THROW(apply_activation_gradient(Activation::Sigmoid, z, linalg::Matrix(3, 2), delta),
               std::invalid_argument);
  linalg::Matrix wrong_delta(2, 2);
  EXPECT_THROW(apply_activation_gradient(Activation::Sigmoid, z, z, wrong_delta),
               std::invalid_argument);
}

TEST(Softmax, RowsSumToOne) {
  util::Rng rng(9);
  const linalg::Matrix z = linalg::Matrix::random_uniform(6, 10, rng, -5.0f, 5.0f);
  linalg::Matrix y;
  softmax_rows(z, y);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    float total = 0.0f;
    for (std::size_t c = 0; c < y.cols(); ++c) {
      EXPECT_GT(y.at(r, c), 0.0f);
      total += y.at(r, c);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  const linalg::Matrix z{{1000.0f, 1001.0f}};
  linalg::Matrix y;
  softmax_rows(z, y);
  EXPECT_FALSE(std::isnan(y.at(0, 0)));
  EXPECT_NEAR(y.at(0, 0) + y.at(0, 1), 1.0f, 1e-5f);
  EXPECT_GT(y.at(0, 1), y.at(0, 0));
}

TEST(Softmax, ShiftInvariance) {
  const linalg::Matrix a{{1.0f, 2.0f, 3.0f}};
  const linalg::Matrix b{{11.0f, 12.0f, 13.0f}};
  linalg::Matrix ya, yb;
  softmax_rows(a, ya);
  softmax_rows(b, yb);
  EXPECT_TRUE(ya.approx_equal(yb, 1e-5f));
}

}  // namespace
}  // namespace ecad::nn
