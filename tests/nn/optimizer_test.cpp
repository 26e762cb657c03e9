#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace ecad::nn {
namespace {

TEST(Optimizer, NamesRoundTrip) {
  for (OptimizerKind kind : {OptimizerKind::Sgd, OptimizerKind::Momentum, OptimizerKind::Adam}) {
    EXPECT_EQ(optimizer_from_name(to_string(kind)), kind);
  }
  EXPECT_THROW(optimizer_from_name("lbfgs"), std::invalid_argument);
}

TEST(Sgd, SingleStepIsLrTimesGrad) {
  OptimizerOptions options;
  options.kind = OptimizerKind::Sgd;
  options.learning_rate = 0.1;
  auto optimizer = make_optimizer(options, 1);
  std::vector<float> params{1.0f};
  const std::vector<float> grads{2.0f};
  optimizer->step(0, params, grads, /*decay=*/false);
  EXPECT_NEAR(params[0], 1.0f - 0.1f * 2.0f, 1e-6f);
}

TEST(Sgd, WeightDecayAppliesOnlyWhenRequested) {
  OptimizerOptions options;
  options.kind = OptimizerKind::Sgd;
  options.learning_rate = 0.1;
  options.weight_decay = 1.0;
  auto optimizer = make_optimizer(options, 2);
  std::vector<float> decayed{1.0f}, undecayed{1.0f};
  const std::vector<float> zero_grad{0.0f};
  optimizer->step(0, decayed, zero_grad, true);
  optimizer->step(1, undecayed, zero_grad, false);
  EXPECT_LT(decayed[0], 1.0f);
  EXPECT_FLOAT_EQ(undecayed[0], 1.0f);
}

// Every optimizer must minimize the convex quadratic f(x) = ||x - t||².
class OptimizerConvergenceTest : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(OptimizerConvergenceTest, MinimizesQuadratic) {
  OptimizerOptions options;
  options.kind = GetParam();
  options.learning_rate = options.kind == OptimizerKind::Adam ? 0.05 : 0.1;
  auto optimizer = make_optimizer(options, 1);

  std::vector<float> x{5.0f, -3.0f};
  const std::vector<float> target{1.0f, 2.0f};
  for (int step = 0; step < 500; ++step) {
    std::vector<float> grads(2);
    for (int i = 0; i < 2; ++i) grads[static_cast<std::size_t>(i)] = 2.0f * (x[static_cast<std::size_t>(i)] - target[static_cast<std::size_t>(i)]);
    optimizer->step(0, x, grads, false);
    optimizer->advance();
  }
  EXPECT_NEAR(x[0], 1.0f, 0.05f);
  EXPECT_NEAR(x[1], 2.0f, 0.05f);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, OptimizerConvergenceTest,
                         ::testing::Values(OptimizerKind::Sgd, OptimizerKind::Momentum,
                                           OptimizerKind::Adam),
                         [](const auto& info) { return std::string(to_string(info.param)); });

class OptimizerKindTest : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(OptimizerKindTest, RejectsGradientSpanOfWrongLength) {
  OptimizerOptions options;
  options.kind = GetParam();
  auto optimizer = make_optimizer(options, 1);
  std::vector<float> params(4, 1.0f);
  EXPECT_THROW(optimizer->step(0, params, std::vector<float>(3, 1.0f), false),
               std::invalid_argument);
  EXPECT_THROW(optimizer->step(0, params, std::vector<float>(5, 1.0f), true),
               std::invalid_argument);
  EXPECT_EQ(params, std::vector<float>(4, 1.0f));
}

// One scalar update per kind, in the exact operation order of the
// optimizers' loops.  However the compiler vectorizes those loops, their
// results must stay bit-identical to these.
struct ReferenceOptimizer {
  OptimizerOptions options;
  std::vector<float> velocity;  // Momentum
  std::vector<float> m, v;      // Adam moments
  std::size_t t = 1;

  void step(std::vector<float>& params, const std::vector<float>& grads, bool decay) {
    const float lr = static_cast<float>(options.learning_rate);
    const float wd = decay ? static_cast<float>(options.weight_decay) : 0.0f;
    switch (options.kind) {
      case OptimizerKind::Sgd:
        for (std::size_t i = 0; i < params.size(); ++i) {
          params[i] -= lr * (grads[i] + wd * params[i]);
        }
        break;
      case OptimizerKind::Momentum: {
        if (velocity.size() != params.size()) velocity.assign(params.size(), 0.0f);
        const float mu = static_cast<float>(options.momentum);
        for (std::size_t i = 0; i < params.size(); ++i) {
          const float g = grads[i] + wd * params[i];
          velocity[i] = mu * velocity[i] - lr * g;
          params[i] += velocity[i];
        }
        break;
      }
      case OptimizerKind::Adam: {
        if (m.size() != params.size()) {
          m.assign(params.size(), 0.0f);
          v.assign(params.size(), 0.0f);
        }
        const double b1 = options.beta1;
        const double b2 = options.beta2;
        const double bias1 = 1.0 - std::pow(b1, static_cast<double>(t));
        const double bias2 = 1.0 - std::pow(b2, static_cast<double>(t));
        const float eps = static_cast<float>(options.epsilon);
        for (std::size_t i = 0; i < params.size(); ++i) {
          const float g = grads[i] + wd * params[i];
          m[i] = static_cast<float>(b1) * m[i] + static_cast<float>(1.0 - b1) * g;
          v[i] = static_cast<float>(b2) * v[i] + static_cast<float>(1.0 - b2) * g * g;
          const float m_hat = m[i] / static_cast<float>(bias1);
          const float v_hat = v[i] / static_cast<float>(bias2);
          params[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
        }
        break;
      }
    }
  }

  void advance() { ++t; }
};

// Signed magnitudes spread log-uniformly from the smallest subnormal to 1e3,
// with every seventh value an exact +0 or -0.
std::vector<float> wide_range_values(std::size_t n, util::Rng& rng) {
  std::vector<float> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool negative = rng.next_double() < 0.5;
    float magnitude = 0.0f;
    if (i % 7 != 3) {
      magnitude = static_cast<float>(std::pow(10.0, rng.next_double(-45.0, 3.0)));
    }
    values[i] = negative ? -magnitude : magnitude;
  }
  return values;
}

TEST_P(OptimizerKindTest, MatchesScalarReferenceBitForBit) {
  for (const bool decay : {false, true}) {
    for (const std::size_t n : std::vector<std::size_t>{1, 3, 4, 5, 7, 8, 9, 17, 1031}) {
      OptimizerOptions options;
      options.kind = GetParam();
      options.learning_rate = 0.01;
      options.weight_decay = 0.05;
      auto optimizer = make_optimizer(options, 1);
      ReferenceOptimizer reference;
      reference.options = options;
      util::Rng rng(n * 2 + (decay ? 1 : 0));
      std::vector<float> params = wide_range_values(n, rng);
      std::vector<float> expected = params;
      for (int step = 0; step < 5; ++step) {
        const std::vector<float> grads = wide_range_values(n, rng);
        optimizer->step(0, params, grads, decay);
        optimizer->advance();
        reference.step(expected, grads, decay);
        reference.advance();
      }
      EXPECT_EQ(std::memcmp(params.data(), expected.data(), n * sizeof(float)), 0)
          << to_string(options.kind) << " n=" << n << " decay=" << decay;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, OptimizerKindTest,
                         ::testing::Values(OptimizerKind::Sgd, OptimizerKind::Momentum,
                                           OptimizerKind::Adam),
                         [](const auto& info) { return std::string(to_string(info.param)); });

TEST(Momentum, AcceleratesInConsistentDirection) {
  OptimizerOptions sgd_options;
  sgd_options.kind = OptimizerKind::Sgd;
  sgd_options.learning_rate = 0.01;
  OptimizerOptions momentum_options = sgd_options;
  momentum_options.kind = OptimizerKind::Momentum;
  momentum_options.momentum = 0.9;

  auto sgd = make_optimizer(sgd_options, 1);
  auto momentum = make_optimizer(momentum_options, 1);
  std::vector<float> x_sgd{0.0f}, x_momentum{0.0f};
  const std::vector<float> grad{-1.0f};  // constant downhill
  for (int i = 0; i < 20; ++i) {
    sgd->step(0, x_sgd, grad, false);
    momentum->step(0, x_momentum, grad, false);
  }
  EXPECT_GT(x_momentum[0], x_sgd[0] * 2.0f);
}

TEST(Adam, StepMagnitudeBoundedByLearningRate) {
  OptimizerOptions options;
  options.kind = OptimizerKind::Adam;
  options.learning_rate = 0.001;
  auto optimizer = make_optimizer(options, 1);
  std::vector<float> x{0.0f};
  // Huge gradient: Adam normalizes, so the first step ~ lr.
  optimizer->step(0, x, std::vector<float>{1e6f}, false);
  EXPECT_NEAR(std::fabs(x[0]), 0.001f, 2e-4f);
}

TEST(Adam, PerSlotStateIsIndependent) {
  OptimizerOptions options;
  options.kind = OptimizerKind::Adam;
  options.learning_rate = 0.01;
  auto optimizer = make_optimizer(options, 2);
  std::vector<float> a{0.0f}, b{0.0f};
  optimizer->step(0, a, std::vector<float>{1.0f}, false);
  // Slot 1 never saw a gradient; its state must start fresh.
  optimizer->step(1, b, std::vector<float>{1.0f}, false);
  EXPECT_NEAR(a[0], b[0], 1e-6f);
}

}  // namespace
}  // namespace ecad::nn
