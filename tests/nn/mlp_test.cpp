#include "nn/mlp.h"

#include <gtest/gtest.h>

#include "linalg/gemm.h"
#include "nn/loss.h"

namespace ecad::nn {
namespace {

MlpSpec small_spec() {
  MlpSpec spec;
  spec.input_dim = 4;
  spec.output_dim = 3;
  spec.hidden = {8, 6};
  spec.activation = Activation::Tanh;
  return spec;
}

TEST(MlpSpec, LayerDims) {
  EXPECT_EQ(small_spec().layer_dims(), (std::vector<std::size_t>{4, 8, 6, 3}));
  MlpSpec shallow;
  shallow.input_dim = 5;
  shallow.output_dim = 2;
  EXPECT_EQ(shallow.layer_dims(), (std::vector<std::size_t>{5, 2}));
}

TEST(MlpSpec, ParameterCount) {
  // (4*8+8) + (8*6+6) + (6*3+3) = 40 + 54 + 21 = 115
  EXPECT_EQ(small_spec().num_parameters(), 115u);
  MlpSpec no_bias = small_spec();
  no_bias.use_bias = false;
  EXPECT_EQ(no_bias.num_parameters(), 32u + 48u + 18u);
}

TEST(MlpSpec, FlopsPerSample) {
  // 2*(4*8) + 8 + 2*(8*6) + 6 + 2*(6*3) + 3 = 64+8+96+6+36+3 = 213
  EXPECT_EQ(small_spec().flops_per_sample(), 213u);
}

TEST(MlpSpec, TotalHiddenNeurons) { EXPECT_EQ(small_spec().total_hidden_neurons(), 14u); }

TEST(MlpSpec, ToStringFormat) {
  EXPECT_EQ(small_spec().to_string(), "4-8-6-3 tanh bias");
}

TEST(MlpSpec, ValidateRejectsDegenerate) {
  MlpSpec spec = small_spec();
  spec.input_dim = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.output_dim = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.hidden = {8, 0};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(Mlp, ForwardShape) {
  util::Rng rng(1);
  const Mlp mlp(small_spec(), rng);
  const linalg::Matrix input = linalg::Matrix::random_uniform(5, 4, rng);
  const linalg::Matrix logits = mlp.forward(input);
  EXPECT_EQ(logits.rows(), 5u);
  EXPECT_EQ(logits.cols(), 3u);
}

TEST(Mlp, ForwardWrongWidthThrows) {
  util::Rng rng(1);
  const Mlp mlp(small_spec(), rng);
  EXPECT_THROW(mlp.forward(linalg::Matrix(2, 7)), std::invalid_argument);
}

TEST(Mlp, PredictProbaRowsSumToOne) {
  util::Rng rng(2);
  const Mlp mlp(small_spec(), rng);
  const linalg::Matrix input = linalg::Matrix::random_uniform(4, 4, rng);
  const linalg::Matrix proba = mlp.predict_proba(input);
  for (std::size_t r = 0; r < proba.rows(); ++r) {
    float total = 0.0f;
    for (std::size_t c = 0; c < proba.cols(); ++c) total += proba.at(r, c);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(Mlp, PredictIsArgmaxOfLogits) {
  util::Rng rng(3);
  const Mlp mlp(small_spec(), rng);
  const linalg::Matrix input = linalg::Matrix::random_uniform(6, 4, rng);
  const linalg::Matrix logits = mlp.forward(input);
  const std::vector<int> predictions = mlp.predict(input);
  for (std::size_t r = 0; r < input.rows(); ++r) {
    int best = 0;
    for (std::size_t c = 1; c < logits.cols(); ++c) {
      if (logits.at(r, c) > logits.at(r, static_cast<std::size_t>(best))) {
        best = static_cast<int>(c);
      }
    }
    EXPECT_EQ(predictions[r], best);
  }
}

TEST(Mlp, DeterministicConstructionPerSeed) {
  util::Rng rng1(9), rng2(9);
  const Mlp a(small_spec(), rng1), b(small_spec(), rng2);
  for (std::size_t l = 0; l < a.num_layers(); ++l) {
    EXPECT_EQ(a.weights(l), b.weights(l));
  }
}

TEST(Mlp, ForwardCachedReusesPackedPanelsAcrossCalls) {
  util::Rng rng(21);
  const Mlp mlp(small_spec(), rng);
  const linalg::Matrix input = linalg::Matrix::random_uniform(5, 4, rng);
  Mlp::ForwardCache cache;
  const linalg::Matrix first = mlp.forward_cached(input, cache);
  const std::uint64_t packed_at = cache.packed_w_version;
  EXPECT_EQ(packed_at, mlp.weights_version());
  const linalg::Matrix second = mlp.forward_cached(input, cache);
  EXPECT_EQ(cache.packed_w_version, packed_at);  // no repack while frozen
  EXPECT_TRUE(second.approx_equal(first));
  EXPECT_TRUE(second.approx_equal(mlp.forward(input), 1e-5f));
}

TEST(Mlp, WeightMutationInvalidatesPackedPanels) {
  util::Rng rng(23);
  Mlp mlp(small_spec(), rng);
  const linalg::Matrix input = linalg::Matrix::random_uniform(5, 4, rng);
  Mlp::ForwardCache cache;
  const linalg::Matrix before = mlp.forward_cached(input, cache);
  const std::uint64_t version_before = mlp.weights_version();
  mlp.weights(0).at(0, 0) += 0.5f;  // mutable access bumps the version
  EXPECT_GT(mlp.weights_version(), version_before);
  const linalg::Matrix after = mlp.forward_cached(input, cache);
  // The cached panels must have been repacked with the new weights: the
  // result matches a pack-free-from-scratch forward, not the stale one.
  EXPECT_TRUE(after.approx_equal(mlp.forward(input), 1e-5f));
  EXPECT_FALSE(after.approx_equal(before, 1e-7f));
}

TEST(Mlp, SharedCacheNeverServesAnotherModelsPanels) {
  // Weight versions are globally unique, so reusing one ForwardCache across
  // two models (same shapes, different weights) must repack, not alias.
  util::Rng rng1(31), rng2(37);
  const Mlp m1(small_spec(), rng1), m2(small_spec(), rng2);
  util::Rng data_rng(41);
  const linalg::Matrix input = linalg::Matrix::random_uniform(5, 4, data_rng);
  Mlp::ForwardCache cache;
  const linalg::Matrix out1 = m1.forward_cached(input, cache);
  const linalg::Matrix out2 = m2.forward_cached(input, cache);
  EXPECT_TRUE(out2.approx_equal(m2.forward(input), 1e-5f));
  EXPECT_FALSE(out2.approx_equal(out1, 1e-6f));
  // Swinging back to the first model must repack again.
  EXPECT_TRUE(m1.forward_cached(input, cache).approx_equal(out1, 1e-6f));
}

// Both passes multiply by cached packed weight panels; these oracle tests
// rebuild each pass from gemm_naive products instead.
struct NaiveForward {
  std::vector<linalg::Matrix> pre;   // z_l
  std::vector<linalg::Matrix> post;  // a_l (post.back() == logits)
};

NaiveForward naive_forward(const Mlp& mlp, const linalg::Matrix& input) {
  NaiveForward out;
  for (std::size_t l = 0; l < mlp.num_layers(); ++l) {
    const linalg::Matrix& a_prev = l == 0 ? input : out.post[l - 1];
    linalg::Matrix z(a_prev.rows(), mlp.weights(l).cols());
    linalg::gemm_naive(a_prev, mlp.weights(l), z);
    linalg::add_bias_rows(z, mlp.bias(l));
    linalg::Matrix a = z;
    if (l + 1 < mlp.num_layers()) apply_activation(mlp.spec().activation, z, a);
    out.pre.push_back(std::move(z));
    out.post.push_back(std::move(a));
  }
  return out;
}

// Biases start at zero; random ones make the bias terms show in the checks.
Mlp mlp_with_random_biases(util::Rng& rng) {
  Mlp mlp(small_spec(), rng);
  for (std::size_t l = 0; l < mlp.num_layers(); ++l) {
    mlp.bias(l) = linalg::Matrix::random_uniform(1, mlp.bias(l).cols(), rng);
  }
  return mlp;
}

TEST(Mlp, ForwardMatchesNaiveGemmReference) {
  util::Rng rng(25);
  const Mlp mlp = mlp_with_random_biases(rng);
  const linalg::Matrix input = linalg::Matrix::random_uniform(6, 4, rng);
  const NaiveForward reference = naive_forward(mlp, input);
  EXPECT_TRUE(mlp.forward(input).approx_equal(reference.post.back(), 1e-4f));
}

TEST(Mlp, BackwardMatchesNaiveGemmReference) {
  util::Rng rng(27);
  const Mlp mlp = mlp_with_random_biases(rng);
  const linalg::Matrix input = linalg::Matrix::random_uniform(6, 4, rng);
  const linalg::Matrix logit_grad = linalg::Matrix::random_uniform(6, 3, rng);
  Mlp::ForwardCache cache;
  mlp.forward_cached(input, cache);
  std::vector<linalg::Matrix> grad_w, grad_b;
  mlp.backward(input, cache, logit_grad, grad_w, grad_b);
  ASSERT_EQ(grad_w.size(), mlp.num_layers());

  const NaiveForward reference = naive_forward(mlp, input);
  linalg::Matrix delta = logit_grad;
  for (std::size_t l = mlp.num_layers(); l-- > 0;) {
    const linalg::Matrix& a_prev = l == 0 ? input : reference.post[l - 1];
    linalg::Matrix expected_w(mlp.weights(l).rows(), mlp.weights(l).cols());
    linalg::gemm_naive(a_prev.transposed(), delta, expected_w);  // a_prevᵀ·δ
    EXPECT_TRUE(grad_w[l].approx_equal(expected_w, 1e-4f)) << "layer " << l;
    linalg::Matrix expected_b(1, delta.cols());
    linalg::gemm_naive(linalg::Matrix(1, delta.rows(), 1.0f), delta, expected_b);  // 1ᵀ·δ
    EXPECT_TRUE(grad_b[l].approx_equal(expected_b, 1e-4f)) << "layer " << l;
    if (l == 0) break;
    linalg::Matrix next_delta(delta.rows(), mlp.weights(l).rows());
    linalg::gemm_naive(delta, mlp.weights(l).transposed(), next_delta);  // δ·Wᵀ
    apply_activation_gradient(mlp.spec().activation, reference.pre[l - 1],
                              reference.post[l - 1], next_delta);
    delta = std::move(next_delta);
  }
}

// The critical correctness test: analytic backprop gradients must match
// central finite differences of the loss for every parameter, across
// activations and bias settings.
class MlpGradientTest : public ::testing::TestWithParam<std::tuple<Activation, bool>> {};

TEST_P(MlpGradientTest, BackpropMatchesFiniteDifference) {
  const auto [activation, use_bias] = GetParam();
  MlpSpec spec;
  spec.input_dim = 3;
  spec.output_dim = 2;
  spec.hidden = {5, 4};
  spec.activation = activation;
  spec.use_bias = use_bias;

  util::Rng rng(17);
  Mlp mlp(spec, rng);
  const linalg::Matrix input = linalg::Matrix::random_uniform(4, 3, rng);
  const std::vector<int> labels = {0, 1, 1, 0};

  Mlp::ForwardCache cache;
  const linalg::Matrix logits = mlp.forward_cached(input, cache);
  linalg::Matrix logit_grad;
  cross_entropy_loss_grad(logits, labels, logit_grad);
  std::vector<linalg::Matrix> grad_w, grad_b;
  mlp.backward(input, cache, logit_grad, grad_w, grad_b);

  auto loss_at = [&]() {
    return cross_entropy_loss(mlp.forward(input), labels);
  };

  const float eps = 1e-2f;
  for (std::size_t l = 0; l < mlp.num_layers(); ++l) {
    // Sample a few weights per layer to keep the test fast.
    for (std::size_t idx : {std::size_t{0}, mlp.weights(l).size() / 2,
                            mlp.weights(l).size() - 1}) {
      float& w = mlp.weights(l).data()[idx];
      const float saved = w;
      w = saved + eps;
      const double up = loss_at();
      w = saved - eps;
      const double down = loss_at();
      w = saved;
      const double fd = (up - down) / (2.0 * eps);
      EXPECT_NEAR(grad_w[l].data()[idx], fd, 2e-2)
          << "layer " << l << " weight " << idx << " act " << to_string(activation);
    }
    if (use_bias) {
      float& b = mlp.bias(l).data()[0];
      const float saved = b;
      b = saved + eps;
      const double up = loss_at();
      b = saved - eps;
      const double down = loss_at();
      b = saved;
      EXPECT_NEAR(grad_b[l].data()[0], (up - down) / (2.0 * eps), 2e-2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ActivationsAndBias, MlpGradientTest,
    ::testing::Combine(::testing::Values(Activation::ReLU, Activation::Sigmoid, Activation::Tanh,
                                         Activation::LeakyReLU, Activation::Elu),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_bias" : "_nobias");
    });

}  // namespace
}  // namespace ecad::nn
