// nn::train keeps each layer's weights in the GEMM's packed panels for the
// whole run.  These tests hold it to the row-major step it replaced, written
// out below as the reference: forward_cached -> loss -> Mlp::backward ->
// Optimizer::step on the row-major weights, one repack per step.  Weights,
// biases and the whole TrainResult must match bit for bit.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "linalg/vector_ops.h"
#include "nn/loss.h"
#include "nn/trainer.h"

namespace ecad::nn {
namespace {

// The trainer's step as it ran on row-major weights.
TrainResult reference_train(Mlp& mlp, const data::Dataset& train_set,
                            const data::Dataset* validation, const TrainOptions& options,
                            util::Rng& rng) {
  TrainResult result;
  const std::size_t n = train_set.num_samples();
  const std::size_t layers = mlp.num_layers();
  auto optimizer = make_optimizer(options.optimizer, layers * 2);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  linalg::Matrix batch_x;
  std::vector<int> batch_y;
  Mlp::ForwardCache cache;
  linalg::Matrix logit_grad;
  std::vector<linalg::Matrix> grad_w, grad_b;
  double best_val = -1.0;
  std::size_t stale_epochs = 0;
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    if (options.shuffle_each_epoch) rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t loss_batches = 0;
    std::size_t correct = 0;
    for (std::size_t begin = 0; begin < n; begin += options.batch_size) {
      const std::size_t end = std::min(begin + options.batch_size, n);
      batch_x.reshape_discard(end - begin, train_set.num_features());
      batch_y.resize(end - begin);
      for (std::size_t i = begin; i < end; ++i) {
        const auto row = train_set.features.row(order[i]);
        std::copy(row.begin(), row.end(), batch_x.row(i - begin).begin());
        batch_y[i - begin] = train_set.labels[order[i]];
      }
      const linalg::Matrix& logits = mlp.forward_cached(batch_x, cache);
      loss_sum += cross_entropy_loss_grad(logits, batch_y, logit_grad);
      ++loss_batches;
      for (std::size_t r = 0; r < logits.rows(); ++r) {
        if (static_cast<int>(linalg::argmax(logits.row(r))) == batch_y[r]) ++correct;
      }
      mlp.backward(batch_x, cache, logit_grad, grad_w, grad_b);
      for (std::size_t l = 0; l < layers; ++l) {
        optimizer->step(l * 2, mlp.weights(l).data(), grad_w[l].data(), /*decay=*/true);
        if (mlp.spec().use_bias) {
          optimizer->step(l * 2 + 1, mlp.bias(l).data(), grad_b[l].data(), /*decay=*/false);
        }
      }
      optimizer->advance();
    }
    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = loss_sum / static_cast<double>(loss_batches);
    stats.train_accuracy = static_cast<double>(correct) / static_cast<double>(n);
    if (validation != nullptr && validation->num_samples() > 0) {
      stats.validation_accuracy = evaluate_accuracy(mlp, *validation, cache);
    }
    result.history.push_back(stats);
    result.final_train_loss = stats.train_loss;
    result.epochs_run = epoch + 1;
    if (validation != nullptr && options.early_stop_patience > 0) {
      if (stats.validation_accuracy > best_val + options.early_stop_min_delta) {
        best_val = stats.validation_accuracy;
        stale_epochs = 0;
      } else if (++stale_epochs >= options.early_stop_patience) {
        result.early_stopped = true;
        break;
      }
    }
  }
  result.best_validation_accuracy = std::max(0.0, best_val);
  return result;
}

data::Dataset synthetic(std::size_t samples, std::size_t features, std::uint64_t seed) {
  data::SyntheticSpec spec;
  spec.num_samples = samples;
  spec.num_features = features;
  spec.num_classes = 6;
  util::Rng rng(seed);
  return data::generate_synthetic(spec, rng);
}

bool same_bits(const linalg::Matrix& a, const linalg::Matrix& b) {
  // An empty matrix (a layer without bias) has no storage to compare.
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 || std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

struct Case {
  std::size_t input_dim;
  std::vector<std::size_t> hidden;
  Activation activation;
  bool use_bias;
  std::size_t batch;
  std::size_t samples;
  OptimizerKind optimizer;
  std::size_t epochs;
  std::size_t validation_samples = 0;  // > 0: early stopping on, patience 1
};

std::string describe(const Case& c) {
  std::string out = std::to_string(c.input_dim);
  for (const std::size_t width : c.hidden) out += "-" + std::to_string(width);
  out += " " + std::string(to_string(c.activation)) + (c.use_bias ? " bias" : " nobias") +
         " batch " + std::to_string(c.batch) + " of " + std::to_string(c.samples) + " " +
         std::string(to_string(c.optimizer));
  return out;
}

// Trains one model through nn::train and its twin through the reference,
// from the same initial weights and rng stream; returns nn::train's result.
TrainResult expect_same_training(const Case& c) {
  const data::Dataset train_set = synthetic(c.samples, c.input_dim, 11 + c.samples);
  data::Dataset validation;
  if (c.validation_samples > 0) validation = synthetic(c.validation_samples, c.input_dim, 12);
  const data::Dataset* validation_set = c.validation_samples > 0 ? &validation : nullptr;
  MlpSpec spec;
  spec.input_dim = c.input_dim;
  spec.output_dim = 6;
  spec.hidden = c.hidden;
  spec.activation = c.activation;
  spec.use_bias = c.use_bias;
  TrainOptions options;
  options.epochs = c.epochs;
  options.batch_size = c.batch;
  options.optimizer.kind = c.optimizer;
  options.optimizer.learning_rate = 0.01;
  options.optimizer.weight_decay = 1e-3;
  options.early_stop_patience = c.validation_samples > 0 ? 1 : 0;

  util::Rng init_rng(29);
  Mlp packed(spec, init_rng);
  Mlp row_major = packed;
  util::Rng rng_a(31);
  util::Rng rng_b(31);
  const TrainResult got = train(packed, train_set, validation_set, options, rng_a);
  const TrainResult want = reference_train(row_major, train_set, validation_set, options, rng_b);

  const std::string what = describe(c);
  for (std::size_t l = 0; l < packed.num_layers(); ++l) {
    EXPECT_TRUE(same_bits(packed.weights(l), row_major.weights(l))) << what << " layer " << l;
    EXPECT_TRUE(same_bits(packed.bias(l), row_major.bias(l))) << what << " layer " << l;
  }
  EXPECT_EQ(got.history.size(), want.history.size()) << what;
  for (std::size_t e = 0; e < std::min(got.history.size(), want.history.size()); ++e) {
    EXPECT_EQ(got.history[e].epoch, want.history[e].epoch) << what;
    EXPECT_TRUE(same_bits(got.history[e].train_loss, want.history[e].train_loss)) << what;
    EXPECT_TRUE(same_bits(got.history[e].train_accuracy, want.history[e].train_accuracy)) << what;
    EXPECT_TRUE(same_bits(got.history[e].validation_accuracy,
                          want.history[e].validation_accuracy))
        << what;
  }
  EXPECT_TRUE(same_bits(got.final_train_loss, want.final_train_loss)) << what;
  EXPECT_TRUE(same_bits(got.best_validation_accuracy, want.best_validation_accuracy)) << what;
  EXPECT_EQ(got.epochs_run, want.epochs_run) << what;
  EXPECT_EQ(got.early_stopped, want.early_stopped) << what;
  // The row-major weights are the model again: a fresh forward agrees.
  const linalg::Matrix probe = synthetic(9, c.input_dim, 13).features;
  EXPECT_TRUE(same_bits(packed.forward(probe), row_major.forward(probe))) << what;
  return got;
}

const OptimizerKind kOptimizers[] = {OptimizerKind::Sgd, OptimizerKind::Momentum,
                                     OptimizerKind::Adam};

TEST(PackedTraining, EveryActivationWithAndWithoutBiasMatchesRowMajorStep) {
  const Activation activations[] = {Activation::ReLU, Activation::Sigmoid, Activation::Tanh,
                                    Activation::LeakyReLU, Activation::Elu, Activation::Identity};
  std::size_t k = 0;
  for (const Activation activation : activations) {
    for (const bool use_bias : {true, false}) {
      // 100 samples in batches of 32: the last batch holds 4.
      expect_same_training({30, {24, 4}, activation, use_bias, 32, 100, kOptimizers[k++ % 3], 2});
    }
  }
}

TEST(PackedTraining, WideNarrowAndTwoPanelBatchesMatchRowMajorStep) {
  // Widths 4, 8, 24 and 300; inputs 30 and 561; batch 300 spans two kKC
  // panels of the dW product (256 + 44) and leaves a partial last batch.
  expect_same_training({561, {300}, Activation::Tanh, true, 300, 330, OptimizerKind::Adam, 1});
  expect_same_training({561, {4, 8}, Activation::ReLU, false, 32, 70, OptimizerKind::Momentum, 2});
  expect_same_training({30, {300, 24}, Activation::Elu, true, 300, 310, OptimizerKind::Sgd, 2});
  expect_same_training({561, {8}, Activation::Sigmoid, true, 32, 40, OptimizerKind::Adam, 2});
}

TEST(PackedTraining, EarlyStoppedRunMatchesRowMajorStep) {
  // Patience 1 over 40 epochs: validation forwards through the live panels
  // every epoch, and the write-back happens on the early exit.
  const TrainResult result =
      expect_same_training({30, {8}, Activation::ReLU, true, 32, 100, OptimizerKind::Adam, 40, 60});
  EXPECT_TRUE(result.early_stopped);
  EXPECT_LT(result.epochs_run, 40u);
}

TEST(PackedTraining, ZeroEpochsLeavesWeightsUntouched) {
  MlpSpec spec;
  spec.input_dim = 30;
  spec.output_dim = 6;
  spec.hidden = {8};
  util::Rng init_rng(3);
  Mlp mlp(spec, init_rng);
  const Mlp before = mlp;
  TrainOptions options;
  options.epochs = 0;
  util::Rng rng(4);
  train(mlp, synthetic(50, 30, 5), nullptr, options, rng);
  for (std::size_t l = 0; l < mlp.num_layers(); ++l) {
    EXPECT_TRUE(same_bits(mlp.weights(l), before.weights(l)));
  }
}

}  // namespace
}  // namespace ecad::nn
