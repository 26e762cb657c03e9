#include "nn/trainer.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "linalg/vector_ops.h"
#include "nn/loss.h"
#include "nn/metrics.h"

namespace ecad::nn {

namespace {

// Copy the rows `indices[begin, end)` into a batch matrix + label vector.
void gather_batch(const data::Dataset& dataset, const std::vector<std::size_t>& indices,
                  std::size_t begin, std::size_t end, linalg::Matrix& batch_x,
                  std::vector<int>& batch_y) {
  const std::size_t batch = end - begin;
  if (batch_x.rows() != batch || batch_x.cols() != dataset.num_features()) {
    batch_x.reshape_discard(batch, dataset.num_features());
  }
  batch_y.resize(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const std::size_t src = indices[begin + i];
    std::copy(dataset.features.row(src).begin(), dataset.features.row(src).end(),
              batch_x.row(i).begin());
    batch_y[i] = dataset.labels[src];
  }
}

}  // namespace

TrainResult train(Mlp& mlp, const data::Dataset& train_set, const data::Dataset* validation,
                  const TrainOptions& options, util::Rng& rng) {
  if (train_set.num_features() != mlp.spec().input_dim) {
    throw std::invalid_argument("train: dataset width != MLP input_dim");
  }
  if (train_set.num_classes > mlp.spec().output_dim) {
    throw std::invalid_argument("train: dataset classes exceed MLP output_dim");
  }
  if (options.batch_size == 0) throw std::invalid_argument("train: batch_size must be > 0");

  TrainResult result;
  const std::size_t n = train_set.num_samples();
  if (n == 0) return result;

  // Slots: weight and bias per layer.
  const std::size_t layers = mlp.num_layers();
  auto optimizer = make_optimizer(options.optimizer, layers * 2);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  linalg::Matrix batch_x;
  std::vector<int> batch_y;
  // From the first forward pass until the write-back below, cache.packed_w
  // holds the weights (see Mlp::ForwardCache), and grad_w holds dW in the
  // same panel layout. Padding lanes are +0 in both, and a +0 weight with a
  // +0 gradient stays +0 under every optimizer, so the panels stay valid
  // operands. Only copies separate this from stepping the row-major
  // weights: the same bits, without a repack per step.
  Mlp::ForwardCache cache;
  linalg::Matrix logit_grad;
  std::vector<linalg::PackedB> grad_w;
  std::vector<linalg::Matrix> grad_b;

  double best_val = -1.0;
  std::size_t stale_epochs = 0;

  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    if (options.shuffle_each_epoch) rng.shuffle(order);

    double loss_sum = 0.0;
    std::size_t loss_batches = 0;
    std::size_t correct = 0;

    for (std::size_t begin = 0; begin < n; begin += options.batch_size) {
      const std::size_t end = std::min(begin + options.batch_size, n);
      gather_batch(train_set, order, begin, end, batch_x, batch_y);

      const linalg::Matrix& logits = mlp.forward_cached(batch_x, cache);
      loss_sum += cross_entropy_loss_grad(logits, batch_y, logit_grad);
      ++loss_batches;
      for (std::size_t r = 0; r < logits.rows(); ++r) {
        if (static_cast<int>(linalg::argmax(logits.row(r))) == batch_y[r]) ++correct;
      }

      mlp.backward(batch_x, cache, logit_grad, grad_w, grad_b);
      for (std::size_t l = 0; l < layers; ++l) {
        optimizer->step(l * 2, cache.packed_w[l].values(), grad_w[l].values(), /*decay=*/true);
        if (mlp.spec().use_bias) {
          optimizer->step(l * 2 + 1, mlp.bias(l).data(), grad_b[l].data(), /*decay=*/false);
        }
      }
      optimizer->advance();
      // The next δ·Wᵀ products read the updated weights transposed.
      for (std::size_t l = 1; l < layers; ++l) {
        cache.packed_wt[l].pack_transposed(cache.packed_w[l]);
      }
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = loss_batches == 0 ? 0.0 : loss_sum / static_cast<double>(loss_batches);
    stats.train_accuracy = static_cast<double>(correct) / static_cast<double>(n);
    if (validation != nullptr && validation->num_samples() > 0) {
      // Shares the training cache, so validation forwards through the live
      // weight panels and reuses the activation buffers.
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
  // Hand the trained panels back to the row-major weights (nothing to do
  // when no epoch ran: the panels were never packed).
  for (std::size_t l = 0; l < cache.packed_w.size(); ++l) cache.packed_w[l].unpack(mlp.weights(l));
  result.best_validation_accuracy = std::max(0.0, best_val);
  return result;
}

double evaluate_accuracy(const Mlp& mlp, const data::Dataset& dataset) {
  Mlp::ForwardCache cache;
  return evaluate_accuracy(mlp, dataset, cache);
}

double evaluate_accuracy(const Mlp& mlp, const data::Dataset& dataset,
                         Mlp::ForwardCache& cache) {
  if (dataset.num_samples() == 0) return 0.0;
  const linalg::Matrix& logits = mlp.forward_cached(dataset.features, cache);
  std::vector<int> predictions(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    predictions[r] = static_cast<int>(linalg::argmax(logits.row(r)));
  }
  return accuracy(predictions, dataset.labels);
}

}  // namespace ecad::nn
