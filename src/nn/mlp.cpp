#include "nn/mlp.h"

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "linalg/gemm.h"
#include "linalg/vector_ops.h"
#include "nn/initializer.h"

namespace ecad::nn {

std::vector<std::size_t> MlpSpec::layer_dims() const {
  std::vector<std::size_t> dims;
  dims.reserve(hidden.size() + 2);
  dims.push_back(input_dim);
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(output_dim);
  return dims;
}

std::size_t MlpSpec::num_parameters() const {
  const auto dims = layer_dims();
  std::size_t count = 0;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    count += dims[l] * dims[l + 1];
    if (use_bias) count += dims[l + 1];
  }
  return count;
}

std::size_t MlpSpec::flops_per_sample() const {
  const auto dims = layer_dims();
  std::size_t flops = 0;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    flops += 2 * dims[l] * dims[l + 1];
    if (use_bias) flops += dims[l + 1];
  }
  return flops;
}

std::size_t MlpSpec::total_hidden_neurons() const {
  std::size_t total = 0;
  for (std::size_t width : hidden) total += width;
  return total;
}

std::string MlpSpec::to_string() const {
  std::ostringstream out;
  out << input_dim;
  for (std::size_t width : hidden) out << '-' << width;
  out << '-' << output_dim << ' ' << nn::to_string(activation) << (use_bias ? " bias" : " nobias");
  return out.str();
}

void MlpSpec::validate() const {
  if (input_dim == 0) throw std::invalid_argument("MlpSpec: input_dim must be > 0");
  if (output_dim == 0) throw std::invalid_argument("MlpSpec: output_dim must be > 0");
  for (std::size_t width : hidden) {
    if (width == 0) throw std::invalid_argument("MlpSpec: hidden width must be > 0");
  }
}

std::uint64_t Mlp::next_weights_version() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Mlp::Mlp(MlpSpec spec, util::Rng& rng)
    : spec_(std::move(spec)), weights_version_(next_weights_version()) {
  spec_.validate();
  const auto dims = spec_.layer_dims();
  const InitScheme scheme = default_init_for(spec_.activation);
  weights_.reserve(dims.size() - 1);
  biases_.reserve(dims.size() - 1);
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    linalg::Matrix w(dims[l], dims[l + 1]);
    initialize_weights(w, scheme, rng);
    weights_.push_back(std::move(w));
    biases_.push_back(spec_.use_bias ? linalg::Matrix(1, dims[l + 1]) : linalg::Matrix());
  }
}

linalg::Matrix Mlp::forward(const linalg::Matrix& input) const {
  ForwardCache cache;
  return forward_cached(input, cache);
}

const linalg::Matrix& Mlp::forward_cached(const linalg::Matrix& input, ForwardCache& cache) const {
  if (input.cols() != spec_.input_dim) {
    throw std::invalid_argument("Mlp::forward: input width " + std::to_string(input.cols()) +
                                " != " + std::to_string(spec_.input_dim));
  }
  const std::size_t layers = weights_.size();
  cache.pre.resize(layers);
  cache.post.resize(layers);
  if (cache.packed_w_version != weights_version_) {
    cache.packed_w.resize(layers);
    for (std::size_t l = 0; l < layers; ++l) cache.packed_w[l].pack(weights_[l]);
    cache.packed_w_version = weights_version_;
  }
  const linalg::Matrix* current = &input;
  for (std::size_t l = 0; l < layers; ++l) {
    linalg::Matrix& y = cache.pre[l];
    if (y.rows() != current->rows() || y.cols() != weights_[l].cols()) {
      y.reshape_discard(current->rows(), weights_[l].cols());
    }
    linalg::gemm_prepacked(*current, cache.packed_w[l], y);
    linalg::add_bias_rows(y, biases_[l]);
    const bool is_output = (l + 1 == layers);
    if (is_output) {
      cache.post[l] = cache.pre[l];  // logits: linear output layer
    } else {
      apply_activation(spec_.activation, cache.pre[l], cache.post[l]);
    }
    current = &cache.post[l];
  }
  return cache.post.back();
}

linalg::Matrix Mlp::predict_proba(const linalg::Matrix& input) const {
  linalg::Matrix logits = forward(input);
  linalg::Matrix proba;
  softmax_rows(logits, proba);
  return proba;
}

std::vector<int> Mlp::predict(const linalg::Matrix& input) const {
  const linalg::Matrix logits = forward(input);
  std::vector<int> out(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    out[r] = static_cast<int>(linalg::argmax(logits.row(r)));
  }
  return out;
}

template <typename WriteDw>
void Mlp::backpropagate(const linalg::Matrix& input, ForwardCache& cache,
                        const linalg::Matrix& logit_grad, std::vector<linalg::Matrix>& grad_b,
                        const WriteDw& write_dw) const {
  const std::size_t layers = weights_.size();
  if (cache.pre.size() != layers) throw std::invalid_argument("Mlp::backward: stale cache");
  grad_b.resize(layers);
  if (layers > 1 && cache.packed_wt_version != weights_version_) {
    // δ·Wᵀ panels for layers 1..L-1 (layer 0 never propagates further back).
    cache.packed_wt.resize(layers);
    for (std::size_t l = 1; l < layers; ++l) {
      cache.packed_wt[l].pack(weights_[l], /*transpose=*/true);
    }
    cache.packed_wt_version = weights_version_;
  }

  linalg::Matrix delta = logit_grad;  // gradient at current layer's pre-activation
  for (std::size_t l = layers; l-- > 0;) {
    const linalg::Matrix& a_prev = (l == 0) ? input : cache.post[l - 1];
    write_dw(l, a_prev, delta);
    // db_l = column sums of delta
    if (spec_.use_bias) {
      if (grad_b[l].rows() != 1 || grad_b[l].cols() != delta.cols()) {
        grad_b[l].reshape_discard(1, delta.cols());
      } else {
        grad_b[l].fill(0.0f);
      }
      for (std::size_t r = 0; r < delta.rows(); ++r) {
        linalg::add_inplace(grad_b[l].row(0), delta.row(r));
      }
    }
    if (l == 0) break;
    // delta_prev = (delta · W_lᵀ) ⊙ f'(z_{l-1})
    linalg::Matrix next_delta(delta.rows(), weights_[l].rows());
    linalg::gemm_prepacked(delta, cache.packed_wt[l], next_delta);
    apply_activation_gradient(spec_.activation, cache.pre[l - 1], cache.post[l - 1], next_delta);
    delta = std::move(next_delta);
  }
}

void Mlp::backward(const linalg::Matrix& input, ForwardCache& cache,
                   const linalg::Matrix& logit_grad, std::vector<linalg::Matrix>& grad_w,
                   std::vector<linalg::Matrix>& grad_b) const {
  grad_w.resize(weights_.size());
  backpropagate(input, cache, logit_grad, grad_b,
                [&](std::size_t l, const linalg::Matrix& a_prev, const linalg::Matrix& delta) {
                  const linalg::Matrix& w = weights_[l];
                  if (grad_w[l].rows() != w.rows() || grad_w[l].cols() != w.cols()) {
                    grad_w[l].reshape_discard(w.rows(), w.cols());
                  }
                  linalg::gemm_at(a_prev, delta, grad_w[l]);
                });
}

void Mlp::backward(const linalg::Matrix& input, ForwardCache& cache,
                   const linalg::Matrix& logit_grad, std::vector<linalg::PackedB>& grad_w,
                   std::vector<linalg::Matrix>& grad_b) const {
  grad_w.resize(weights_.size());
  backpropagate(input, cache, logit_grad, grad_b,
                [&](std::size_t l, const linalg::Matrix& a_prev, const linalg::Matrix& delta) {
                  const linalg::Matrix& w = weights_[l];
                  if (grad_w[l].rows() != w.rows() || grad_w[l].cols() != w.cols()) {
                    grad_w[l].assign_zero(w.rows(), w.cols());
                  }
                  linalg::gemm_at_into_packed(a_prev, delta, grad_w[l]);
                });
}

}  // namespace ecad::nn
