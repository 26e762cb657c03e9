// Multilayer perceptron: the NNA family the paper's co-design searches over.
//
// Topology is a chain of dense layers; hidden layers share one activation
// (an evolvable trait), the output layer is linear (logits) and the trainer
// pairs it with softmax cross-entropy — the same convention as sklearn's
// MLPClassifier, the paper's baseline (Tables I/II).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/gemm_packed.h"
#include "linalg/matrix.h"
#include "nn/activation.h"
#include "util/rng.h"

namespace ecad::nn {

/// Structural description of an MLP — the "NNA traits" half of a genome.
struct MlpSpec {
  std::size_t input_dim = 0;
  std::size_t output_dim = 0;          // number of classes (logit width)
  std::vector<std::size_t> hidden;     // widths of hidden layers, may be empty
  Activation activation = Activation::ReLU;
  bool use_bias = true;

  /// Full layer width sequence: input, hidden..., output.
  std::vector<std::size_t> layer_dims() const;

  /// Trainable parameter count.
  std::size_t num_parameters() const;

  /// FLOPs for a single-sample forward pass (2·k·n per GEMM, + n per bias).
  std::size_t flops_per_sample() const;

  /// Total neurons across hidden layers (paper Fig. 2 discussion correlates
  /// neuron count with throughput).
  std::size_t total_hidden_neurons() const;

  /// Human-readable "784-256-128-10 relu bias" string.
  std::string to_string() const;

  /// Throws std::invalid_argument if dimensions are degenerate.
  void validate() const;

  friend bool operator==(const MlpSpec& a, const MlpSpec& b) {
    return a.input_dim == b.input_dim && a.output_dim == b.output_dim &&
           a.hidden == b.hidden && a.activation == b.activation &&
           a.use_bias == b.use_bias;
  }
  friend bool operator!=(const MlpSpec& a, const MlpSpec& b) { return !(a == b); }
};

/// A trainable MLP instance (weights + topology).
class Mlp {
 public:
  /// Builds and initializes weights (He/Xavier per activation).
  Mlp(MlpSpec spec, util::Rng& rng);

  const MlpSpec& spec() const { return spec_; }
  std::size_t num_layers() const { return weights_.size(); }

  /// Mutable access bumps the weights version so caches of packed weight
  /// panels (see ForwardCache) know to repack on the next pass. Callers that
  /// retain the reference and mutate through it later must re-call weights()
  /// before the next forward_cached() on a long-lived cache, or the cache
  /// will serve panels packed from the pre-mutation values.
  linalg::Matrix& weights(std::size_t layer) {
    weights_version_ = next_weights_version();
    return weights_[layer];
  }
  const linalg::Matrix& weights(std::size_t layer) const { return weights_[layer]; }

  /// Identifies the current weight values. Values are unique across all Mlp
  /// instances in the process (drawn from one global counter), so a
  /// ForwardCache can never mistake one model's packed panels for
  /// another's; a copied Mlp intentionally shares its source's version
  /// until either is mutated (their weights are identical).
  std::uint64_t weights_version() const { return weights_version_; }
  linalg::Matrix& bias(std::size_t layer) { return biases_[layer]; }
  const linalg::Matrix& bias(std::size_t layer) const { return biases_[layer]; }

  /// Forward pass: returns logits (batch x output_dim).
  linalg::Matrix forward(const linalg::Matrix& input) const;

  /// Class-probability output (softmax over logits).
  linalg::Matrix predict_proba(const linalg::Matrix& input) const;

  /// Hard class predictions.
  std::vector<int> predict(const linalg::Matrix& input) const;

  /// Forward caching pre-activations/activations for a following backward().
  /// Returns a reference to the logits held by the cache. The caller owns
  /// the cache object; keeping one alive across minibatches reuses both the
  /// activation buffers and the packed weight panels. The panels are packed
  /// from the row-major weights only when the weights version changes, so
  /// an evaluation loop packs once and never reallocates.
  ///
  /// nn::train packs once for the whole run: while it trains, `packed_w`
  /// *is* the weights. The optimizer updates the panels in place, Wᵀ is
  /// rebuilt from them (PackedB::pack_transposed), and the row-major
  /// weights are written back when training ends. The versions stay equal
  /// throughout, so nothing repacks; calling the non-const weights() in
  /// that window would bump the version and make the next pass repack from
  /// the stale row-major copy.
  struct ForwardCache {
    std::vector<linalg::Matrix> pre;   // z_l per layer
    std::vector<linalg::Matrix> post;  // a_l per layer (post[last] == logits)
    // Packed weight panels: W per layer for the forward products, Wᵀ per
    // layer for backprop's δ·Wᵀ. Versions track the Mlp::weights_version()
    // they were packed at.
    std::vector<linalg::PackedB> packed_w;
    std::vector<linalg::PackedB> packed_wt;
    std::uint64_t packed_w_version = 0;
    std::uint64_t packed_wt_version = 0;
  };
  const linalg::Matrix& forward_cached(const linalg::Matrix& input, ForwardCache& cache) const;

  /// Backward pass from d(loss)/d(logits).  `input` must be the batch passed
  /// to forward_cached.  Gradients are written into `grad_w`/`grad_b`
  /// (resized as needed).  `cache` is non-const so the backward pass can
  /// reuse (and lazily refresh) the packed Wᵀ panels it stores.
  void backward(const linalg::Matrix& input, ForwardCache& cache,
                const linalg::Matrix& logit_grad, std::vector<linalg::Matrix>& grad_w,
                std::vector<linalg::Matrix>& grad_b) const;

  /// The same pass with each dW_l written into `grad_w[l]` in the packed
  /// layout of W_l's panels (shaped and zero-padded on first use), so an
  /// optimizer can step the panels and their gradients elementwise. Every
  /// real element equals what the row-major overload writes.
  void backward(const linalg::Matrix& input, ForwardCache& cache,
                const linalg::Matrix& logit_grad, std::vector<linalg::PackedB>& grad_w,
                std::vector<linalg::Matrix>& grad_b) const;

 private:
  static std::uint64_t next_weights_version();

  /// δ-propagation shared by both backward() overloads; they differ only in
  /// `write_dw(l, a_prev, delta)`, which stores dW_l = a_prevᵀ·δ_l.
  template <typename WriteDw>
  void backpropagate(const linalg::Matrix& input, ForwardCache& cache,
                     const linalg::Matrix& logit_grad, std::vector<linalg::Matrix>& grad_b,
                     const WriteDw& write_dw) const;

  MlpSpec spec_;
  std::vector<linalg::Matrix> weights_;  // layer l: dims[l] x dims[l+1]
  std::vector<linalg::Matrix> biases_;   // layer l: 1 x dims[l+1] (empty if !use_bias)
  std::uint64_t weights_version_ = 0;    // set in ctor and by mutable weights()
};

}  // namespace ecad::nn
