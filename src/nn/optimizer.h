// First-order optimizers over flat parameter/gradient pairs.
//
// The trainer walks every (weight, bias) matrix of the MLP and hands each to
// the optimizer as a slot; optimizers keep per-slot state (momentum/Adam
// moments) keyed by slot index so topology never changes mid-training.
#pragma once

#include <cstddef>
#include <memory>
#include "util/span.h"
#include <string_view>
#include <vector>

namespace ecad::nn {

enum class OptimizerKind { Sgd, Momentum, Adam };

std::string_view to_string(OptimizerKind kind);
OptimizerKind optimizer_from_name(std::string_view name);

struct OptimizerOptions {
  OptimizerKind kind = OptimizerKind::Adam;
  double learning_rate = 1e-3;
  double momentum = 0.9;        // Momentum only
  double beta1 = 0.9;           // Adam
  double beta2 = 0.999;         // Adam
  double epsilon = 1e-8;        // Adam
  double weight_decay = 0.0;    // L2 (applied to weights, not biases)
};

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Apply one update to parameter slot `slot`.  `decay` toggles weight decay
  /// (off for bias slots).  Throws std::invalid_argument unless `grads` has
  /// one entry per parameter.
  virtual void step(std::size_t slot, ecad::span<float> params, ecad::span<const float> grads,
                    bool decay) = 0;

  /// Advance the global step counter (per minibatch, for Adam bias correction).
  virtual void advance() {}
};

/// Factory. The number of slots must be declared up front.
std::unique_ptr<Optimizer> make_optimizer(const OptimizerOptions& options, std::size_t num_slots);

}  // namespace ecad::nn
