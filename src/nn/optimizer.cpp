#include "nn/optimizer.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/string_util.h"

namespace ecad::nn {

std::string_view to_string(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::Sgd: return "sgd";
    case OptimizerKind::Momentum: return "momentum";
    case OptimizerKind::Adam: return "adam";
  }
  return "?";
}

OptimizerKind optimizer_from_name(std::string_view name) {
  const std::string lower = util::to_lower(name);
  if (lower == "sgd") return OptimizerKind::Sgd;
  if (lower == "momentum") return OptimizerKind::Momentum;
  if (lower == "adam") return OptimizerKind::Adam;
  throw std::invalid_argument("optimizer_from_name: unknown optimizer '" + std::string(name) +
                              "'");
}

namespace {

// A short gradient span would be read past its end by the update loops.
void check_sizes(const char* who, ecad::span<float> params, ecad::span<const float> grads) {
  if (grads.size() != params.size()) {
    throw std::invalid_argument(std::string(who) + ": " + std::to_string(grads.size()) +
                                " gradients for " + std::to_string(params.size()) +
                                " parameters");
  }
}

class SgdOptimizer final : public Optimizer {
 public:
  explicit SgdOptimizer(const OptimizerOptions& options) : options_(options) {}

  void step(std::size_t, ecad::span<float> params, ecad::span<const float> grads,
            bool decay) override {
    check_sizes("SgdOptimizer::step", params, grads);
    const float lr = static_cast<float>(options_.learning_rate);
    const float wd = decay ? static_cast<float>(options_.weight_decay) : 0.0f;
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] -= lr * (grads[i] + wd * params[i]);
    }
  }

 private:
  OptimizerOptions options_;
};

class MomentumOptimizer final : public Optimizer {
 public:
  MomentumOptimizer(const OptimizerOptions& options, std::size_t num_slots)
      : options_(options), velocity_(num_slots) {}

  void step(std::size_t slot, ecad::span<float> params, ecad::span<const float> grads,
            bool decay) override {
    check_sizes("MomentumOptimizer::step", params, grads);
    auto& v = velocity_.at(slot);
    if (v.size() != params.size()) v.assign(params.size(), 0.0f);
    const float lr = static_cast<float>(options_.learning_rate);
    const float mu = static_cast<float>(options_.momentum);
    const float wd = decay ? static_cast<float>(options_.weight_decay) : 0.0f;
    for (std::size_t i = 0; i < params.size(); ++i) {
      const float g = grads[i] + wd * params[i];
      v[i] = mu * v[i] - lr * g;
      params[i] += v[i];
    }
  }

 private:
  OptimizerOptions options_;
  std::vector<std::vector<float>> velocity_;
};

class AdamOptimizer final : public Optimizer {
 public:
  AdamOptimizer(const OptimizerOptions& options, std::size_t num_slots)
      : options_(options), m_(num_slots), v_(num_slots) {}

  void step(std::size_t slot, ecad::span<float> params, ecad::span<const float> grads,
            bool decay) override {
    check_sizes("AdamOptimizer::step", params, grads);
    auto& m = m_.at(slot);
    auto& v = v_.at(slot);
    if (m.size() != params.size()) {
      m.assign(params.size(), 0.0f);
      v.assign(params.size(), 0.0f);
    }
    const double b1 = options_.beta1;
    const double b2 = options_.beta2;
    const double bias1 = 1.0 - std::pow(b1, static_cast<double>(t_));
    const double bias2 = 1.0 - std::pow(b2, static_cast<double>(t_));
    const float lr = static_cast<float>(options_.learning_rate);
    const float eps = static_cast<float>(options_.epsilon);
    const float wd = decay ? static_cast<float>(options_.weight_decay) : 0.0f;
    for (std::size_t i = 0; i < params.size(); ++i) {
      const float g = grads[i] + wd * params[i];
      m[i] = static_cast<float>(b1) * m[i] + static_cast<float>(1.0 - b1) * g;
      v[i] = static_cast<float>(b2) * v[i] + static_cast<float>(1.0 - b2) * g * g;
      const float m_hat = m[i] / static_cast<float>(bias1);
      const float v_hat = v[i] / static_cast<float>(bias2);
      params[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
  }

  void advance() override { ++t_; }

 private:
  OptimizerOptions options_;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  std::size_t t_ = 1;
};

}  // namespace

std::unique_ptr<Optimizer> make_optimizer(const OptimizerOptions& options, std::size_t num_slots) {
  switch (options.kind) {
    case OptimizerKind::Sgd: return std::make_unique<SgdOptimizer>(options);
    case OptimizerKind::Momentum: return std::make_unique<MomentumOptimizer>(options, num_slots);
    case OptimizerKind::Adam: return std::make_unique<AdamOptimizer>(options, num_slots);
  }
  throw std::logic_error("make_optimizer: unknown kind");
}

}  // namespace ecad::nn
