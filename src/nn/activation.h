// Activation functions — one of the NNA traits the evolutionary search
// mutates (paper §III-A: "number of layers, layer size, activation function,
// and bias").
#pragma once

#include <string>
#include <string_view>

#include "linalg/matrix.h"

namespace ecad::nn {

enum class Activation { ReLU, Sigmoid, Tanh, LeakyReLU, Elu, Identity };

/// All activations the search space may select for hidden layers.
inline constexpr Activation kSearchableActivations[] = {
    Activation::ReLU, Activation::Sigmoid, Activation::Tanh, Activation::LeakyReLU,
    Activation::Elu};

std::string_view to_string(Activation activation);

/// Parse "relu", "sigmoid", ... Throws std::invalid_argument.
Activation activation_from_name(std::string_view name);

/// y = f(z), elementwise.  `y` may alias `z`.
void apply_activation(Activation activation, const linalg::Matrix& z, linalg::Matrix& y);

/// delta *= f'(z), elementwise, given the pre-activation z and the
/// post-activation a = f(z) that apply_activation produced from it.  Sigmoid
/// and tanh read the derivative off a (a·(1−a) and 1−a², the same floats
/// recomputing f(z) would give); the others read z.
void apply_activation_gradient(Activation activation, const linalg::Matrix& z,
                               const linalg::Matrix& a, linalg::Matrix& delta);

/// Scalar forward, used by tests as the oracle.
float activate_scalar(Activation activation, float z);

/// Row-wise softmax (numerically stabilized). `y` may alias `z`.
void softmax_rows(const linalg::Matrix& z, linalg::Matrix& y);

}  // namespace ecad::nn
