// Elementwise and reduction kernels shared by the NN and baseline libraries.
// The two-span functions throw std::invalid_argument when the lengths
// differ, and max_value when its span is empty, in every build.
#pragma once

#include <cstddef>
#include "util/span.h"

namespace ecad::linalg {

/// out[i] += x[i]
void add_inplace(ecad::span<float> out, ecad::span<const float> x);

/// out[i] -= x[i]
void sub_inplace(ecad::span<float> out, ecad::span<const float> x);

/// out[i] *= s
void scale_inplace(ecad::span<float> out, float s);

/// out[i] += s * x[i]  (axpy)
void axpy(ecad::span<float> out, float s, ecad::span<const float> x);

/// Hadamard: out[i] *= x[i]
void mul_inplace(ecad::span<float> out, ecad::span<const float> x);

float dot(ecad::span<const float> a, ecad::span<const float> b);

float sum(ecad::span<const float> x);

float max_value(ecad::span<const float> x);

/// Index of the maximum element (first occurrence). Empty input returns 0.
std::size_t argmax(ecad::span<const float> x);

/// Euclidean norm.
float norm2(ecad::span<const float> x);

/// Squared Euclidean distance between two equal-length vectors.
float squared_distance(ecad::span<const float> a, ecad::span<const float> b);

}  // namespace ecad::linalg
