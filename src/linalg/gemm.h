// General matrix multiplication entry points.
//
// "At the heart of MLP is a general matrix multiplication (GEMM)" (§I).
// All entry points share one contract (C = A·B, with optional accumulate).
// Every one except gemm_naive runs the packed backend (see gemm_packed.h),
// whose only variation is the ISA body picked from the CPU:
//   * gemm_naive    — reference triple loop, used as the test oracle;
//   * gemm_blocked  — default entry point;
//   * gemm_parallel — row-partitioned over a thread pool for large layers;
//   * gemm_at/bt    — transposed products via strided packing (no
//                     materialized transpose).
#pragma once

#include <cstddef>

#include "linalg/gemm_packed.h"
#include "linalg/matrix.h"
#include "util/thread_pool.h"

namespace ecad::linalg {

/// C (m×n) = A (m×k) · B (k×n).  If `accumulate` is true, adds into C.
/// Dimension mismatches throw std::invalid_argument.
void gemm_naive(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate = false);

/// Default GEMM entry point (packed backend).
void gemm_blocked(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate = false);

/// Parallel packed GEMM: B is packed across `pool`, then row shards of A.
void gemm_parallel(const Matrix& a, const Matrix& b, Matrix& c, util::ThreadPool& pool,
                   bool accumulate = false);

/// C (k×n) = Aᵀ (k×m) · B (m×n) without materializing Aᵀ.
/// Used by backprop for weight gradients (dW = aᵀ·δ).
void gemm_at(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate = false);

/// C (m×k) = A (m×n) · Bᵀ (n×k) without materializing Bᵀ.
void gemm_bt(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate = false);

/// Convenience allocating wrappers.
Matrix matmul(const Matrix& a, const Matrix& b);

/// y (m×n) = x (m×k) · w (k×n) + broadcast-row bias (1×n or empty).
void affine(const Matrix& x, const Matrix& w, const Matrix& bias, Matrix& y);

/// Adds a broadcast 1×n bias row to every row of y; empty bias is a no-op.
/// Any other bias shape throws std::invalid_argument.
void add_bias_rows(Matrix& y, const Matrix& bias);

/// FLOP count of one GEMM (2·m·k·n), used by throughput accounting.
std::size_t gemm_flops(std::size_t m, std::size_t k, std::size_t n);

}  // namespace ecad::linalg
