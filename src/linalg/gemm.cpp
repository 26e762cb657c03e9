#include "linalg/gemm.h"

#include <stdexcept>
#include <string>

#include "linalg/gemm_packed.h"

namespace ecad::linalg {

namespace {

using detail::MatView;

// Shared shape validation so every entry point throws the same exception
// type with the same message style: "<op>: inner dimensions differ (x vs y)"
// or "<op>: output shape mismatch (rxc vs expected rxc)".
void check_shapes(const char* op, std::size_t inner_a, std::size_t inner_b, std::size_t m,
                  std::size_t n, const Matrix& c) {
  if (inner_a != inner_b) {
    throw std::invalid_argument(std::string(op) + ": inner dimensions differ (" +
                                std::to_string(inner_a) + " vs " + std::to_string(inner_b) +
                                ")");
  }
  if (c.rows() != m || c.cols() != n) {
    throw std::invalid_argument(std::string(op) + ": output shape mismatch (" +
                                std::to_string(c.rows()) + "x" + std::to_string(c.cols()) +
                                " vs expected " + std::to_string(m) + "x" + std::to_string(n) +
                                ")");
  }
}

}  // namespace

void gemm_naive(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  check_shapes("gemm", a.cols(), b.rows(), a.rows(), b.cols(), c);
  if (!accumulate) c.fill(0.0f);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = c.at(i, j);
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += a.at(i, k) * b.at(k, j);
      }
      c.at(i, j) = acc;
    }
  }
}

void gemm_blocked(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  check_shapes("gemm", a.cols(), b.rows(), a.rows(), b.cols(), c);
  detail::gemm_packed(MatView::normal(a), MatView::normal(b), c, accumulate);
}

void gemm_parallel(const Matrix& a, const Matrix& b, Matrix& c, util::ThreadPool& pool,
                   bool accumulate) {
  check_shapes("gemm", a.cols(), b.rows(), a.rows(), b.cols(), c);
  detail::gemm_packed_parallel(MatView::normal(a), MatView::normal(b), c, pool, accumulate);
}

void gemm_at(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  // Logical product: C (a.cols × b.cols) = aᵀ · b; the shared inner dim is
  // the row count of both operands.
  check_shapes("gemm_at", a.rows(), b.rows(), a.cols(), b.cols(), c);
  detail::gemm_packed(MatView::transposed(a), MatView::normal(b), c, accumulate);
}

void gemm_bt(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  // Logical product: C (a.rows × b.rows) = a · bᵀ; the shared inner dim is
  // the column count of both operands.
  check_shapes("gemm_bt", a.cols(), b.cols(), a.rows(), b.rows(), c);
  detail::gemm_packed(MatView::normal(a), MatView::transposed(b), c, accumulate);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  gemm_blocked(a, b, c);
  return c;
}

void add_bias_rows(Matrix& y, const Matrix& bias) {
  if (bias.empty()) return;
  if (bias.cols() != y.cols() || bias.rows() != 1) {
    throw std::invalid_argument("affine: bias must be 1 x n (got " +
                                std::to_string(bias.rows()) + "x" +
                                std::to_string(bias.cols()) + " for n=" +
                                std::to_string(y.cols()) + ")");
  }
  for (std::size_t i = 0; i < y.rows(); ++i) {
    float* row = y.raw() + i * y.cols();
    const float* b = bias.raw();
    for (std::size_t j = 0; j < y.cols(); ++j) row[j] += b[j];
  }
}

void affine(const Matrix& x, const Matrix& w, const Matrix& bias, Matrix& y) {
  if (y.rows() != x.rows() || y.cols() != w.cols()) {
    y.reshape_discard(x.rows(), w.cols());
  }
  gemm_blocked(x, w, y);
  add_bias_rows(y, bias);
}

std::size_t gemm_flops(std::size_t m, std::size_t k, std::size_t n) { return 2 * m * k * n; }

}  // namespace ecad::linalg
