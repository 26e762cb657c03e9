#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecad::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<float>> values) {
  rows_ = values.size();
  cols_ = rows_ == 0 ? 0 : values.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : values) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

void Matrix::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::reshape_discard(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0f);
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      out.at(c, r) = at(r, c);
    }
  }
  return out;
}

bool Matrix::approx_equal(const Matrix& other, float tolerance) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tolerance) return false;
  }
  return true;
}

Matrix Matrix::random_uniform(std::size_t rows, std::size_t cols, util::Rng& rng, float lo,
                              float hi) {
  Matrix out(rows, cols);
  rng.fill_uniform(out.data(), lo, hi);
  return out;
}

Matrix Matrix::random_gaussian(std::size_t rows, std::size_t cols, util::Rng& rng, float mean,
                               float stddev) {
  Matrix out(rows, cols);
  rng.fill_gaussian(out.data(), mean, stddev);
  return out;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) out.at(i, i) = 1.0f;
  return out;
}

}  // namespace ecad::linalg
