#include "linalg/gemm.h"

#include <gtest/gtest.h>

#include <tuple>

namespace ecad::linalg {
namespace {

Matrix random(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  return Matrix::random_uniform(rows, cols, rng);
}

TEST(GemmNaive, KnownProduct) {
  const Matrix a{{1.0f, 2.0f}, {3.0f, 4.0f}};
  const Matrix b{{5.0f, 6.0f}, {7.0f, 8.0f}};
  Matrix c(2, 2);
  gemm_naive(a, b, c);
  EXPECT_TRUE(c.approx_equal(Matrix{{19.0f, 22.0f}, {43.0f, 50.0f}}));
}

TEST(GemmNaive, IdentityIsNeutral) {
  const Matrix a = random(6, 6, 1);
  Matrix c(6, 6);
  gemm_naive(a, Matrix::identity(6), c);
  EXPECT_TRUE(c.approx_equal(a));
}

TEST(GemmNaive, AccumulateAddsIntoC) {
  const Matrix a{{1.0f}}, b{{2.0f}};
  Matrix c(1, 1, 10.0f);
  gemm_naive(a, b, c, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c(0, 0), 12.0f);
  gemm_naive(a, b, c, /*accumulate=*/false);
  EXPECT_FLOAT_EQ(c(0, 0), 2.0f);
}

TEST(Gemm, ShapeMismatchThrows) {
  const Matrix a(2, 3), b(4, 2);
  Matrix c(2, 2);
  EXPECT_THROW(gemm_naive(a, b, c), std::invalid_argument);
  Matrix bad_out(3, 3);
  const Matrix good_b(3, 2);
  EXPECT_THROW(gemm_blocked(a, good_b, bad_out), std::invalid_argument);
}

// Property sweep: every packed entry point must agree with the naive oracle
// across a range of (m, k, n) shapes including non-multiples of the tile.
class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(GemmShapeTest, BlockedMatchesNaive) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random(m, k, m * 31 + k);
  const Matrix b = random(k, n, n * 17 + 3);
  Matrix expected(m, n), actual(m, n);
  gemm_naive(a, b, expected);
  gemm_blocked(a, b, actual);
  EXPECT_TRUE(actual.approx_equal(expected, 1e-3f)) << "m=" << m << " k=" << k << " n=" << n;
}

TEST_P(GemmShapeTest, ParallelMatchesNaive) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random(m, k, 7);
  const Matrix b = random(k, n, 9);
  Matrix expected(m, n), actual(m, n);
  gemm_naive(a, b, expected);
  util::ThreadPool pool(3);
  gemm_parallel(a, b, actual, pool);
  EXPECT_TRUE(actual.approx_equal(expected, 1e-3f));
}

TEST_P(GemmShapeTest, TransposedVariantsMatchExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  // gemm_at: C = Aᵀ B with A (m x k) treated as (k x m)ᵀ — inner dim is m.
  const Matrix a = random(m, k, 21);
  const Matrix b = random(m, n, 23);
  Matrix expected(k, n), actual(k, n);
  gemm_naive(a.transposed(), b, expected);
  gemm_at(a, b, actual);
  EXPECT_TRUE(actual.approx_equal(expected, 1e-3f));

  // gemm_bt: C = A Bᵀ with A (m x k), B (n x k).
  const Matrix a2 = random(m, k, 25);
  const Matrix b2 = random(n, k, 27);
  Matrix expected2(m, n), actual2(m, n);
  gemm_naive(a2, b2.transposed(), expected2);
  gemm_bt(a2, b2, actual2);
  EXPECT_TRUE(actual2.approx_equal(expected2, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                      std::make_tuple(8, 8, 8), std::make_tuple(17, 13, 19),
                      std::make_tuple(64, 64, 64), std::make_tuple(65, 63, 70),
                      std::make_tuple(1, 100, 1), std::make_tuple(100, 1, 100),
                      std::make_tuple(32, 784, 10)));

TEST(Affine, AddsBroadcastBias) {
  const Matrix x{{1.0f, 0.0f}, {0.0f, 1.0f}};
  const Matrix w{{2.0f, 3.0f}, {4.0f, 5.0f}};
  const Matrix bias{{10.0f, 20.0f}};
  Matrix y;
  affine(x, w, bias, y);
  EXPECT_TRUE(y.approx_equal(Matrix{{12.0f, 23.0f}, {14.0f, 25.0f}}));
}

TEST(Affine, EmptyBiasSkipsAddition) {
  const Matrix x{{1.0f}}, w{{3.0f}};
  Matrix y;
  affine(x, w, Matrix(), y);
  EXPECT_FLOAT_EQ(y(0, 0), 3.0f);
}

TEST(Affine, WrongBiasShapeThrows) {
  const Matrix x(2, 2), w(2, 2);
  Matrix y;
  EXPECT_THROW(affine(x, w, Matrix(2, 2), y), std::invalid_argument);
  EXPECT_THROW(affine(x, w, Matrix(1, 3), y), std::invalid_argument);
}

TEST(Affine, EmptyBiasOverwritesPreSizedOutput) {
  // y already has the right shape and stale contents; affine must overwrite,
  // not accumulate, with or without a bias.
  const Matrix x{{1.0f, 0.0f}, {0.0f, 1.0f}};
  const Matrix w{{2.0f, 3.0f}, {4.0f, 5.0f}};
  Matrix y(2, 2, /*fill=*/100.0f);
  affine(x, w, Matrix(), y);
  EXPECT_TRUE(y.approx_equal(w));
  y.fill(100.0f);
  affine(x, w, Matrix{{1.0f, 1.0f}}, y);
  EXPECT_TRUE(y.approx_equal(Matrix{{3.0f, 4.0f}, {5.0f, 6.0f}}));
}

TEST(Affine, ZeroRowEmptyMatrixCountsAsEmptyBias) {
  // A default Matrix and a 0xN matrix are both empty(); neither may throw.
  const Matrix x{{2.0f}}, w{{5.0f}};
  Matrix y;
  affine(x, w, Matrix(0, 1), y);
  EXPECT_FLOAT_EQ(y(0, 0), 10.0f);
}

TEST(AddBiasRows, ValidatesShapeAndBroadcasts) {
  Matrix y{{1.0f, 2.0f}, {3.0f, 4.0f}};
  add_bias_rows(y, Matrix{{10.0f, 20.0f}});
  EXPECT_TRUE(y.approx_equal(Matrix{{11.0f, 22.0f}, {13.0f, 24.0f}}));
  add_bias_rows(y, Matrix());  // empty bias: no-op
  EXPECT_TRUE(y.approx_equal(Matrix{{11.0f, 22.0f}, {13.0f, 24.0f}}));
  EXPECT_THROW(add_bias_rows(y, Matrix(2, 2)), std::invalid_argument);
  EXPECT_THROW(add_bias_rows(y, Matrix(1, 3)), std::invalid_argument);
}

TEST(Matmul, AllocatesOutput) {
  const Matrix a = random(4, 6, 2);
  const Matrix b = random(6, 3, 4);
  const Matrix c = matmul(a, b);
  Matrix expected(4, 3);
  gemm_naive(a, b, expected);
  EXPECT_TRUE(c.approx_equal(expected, 1e-4f));
}

TEST(GemmFlops, Formula) {
  EXPECT_EQ(gemm_flops(2, 3, 4), 48u);
  EXPECT_EQ(gemm_flops(0, 3, 4), 0u);
}

}  // namespace
}  // namespace ecad::linalg
