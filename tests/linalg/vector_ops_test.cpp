#include "linalg/vector_ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace ecad::linalg {
namespace {

TEST(VectorOps, AddSubInPlace) {
  std::vector<float> a{1.0f, 2.0f, 3.0f};
  const std::vector<float> b{10.0f, 20.0f, 30.0f};
  add_inplace(a, b);
  EXPECT_EQ(a, (std::vector<float>{11.0f, 22.0f, 33.0f}));
  sub_inplace(a, b);
  EXPECT_EQ(a, (std::vector<float>{1.0f, 2.0f, 3.0f}));
}

TEST(VectorOps, ScaleAndAxpy) {
  std::vector<float> a{1.0f, -2.0f};
  scale_inplace(a, 3.0f);
  EXPECT_EQ(a, (std::vector<float>{3.0f, -6.0f}));
  const std::vector<float> x{1.0f, 1.0f};
  axpy(a, 2.0f, x);
  EXPECT_EQ(a, (std::vector<float>{5.0f, -4.0f}));
}

TEST(VectorOps, Hadamard) {
  std::vector<float> a{2.0f, 3.0f};
  const std::vector<float> b{4.0f, -1.0f};
  mul_inplace(a, b);
  EXPECT_EQ(a, (std::vector<float>{8.0f, -3.0f}));
}

TEST(VectorOps, DotAndNorm) {
  const std::vector<float> a{3.0f, 4.0f};
  EXPECT_FLOAT_EQ(dot(a, a), 25.0f);
  EXPECT_FLOAT_EQ(norm2(a), 5.0f);
}

TEST(VectorOps, SumAndMax) {
  const std::vector<float> a{1.0f, -5.0f, 4.0f};
  EXPECT_FLOAT_EQ(sum(a), 0.0f);
  EXPECT_FLOAT_EQ(max_value(a), 4.0f);
}

TEST(VectorOps, ArgmaxFirstOccurrence) {
  const std::vector<float> a{1.0f, 7.0f, 7.0f, 2.0f};
  EXPECT_EQ(argmax(a), 1u);
  const std::vector<float> single{3.0f};
  EXPECT_EQ(argmax(single), 0u);
}

TEST(VectorOps, SquaredDistance) {
  const std::vector<float> a{0.0f, 0.0f};
  const std::vector<float> b{3.0f, 4.0f};
  EXPECT_FLOAT_EQ(squared_distance(a, b), 25.0f);
  EXPECT_FLOAT_EQ(squared_distance(a, a), 0.0f);
}

TEST(VectorOps, MismatchedLengthsThrowInEveryBuild) {
  std::vector<float> out{1.0f, 2.0f, 3.0f};
  const std::vector<float> shorter{1.0f, 2.0f};
  const std::vector<float> longer{1.0f, 2.0f, 3.0f, 4.0f};
  for (const std::vector<float>* x : {&shorter, &longer}) {
    EXPECT_THROW(add_inplace(out, *x), std::invalid_argument);
    EXPECT_THROW(sub_inplace(out, *x), std::invalid_argument);
    EXPECT_THROW(axpy(out, 2.0f, *x), std::invalid_argument);
    EXPECT_THROW(mul_inplace(out, *x), std::invalid_argument);
    EXPECT_THROW(dot(out, *x), std::invalid_argument);
    EXPECT_THROW(squared_distance(out, *x), std::invalid_argument);
  }
  // A rejected call leaves its output untouched.
  EXPECT_EQ(out, (std::vector<float>{1.0f, 2.0f, 3.0f}));
}

TEST(VectorOps, MaxOfEmptySpanThrows) {
  EXPECT_THROW(max_value(std::vector<float>{}), std::invalid_argument);
}

}  // namespace
}  // namespace ecad::linalg
