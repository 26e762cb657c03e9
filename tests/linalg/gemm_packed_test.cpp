// Property tests for the packed register-blocked GEMM backend: all four
// operand orientations, the prepacked-B path and the parallel path across
// 1–8 threads — all validated against the gemm_naive oracle over odd/ragged
// shapes — plus the bit-exact arithmetic contract every kernel body keeps.
#include "linalg/gemm_packed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "linalg/gemm.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ecad::linalg {
namespace {

Matrix random(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  return Matrix::random_uniform(rows, cols, rng);
}

// Shapes chosen to stress every edge of the tiling: unit dims, primes below
// and above the register tile (MR=8, NR=16), exact multiples, and K spanning
// more than one KC=256 panel.
const std::vector<std::array<std::size_t, 3>>& ragged_shapes() {
  static const std::vector<std::array<std::size_t, 3>> shapes = {
      {1, 1, 1},   {1, 7, 1},    {5, 1, 3},    {7, 11, 13},  {8, 8, 8},
      {9, 17, 23}, {16, 31, 8},  {29, 37, 41}, {64, 64, 64}, {33, 129, 65},
      {1, 300, 1}, {100, 1, 97}, {3, 521, 5},  {40, 277, 31}};
  return shapes;
}

TEST(GemmPacked, RandomizedShapesMatchNaiveOracle) {
  util::Rng rng(12345);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t m = static_cast<std::size_t>(rng.next_int(1, 90));
    const std::size_t k = static_cast<std::size_t>(rng.next_int(1, 300));
    const std::size_t n = static_cast<std::size_t>(rng.next_int(1, 90));
    const Matrix a = random(m, k, trial * 3 + 1);
    const Matrix b = random(k, n, trial * 3 + 2);
    Matrix expected(m, n), actual(m, n);
    gemm_naive(a, b, expected);
    gemm_blocked(a, b, actual);
    EXPECT_TRUE(actual.approx_equal(expected, 1e-3f))
        << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(GemmPacked, RaggedShapesWithAndWithoutAccumulate) {
  for (const auto& [m, k, n] : ragged_shapes()) {
    const Matrix a = random(m, k, m * 131 + k);
    const Matrix b = random(k, n, n * 151 + 7);
    const Matrix seed = random(m, n, 999);
    for (const bool accumulate : {false, true}) {
      Matrix expected = seed, actual = seed;
      gemm_naive(a, b, expected, accumulate);
      gemm_blocked(a, b, actual, accumulate);
      EXPECT_TRUE(actual.approx_equal(expected, 1e-3f))
          << "m=" << m << " k=" << k << " n=" << n << " accumulate=" << accumulate;
    }
  }
}

TEST(GemmPacked, TransposedProductsMatchNaiveOracle) {
  for (const auto& [m, k, n] : ragged_shapes()) {
    // gemm_at: C (k×n) = aᵀ·b with a (m×k), b (m×n).
    const Matrix a = random(m, k, 41);
    const Matrix b = random(m, n, 43);
    for (const bool accumulate : {false, true}) {
      Matrix expected = random(k, n, 7), actual = expected;
      gemm_naive(a.transposed(), b, expected, accumulate);
      gemm_at(a, b, actual, accumulate);
      EXPECT_TRUE(actual.approx_equal(expected, 1e-3f))
          << "at m=" << m << " k=" << k << " n=" << n;
    }
    // gemm_bt: C (m×n) = a·bᵀ with a (m×k), b (n×k).
    const Matrix a2 = random(m, k, 47);
    const Matrix b2 = random(n, k, 53);
    for (const bool accumulate : {false, true}) {
      Matrix expected = random(m, n, 11), actual = expected;
      gemm_naive(a2, b2.transposed(), expected, accumulate);
      gemm_bt(a2, b2, actual, accumulate);
      EXPECT_TRUE(actual.approx_equal(expected, 1e-3f))
          << "bt m=" << m << " k=" << k << " n=" << n;
    }
  }
}

TEST(GemmPacked, ParallelMatchesNaiveAcrossThreadCounts) {
  const std::size_t m = 83, k = 67, n = 59;
  const Matrix a = random(m, k, 61);
  const Matrix b = random(k, n, 67);
  Matrix expected(m, n);
  gemm_naive(a, b, expected);
  for (std::size_t threads = 1; threads <= 8; ++threads) {
    util::ThreadPool pool(threads);
    Matrix actual(m, n);
    gemm_parallel(a, b, actual, pool);
    EXPECT_TRUE(actual.approx_equal(expected, 1e-3f)) << "threads=" << threads;
    // Accumulate path too: result should be exactly one extra product added.
    gemm_parallel(a, b, actual, pool, /*accumulate=*/true);
    Matrix doubled(m, n);
    gemm_naive(a, b, doubled);
    gemm_naive(a, b, doubled, /*accumulate=*/true);
    EXPECT_TRUE(actual.approx_equal(doubled, 1e-3f)) << "threads=" << threads;
  }
}

TEST(GemmPacked, PrepackedMatchesAndSurvivesRepack) {
  const Matrix a = random(17, 201, 71);
  const Matrix b = random(201, 19, 73);
  Matrix expected(17, 19), actual(17, 19);
  gemm_naive(a, b, expected);
  PackedB packed;
  packed.pack(b);
  EXPECT_EQ(packed.rows(), 201u);
  EXPECT_EQ(packed.cols(), 19u);
  gemm_prepacked(a, packed, actual);
  EXPECT_TRUE(actual.approx_equal(expected, 1e-3f));

  // Repacking a different operand reuses the object.
  const Matrix b2 = random(64, 40, 79);
  const Matrix a2 = random(8, 64, 83);
  packed.pack(b2);
  Matrix expected2(8, 40), actual2(8, 40);
  gemm_naive(a2, b2, expected2);
  gemm_prepacked(a2, packed, actual2);
  EXPECT_TRUE(actual2.approx_equal(expected2, 1e-3f));
}

TEST(GemmPacked, PrepackedTransposeMatchesExplicitTranspose) {
  const Matrix w = random(48, 31, 89);  // logical B = wᵀ (31×48)
  const Matrix a = random(9, 31, 97);
  PackedB packed;
  packed.pack(w, /*transpose=*/true);
  EXPECT_EQ(packed.rows(), 31u);
  EXPECT_EQ(packed.cols(), 48u);
  Matrix expected(9, 48), actual(9, 48);
  gemm_naive(a, w.transposed(), expected);
  gemm_prepacked(a, packed, actual);
  EXPECT_TRUE(actual.approx_equal(expected, 1e-3f));
}

TEST(GemmPacked, PrepackedShapeMismatchThrows) {
  PackedB packed;
  packed.pack(random(4, 4, 1));
  Matrix c(3, 4);
  EXPECT_THROW(gemm_prepacked(random(3, 5, 2), packed, c), std::invalid_argument);
  Matrix bad(3, 5);
  EXPECT_THROW(gemm_prepacked(random(3, 4, 2), packed, bad), std::invalid_argument);
}

TEST(GemmPacked, ParallelPackingIsBitIdenticalToSerial) {
  // The parallel driver's B panels are packed across the pool; the layout
  // must be byte-identical to the serial packer for every ragged shape and
  // thread count (disjoint-region writes, no seams at chunk boundaries).
  for (const auto& [m, k, n] : ragged_shapes()) {
    (void)m;
    const Matrix b = random(k, n, k * 977 + n);
    PackedB serial;
    serial.pack(b);
    for (const std::size_t threads : {1u, 2u, 5u, 8u}) {
      util::ThreadPool pool(threads);
      PackedB parallel;
      parallel.pack_view_parallel(detail::MatView::normal(b), pool);
      ASSERT_EQ(parallel.rows(), serial.rows());
      ASSERT_EQ(parallel.cols(), serial.cols());
      const std::size_t padded_n = (n + detail::kNR - 1) / detail::kNR * detail::kNR;
      EXPECT_EQ(std::memcmp(parallel.panel(0), serial.panel(0),
                            k * padded_n * sizeof(float)),
                0)
          << "k=" << k << " n=" << n << " threads=" << threads;
    }
  }
}

TEST(GemmPacked, ParallelPackingHandlesTransposedViews) {
  const Matrix b = random(129, 257, 4242);
  PackedB serial;
  serial.pack(b, /*transpose=*/true);
  util::ThreadPool pool(4);
  PackedB parallel;
  parallel.pack_view_parallel(detail::MatView::transposed(b), pool);
  const std::size_t k = b.cols(), n = b.rows();
  ASSERT_EQ(parallel.rows(), k);
  ASSERT_EQ(parallel.cols(), n);
  const std::size_t padded_n = (n + detail::kNR - 1) / detail::kNR * detail::kNR;
  EXPECT_EQ(std::memcmp(parallel.panel(0), serial.panel(0), k * padded_n * sizeof(float)), 0);
}

// ---------------------------------------------------------------------------
// Arithmetic contract.  Trained weights stay bit-identical on a machine when
// the tiles change because every packed entry point computes each C element
// the same way: within each kKC-wide K panel, the products are summed over
// ascending p starting from 0.0f, and each panel sum is added into C once
// (C starts at 0.0f unless accumulating).  The sum is an FMA chain where the
// compiler fuses it (optimized builds of the x86-64-v3/v4 bodies) and a
// mul+add chain otherwise.
// ---------------------------------------------------------------------------

enum class Contraction { Fma, MulAdd };

float multiply_add(float acc, float a, float b, Contraction contraction) {
  if (contraction == Contraction::Fma) return std::fma(a, b, acc);
  volatile float product = a * b;  // rounded on its own: no fused multiply-add
  return acc + product;
}

// C (m×n) from logical A (m×k) and B (k×n), following the contract.
Matrix contract_reference(const Matrix& a, const Matrix& b, const Matrix& c_in, bool accumulate,
                          Contraction contraction) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float out = accumulate ? c_in.at(i, j) : 0.0f;
      for (std::size_t pc = 0; pc < a.cols(); pc += detail::kKC) {
        float acc = 0.0f;
        for (std::size_t p = pc; p < std::min(pc + detail::kKC, a.cols()); ++p) {
          acc = multiply_add(acc, a.at(i, p), b.at(p, j), contraction);
        }
        out = out + acc;
      }
      c.at(i, j) = out;
    }
  }
  return c;
}

bool same_bits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.raw(), y.raw(), x.size() * sizeof(float)) == 0;
}

// One packed entry point computing C = A·B from logical A (m×k) and B (k×n).
// `body` null runs the public function (and so the resolver's body);
// otherwise the detail driver behind it runs with `body`.
struct EntryPoint {
  const char* name;
  std::function<void(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate,
                     const detail::GemmBody* body)>
      run;
};

std::vector<EntryPoint> entry_points(util::ThreadPool& pool) {
  using detail::MatView;
  return {
      {"gemm_blocked",
       [](const Matrix& a, const Matrix& b, Matrix& c, bool accumulate,
          const detail::GemmBody* body) {
         if (body == nullptr) return gemm_blocked(a, b, c, accumulate);
         detail::gemm_packed(MatView::normal(a), MatView::normal(b), c, accumulate, *body);
       }},
      {"gemm_parallel",
       [&pool](const Matrix& a, const Matrix& b, Matrix& c, bool accumulate,
               const detail::GemmBody* body) {
         if (body == nullptr) return gemm_parallel(a, b, c, pool, accumulate);
         detail::gemm_packed_parallel(MatView::normal(a), MatView::normal(b), c, pool,
                                      accumulate, *body);
       }},
      {"gemm_prepacked",
       [](const Matrix& a, const Matrix& b, Matrix& c, bool accumulate,
          const detail::GemmBody* body) {
         PackedB packed;
         packed.pack(b);
         if (body == nullptr) return gemm_prepacked(a, packed, c, accumulate);
         detail::gemm_packed_prepacked(MatView::normal(a), packed, c, accumulate, *body);
       }},
      {"gemm_prepacked(transposed pack)",
       [](const Matrix& a, const Matrix& b, Matrix& c, bool accumulate,
          const detail::GemmBody* body) {
         PackedB packed;
         packed.pack(b.transposed(), /*transpose=*/true);
         if (body == nullptr) return gemm_prepacked(a, packed, c, accumulate);
         detail::gemm_packed_prepacked(MatView::normal(a), packed, c, accumulate, *body);
       }},
      {"gemm_at",
       [](const Matrix& a, const Matrix& b, Matrix& c, bool accumulate,
          const detail::GemmBody* body) {
         const Matrix at = a.transposed();
         if (body == nullptr) return gemm_at(at, b, c, accumulate);
         detail::gemm_packed(MatView::transposed(at), MatView::normal(b), c, accumulate, *body);
       }},
      {"gemm_bt",
       [](const Matrix& a, const Matrix& b, Matrix& c, bool accumulate,
          const detail::GemmBody* body) {
         const Matrix bt = b.transposed();
         if (body == nullptr) return gemm_bt(a, bt, c, accumulate);
         detail::gemm_packed(MatView::normal(a), MatView::transposed(bt), c, accumulate, *body);
       }},
  };
}

TEST(GemmContract, EveryEntryPointAndBodyIsBitExact) {
  util::ThreadPool pool(3);
  const std::vector<EntryPoint> entries = entry_points(pool);
  std::vector<const detail::GemmBody*> bodies = {nullptr};
  for (const detail::GemmBody& body : detail::supported_gemm_bodies()) bodies.push_back(&body);
  // Ragged edges against the 8×16 tile, K across one, two and three panels,
  // an empty K, and rows enough for the parallel driver to shard.
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {1, 1, 1},    {7, 11, 13},  {9, 17, 23},  {16, 31, 16}, {33, 129, 65},
      {3, 521, 5},  {40, 277, 31}, {17, 600, 35}, {64, 256, 48}, {70, 300, 6},
      {5, 0, 7}};
  // Operands: random; an A of all −0 (every product is ±0, so C's own sign
  // of zero shows); and products that underflow, where an FMA chain from
  // 0.0f ends at −0 and only the 0.0f + acc store turns it into +0.
  enum class Operands { Random, NegativeZeroA, Underflow };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const auto& [m, k, n] : shapes) {
    for (const Operands operands :
         {Operands::Random, Operands::NegativeZeroA, Operands::Underflow}) {
      const Matrix a = operands == Operands::Random          ? random(m, k, m * 7 + k)
                       : operands == Operands::NegativeZeroA ? Matrix(m, k, -0.0f)
                                                             : Matrix(m, k, -1e-30f);
      const Matrix b =
          operands == Operands::Underflow ? Matrix(k, n, 1e-20f) : random(k, n, k * 13 + n);
      Matrix c_seed = random(m, n, n * 17 + m);
      for (std::size_t i = 0; i < c_seed.size(); i += 3) c_seed.raw()[i] = -0.0f;
      for (const bool accumulate : {false, true}) {
        const Matrix fma_ref = contract_reference(a, b, c_seed, accumulate, Contraction::Fma);
        const Matrix mul_add_ref =
            contract_reference(a, b, c_seed, accumulate, Contraction::MulAdd);
        for (const detail::GemmBody* body : bodies) {
          for (const EntryPoint& entry : entries) {
            // A non-accumulating product must not read C at all.
            Matrix c = accumulate ? c_seed : Matrix(m, n, nan);
            entry.run(a, b, c, accumulate, body);
            EXPECT_TRUE(same_bits(c, fma_ref) || same_bits(c, mul_add_ref))
                << entry.name << " body=" << (body ? body->isa : "resolver") << " m=" << m
                << " k=" << k << " n=" << n << " accumulate=" << accumulate
                << " operands=" << static_cast<int>(operands);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Packed-resident training.  nn::train keeps each layer's weights, their
// gradients and the Wᵀ panels in PackedB layout for the whole run, so every
// helper it uses must reproduce the row-major path's bytes exactly.
// ---------------------------------------------------------------------------

bool same_values(const PackedB& x, const PackedB& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         x.values().size() == y.values().size() &&
         std::memcmp(x.values().data(), y.values().data(), x.values().size() * sizeof(float)) ==
             0;
}

TEST(PackedB, TransposeRebuildEqualsStridedPackAndUnpackEqualsSource) {
  const std::size_t dims[] = {1, 15, 16, 17, 255, 256, 257, 561};
  PackedB rebuilt;  // reused across shapes, as the trainer reuses its panels
  for (const std::size_t k : dims) {
    for (const std::size_t n : dims) {
      const Matrix w = random(k, n, k * 1009 + n);
      PackedB packed;
      packed.pack(w);
      PackedB strided;
      strided.pack(w, /*transpose=*/true);
      rebuilt.pack_transposed(packed);
      EXPECT_TRUE(same_values(rebuilt, strided)) << "k=" << k << " n=" << n;
      Matrix back(3, 2);  // the wrong shape: unpack reshapes it
      packed.unpack(back);
      EXPECT_TRUE(same_bits(back, w)) << "k=" << k << " n=" << n;
    }
  }
}

TEST(PackedB, AssignZeroShapesAndClearsEveryLane) {
  PackedB packed;
  packed.pack(random(20, 21, 5));
  packed.assign_zero(17, 3);
  EXPECT_EQ(packed.rows(), 17u);
  EXPECT_EQ(packed.cols(), 3u);
  ASSERT_EQ(packed.values().size(), 17u * detail::kNR);
  for (const float v : packed.values()) EXPECT_TRUE(v == 0.0f && !std::signbit(v));
}

// dW written into the panel layout must be, element for element, what
// gemm_at stores row-major, for every body; the padding lanes stay as the
// first assign_zero left them, and a second product overwrites the first.
TEST(GemmContract, AtIntoPackedStoresGemmAtBitsInPanelLayout) {
  using detail::MatView;
  std::vector<const detail::GemmBody*> bodies = {nullptr};
  for (const detail::GemmBody& body : detail::supported_gemm_bodies()) bodies.push_back(&body);
  // {batch, k, n}: batches of one and two kKC panels, row counts across one
  // and three packed panels, widths below, at and above one strip.
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {1, 1, 1},    {32, 30, 24}, {32, 561, 4},  {300, 30, 300}, {300, 257, 8},
      {7, 17, 33},  {600, 40, 17}, {0, 5, 7}};
  enum class Operands { Random, NegativeZeroA, Underflow };
  for (const auto& [m, k, n] : shapes) {
    for (const Operands operands :
         {Operands::Random, Operands::NegativeZeroA, Operands::Underflow}) {
      const Matrix a = operands == Operands::Random          ? random(m, k, m * 7 + k)
                       : operands == Operands::NegativeZeroA ? Matrix(m, k, -0.0f)
                                                             : Matrix(m, k, -1e-30f);
      const Matrix b =
          operands == Operands::Underflow ? Matrix(m, n, 1e-20f) : random(m, n, m * 13 + n);
      for (const detail::GemmBody* body : bodies) {
        Matrix row_major(k, n);
        PackedB got;
        got.assign_zero(k, n);
        for (int pass = 0; pass < 2; ++pass) {
          if (body == nullptr) {
            gemm_at(a, b, row_major);
            gemm_at_into_packed(a, b, got);
          } else {
            detail::gemm_packed(MatView::transposed(a), MatView::normal(b), row_major, false,
                                *body);
            detail::gemm_packed_into(MatView::transposed(a), MatView::normal(b), got, *body);
          }
        }
        PackedB want;
        want.pack(row_major);
        EXPECT_TRUE(same_values(got, want))
            << "body=" << (body ? body->isa : "resolver") << " m=" << m << " k=" << k
            << " n=" << n << " operands=" << static_cast<int>(operands);
      }
    }
  }
  PackedB wrong;
  wrong.assign_zero(4, 5);
  EXPECT_THROW(gemm_at_into_packed(random(3, 4, 1), random(2, 5, 2), wrong),
               std::invalid_argument);
  EXPECT_THROW(gemm_at_into_packed(random(3, 4, 1), random(3, 6, 2), wrong),
               std::invalid_argument);
}

TEST(GemmContract, BodiesAreListedWidestFirstAndTheFirstIsActive) {
  const std::vector<detail::GemmBody>& bodies = detail::supported_gemm_bodies();
  ASSERT_FALSE(bodies.empty());
  EXPECT_EQ(&detail::active_gemm_body(), &bodies.front());
  EXPECT_STREQ(bodies.back().isa, "baseline");
  for (const detail::GemmBody& body : bodies) {
    const std::string isa = body.isa;
    EXPECT_TRUE(isa == "x86-64-v4" || isa == "x86-64-v3" || isa == "baseline") << isa;
  }
}

// The dimension-error contract shared by every entry point: same exception
// type, "<op>: inner dimensions differ (x vs y)" / "<op>: output shape
// mismatch (...)" message style.
TEST(GemmErrors, ConsistentMessagesAcrossEntryPoints) {
  Matrix c(2, 2);
  const auto message_of = [](const std::function<void()>& fn) {
    try {
      fn();
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("<no exception>");
  };

  const Matrix a(2, 3), b(4, 2);
  EXPECT_EQ(message_of([&] { gemm_naive(a, b, c); }),
            "gemm: inner dimensions differ (3 vs 4)");
  EXPECT_EQ(message_of([&] { gemm_blocked(a, b, c); }),
            "gemm: inner dimensions differ (3 vs 4)");
  // gemm_at inner dim is the row count of both operands.
  const Matrix at_a(3, 2), at_b(4, 2);
  EXPECT_EQ(message_of([&] { gemm_at(at_a, at_b, c); }),
            "gemm_at: inner dimensions differ (3 vs 4)");
  // gemm_bt inner dim is the column count of both operands.
  const Matrix bt_a(2, 3), bt_b(2, 4);
  EXPECT_EQ(message_of([&] { gemm_bt(bt_a, bt_b, c); }),
            "gemm_bt: inner dimensions differ (3 vs 4)");

  const Matrix ok_a(2, 3), ok_b(3, 2);
  Matrix bad(3, 3);
  EXPECT_EQ(message_of([&] { gemm_naive(ok_a, ok_b, bad); }),
            "gemm: output shape mismatch (3x3 vs expected 2x2)");
  EXPECT_EQ(message_of([&] { gemm_at(at_a, Matrix(3, 2), bad); }),
            "gemm_at: output shape mismatch (3x3 vs expected 2x2)");
  EXPECT_EQ(message_of([&] { gemm_bt(bt_a, Matrix(4, 3), bad); }),
            "gemm_bt: output shape mismatch (3x3 vs expected 2x4)");
}

}  // namespace
}  // namespace ecad::linalg
