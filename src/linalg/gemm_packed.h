// Packed, register-blocked GEMM backend.
//
// The paper's candidate evaluations spend nearly all wall clock inside GEMM
// ("At the heart of MLP is a general matrix multiplication", §I), so the
// production kernels here follow the classic Goto/BLIS decomposition:
//   * operand panels are packed into contiguous, cache-tiled buffers
//     (A in MR-row strips, B in NR-column strips, zero-padded at edges);
//   * an MR×NR register-accumulator microkernel runs over each KC slice.
//     It is one template over GCC/Clang vector types; on x86-64 GCC it is
//     instantiated per x86-64 level (8 rows × 1 zmm on v4, 4 rows × 2 ymm on
//     v3, 2 rows × 4 xmm on baseline) and one body is chosen per process;
//   * transposed operands are handled by strided packing, so Aᵀ·B and A·Bᵀ
//     (backprop's dW and δ products) never materialize a transpose.
//
// This is the only GEMM backend: every public gemm_* entry point in gemm.h
// except the gemm_naive oracle runs it, and the body is picked from the CPU,
// not set by the user.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/matrix.h"
#include "util/span.h"
#include "util/thread_pool.h"

namespace ecad::linalg {

namespace detail {

/// Strided read-only view of a logical rows×cols operand. Lets the packing
/// routines walk A, Aᵀ, B, or Bᵀ uniformly: element (i, j) lives at
/// data[i·row_stride + j·col_stride].
struct MatView {
  const float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t row_stride = 0;
  std::size_t col_stride = 0;

  static MatView normal(const Matrix& m) { return {m.raw(), m.rows(), m.cols(), m.cols(), 1}; }
  static MatView transposed(const Matrix& m) {
    return {m.raw(), m.cols(), m.rows(), 1, m.cols()};
  }
};

/// Register tile and cache-block sizes shared by the packers and drivers.
/// MR×NR accumulators stay in registers (a kNR-wide packed B row is one
/// 64-byte line); KC sizes one packed strip pair to fit L1; MC bounds the
/// packed A block (~MC·KC floats) to fit L2.
constexpr std::size_t kMR = 8;
constexpr std::size_t kNR = 16;
constexpr std::size_t kKC = 256;
constexpr std::size_t kMC = 128;

/// Uninitialized float storage, 64-byte aligned so each packed B row is one
/// cache line. `ensure` grows it without preserving contents and without
/// zero-filling: packing writes every element, padding included, and a
/// serial fill would run ahead of gemm_parallel's sharded packing. Reusing
/// one buffer keeps repacking after a weight update allocation-free.
class AlignedFloats {
 public:
  float* ensure(std::size_t floats);
  float* data() const { return data_.get(); }

 private:
  struct Free {
    void operator()(float* data) const noexcept;
  };
  std::unique_ptr<float[], Free> data_;
  std::size_t capacity_ = 0;
};

/// One packed A block (mc rows) times one packed B panel (kc × n), written
/// into C (leading dimension ldc). With `overwrite` each element becomes
/// 0.0f + acc (the first K panel of a non-accumulating product); otherwise
/// C += acc. acc sums its kc products in ascending p from zero.
using MacroKernel = void (*)(std::size_t mc, std::size_t n, std::size_t kc,
                             const float* packed_a, const float* packed_b, float* c,
                             std::size_t ldc, bool overwrite);

/// One instantiation of the microkernel template.
struct GemmBody {
  const char* isa;  // "x86-64-v4", "x86-64-v3" or "baseline"
  MacroKernel macro_kernel;
};

/// The bodies this CPU can run, widest first. Builds that compile a single
/// body (Clang, TSan, non-x86-64) list only "baseline".
const std::vector<GemmBody>& supported_gemm_bodies();

/// The body every GEMM driver uses: the widest supported one, chosen once
/// per process.
const GemmBody& active_gemm_body();

}  // namespace detail

/// A fully packed logical B operand (k×n), reusable across GEMM calls while
/// the source matrix is unchanged. Panels are laid out exactly as the driver
/// consumes them, so `gemm_prepacked` skips all packing work — the win the
/// MLP layers exploit by reusing weight panels across minibatches.
class PackedB {
 public:
  PackedB() = default;
  /// Move-only: the packed buffer is raw storage with no value semantics a
  /// copy would preserve cheaply (MLP caches hold these in vectors).
  PackedB(PackedB&&) noexcept = default;
  PackedB& operator=(PackedB&&) noexcept = default;
  PackedB(const PackedB&) = delete;
  PackedB& operator=(const PackedB&) = delete;

  /// Packs logical B = `b` (or `bᵀ` when `transpose`). Reuses the existing
  /// buffer capacity, so repacking after a weight update does not allocate.
  void pack(const Matrix& b, bool transpose = false);

  /// Packs an arbitrary strided view (used by the parallel driver).
  void pack_view(const detail::MatView& b);

  /// Same layout, but the packing work itself fans out across `pool`:
  /// (K-panel × column-strip-chunk) tasks write disjoint output regions.
  /// The parallel GEMM driver packed B serially before sharding — at large
  /// N that serial phase capped multi-thread scaling (Amdahl).
  void pack_view_parallel(const detail::MatView& b, util::ThreadPool& pool);

  /// Shapes the operand as k×n with every element, padding included, +0:
  /// the starting point of a buffer that gemm_at_into_packed fills.
  void assign_zero(std::size_t k, std::size_t n);

  /// Packs srcᵀ from src's panels by 16×16 block copies: the same floats as
  /// pack(m, true) when `src` holds pack(m). A kNR-row block of src never
  /// straddles one of its kKC-row panels, so each block is one contiguous
  /// kNR×kNR tile on both sides.
  void pack_transposed(const PackedB& src);

  /// Writes the logical k×n operand back into `out` (reshaped when its shape
  /// differs): the inverse of pack().
  void unpack(Matrix& out) const;

  /// Every stored float, padding lanes included, panel after panel. An
  /// elementwise update over two operands packed alike (an optimizer step
  /// over weight and gradient panels) can run on these directly.
  ecad::span<float> values() { return {storage_.data(), k_ * padded_n_}; }
  ecad::span<const float> values() const { return {storage_.data(), k_ * padded_n_}; }

  bool empty() const { return k_ == 0 || n_ == 0; }
  std::size_t rows() const { return k_; }  // logical k
  std::size_t cols() const { return n_; }  // logical n

  /// Start of the packed panel for rows [pc, pc+kc): strips of kNR columns,
  /// each kc×kNR, zero-padded past `cols()`.
  const float* panel(std::size_t pc) const { return storage_.data() + pc * padded_n_; }
  float* panel(std::size_t pc) { return storage_.data() + pc * padded_n_; }

 private:
  /// Sets the logical shape and makes room for it; contents are undefined.
  void reshape(std::size_t k, std::size_t n);

  std::size_t k_ = 0;
  std::size_t n_ = 0;
  std::size_t padded_n_ = 0;  // n rounded up to kNR
  detail::AlignedFloats storage_;
};

namespace detail {

/// C (m×n) = A·B (+C when `accumulate`) over strided views; serial driver.
/// Shapes must already be validated by the caller. Every driver runs
/// `body`'s kernel; the public entry points pass `active_gemm_body()`.
void gemm_packed(const MatView& a, const MatView& b, Matrix& c, bool accumulate,
                 const GemmBody& body = active_gemm_body());

/// Row-partitioned packed driver: B is packed once, then MR-aligned row
/// shards of A are packed and multiplied across `pool`.
void gemm_packed_parallel(const MatView& a, const MatView& b, Matrix& c, util::ThreadPool& pool,
                          bool accumulate, const GemmBody& body = active_gemm_body());

/// Serial driver over an already-packed B.
void gemm_packed_prepacked(const MatView& a, const PackedB& b, Matrix& c, bool accumulate,
                           const GemmBody& body = active_gemm_body());

/// C = A·B written into `c`'s packed layout (shape a.rows × b.cols), one
/// column strip per kernel call. Every real element gets the bits
/// gemm_packed would store for it; padding lanes are never written.
void gemm_packed_into(const MatView& a, const MatView& b, PackedB& c,
                      const GemmBody& body = active_gemm_body());

}  // namespace detail

/// C (m×n) = A (m×k) · B, with B supplied pre-packed. Dimension mismatches
/// throw std::invalid_argument in the same style as gemm_naive.
void gemm_prepacked(const Matrix& a, const PackedB& b, Matrix& c, bool accumulate = false);

/// C (k×n) = Aᵀ (k×m) · B (m×n), like gemm_at, but written straight into
/// the packed layout of `c`, which must already be k×n (assign_zero shapes
/// it): backprop's dW lands in the layout its weight panels train in. Each
/// real element equals what gemm_at stores; padding lanes keep their value.
void gemm_at_into_packed(const Matrix& a, const Matrix& b, PackedB& c);

}  // namespace ecad::linalg
