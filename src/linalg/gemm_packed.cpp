#include "linalg/gemm_packed.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

// On x86-64 GCC the microkernel template below is instantiated once per
// x86-64 level (per-function target attributes) and the widest body the CPU
// supports runs.  Clang, TSan and non-x86-64 builds compile only the baseline
// body: `__builtin_cpu_supports` takes the level names from GCC 12 on, and
// races do not depend on the ISA.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12 && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
#define ECAD_GEMM_ISA_BODIES 1
#endif

namespace ecad::linalg {

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

namespace detail {
namespace {

inline std::size_t round_up(std::size_t value, std::size_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

// Packed storage alignment: one kNR-wide packed B row.
constexpr std::align_val_t kPackAlign{kNR * sizeof(float)};

// Packs column strips [j_begin, j_end) of rows [pc, pc+kc) of logical B into
// the panel at `panel_out`: strip j0 holds columns [j0, j0+kNR) as kc
// contiguous rows of kNR floats, zero-padded past b.cols, at panel offset
// (j0/kNR)·kc·kNR.  `j_begin` must be kNR-aligned.  Strips are disjoint in
// the output, so distinct ranges of one panel can be packed concurrently.
void pack_b_panel_strips(const MatView& b, std::size_t pc, std::size_t kc, std::size_t j_begin,
                         std::size_t j_end, float* panel_out) {
  const std::size_t n = b.cols;
  for (std::size_t j0 = j_begin; j0 < j_end; j0 += kNR) {
    const std::size_t jw = std::min(kNR, n - j0);
    float* out = panel_out + (j0 / kNR) * kc * kNR;
    if (jw == kNR && b.col_stride == 1) {
      // A full strip of row-major B: a fixed-size copy per row, which the
      // compiler inlines as vector moves instead of calling memcpy.
      const float* src = b.data + pc * b.row_stride + j0;
      for (std::size_t p = 0; p < kc; ++p) {
        std::memcpy(out + p * kNR, src + p * b.row_stride, kNR * sizeof(float));
      }
      continue;
    }
    for (std::size_t p = 0; p < kc; ++p) {
      const float* src = b.data + (pc + p) * b.row_stride + j0 * b.col_stride;
      float* dst = out + p * kNR;
      if (b.col_stride == 1) {
        std::memcpy(dst, src, jw * sizeof(float));
      } else {
        for (std::size_t j = 0; j < jw; ++j) dst[j] = src[j * b.col_stride];
      }
      for (std::size_t j = jw; j < kNR; ++j) dst[j] = 0.0f;
    }
  }
}

/// Whole panel: rows [pc, pc+kc), all column strips.
/// Output occupies kc * round_up(b.cols, kNR) floats.
void pack_b_panel(const MatView& b, std::size_t pc, std::size_t kc, float* out) {
  pack_b_panel_strips(b, pc, kc, 0, b.cols, out);
}

// Packs rows [ic, ic+mc) × cols [pc, pc+kc) of logical A into kMR-row strips:
// strip i0 holds rows [i0, i0+kMR) column-major within the strip (element
// (ii, p) at p·kMR + ii), zero-padded past mc. Output occupies
// round_up(mc, kMR) * kc floats.
void pack_a_block(const MatView& a, std::size_t ic, std::size_t mc, std::size_t pc,
                  std::size_t kc, float* out) {
  for (std::size_t i0 = 0; i0 < mc; i0 += kMR) {
    const std::size_t ih = std::min(kMR, mc - i0);
    for (std::size_t p = 0; p < kc; ++p) {
      const float* src = a.data + (ic + i0) * a.row_stride + (pc + p) * a.col_stride;
      float* dst = out + p * kMR;
      for (std::size_t ii = 0; ii < ih; ++ii) dst[ii] = src[ii * a.row_stride];
      for (std::size_t ii = ih; ii < kMR; ++ii) dst[ii] = 0.0f;
    }
    out += kc * kMR;
  }
}

// ---------------------------------------------------------------------------
// Microkernel + macrokernel
// ---------------------------------------------------------------------------

// Vector types for the register tiles.  Each body keeps 8 accumulators
// live: kRows rows × the kNR / lanes vectors one packed B row fills.
typedef float V4 __attribute__((vector_size(16)));  // baseline: 2 rows × 4 xmm
#if defined(ECAD_GEMM_ISA_BODIES)
typedef float V8 __attribute__((vector_size(32)));   // x86-64-v3: 4 rows × 2 ymm
typedef float V16 __attribute__((vector_size(64)));  // x86-64-v4: 8 rows × 1 zmm
#endif

// One packed A block (mc rows) × one packed B panel (kc × n) into C, in
// kRows-row passes over each kMR-row A strip.  Each C element is one
// multiply-add chain over ascending p starting from 0.0f (fused where the
// compiler contracts it: optimized builds on FMA ISAs), then added to C
// exactly once; with `overwrite` the add is 0.0f + acc, so C is never read.
// V is never passed by value, so no call crosses a vector-ABI boundary.
template <typename V, std::size_t kRows>
__attribute__((always_inline)) inline void macro_kernel_body(
    std::size_t mc, std::size_t n, std::size_t kc, const float* packed_a, const float* packed_b,
    float* c, std::size_t ldc, bool overwrite) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
  constexpr std::size_t kVecs = kNR / kLanes;
  static_assert(kMR % kRows == 0 && kNR % kLanes == 0, "tile must divide the packed strips");
  for (std::size_t j0 = 0; j0 < n; j0 += kNR) {
    const std::size_t jw = std::min(kNR, n - j0);
    const float* b_strip = packed_b + (j0 / kNR) * kc * kNR;
    for (std::size_t i0 = 0; i0 < mc; i0 += kMR) {
      const std::size_t ih = std::min(kMR, mc - i0);
      const float* a_strip = packed_a + (i0 / kMR) * kc * kMR;
      for (std::size_t r0 = 0; r0 < ih; r0 += kRows) {
        V acc[kRows][kVecs] = {};
        for (std::size_t p = 0; p < kc; ++p) {
          const float* a = a_strip + p * kMR + r0;
          V b[kVecs];
#pragma GCC unroll 4
          for (std::size_t v = 0; v < kVecs; ++v) {
            std::memcpy(&b[v], b_strip + p * kNR + v * kLanes, sizeof(V));
          }
#pragma GCC unroll 8
          for (std::size_t r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
            for (std::size_t v = 0; v < kVecs; ++v) acc[r][v] += a[r] * b[v];
          }
        }
        float* c_tile = c + (i0 + r0) * ldc + j0;
        const std::size_t rows = std::min(kRows, ih - r0);
        if (rows == kRows && jw == kNR) {
          for (std::size_t r = 0; r < kRows; ++r) {
            for (std::size_t v = 0; v < kVecs; ++v) {
              float* dst = c_tile + r * ldc + v * kLanes;
              V sum = {};
              if (!overwrite) std::memcpy(&sum, dst, sizeof sum);
              sum += acc[r][v];
              std::memcpy(dst, &sum, sizeof sum);
            }
          }
        } else {
          float tile[kRows * kNR];
          std::memcpy(tile, acc, sizeof tile);
          for (std::size_t r = 0; r < rows; ++r) {
            float* dst = c_tile + r * ldc;
            for (std::size_t j = 0; j < jw; ++j) {
              dst[j] = (overwrite ? 0.0f : dst[j]) + tile[r * kNR + j];
            }
          }
        }
      }
    }
  }
}

void macro_kernel_baseline(std::size_t mc, std::size_t n, std::size_t kc, const float* packed_a,
                           const float* packed_b, float* c, std::size_t ldc, bool overwrite) {
  macro_kernel_body<V4, 2>(mc, n, kc, packed_a, packed_b, c, ldc, overwrite);
}

#if defined(ECAD_GEMM_ISA_BODIES)
__attribute__((target("arch=x86-64-v3"))) void macro_kernel_v3(
    std::size_t mc, std::size_t n, std::size_t kc, const float* packed_a, const float* packed_b,
    float* c, std::size_t ldc, bool overwrite) {
  macro_kernel_body<V8, 4>(mc, n, kc, packed_a, packed_b, c, ldc, overwrite);
}

__attribute__((target("arch=x86-64-v4"))) void macro_kernel_v4(
    std::size_t mc, std::size_t n, std::size_t kc, const float* packed_a, const float* packed_b,
    float* c, std::size_t ldc, bool overwrite) {
  macro_kernel_body<V16, 8>(mc, n, kc, packed_a, packed_b, c, ldc, overwrite);
}
#endif

// Multiplies rows [ic0, ic1) of logical A against all packed B panels.
// `packed_b_at(pc, kc)` returns the packed panel for K rows [pc, pc+kc).
template <typename PanelFn>
void run_row_range(const MatView& a, std::size_t ic0, std::size_t ic1, std::size_t n,
                   Matrix& c, bool accumulate, MacroKernel kernel,
                   std::vector<float>& a_scratch, const PanelFn& packed_b_at) {
  const std::size_t k = a.cols;
  const std::size_t ldc = c.cols();
  for (std::size_t ic = ic0; ic < ic1; ic += kMC) {
    const std::size_t mc = std::min(kMC, ic1 - ic);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      a_scratch.resize(round_up(mc, kMR) * kc);
      pack_a_block(a, ic, mc, pc, kc, a_scratch.data());
      kernel(mc, n, kc, a_scratch.data(), packed_b_at(pc, kc), c.raw() + ic * ldc, ldc,
             !accumulate && pc == 0);
    }
  }
}

}  // namespace

void AlignedFloats::Free::operator()(float* data) const noexcept {
  ::operator delete[](data, kPackAlign);
}

float* AlignedFloats::ensure(std::size_t floats) {
  if (data_ == nullptr || floats > capacity_) {  // a moved-from buffer keeps its capacity_
    data_.reset(static_cast<float*>(::operator new[](floats * sizeof(float), kPackAlign)));
    capacity_ = floats;
  }
  return data_.get();
}

const std::vector<GemmBody>& supported_gemm_bodies() {
  static const std::vector<GemmBody> bodies = [] {
    std::vector<GemmBody> out;
#if defined(ECAD_GEMM_ISA_BODIES)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v4")) out.push_back({"x86-64-v4", macro_kernel_v4});
    if (__builtin_cpu_supports("x86-64-v3")) out.push_back({"x86-64-v3", macro_kernel_v3});
#endif
    out.push_back({"baseline", macro_kernel_baseline});
    return out;
  }();
  return bodies;
}

const GemmBody& active_gemm_body() {
  static const GemmBody& body = supported_gemm_bodies().front();
  return body;
}

void gemm_packed(const MatView& a, const MatView& b, Matrix& c, bool accumulate,
                 const GemmBody& body) {
  const std::size_t k = a.cols;
  const std::size_t n = b.cols;
  if (k == 0 && !accumulate) c.fill(0.0f);  // the kernel writes C only when k > 0
  if (a.rows == 0 || n == 0 || k == 0) return;
  AlignedFloats b_storage;
  float* b_scratch = b_storage.ensure(round_up(n, kNR) * std::min(kKC, k));
  std::vector<float> a_scratch;
  // K panels outermost so each B panel is packed exactly once.
  for (std::size_t pc = 0; pc < k; pc += kKC) {
    const std::size_t kc = std::min(kKC, k - pc);
    pack_b_panel(b, pc, kc, b_scratch);
    for (std::size_t ic = 0; ic < a.rows; ic += kMC) {
      const std::size_t mc = std::min(kMC, a.rows - ic);
      a_scratch.resize(round_up(mc, kMR) * kc);
      pack_a_block(a, ic, mc, pc, kc, a_scratch.data());
      body.macro_kernel(mc, n, kc, a_scratch.data(), b_scratch, c.raw() + ic * c.cols(),
                        c.cols(), !accumulate && pc == 0);
    }
  }
}

void gemm_packed_prepacked(const MatView& a, const PackedB& b, Matrix& c, bool accumulate,
                           const GemmBody& body) {
  if (a.cols == 0 && !accumulate) c.fill(0.0f);
  if (a.rows == 0 || b.cols() == 0 || a.cols == 0) return;
  std::vector<float> a_scratch;
  run_row_range(a, 0, a.rows, b.cols(), c, accumulate, body.macro_kernel, a_scratch,
                [&](std::size_t pc, std::size_t) { return b.panel(pc); });
}

void gemm_packed_into(const MatView& a, const MatView& b, PackedB& c, const GemmBody& body) {
  static_assert(kKC % kMC == 0, "an A block must not straddle a packed C panel");
  const std::size_t m = a.rows;
  const std::size_t k = a.cols;
  const std::size_t n = b.cols;
  const ecad::span<float> out = c.values();
  if (k == 0) std::fill(out.begin(), out.end(), 0.0f);  // as gemm_packed fills C
  if (m == 0 || n == 0 || k == 0) return;
  AlignedFloats b_storage;
  float* b_scratch = b_storage.ensure(round_up(n, kNR) * std::min(kKC, k));
  std::vector<float> a_scratch;
  // gemm_packed's loop nest; only the destination differs. C's strips are
  // not one row-major matrix, so each strip is its own call with ldc = kNR.
  for (std::size_t pc = 0; pc < k; pc += kKC) {
    const std::size_t kc = std::min(kKC, k - pc);
    pack_b_panel(b, pc, kc, b_scratch);
    for (std::size_t ic = 0; ic < m; ic += kMC) {
      const std::size_t mc = std::min(kMC, m - ic);
      a_scratch.resize(round_up(mc, kMR) * kc);
      pack_a_block(a, ic, mc, pc, kc, a_scratch.data());
      const std::size_t c_pc = ic / kKC * kKC;  // C's panel holding rows [ic, ic+mc)
      const std::size_t c_kc = std::min(kKC, m - c_pc);
      float* c_rows = c.panel(c_pc) + (ic - c_pc) * kNR;
      for (std::size_t j0 = 0; j0 < n; j0 += kNR) {
        body.macro_kernel(mc, std::min(kNR, n - j0), kc, a_scratch.data(),
                          b_scratch + (j0 / kNR) * kc * kNR, c_rows + (j0 / kNR) * c_kc * kNR,
                          kNR, pc == 0);
      }
    }
  }
}

void gemm_packed_parallel(const MatView& a, const MatView& b, Matrix& c,
                          util::ThreadPool& pool, bool accumulate, const GemmBody& body) {
  const std::size_t m = a.rows;
  // Shard rows in kMR-aligned slabs; a slab per pool slot ×4 balances tails.
  const std::size_t max_shards = std::max<std::size_t>(1, pool.size() * 4);
  const std::size_t slabs = (m + kMR - 1) / kMR;
  const std::size_t shards = std::min(slabs, max_shards);
  if (shards <= 1 || a.cols == 0 || b.cols == 0) {
    gemm_packed(a, b, c, accumulate, body);
    return;
  }
  // Pack the shared B once up front (read-only for all shards), using the
  // pool for the packing itself — serial packing here was the driver's
  // remaining sequential phase.
  PackedB packed_b;
  packed_b.pack_view_parallel(b, pool);
  const std::size_t rows_per_shard = round_up((m + shards - 1) / shards, kMR);
  pool.parallel_for(shards, [&](std::size_t s) {
    const std::size_t ic0 = s * rows_per_shard;
    const std::size_t ic1 = std::min(ic0 + rows_per_shard, m);
    if (ic0 >= ic1) return;
    std::vector<float> a_scratch;
    run_row_range(a, ic0, ic1, packed_b.cols(), c, accumulate, body.macro_kernel, a_scratch,
                  [&](std::size_t pc, std::size_t) { return packed_b.panel(pc); });
  });
}

}  // namespace detail

// ---------------------------------------------------------------------------
// PackedB
// ---------------------------------------------------------------------------

void PackedB::pack(const Matrix& b, bool transpose) {
  pack_view(transpose ? detail::MatView::transposed(b) : detail::MatView::normal(b));
}

void PackedB::reshape(std::size_t k, std::size_t n) {
  k_ = k;
  n_ = n;
  padded_n_ = detail::round_up(n_, detail::kNR);
  storage_.ensure(k_ * padded_n_);
}

void PackedB::pack_view(const detail::MatView& b) {
  reshape(b.rows, b.cols);
  for (std::size_t pc = 0; pc < k_; pc += detail::kKC) {
    const std::size_t kc = std::min(detail::kKC, k_ - pc);
    detail::pack_b_panel(b, pc, kc, storage_.data() + pc * padded_n_);
  }
}

void PackedB::assign_zero(std::size_t k, std::size_t n) {
  reshape(k, n);
  std::fill(values().begin(), values().end(), 0.0f);
}

void PackedB::pack_transposed(const PackedB& src) {
  using detail::kKC;
  using detail::kNR;
  static_assert(kKC % kNR == 0, "a kNR-row block must not straddle a kKC-row panel");
  reshape(src.n_, src.k_);
  // Block (r0, c0) of this operand is block (c0, r0) of src: rows
  // [r0, r0+kNR) of ours sit in src's strip r0/kNR, lanes 0..; columns
  // [c0, c0+kNR) of ours are src rows, which one src panel holds whole.
  for (std::size_t pc = 0; pc < k_; pc += kKC) {
    const std::size_t kc = std::min(kKC, k_ - pc);
    for (std::size_t c0 = 0; c0 < n_; c0 += kNR) {
      const std::size_t cw = std::min(kNR, n_ - c0);
      const std::size_t src_pc = c0 / kKC * kKC;
      const std::size_t src_kc = std::min(kKC, src.k_ - src_pc);
      float* strip = panel(pc) + (c0 / kNR) * kc * kNR;
      for (std::size_t r0 = 0; r0 < kc; r0 += kNR) {
        const std::size_t rh = std::min(kNR, kc - r0);
        const float* from =
            src.panel(src_pc) + ((pc + r0) / kNR) * src_kc * kNR + (c0 - src_pc) * kNR;
        float* to = strip + r0 * kNR;
        if (rh == kNR && cw == kNR) {
          for (std::size_t r = 0; r < kNR; ++r) {
            for (std::size_t c = 0; c < kNR; ++c) to[r * kNR + c] = from[c * kNR + r];
          }
          continue;
        }
        for (std::size_t r = 0; r < rh; ++r) {
          for (std::size_t c = 0; c < cw; ++c) to[r * kNR + c] = from[c * kNR + r];
          for (std::size_t c = cw; c < kNR; ++c) to[r * kNR + c] = 0.0f;
        }
      }
    }
  }
}

void PackedB::unpack(Matrix& out) const {
  if (out.rows() != k_ || out.cols() != n_) out.reshape_discard(k_, n_);
  for (std::size_t pc = 0; pc < k_; pc += detail::kKC) {
    const std::size_t kc = std::min(detail::kKC, k_ - pc);
    for (std::size_t j0 = 0; j0 < n_; j0 += detail::kNR) {
      const std::size_t jw = std::min(detail::kNR, n_ - j0);
      const float* strip = panel(pc) + (j0 / detail::kNR) * kc * detail::kNR;
      for (std::size_t p = 0; p < kc; ++p) {
        std::memcpy(out.raw() + (pc + p) * n_ + j0, strip + p * detail::kNR,
                    jw * sizeof(float));
      }
    }
  }
}

void PackedB::pack_view_parallel(const detail::MatView& b, util::ThreadPool& pool) {
  reshape(b.rows, b.cols);
  if (k_ == 0 || n_ == 0) return;
  const std::size_t panels = (k_ + detail::kKC - 1) / detail::kKC;
  const std::size_t strips = padded_n_ / detail::kNR;
  // Panels alone under-parallelize (512³ has only two), so also split each
  // panel's strip range; ~4 tasks per thread balances the tail.
  const std::size_t want_tasks = std::max(pool.size() * 4, panels);
  std::size_t chunks_per_panel = std::max<std::size_t>(1, (want_tasks + panels - 1) / panels);
  chunks_per_panel = std::min(chunks_per_panel, strips);
  const std::size_t chunk_strips = (strips + chunks_per_panel - 1) / chunks_per_panel;
  if (panels * chunks_per_panel <= 1) {
    detail::pack_b_panel(b, 0, k_, storage_.data());
    return;
  }
  pool.parallel_for(panels * chunks_per_panel, [&](std::size_t task) {
    const std::size_t panel = task / chunks_per_panel;
    const std::size_t chunk = task % chunks_per_panel;
    const std::size_t pc = panel * detail::kKC;
    const std::size_t kc = std::min(detail::kKC, k_ - pc);
    const std::size_t j_begin = chunk * chunk_strips * detail::kNR;
    if (j_begin >= n_) return;
    const std::size_t j_end = std::min(n_, j_begin + chunk_strips * detail::kNR);
    detail::pack_b_panel_strips(b, pc, kc, j_begin, j_end, storage_.data() + pc * padded_n_);
  });
}

void gemm_prepacked(const Matrix& a, const PackedB& b, Matrix& c, bool accumulate) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("gemm_prepacked: inner dimensions differ (" +
                                std::to_string(a.cols()) + " vs " + std::to_string(b.rows()) +
                                ")");
  }
  if (c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm_prepacked: output shape mismatch (" +
                                std::to_string(c.rows()) + "x" + std::to_string(c.cols()) +
                                " vs expected " + std::to_string(a.rows()) + "x" +
                                std::to_string(b.cols()) + ")");
  }
  detail::gemm_packed_prepacked(detail::MatView::normal(a), b, c, accumulate);
}

void gemm_at_into_packed(const Matrix& a, const Matrix& b, PackedB& c) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("gemm_at_into_packed: inner dimensions differ (" +
                                std::to_string(a.rows()) + " vs " + std::to_string(b.rows()) +
                                ")");
  }
  if (c.rows() != a.cols() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm_at_into_packed: output shape mismatch (" +
                                std::to_string(c.rows()) + "x" + std::to_string(c.cols()) +
                                " vs expected " + std::to_string(a.cols()) + "x" +
                                std::to_string(b.cols()) + ")");
  }
  detail::gemm_packed_into(detail::MatView::transposed(a), detail::MatView::normal(b), c);
}

}  // namespace ecad::linalg
