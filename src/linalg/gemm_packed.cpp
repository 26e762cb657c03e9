#include "linalg/gemm_packed.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "util/logging.h"
#include "util/string_util.h"

// On x86-64 GCC, clone the hot loops for wider ISAs and pick the best one at
// load time via ifunc dispatch; default codegen stays portable (SSE2), so
// binaries built without -march still run the AVX2/AVX-512 microkernel on
// hardware that has it. TSan cannot run ifunc resolvers (they execute before
// the runtime is initialized and segfault at load), so sanitized builds fall
// back to the portable kernel — races are ISA-independent, nothing is lost.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
#define ECAD_GEMM_TARGET_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define ECAD_GEMM_TARGET_CLONES
#endif

namespace ecad::linalg {

// ---------------------------------------------------------------------------
// Kernel selection
// ---------------------------------------------------------------------------

GemmKernel parse_gemm_kernel(const std::string& name) {
  const std::string lower = util::to_lower(name);
  if (lower == "packed") return GemmKernel::Packed;
  if (lower == "blocked") return GemmKernel::Blocked;
  if (lower == "naive") return GemmKernel::Naive;
  throw std::invalid_argument("parse_gemm_kernel: unknown kernel '" + name +
                              "' (expected packed|blocked|naive)");
}

const char* to_string(GemmKernel kernel) {
  switch (kernel) {
    case GemmKernel::Packed: return "packed";
    case GemmKernel::Blocked: return "blocked";
    case GemmKernel::Naive: return "naive";
  }
  return "?";
}

namespace {

GemmKernel kernel_from_env() {
  const char* env = std::getenv("ECAD_GEMM_KERNEL");
  if (env == nullptr || *env == '\0') return GemmKernel::Packed;
  try {
    return parse_gemm_kernel(env);
  } catch (const std::invalid_argument&) {
    util::Log(util::LogLevel::Warn, "linalg")
        << "ECAD_GEMM_KERNEL='" << env << "' not recognized; using 'packed'";
    return GemmKernel::Packed;
  }
}

std::atomic<GemmKernel>& kernel_slot() {
  static std::atomic<GemmKernel> slot{kernel_from_env()};
  return slot;
}

}  // namespace

GemmKernel active_gemm_kernel() { return kernel_slot().load(std::memory_order_relaxed); }

void set_gemm_kernel(GemmKernel kernel) {
  kernel_slot().store(kernel, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

namespace detail {
namespace {

inline std::size_t round_up(std::size_t value, std::size_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

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

// acc[kMR][kNR] += packed-A strip × packed-B strip over kc. Both strips are
// contiguous and edge-padded, so the loops have fixed trip counts the
// vectorizer turns into broadcast-FMA over kNR-wide rows.
#if defined(__GNUC__)
#define ECAD_GEMM_INLINE inline __attribute__((always_inline))
#else
#define ECAD_GEMM_INLINE inline
#endif

ECAD_GEMM_INLINE void micro_kernel(std::size_t kc, const float* a_strip, const float* b_strip,
                                   float acc[kMR * kNR]) {
  for (std::size_t p = 0; p < kc; ++p) {
    const float* a = a_strip + p * kMR;
    const float* b = b_strip + p * kNR;
#if defined(__GNUC__)
#pragma GCC unroll 8
#endif
    for (std::size_t i = 0; i < kMR; ++i) {
      const float ai = a[i];
      float* row = acc + i * kNR;
#if defined(__GNUC__)
#pragma GCC unroll 8
#endif
      for (std::size_t j = 0; j < kNR; ++j) row[j] += ai * b[j];
    }
  }
}

// One packed A block (mc rows) × one packed B panel (kc × n): adds into C.
ECAD_GEMM_TARGET_CLONES
void macro_kernel(std::size_t mc, std::size_t n, std::size_t kc, const float* packed_a,
                  const float* packed_b, float* c, std::size_t ldc) {
  for (std::size_t j0 = 0; j0 < n; j0 += kNR) {
    const std::size_t jw = std::min(kNR, n - j0);
    const float* b_strip = packed_b + (j0 / kNR) * kc * kNR;
    for (std::size_t i0 = 0; i0 < mc; i0 += kMR) {
      const std::size_t ih = std::min(kMR, mc - i0);
      const float* a_strip = packed_a + (i0 / kMR) * kc * kMR;
      float acc[kMR * kNR] = {};
      micro_kernel(kc, a_strip, b_strip, acc);
      float* c_tile = c + i0 * ldc + j0;
      if (ih == kMR && jw == kNR) {
        for (std::size_t i = 0; i < kMR; ++i) {
          float* c_row = c_tile + i * ldc;
          const float* a_row = acc + i * kNR;
          for (std::size_t j = 0; j < kNR; ++j) c_row[j] += a_row[j];
        }
      } else {
        for (std::size_t i = 0; i < ih; ++i) {
          float* c_row = c_tile + i * ldc;
          const float* a_row = acc + i * kNR;
          for (std::size_t j = 0; j < jw; ++j) c_row[j] += a_row[j];
        }
      }
    }
  }
}

void zero_rows(Matrix& c, std::size_t row_begin, std::size_t row_end) {
  std::memset(c.raw() + row_begin * c.cols(), 0,
              (row_end - row_begin) * c.cols() * sizeof(float));
}

// Multiplies rows [ic0, ic1) of logical A against all packed B panels.
// `packed_b_at(pc, kc)` returns the packed panel for K rows [pc, pc+kc).
template <typename PanelFn>
void run_row_range(const MatView& a, std::size_t ic0, std::size_t ic1, std::size_t n,
                   Matrix& c, std::vector<float>& a_scratch, const PanelFn& packed_b_at) {
  const std::size_t k = a.cols;
  const std::size_t ldc = c.cols();
  for (std::size_t ic = ic0; ic < ic1; ic += kMC) {
    const std::size_t mc = std::min(kMC, ic1 - ic);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      a_scratch.resize(round_up(mc, kMR) * kc);
      pack_a_block(a, ic, mc, pc, kc, a_scratch.data());
      macro_kernel(mc, n, kc, a_scratch.data(), packed_b_at(pc, kc),
                   c.raw() + ic * ldc, ldc);
    }
  }
}

}  // namespace

void gemm_packed(const MatView& a, const MatView& b, Matrix& c, bool accumulate) {
  const std::size_t k = a.cols;
  const std::size_t n = b.cols;
  if (!accumulate) zero_rows(c, 0, a.rows);
  if (a.rows == 0 || n == 0 || k == 0) return;
  std::vector<float> b_scratch(round_up(n, kNR) * std::min(kKC, k));
  std::vector<float> a_scratch;
  // K panels outermost so each B panel is packed exactly once.
  for (std::size_t pc = 0; pc < k; pc += kKC) {
    const std::size_t kc = std::min(kKC, k - pc);
    pack_b_panel(b, pc, kc, b_scratch.data());
    for (std::size_t ic = 0; ic < a.rows; ic += kMC) {
      const std::size_t mc = std::min(kMC, a.rows - ic);
      a_scratch.resize(round_up(mc, kMR) * kc);
      pack_a_block(a, ic, mc, pc, kc, a_scratch.data());
      macro_kernel(mc, n, kc, a_scratch.data(), b_scratch.data(), c.raw() + ic * c.cols(),
                   c.cols());
    }
  }
}

void gemm_packed_prepacked(const MatView& a, const PackedB& b, Matrix& c, bool accumulate) {
  if (!accumulate) zero_rows(c, 0, a.rows);
  if (a.rows == 0 || b.cols() == 0 || a.cols == 0) return;
  std::vector<float> a_scratch;
  run_row_range(a, 0, a.rows, b.cols(), c, a_scratch,
                [&](std::size_t pc, std::size_t) { return b.panel(pc); });
}

void gemm_packed_parallel(const MatView& a, const MatView& b, Matrix& c,
                          util::ThreadPool& pool, bool accumulate) {
  const std::size_t m = a.rows;
  // Shard rows in kMR-aligned slabs; a slab per pool slot ×4 balances tails.
  const std::size_t max_shards = std::max<std::size_t>(1, pool.size() * 4);
  const std::size_t slabs = (m + kMR - 1) / kMR;
  const std::size_t shards = std::min(slabs, max_shards);
  if (shards <= 1) {
    gemm_packed(a, b, c, accumulate);
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
    if (!accumulate) zero_rows(c, ic0, ic1);
    std::vector<float> a_scratch;
    run_row_range(a, ic0, ic1, packed_b.cols(), c, a_scratch,
                  [&](std::size_t pc, std::size_t) { return packed_b.panel(pc); });
  });
}

}  // namespace detail

// ---------------------------------------------------------------------------
// PackedB
// ---------------------------------------------------------------------------

void PackedB::ensure_storage(std::size_t floats) {
  if (floats <= capacity_) return;  // reuse: repacking after updates is allocation-free
  data_.reset(new float[floats]);  // default-init: no zero-fill, packing writes every element
  capacity_ = floats;
}

void PackedB::pack(const Matrix& b, bool transpose) {
  pack_view(transpose ? detail::MatView::transposed(b) : detail::MatView::normal(b));
}

void PackedB::pack_view(const detail::MatView& b) {
  k_ = b.rows;
  n_ = b.cols;
  padded_n_ = (n_ + detail::kNR - 1) / detail::kNR * detail::kNR;
  ensure_storage(k_ * padded_n_);
  for (std::size_t pc = 0; pc < k_; pc += detail::kKC) {
    const std::size_t kc = std::min(detail::kKC, k_ - pc);
    detail::pack_b_panel(b, pc, kc, data_.get() + pc * padded_n_);
  }
}

void PackedB::pack_view_parallel(const detail::MatView& b, util::ThreadPool& pool) {
  k_ = b.rows;
  n_ = b.cols;
  padded_n_ = (n_ + detail::kNR - 1) / detail::kNR * detail::kNR;
  ensure_storage(k_ * padded_n_);
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
    detail::pack_b_panel(b, 0, k_, data_.get());
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
    detail::pack_b_panel_strips(b, pc, kc, j_begin, j_end, data_.get() + pc * padded_n_);
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

}  // namespace ecad::linalg
