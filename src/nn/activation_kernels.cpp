#include "nn/activation_kernels.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "util/isa.h"

// This file compiles with -ffp-contract=off (src/nn/CMakeLists.txt): glibc's
// tanhf and expm1f round every operation on its own, and the only fused
// multiply-adds below are the std::fma calls that mirror glibc's FMA expf.
// Vectors are never passed by value, so no call crosses a vector-ABI
// boundary.  Every select tests one comparison: GCC 12 compiles a select on
// two masks joined by & or | lane by lane once inlined into the v4 body.

namespace ecad::nn::detail {
namespace {

// kLanes-lane vector types: float with its int32/uint32 bit patterns, and
// double with its uint64 bit pattern for expf's double evaluation.
template <std::size_t kLanes>
struct Lanes {
  typedef float F __attribute__((vector_size(4 * kLanes)));
  typedef std::int32_t I __attribute__((vector_size(4 * kLanes)));
  typedef std::uint32_t U __attribute__((vector_size(4 * kLanes)));
  typedef double D __attribute__((vector_size(8 * kLanes)));
  typedef std::uint64_t Q __attribute__((vector_size(8 * kLanes)));
};

// glibc's expm1f (sysdeps/ieee754/flt-32/s_expm1f.c, from fdlibm), every
// branch evaluated on every lane and selected by k.
struct Expm1 {
  static float scalar(float x) { return std::expm1(x); }

  // `slow` marks |x| >= 0x1.62e430p6 (bits 0x42b17218) and NaN; their `y`
  // is unspecified.
  template <std::size_t kLanes>
  __attribute__((always_inline)) static void lanes(const typename Lanes<kLanes>::F& x_in,
                                                   typename Lanes<kLanes>::F& y_out,
                                                   typename Lanes<kLanes>::I& slow) {
    using F = typename Lanes<kLanes>::F;
    using I = typename Lanes<kLanes>::I;
    using U = typename Lanes<kLanes>::U;
    constexpr float kLn2Hi = 0x1.62e3p-1f;       // 0x3f317180
    constexpr float kLn2Lo = 0x1.2fefa2p-17f;    // 0x3717f7d1
    constexpr float kInvLn2 = 0x1.715476p+0f;    // 0x3fb8aa3b
    constexpr float kQ1 = -0x1.111112p-5f;       // 0xbd088889
    constexpr float kQ2 = 0x1.a01a02p-10f;       // 0x3ad00d01
    constexpr float kQ3 = -0x1.4ce19ap-14f;      // 0xb8a670cd
    constexpr float kQ4 = 0x1.0cfca8p-18f;       // 0x36867e54
    constexpr float kQ5 = -0x1.afdb76p-23f;      // 0xb457edbb
    const F zero = {};
    const I hx = (I)x_in & 0x7fffffff;
    const I negative = (I)x_in < 0;
    slow = hx >= 0x42b17218;
    const F x0 = slow ? zero : x_in;  // keeps the float-to-int conversion in range

    // Argument reduction for |x| > ln2/2: x = k·ln2 + (hi - lo), with k = ±1
    // below 1.5·ln2 and k = (int)(x/ln2 ± 1/2) above.
    const I reduce = hx > 0x3eb17218;
    const I k_near = negative ? I{} - 1 : I{} + 1;
    const F half = negative ? zero - 0.5f : zero + 0.5f;
    const I k_far = __builtin_convertvector(kInvLn2 * x0 + half, I);
    const I k = reduce ? (hx < 0x3f851592 ? k_near : k_far) : I{};
    const F t = __builtin_convertvector(k, F);
    const F hi = x0 - t * kLn2Hi;
    const F lo = t * kLn2Lo;
    const F reduced = hi - lo;
    const F c = (hi - reduced) - lo;
    const F x = reduce ? reduced : x0;

    // x is in the primary range.
    const F hfx = 0.5f * x;
    const F hxs = x * hfx;
    const F r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
    const F t3 = 3.0f - r1 * hfx;
    F e = hxs * ((r1 - t3) / (6.0f - x * t3));
    const F y_k0 = x - (x * e - hxs);
    e = x * (e - c) - c;
    e -= hxs;
    const F y_k_minus1 = 0.5f * (x - e) - 0.5f;
    const F y_k1 = x < -0.25f ? -2.0f * (e - (x + 0.5f)) : 1.0f + 2.0f * (x - e);
    // Other k scale by 2^k through the exponent bits.
    const U k_exponent = (U)k << 23;
    const F two_to_minus_k = (F)(((U{} + 127u) - (U)k) << 23);  // for 2 <= k <= 56
    const F y_wide = (F)((U)(1.0f - (e - x)) + k_exponent) - 1.0f;
    const F y_mid = (F)((U)((1.0f - two_to_minus_k) - (e - x)) + k_exponent);
    const F y_high = (F)((U)((x - (e + two_to_minus_k)) + 1.0f) + k_exponent);
    F y = k < 23 ? y_mid : y_high;
    y = (U)k + 1u > 57u ? y_wide : y;  // k <= -2 or k > 56
    y = k == 1 ? y_k1 : y;
    y = k == -1 ? y_k_minus1 : y;
    y = k == 0 ? y_k0 : y;
    // x <= -27·ln2 (sign set, |x| bits from 0x4195b844) returns glibc's
    // tiny - 1 = -1; |x| < 2^-25 returns x.
    y = (U)x_in >= 0xc195b844u ? zero - 1.0f : y;
    y_out = hx < 0x33000000 ? x_in : y;
  }
};

// glibc's tanhf (sysdeps/ieee754/flt-32/s_tanhf.c, from fdlibm) over the
// expm1f port.
struct Tanh {
  static float scalar(float x) { return std::tanh(x); }

  // `slow` marks NaN and ±Inf.
  template <std::size_t kLanes>
  __attribute__((always_inline)) static void lanes(const typename Lanes<kLanes>::F& x,
                                                   typename Lanes<kLanes>::F& y_out,
                                                   typename Lanes<kLanes>::I& slow) {
    using F = typename Lanes<kLanes>::F;
    using I = typename Lanes<kLanes>::I;
    const F zero = {};
    const I jx = (I)x;
    const I ix = jx & 0x7fffffff;
    slow = ix >= 0x7f800000;
    // |x| >= 1: 1 - 2/(t + 2) with t = expm1(2|x|); below: -t/(t + 2) with
    // t = expm1(-2|x|).  The shared quotient is the same division.
    const F ax = (F)ix;
    const I large = ix >= 0x3f800000;
    F t = {};
    I unused = {};
    Expm1::lanes<kLanes>(large ? 2.0f * ax : -2.0f * ax, t, unused);
    const F quotient = (large ? zero + 2.0f : -t) / (t + 2.0f);
    F z = large ? 1.0f - quotient : quotient;
    z = ix >= 0x41b00000 ? zero + 1.0f : z;  // |x| >= 22: glibc's 1 - tiny
    z = jx < 0 ? -z : z;
    y_out = ix < 0x24000000 ? x * (1.0f + x) : z;  // |x| < 2^-55, zeros included
  }
};

// glibc's expf (sysdeps/ieee754/flt-32/e_expf.c) as its x86-64 FMA build
// evaluates it: GCC contracts the reduction's multiply into both uses and
// each polynomial step into one fused multiply-add.
struct Exp {
  static float scalar(float x) { return std::exp(x); }

  // 2^(i/32) as uint64 bits, minus i << 47 (__exp2f_data.tab).
  static constexpr std::uint64_t kTable[32] = {
      0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
      0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
      0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
      0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
      0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
      0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
      0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
      0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
  };

  // `slow` marks |x| >= 88 and NaN, the band glibc handles apart.
  template <std::size_t kLanes>
  __attribute__((always_inline)) static void lanes(const typename Lanes<kLanes>::F& x,
                                                   typename Lanes<kLanes>::F& y_out,
                                                   typename Lanes<kLanes>::I& slow) {
    using F = typename Lanes<kLanes>::F;
    using U = typename Lanes<kLanes>::U;
    using D = typename Lanes<kLanes>::D;
    using Q = typename Lanes<kLanes>::Q;
    constexpr double kShift = 0x1.8p+52;
    constexpr double kInvLn2N = 0x1.71547652b82fep+0 * 32;
    constexpr double kC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
    constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
    constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / 32;
    slow = (((U)x >> 20) & 0x7ffu) >= 0x42bu;
    const D xd = __builtin_convertvector(x, D);
    // x·32/ln2 = k + r with integer k (rounded by the shift) and |r| <= 1/2.
    D kd = {};
    for (std::size_t l = 0; l < kLanes; ++l) kd[l] = std::fma(kInvLn2N, xd[l], kShift);
    const Q ki = (Q)kd;
    kd -= kShift;
    D r = {};
    for (std::size_t l = 0; l < kLanes; ++l) r[l] = std::fma(kInvLn2N, xd[l], -kd[l]);
    // exp(x) = 2^(k/32) · 2^(r/32) ≈ s · (C0·r³ + C1·r² + C2·r + 1).
    Q s_bits = {};
    for (std::size_t l = 0; l < kLanes; ++l) s_bits[l] = kTable[ki[l] % 32];
    const D s = (D)(s_bits + (ki << 47));
    D z = {};
    D y = {};
    for (std::size_t l = 0; l < kLanes; ++l) z[l] = std::fma(kC0, r[l], kC1);
    const D r2 = r * r;
    for (std::size_t l = 0; l < kLanes; ++l) y[l] = std::fma(kC2, r[l], 1.0);
    for (std::size_t l = 0; l < kLanes; ++l) y[l] = std::fma(z[l], r2[l], y[l]);
    y_out = __builtin_convertvector(y * s, F);
  }
};

// Whether any lane of a comparison result is set.
template <typename I>
__attribute__((always_inline)) inline bool any_lane(const I& mask) {
  std::uint64_t words[sizeof(I) / sizeof(std::uint64_t)];
  std::memcpy(words, &mask, sizeof words);
  std::uint64_t any = 0;
  for (std::uint64_t word : words) any |= word;
  return any != 0;
}

// The scalar std:: call for each lane `slow` marks.  Out of line: only
// inputs outside a port's fast range get here.
template <typename Port, std::size_t kLanes>
__attribute__((noinline)) void call_scalar(const typename Lanes<kLanes>::F& x,
                                           const typename Lanes<kLanes>::I& slow,
                                           typename Lanes<kLanes>::F& y) {
  float xs[kLanes];
  float ys[kLanes];
  std::int32_t marks[kLanes];
  std::memcpy(xs, &x, sizeof xs);
  std::memcpy(ys, &y, sizeof ys);
  std::memcpy(marks, &slow, sizeof marks);
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (marks[l] != 0) ys[l] = Port::scalar(xs[l]);
  }
  std::memcpy(&y, ys, sizeof ys);
}

// `count` <= kLanes elements through one vector; a short tail is padded
// with zeros, which every port takes on its fast path.
template <typename Port, std::size_t kLanes>
__attribute__((always_inline)) inline void map_vector(const float* in, float* out,
                                                      std::size_t count) {
  typename Lanes<kLanes>::F x = {};
  std::memcpy(&x, in, count * sizeof(float));
  typename Lanes<kLanes>::F y = {};
  typename Lanes<kLanes>::I slow = {};
  Port::template lanes<kLanes>(x, y, slow);
  if (any_lane(slow)) call_scalar<Port, kLanes>(x, slow, y);
  std::memcpy(out, &y, count * sizeof(float));
}

template <typename Port, std::size_t kLanes>
__attribute__((always_inline)) inline void map_body(const float* in, float* out,
                                                    std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) map_vector<Port, kLanes>(in + i, out + i, kLanes);
  if (i < n) map_vector<Port, kLanes>(in + i, out + i, n - i);
}

template <typename Port>
void map_baseline(const float* in, float* out, std::size_t n) {
  map_body<Port, 4>(in, out, n);
}

#if defined(ECAD_ISA_BODIES)
template <typename Port>
__attribute__((target("arch=x86-64-v3"))) void map_v3(const float* in, float* out,
                                                      std::size_t n) {
  map_body<Port, 8>(in, out, n);
}

template <typename Port>
__attribute__((target("arch=x86-64-v4"))) void map_v4(const float* in, float* out,
                                                      std::size_t n) {
  map_body<Port, 16>(in, out, n);
}
#endif

}  // namespace

const std::vector<ActivationBody>& supported_activation_bodies() {
  static const std::vector<ActivationBody> bodies = [] {
    std::vector<ActivationBody> out;
    for (util::IsaLevel level : util::supported_isa_levels()) {
      ActivationBody body{util::isa_name(level), map_baseline<Tanh>, map_baseline<Expm1>,
                          nullptr};
#if defined(ECAD_ISA_BODIES)
      if (level == util::IsaLevel::X86_64_V4) {
        body = {body.isa, map_v4<Tanh>, map_v4<Expm1>, map_v4<Exp>};
      }
      if (level == util::IsaLevel::X86_64_V3) {
        body = {body.isa, map_v3<Tanh>, map_v3<Expm1>, map_v3<Exp>};
      }
#endif
      out.push_back(body);
    }
    return out;
  }();
  return bodies;
}

}  // namespace ecad::nn::detail
