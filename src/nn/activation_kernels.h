// Vector ports of the libm calls the activations make, bit-exact to glibc.
//
// tanh, ELU and sigmoid spend their time in one scalar libm call per element
// (`tanhf`, `expm1f`, `expf`).  The ports below evaluate the same operations
// lane by lane, so each lane returns the bits the scalar call returns:
//   * tanh and expm1 are glibc's fdlibm `tanhf` and `expm1f`, which use only
//     float arithmetic;
//   * exp is glibc's table-driven `expf` (a 32-entry table of 2^(i/32),
//     evaluated in double) as its x86-64 FMA build computes it, with each
//     fused multiply-add written out.  A CPU without FMA runs glibc's
//     FMA-free `expf`, and the baseline body has no exp port.
// Lanes outside a port's fast range (NaN and ±Inf for tanh, |x| >= 88.72 for
// expm1, and the |x| >= 88 band that `expf` handles apart) call the scalar
// std:: function, so special values keep their libm result.
//
// Like the GEMM microkernel, the ports are templates instantiated once per
// x86-64 level (util/isa.h).  nn::apply_activation runs the widest body's
// ports only after they reproduce this process's own libm on a fixed input
// list (see activation.cpp), so another libm keeps the scalar loops.
#pragma once

#include <cstddef>
#include <vector>

namespace ecad::nn::detail {

/// out[i] = f(in[i]) for i < n.  `out` may alias `in`.
using FloatMap = void (*)(const float* in, float* out, std::size_t n);

/// One instantiation of the ports for one x86-64 level.
struct ActivationBody {
  const char* isa;  // "x86-64-v4", "x86-64-v3" or "baseline"
  FloatMap tanh;    // std::tanh
  FloatMap expm1;   // std::expm1
  FloatMap exp;     // std::exp; null in the baseline body
};

/// The bodies this CPU can run, widest first.  Builds that compile a single
/// body (Clang, TSan, non-x86-64) list only "baseline".
const std::vector<ActivationBody>& supported_activation_bodies();

}  // namespace ecad::nn::detail
