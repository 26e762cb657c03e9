// x86-64 levels for kernels compiled once per instruction set.
//
// On x86-64 GCC a kernel template is instantiated once per x86-64 level
// (per-function target attributes) and the widest body the CPU supports
// runs, chosen once per process.  Clang, TSan and non-x86-64 builds compile
// only the baseline body: `__builtin_cpu_supports` takes the level names
// from GCC 12 on, and races do not depend on the ISA.  The GEMM microkernel
// (linalg) and the activation ports (nn) both list their bodies from here.
#pragma once

#include <vector>

#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12 && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
#define ECAD_ISA_BODIES 1
#endif

namespace ecad::util {

enum class IsaLevel { X86_64_V4, X86_64_V3, Baseline };

/// "x86-64-v4", "x86-64-v3" or "baseline".
const char* isa_name(IsaLevel level);

/// The levels whose bodies this process can run, widest first.  Baseline is
/// always last, and is the only entry in builds without ECAD_ISA_BODIES.
const std::vector<IsaLevel>& supported_isa_levels();

}  // namespace ecad::util
