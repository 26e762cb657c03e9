#include "util/isa.h"

namespace ecad::util {

const char* isa_name(IsaLevel level) {
  switch (level) {
    case IsaLevel::X86_64_V4: return "x86-64-v4";
    case IsaLevel::X86_64_V3: return "x86-64-v3";
    case IsaLevel::Baseline: return "baseline";
  }
  return "?";
}

const std::vector<IsaLevel>& supported_isa_levels() {
  static const std::vector<IsaLevel> levels = [] {
    std::vector<IsaLevel> out;
#if defined(ECAD_ISA_BODIES)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v4")) out.push_back(IsaLevel::X86_64_V4);
    if (__builtin_cpu_supports("x86-64-v3")) out.push_back(IsaLevel::X86_64_V3);
#endif
    out.push_back(IsaLevel::Baseline);
    return out;
  }();
  return levels;
}

}  // namespace ecad::util
