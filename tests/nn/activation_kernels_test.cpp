// The libm ports behind tanh, ELU and sigmoid (nn/activation_kernels.h)
// against this process's scalar std:: calls, bit for bit (a NaN matches any
// NaN), for every body the CPU runs.  The ports reproduce glibc's fdlibm
// tanhf/expm1f and its table-driven expf; under another libm these tests
// report where the ports differ, and apply_activation keeps its scalar
// loops there (its first-use check fails).
#include "nn/activation_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "nn/activation.h"
#include "util/isa.h"
#include "util/metrics.h"

namespace ecad::nn {
namespace {

using detail::ActivationBody;
using detail::FloatMap;

struct Port {
  const char* name;
  float (*scalar)(float);
  FloatMap ActivationBody::*map;
};

const Port kPorts[] = {
    {"tanh", [](float x) { return std::tanh(x); }, &ActivationBody::tanh},
    {"expm1", [](float x) { return std::expm1(x); }, &ActivationBody::expm1},
    {"exp", [](float x) { return std::exp(x); }, &ActivationBody::exp},
};

float from_bits(std::uint32_t bits) {
  float value;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

std::uint32_t to_bits(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

bool same(float a, float b) { return to_bits(a) == to_bits(b) || (std::isnan(a) && std::isnan(b)); }

// The ports' branch constants with their neighbours, both signs of each,
// zeros, subnormals, the largest finite values, infinities and NaNs, a
// stride of 2^20 bit patterns over all 2^32, and every 31st float with |x|
// in [2^-3, 2^-1).  In that band the last bit of expm1 and tanh depends
// most often on the leading polynomial coefficient: a one-ulp change of it
// alters 292 expm1 and 178 tanh results among the band's 2^25 floats, and
// none on the 2^20 stride.
std::vector<float> port_inputs() {
  std::vector<float> inputs;
  for (std::uint32_t constant : {0x41b00000u, 0x42b17218u, 0x4195b844u, 0x3eb17218u, 0x3f851592u,
                                 0x24000000u, 0x33000000u, 0x3f800000u, 0x42b00000u,
                                 0x42cff1b4u, 0x42ce8ecfu, 0x00800000u, 0x7f7fffffu}) {
    for (std::uint32_t sign : {0u, 0x80000000u}) {
      for (std::uint32_t bits : {constant - 1, constant, constant + 1}) {
        inputs.push_back(from_bits(sign | bits));
      }
    }
  }
  for (std::uint32_t special : {0x00000000u, 0x80000000u, 0x00000001u, 0x80000001u, 0x007fffffu,
                                0x807fffffu, 0x7f800000u, 0xff800000u, 0x7fc00000u, 0xffc00000u,
                                0x7f800001u, 0xc27c65d9u, 0x4202422fu}) {
    inputs.push_back(from_bits(special));
  }
  for (std::uint32_t i = 0; i < (1u << 20); ++i) inputs.push_back(from_bits(i * 4099u));
  for (std::uint32_t sign : {0u, 0x80000000u}) {
    for (std::uint32_t bits = 0x3e000000u; bits < 0x3f000000u; bits += 31) {
      inputs.push_back(from_bits(sign | bits));
    }
  }
  return inputs;
}

// Runs `map` over `inputs` and counts the outputs that differ from `scalar`,
// reporting the first few.
std::size_t mismatches(FloatMap map, float (*scalar)(float), const std::vector<float>& inputs,
                       const std::string& what) {
  std::vector<float> outputs(inputs.size());
  map(inputs.data(), outputs.data(), inputs.size());
  std::size_t count = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const float expected = scalar(inputs[i]);
    if (same(outputs[i], expected)) continue;
    if (++count <= 5) {
      ADD_FAILURE() << what << " at bits 0x" << std::hex << to_bits(inputs[i]) << ": 0x"
                    << to_bits(outputs[i]) << " vs 0x" << to_bits(expected);
    }
  }
  return count;
}

TEST(ActivationKernels, EveryBodyMatchesLibmBitForBit) {
  const std::vector<float> inputs = port_inputs();
  for (const ActivationBody& body : detail::supported_activation_bodies()) {
    for (const Port& port : kPorts) {
      const FloatMap map = body.*port.map;
      if (map == nullptr) continue;
      const std::string what = std::string(body.isa) + " " + port.name;
      EXPECT_EQ(mismatches(map, port.scalar, inputs, what), 0u) << what;
    }
  }
}

TEST(ActivationKernels, VectorTailsAndInPlaceCallsMatch) {
  // Mixed inputs, special values among them, so each tail lane meets fast
  // and slow paths alike.
  const std::vector<float> pool = port_inputs();
  constexpr float kSentinel = 12345.0f;
  for (const ActivationBody& body : detail::supported_activation_bodies()) {
    for (const Port& port : kPorts) {
      const FloatMap map = body.*port.map;
      if (map == nullptr) continue;
      for (std::size_t n = 0; n <= 67; ++n) {
        const std::vector<float> in(pool.begin() + static_cast<std::ptrdiff_t>(n * 7),
                                    pool.begin() + static_cast<std::ptrdiff_t>(n * 8));
        std::vector<float> out(n + 1, kSentinel);
        map(in.data(), out.data(), n);
        std::vector<float> in_place = in;
        map(in_place.data(), in_place.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          const float expected = port.scalar(in[i]);
          EXPECT_TRUE(same(out[i], expected)) << body.isa << " " << port.name << " n=" << n;
          EXPECT_TRUE(same(in_place[i], expected))
              << body.isa << " " << port.name << " in place, n=" << n;
        }
        EXPECT_EQ(to_bits(out[n]), to_bits(kSentinel)) << "wrote past n=" << n;
      }
    }
  }
}

TEST(ActivationKernels, BodiesFollowTheIsaLevelsAndOnlyBaselineKeepsExpScalar) {
  const std::vector<ActivationBody>& bodies = detail::supported_activation_bodies();
  const std::vector<util::IsaLevel>& levels = util::supported_isa_levels();
  ASSERT_EQ(bodies.size(), levels.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    EXPECT_STREQ(bodies[i].isa, util::isa_name(levels[i]));
    EXPECT_NE(bodies[i].tanh, nullptr);
    EXPECT_NE(bodies[i].expm1, nullptr);
    EXPECT_EQ(bodies[i].exp == nullptr, levels[i] == util::IsaLevel::Baseline) << bodies[i].isa;
  }
  EXPECT_STREQ(bodies.back().isa, "baseline");
}

// apply_activation and apply_activation_gradient over the same inputs, in
// rows longer than the loops' 256-element chunks: the ports' bits reach the
// activations unchanged, and every first-use check passes.
TEST(ActivationKernels, ActivationLoopsMatchTheScalarFormulas) {
  const std::vector<float> inputs = port_inputs();
  linalg::Matrix z(1, inputs.size());
  std::memcpy(z.raw(), inputs.data(), inputs.size() * sizeof(float));
  for (Activation activation : {Activation::Tanh, Activation::Elu, Activation::Sigmoid}) {
    linalg::Matrix y;
    apply_activation(activation, z, y);
    std::size_t count = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      count += same(y.data()[i], activate_scalar(activation, inputs[i])) ? 0 : 1;
    }
    EXPECT_EQ(count, 0u) << to_string(activation);
  }
  linalg::Matrix a;
  apply_activation(Activation::Elu, z, a);
  linalg::Matrix delta(1, inputs.size(), 0.75f);
  apply_activation_gradient(Activation::Elu, z, a, delta);
  std::size_t count = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const float expected = inputs[i] <= 0.0f ? 0.75f * std::exp(inputs[i]) : 0.75f;
    count += same(delta.data()[i], expected) ? 0 : 1;
  }
  EXPECT_EQ(count, 0u) << "elu gradient";
  EXPECT_EQ(util::metrics().gauge("nn.activation_scalar_fallbacks").value(), 0.0);
}

}  // namespace
}  // namespace ecad::nn
