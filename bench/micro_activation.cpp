// Activation microbenchmark: the libm calls behind tanh, ELU and sigmoid
// (nn/activation_kernels.h).  Prints ns per element for the scalar std::
// loop and for every ISA body's vector port of tanh, expm1 and exp, on
// values spread like pre-activations; each body is checked bit for bit
// against the scalar loop before it is timed.
//
//   bench_micro_activation [--quick] [--exhaustive]
//
// `--exhaustive` walks all 2^32 float bit patterns through every body and
// port instead, and counts the outputs whose bits differ from the scalar
// std:: call (a NaN matches any NaN).  The exit status is 1 on any mismatch.
// `--quick` (or ECAD_BENCH_QUICK=1) shortens the timing window.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "nn/activation_kernels.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace ecad;
using nn::detail::ActivationBody;
using nn::detail::FloatMap;

struct Function {
  const char* name;
  float (*scalar)(float);
  FloatMap ActivationBody::*port;
};

const Function kFunctions[] = {
    {"tanh", [](float x) { return std::tanh(x); }, &ActivationBody::tanh},
    {"expm1", [](float x) { return std::expm1(x); }, &ActivationBody::expm1},
    {"exp", [](float x) { return std::exp(x); }, &ActivationBody::exp},
};

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

bool same(float a, float b) {
  return std::memcmp(&a, &b, sizeof a) == 0 || (std::isnan(a) && std::isnan(b));
}

std::size_t count_mismatches(const float* actual, const float* expected, std::size_t n) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) mismatches += same(actual[i], expected[i]) ? 0 : 1;
  return mismatches;
}

/// Best seconds of `fn` over repeats filling `window` seconds (at least 5).
template <typename Fn>
double time_best(const Fn& fn, double window) {
  fn();
  double best = 1e300;
  double total = 0.0;
  for (int reps = 0; total < window || reps < 5; ++reps) {
    util::Stopwatch watch;
    fn();
    const double seconds = watch.elapsed_seconds();
    best = std::min(best, seconds);
    total += seconds;
  }
  return best;
}

int run_timing(const std::vector<ActivationBody>& bodies, bool quick) {
  const double window = quick ? 0.05 : 0.3;
  constexpr std::size_t kElements = 4096;  // one batch-32 × 128 layer
  util::Rng rng(1);
  std::vector<float> in(kElements);
  rng.fill_uniform(in, -8.0, 8.0);
  std::vector<float> expected(kElements);
  std::vector<float> out(kElements);

  std::vector<std::string> header{"Function", "scalar ns/elem"};
  for (const ActivationBody& body : bodies) header.push_back(std::string(body.isa) + " ns/elem");
  util::TextTable table(header);
  int status = 0;
  for (const Function& function : kFunctions) {
    const double scalar_s = time_best(
        [&] {
          for (std::size_t i = 0; i < kElements; ++i) expected[i] = function.scalar(in[i]);
        },
        window);
    std::vector<std::string> row{function.name, util::format_fixed(scalar_s / kElements * 1e9, 2)};
    for (const ActivationBody& body : bodies) {
      const FloatMap port = body.*function.port;
      if (port == nullptr) {
        row.push_back("- (scalar)");
        continue;
      }
      port(in.data(), out.data(), kElements);
      if (count_mismatches(out.data(), expected.data(), kElements) != 0) {
        std::fprintf(stderr, "FATAL: %s body's %s differs from std::%s\n", body.isa,
                     function.name, function.name);
        status = 1;
      }
      const double port_s = time_best([&] { port(in.data(), out.data(), kElements); }, window);
      row.push_back(util::format_fixed(port_s / kElements * 1e9, 2) + " (" +
                    util::format_fixed(scalar_s / port_s, 1) + "x)");
    }
    table.add_row(row);
  }
  table.print(std::cout, std::string("micro_activation: libm ports, ") +
                             std::to_string(kElements) + " values in [-8, 8)" +
                             (quick ? " (--quick)" : ""));
  return status;
}

int run_exhaustive(const std::vector<ActivationBody>& bodies) {
  constexpr std::uint64_t kInputs = std::uint64_t{1} << 32;
  constexpr std::size_t kBlock = std::size_t{1} << 16;
  constexpr std::size_t kBlocks = kInputs / kBlock;
  const std::size_t threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  constexpr std::size_t kFunctionCount = sizeof(kFunctions) / sizeof(kFunctions[0]);
  // mismatches[function * bodies + body]
  std::vector<std::atomic<std::uint64_t>> mismatches(kFunctionCount * bodies.size());
  std::atomic<std::size_t> next_block{0};
  util::Stopwatch watch;
  util::ThreadPool pool(threads);
  pool.parallel_for(threads, [&](std::size_t) {
    std::vector<float> in(kBlock);
    std::vector<float> expected(kBlock);
    std::vector<float> out(kBlock);
    for (std::size_t block = next_block++; block < kBlocks; block = next_block++) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        const auto bits = static_cast<std::uint32_t>(block * kBlock + i);
        std::memcpy(&in[i], &bits, sizeof bits);
      }
      for (std::size_t f = 0; f < kFunctionCount; ++f) {
        for (std::size_t i = 0; i < kBlock; ++i) expected[i] = kFunctions[f].scalar(in[i]);
        for (std::size_t b = 0; b < bodies.size(); ++b) {
          const FloatMap port = bodies[b].*kFunctions[f].port;
          if (port == nullptr) continue;
          port(in.data(), out.data(), kBlock);
          mismatches[f * bodies.size() + b] +=
              count_mismatches(out.data(), expected.data(), kBlock);
        }
      }
    }
  });

  util::TextTable table({"Function", "Body", "Inputs", "Mismatches"});
  int status = 0;
  for (std::size_t f = 0; f < kFunctionCount; ++f) {
    for (std::size_t b = 0; b < bodies.size(); ++b) {
      const bool ported = bodies[b].*kFunctions[f].port != nullptr;
      const std::uint64_t count = mismatches[f * bodies.size() + b];
      if (count != 0) status = 1;
      table.add_row({kFunctions[f].name, bodies[b].isa, ported ? "2^32" : "- (scalar)",
                     ported ? std::to_string(count) : "-"});
    }
  }
  table.print(std::cout, "micro_activation --exhaustive: every float through every port, " +
                             util::format_fixed(watch.elapsed_seconds(), 1) + " s on " +
                             std::to_string(threads) + " threads");
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  const char* env = std::getenv("ECAD_BENCH_QUICK");
  const bool quick =
      has_flag(argc, argv, "--quick") || (env != nullptr && std::strcmp(env, "1") == 0);
  const std::vector<ActivationBody>& bodies = nn::detail::supported_activation_bodies();
  if (has_flag(argc, argv, "--exhaustive")) return run_exhaustive(bodies);
  return run_timing(bodies, quick);
}
