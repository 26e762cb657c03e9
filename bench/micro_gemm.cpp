// GEMM microbenchmark — the kernels backing MLP training, the dominant cost
// of every ECAD candidate evaluation (paper Table III).
//
// Self-contained harness (no external benchmark dependency): each kernel ×
// shape is spot-checked against the gemm_naive oracle, timed (best-of-N
// with a minimum total measuring window; a naive product longer than the
// window is timed once, as the oracle), printed as a table, and emitted to
// BENCH_micro_gemm.json via util::BenchReport so CI can archive the perf
// trajectory. `--quick` (or ECAD_BENCH_QUICK=1) shrinks shapes and windows.
// The report's `gemm_isa` metadata names the kernel body that ran.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "linalg/gemm.h"
#include "util/bench_json.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace ecad;

linalg::Matrix make(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  return linalg::Matrix::random_uniform(rows, cols, rng);
}

bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  const char* env = std::getenv("ECAD_BENCH_QUICK");
  return env != nullptr && std::strcmp(env, "1") == 0;
}

/// Best single-run seconds: warm up once, then repeat until `min_window`
/// seconds have accumulated (at least 3, at most `max_reps` runs).
double time_best(const std::function<void()>& fn, double min_window, int max_reps = 60) {
  fn();  // warmup
  double best = 1e300;
  double total = 0.0;
  int reps = 0;
  while ((total < min_window || reps < 3) && reps < max_reps) {
    util::Stopwatch sw;
    fn();
    const double t = sw.elapsed_seconds();
    best = std::min(best, t);
    total += t;
    ++reps;
  }
  return best;
}

struct Shape {
  std::size_t m, k, n;
  std::string str() const {
    return std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
  }
  double flops() const { return static_cast<double>(linalg::gemm_flops(m, k, n)); }
};

struct Row {
  std::string kernel;
  Shape shape;
  std::size_t threads = 1;
  double seconds = 0.0;
  double gflops = 0.0;
  double vs_naive = 0.0;  // 0 when the naive baseline was not measured
};

/// `naive_s` of 0 means the naive baseline was not measured.
Row make_row(const std::string& kernel, const Shape& shape, std::size_t threads, double seconds,
             double naive_s) {
  Row row;
  row.kernel = kernel;
  row.shape = shape;
  row.threads = threads;
  row.seconds = seconds;
  row.gflops = shape.flops() / seconds / 1e9;
  row.vs_naive = naive_s > 0.0 ? naive_s / seconds : 0.0;
  return row;
}

void verify(const linalg::Matrix& actual, const linalg::Matrix& expected,
            const std::string& what) {
  if (!actual.approx_equal(expected, 1e-2f)) {
    std::fprintf(stderr, "FATAL: %s diverges from the gemm_naive oracle\n", what.c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode(argc, argv);
  const double window = quick ? 0.1 : 0.35;

  std::vector<Shape> squares;
  for (std::size_t n : {64ul, 128ul, 256ul, 512ul, 1024ul}) {
    if (quick && n > 256) continue;
    squares.push_back({n, n, n});
  }
  // MLP-shaped products: batch × features -> batch × neurons.
  std::vector<Shape> mlp_shapes = {{32, 784, 128}, {32, 561, 64}, {32, 1776, 128}};

  std::vector<Row> rows;
  util::ThreadPool pool2(2), pool4(4);

  const auto run_shape = [&](const Shape& s, bool square) {
    const linalg::Matrix a = make(s.m, s.k, 1), b = make(s.k, s.n, 2);
    linalg::Matrix c(s.m, s.n), oracle(s.m, s.n);
    util::Stopwatch oracle_watch;
    linalg::gemm_naive(a, b, oracle);
    const double oracle_s = oracle_watch.elapsed_seconds();

    const auto add_row = [&](const std::string& kernel, std::size_t threads, double seconds,
                             double naive_s) {
      rows.push_back(make_row(kernel, s, threads, seconds, naive_s));
    };

    // A naive product that alone outlasts the window is its own figure:
    // time_best would repeat it at least four more times to report the same.
    const double naive_s = oracle_s >= window
                               ? oracle_s
                               : time_best([&] { linalg::gemm_naive(a, b, c); }, window, 12);
    const double packed_s = time_best([&] { linalg::gemm_blocked(a, b, c); }, window);
    verify(c, oracle, "gemm_packed " + s.str());

    add_row("naive", 1, naive_s, naive_s);
    add_row("packed", 1, packed_s, naive_s);

    linalg::PackedB packed_b;
    packed_b.pack(b);
    const double prepacked_s =
        time_best([&] { linalg::gemm_prepacked(a, packed_b, c); }, window);
    verify(c, oracle, "gemm_prepacked " + s.str());
    add_row("packed_prepacked", 1, prepacked_s, naive_s);

    if (square && s.m >= 256) {
      const double par2_s =
          time_best([&] { linalg::gemm_parallel(a, b, c, pool2); }, window);
      verify(c, oracle, "gemm_parallel(t2) " + s.str());
      add_row("packed_parallel", 2, par2_s, naive_s);
      const double par4_s =
          time_best([&] { linalg::gemm_parallel(a, b, c, pool4); }, window);
      verify(c, oracle, "gemm_parallel(t4) " + s.str());
      add_row("packed_parallel", 4, par4_s, naive_s);
    }

    if (square) {
      // Transposed products (backprop's dW = aᵀ·δ and δ·Wᵀ) via strided
      // packing.
      linalg::Matrix ct(s.m, s.n);
      const double at_s = time_best([&] { linalg::gemm_at(a, b, ct); }, window);
      const double bt_s = time_best([&] { linalg::gemm_bt(a, b, ct); }, window);
      add_row("at_packed", 1, at_s, 0.0);
      add_row("bt_packed", 1, bt_s, 0.0);
    }
  };

  for (const Shape& s : squares) run_shape(s, /*square=*/true);
  for (const Shape& s : mlp_shapes) run_shape(s, /*square=*/false);

  // One training step's products at batch 32 on a 561-512-... HAR network:
  // the forward pass over packed W, the dW = aᵀ·δ product (K = the batch),
  // and δ·Wᵀ over a transposed pack of W.
  {
    const std::size_t batch = 32, in = 561, out = 512;
    const linalg::Matrix x = make(batch, in, 3), w = make(in, out, 4);
    const linalg::Matrix delta = make(batch, out, 5), w2 = make(out, out, 6);
    linalg::PackedB packed_w, packed_w2t;
    packed_w.pack(w);
    packed_w2t.pack(w2, /*transpose=*/true);
    linalg::Matrix y(batch, out), dw(in, out), back(batch, out);
    linalg::Matrix y_ref(batch, out), dw_ref(in, out), back_ref(batch, out);
    linalg::gemm_naive(x, w, y_ref);
    linalg::gemm_naive(x.transposed(), delta, dw_ref);
    linalg::gemm_naive(delta, w2.transposed(), back_ref);
    const double fwd_s = time_best([&] { linalg::gemm_prepacked(x, packed_w, y); }, window);
    verify(y, y_ref, "train forward gemm_prepacked");
    rows.push_back(make_row("train_forward_prepacked", {batch, in, out}, 1, fwd_s, 0.0));
    const double dw_s = time_best([&] { linalg::gemm_at(x, delta, dw); }, window);
    verify(dw, dw_ref, "train dW gemm_at");
    rows.push_back(make_row("train_dw_at", {in, batch, out}, 1, dw_s, 0.0));
    const double back_s =
        time_best([&] { linalg::gemm_prepacked(delta, packed_w2t, back); }, window);
    verify(back, back_ref, "train delta gemm_prepacked(transposed pack)");
    rows.push_back(make_row("train_delta_prepacked_t", {batch, out, out}, 1, back_s, 0.0));
  }

  // ---- human-readable table -------------------------------------------------
  util::TextTable table({"Kernel", "Shape (m=k=n or mxkxn)", "Threads", "GFLOP/s", "vs naive"});
  for (const Row& row : rows) {
    table.add_row({row.kernel, row.shape.str(), std::to_string(row.threads),
                   util::format_fixed(row.gflops, 2),
                   row.vs_naive > 0.0 ? util::format_fixed(row.vs_naive, 2) + "x" : "-"});
  }
  table.print(std::cout, std::string("micro_gemm: GEMM kernel throughput, ") +
                             linalg::detail::active_gemm_body().isa + " body" +
                             (quick ? " (--quick)" : ""));

  // ---- machine-readable report ---------------------------------------------
  util::BenchReport report("micro_gemm");
  report.set_metadata("quick", quick ? "1" : "0");
  report.set_metadata("hardware_concurrency",
                      std::to_string(std::thread::hardware_concurrency()));
  // The x86-64 level of the kernel body the resolver picked: GFLOP/s
  // ratios between files measured on different levels compare different
  // kernels (scripts/check_bench_regression.py names both).
  report.set_metadata("gemm_isa", linalg::detail::active_gemm_body().isa);
  for (const Row& row : rows) {
    util::BenchEntry& entry =
        report.add_entry(row.kernel + "/" + row.shape.str() + "/t" +
                         std::to_string(row.threads));
    entry.label("kernel", row.kernel)
        .label("shape", row.shape.str())
        .label("threads", std::to_string(row.threads));
    entry.metric("m", static_cast<double>(row.shape.m))
        .metric("k", static_cast<double>(row.shape.k))
        .metric("n", static_cast<double>(row.shape.n))
        .metric("best_seconds", row.seconds)
        .metric("gflops", row.gflops);
    if (row.vs_naive > 0.0) entry.metric("speedup_vs_naive", row.vs_naive);
  }
  try {
    const std::string path = report.write_file();
    std::printf("\nwrote %s (%zu entries)\n", path.c_str(), report.num_entries());
  } catch (const std::exception& error) {
    // A read-only working directory shouldn't discard the measurements that
    // were already printed above.
    std::fprintf(stderr, "\nWARNING: JSON report not written: %s\n", error.what());
  }

  return 0;
}
