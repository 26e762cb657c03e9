// Per-layer figures of a traced run, shared by the three workloads: span
// self times, exact counts read as deltas over the traced searches, and the
// tracing overhead.  Layers a workload does not exercise report 0.
#pragma once

#include <string>
#include <vector>

#include "harness.h"
#include "spans.h"

namespace searchbench {

struct TracedRun {
  /// Every span of the traced searches, joined into one tree per search.
  std::vector<Span> spans;
  /// Process and registry deltas over the traced searches only.
  WindowTotals window;
  double evaluations = 0.0;  // evaluations of the traced searches
  double generations = 0.0;  // pipeline calls of the traced searches
  /// evals_per_s of the untraced searches the traced ones were paired with.
  double untraced_evals_per_s = 0.0;
  double pool_idle_share = 0.0;
  double infeasible_ratio = 0.0;
  // codesign_har only: micro-measurements of the training step.
  double fwd_gflops = 0.0;
  double dw_gflops = 0.0;
  double forward_share = 0.0;
  double backward_share = 0.0;
  double optimizer_share = 0.0;
  double loss_share = 0.0;
};

/// Fill report.per_layer (the BENCHMARK.json per_layer list, in order),
/// append the per-span self-time table to report.extra, and write the spans
/// (trace ids filled in from their parents) to `span_path`.
void add_per_layer(Report& report, TracedRun& run, const std::string& span_path);

}  // namespace searchbench
