#include "layers.h"

#include <map>

namespace searchbench {

void add_per_layer(Report& report, TracedRun& run, const std::string& span_path) {
  const std::vector<SpanTotals> totals = self_times(run.spans);
  std::map<std::string, SpanTotals> by_name;
  for (const SpanTotals& entry : totals) by_name[entry.name] = entry;
  const auto self_seconds = [&by_name](const std::string& name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.self_seconds;
  };
  const auto count = [&by_name](const std::string& name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? std::size_t{0} : it->second.count;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const WindowTotals& w = run.window;
  const std::size_t evals = static_cast<std::size_t>(run.evaluations);
  const std::size_t gens = static_cast<std::size_t>(run.generations);
  // Shares are of all attributed time: the sum of every span's self time,
  // which counts concurrent threads (pool, daemon) once each.
  double attributed_seconds = 0.0;
  for (const SpanTotals& entry : totals) attributed_seconds += entry.self_seconds;
  const double hits = w.counter("net.fleet_cache_hits_total");
  const double misses = w.counter("net.fleet_cache_misses_total");

  std::vector<Metric>& out = report.per_layer;
  out.push_back({"evo.self_us_per_eval", ratio(self_seconds("generation"), run.evaluations) * 1e6,
                 "us", evals, "generation self time (breed, fold, dedup) per evaluation"});
  out.push_back({"evo.dup_attempt_ratio",
                 ratio(w.counter("evo.cache_hits_total"), w.counter("evo.cache_lookups_total")),
                 "ratio", static_cast<std::size_t>(w.counter("evo.cache_lookups_total")),
                 "evo.cache_hits_total / evo.cache_lookups_total"});
  out.push_back({"core.pipeline_us_per_gen",
                 ratio(self_seconds("pipeline"), static_cast<double>(count("pipeline"))) * 1e6, "us",
                 count("pipeline"), "pipeline self time (outside lookup, dispatch, store)"});
  out.push_back({"core.dedup_collapsed", w.counter("core.dedup_collapsed_total"), "count", 0,
                 "core.dedup_collapsed_total delta"});
  out.push_back({"pool.idle_share", run.pool_idle_share, "share", evals,
                 "1 - sum eval_seconds / (threads x wall)"});
  out.push_back({"hw.infeasible_ratio", run.infeasible_ratio, "ratio", evals,
                 "GridConfig::fits false over the history"});
  out.push_back({"net.tcp_connects_per_gen",
                 ratio(static_cast<double>(w.tcp_active_opens()), run.generations), "count", gens,
                 "/proc/net/snmp Tcp ActiveOpens delta per generation"});
  out.push_back({"net.lo_bytes_per_eval", ratio(static_cast<double>(w.lo_bytes()), run.evaluations),
                 "bytes", evals, "/proc/net/dev lo receive bytes delta per evaluation"});
  out.push_back({"net.cache_hit_ratio", ratio(hits, hits + misses), "ratio",
                 static_cast<std::size_t>(hits + misses),
                 "net.fleet_cache_hits / (hits + misses)"});
  out.push_back({"net.shards_per_gen", ratio(w.counter("net.shard_items"), run.generations),
                 "count", gens, "net.shard_items observations per generation"});
  out.push_back({"net.requeued_items", w.counter("net.requeued_items_total"), "count", 0,
                 "net.requeued_items_total delta"});
  out.push_back({"linalg.fwd_gflops", run.fwd_gflops, "GFLOP/s", 0,
                 "gemm_prepacked on the run's batch-32 forward shapes"});
  out.push_back({"linalg.dw_gflops", run.dw_gflops, "GFLOP/s", 0,
                 "gemm_at on the run's dW shapes (K = 32)"});
  out.push_back({"nn.step.forward_share", run.forward_share, "share", 0, "Mlp::forward_cached"});
  out.push_back({"nn.step.backward_share", run.backward_share, "share", 0, "Mlp::backward"});
  out.push_back({"nn.step.optimizer_share", run.optimizer_share, "share", 0, "Optimizer::step"});
  out.push_back({"nn.step.loss_share", run.loss_share, "share", 0, "cross_entropy_loss_grad"});
  out.push_back({"trace.overhead_evals_per_s",
                 ratio(run.evaluations, w.wall_seconds()) - run.untraced_evals_per_s, "1/s", evals,
                 "traced minus untraced evals_per_s over paired searches"});
  for (const char* span : {"search", "generation", "pipeline", "cache.lookup", "dispatch",
                           "cache.store", "worker.eval", "nn.train", "nn.validate", "hw.model"}) {
    out.push_back({std::string("self_share.") + span,
                   ratio(self_seconds(span), attributed_seconds), "share", count(span),
                   std::string("self time of ") + span + " spans over all attributed time"});
  }

  for (const SpanTotals& entry : totals) {
    report.extra.push_back({"span." + entry.name + ".self_ms", entry.self_seconds * 1e3, "ms",
                            entry.count,
                            "total " + std::to_string(entry.total_seconds * 1e3) + " ms"});
  }
  report.extra.push_back({"count.tcp_active_opens", static_cast<double>(w.tcp_active_opens()),
                          "count", gens, "traced searches; samples = generations"});
  report.extra.push_back({"count.fleet_cache_hits", hits, "count", 0, ""});
  report.extra.push_back({"count.fleet_cache_misses", misses, "count", 0, ""});
  inherit_trace_ids(run.spans);
  write_spans(span_path, run.spans);
}

}  // namespace searchbench
