// fleet_cold: Master::search over a RemoteWorker to the two loopback
// daemons.  Evaluation costs microseconds, so the work is dispatch, the
// wire, the cache write path and evo.  Every search gets its own cache
// namespace (eval-config identity), so every lookup misses by construction.
#include <memory>

#include "core/master.h"
#include "fleet.h"
#include "hwmodel/device.h"
#include "layers.h"
#include "probes.h"
#include "spans.h"
#include "workloads.h"

namespace searchbench {

using namespace ecad;

Report run_fleet_cold(const Options& options) {
  Report report;
  const std::size_t budget = options.tiny ? 200 : 8000;
  // Searches cycle over this many seeds; each still gets a fresh namespace.
  constexpr std::size_t kSeeds = 8;

  // Set up once per search seed: daemons up, master connected and
  // handshaken, and that seed's in-process record computed on a bare
  // analytic worker (the reference every search of the seed must
  // reproduce).  Bringing the fleet up takes milliseconds and moves with
  // the machine's wake-up latency; the reference search is steady work.
  EndToEnd figures;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<net::RemoteWorker> first_master;
  const core::Master master;
  tools::AnalyticWorker bare;
  std::vector<core::SearchRequest> requests;
  std::vector<evo::EvolutionResult> references;
  for (std::size_t k = 0; k < kSeeds; ++k) {
    first_master.reset();
    fleet.reset();
    const Clock::time_point start = Clock::now();
    fleet = std::make_unique<Fleet>(options.trace);
    first_master = connect_master(*fleet, analytic_cache_config(1));
    requests.push_back(search_request(derive_seed(options.seed, 2, k), budget));
    references.push_back(master.search(bare, requests.back()));
    figures.setup_seconds.push_back(seconds_between(start, Clock::now()));
    if (options.sabotage) sabotage(references.back());
  }

  const MachineSample machine_before = sample_machine();
  WindowTotals plain;
  WindowTotals traced;
  double traced_evals = 0.0;
  double traced_gens = 0.0;
  double traced_eval_seconds = 0.0;
  std::size_t traced_infeasible = 0;
  double plain_gens = 0.0;
  double plain_evals = 0.0;
  std::vector<evo::Candidate> codec_sample;
  std::uint64_t namespace_id = 1;
  // The timed phase is the searches themselves; connecting each search's
  // master happens between the windows.
  for (std::size_t i = 0; i == 0 || plain.wall_seconds() + traced.wall_seconds() < options.seconds;
       ++i) {
    const core::SearchRequest& request = requests[i % kSeeds];
    const evo::EvolutionResult& reference = references[i % kSeeds];
    const auto run_one = [&](bool trace) {
      std::unique_ptr<net::RemoteWorker> remote =
          first_master ? std::move(first_master)
                       : connect_master(*fleet, analytic_cache_config(namespace_id));
      ++namespace_id;
      ProbeWorker probe(*remote, /*local_fanout=*/false);
      WindowTotals& window = trace ? traced : plain;
      report.attempted += budget;
      try {
        tracer().set_enabled(trace);
        const std::uint64_t span_id = tracer().new_id();
        probe.begin_search(i + 1, span_id);
        const double wall_before = window.wall_seconds();
        const double cpu_before = window.cpu_seconds();
        window.begin();
        Span span;
        span.name = "search";
        span.id = span_id;
        span.search = i + 1;
        span.start = Clock::now();
        evo::EvolutionResult result = master.search(probe, request);
        span.end = Clock::now();
        window.end();
        const std::vector<Clock::time_point> entries = probe.end_search(span.end);
        Round round;
        round.wall_seconds = window.wall_seconds() - wall_before;
        round.cpu_seconds = window.cpu_seconds() - cpu_before;
        tracer().set_enabled(false);
        if (trace) {
          tracer().record(std::move(span));
          traced_evals += static_cast<double>(result.history.size());
          traced_gens += static_cast<double>(entries.size());
          for (const evo::Candidate& candidate : result.history) {
            traced_eval_seconds += candidate.result.eval_seconds;
            if (!candidate.genome.grid.fits(hw::arria10_gx1150())) ++traced_infeasible;
          }
          if (codec_sample.empty()) codec_sample = result.history;
        } else {
          for (std::size_t g = 1; g < entries.size(); ++g) {
            round.latency_ms.push_back(seconds_between(entries[g - 1], entries[g]) * 1e3);
          }
          round.evaluations = static_cast<double>(result.history.size());
          plain_evals += round.evaluations;
          figures.rounds.push_back(std::move(round));
          plain_gens += static_cast<double>(entries.size());
        }
        // The record must equal the same seed searched in-process on a bare
        // analytic worker.
        const std::string mismatch = record_mismatch(view_of(result), view_of(reference));
        if (!mismatch.empty()) {
          report.fail("search " + std::to_string(i) + " (seed " + std::to_string(request.seed) +
                          ") differs from the in-process record: " + mismatch,
                      budget);
        }
      } catch (const std::exception& e) {
        tracer().set_enabled(false);
        report.fail("search " + std::to_string(i) + " failed: " + e.what(), budget);
      }
    };
    if (!options.trace) {
      run_one(false);
    } else {
      run_one(i % 2 == 1);
      run_one(i % 2 == 0);
    }
  }
  const MachineSample machine_after = sample_machine();

  figures.by_round = true;
  figures.latency_note = "gen_ms: generation round trip, one pipeline entry to the next";
  add_end_to_end(report, figures);
  add_machine_diagnostics(report, machine_before, machine_after);
  report.extra.push_back({"count.tcp_connects_per_gen",
                          plain_gens > 0 ? static_cast<double>(plain.tcp_active_opens()) / plain_gens : 0.0,
                          "count", static_cast<std::size_t>(plain_gens),
                          "ActiveOpens delta over the untraced searches / generations"});
  report.extra.push_back({"count.fleet_cache_hits", plain.counter("net.fleet_cache_hits_total"),
                          "count", 0, "untraced searches"});
  report.extra.push_back({"count.fleet_cache_misses", plain.counter("net.fleet_cache_misses_total"),
                          "count", 0, "untraced searches"});
  if (!options.trace) return report;

  TracedRun run;
  run.spans = tracer().take();
  const std::size_t unjoined = join_by_key(run.spans, "worker.eval", {"dispatch"});
  if (unjoined > 0) {
    report.extra.push_back({"spans.unjoined_worker_eval", static_cast<double>(unjoined), "count", 0,
                            "daemon-side spans with no dispatch holding their key"});
  }
  run.window = traced;
  run.evaluations = traced_evals;
  run.generations = traced_gens;
  run.untraced_evals_per_s = plain_evals / plain.wall_seconds();
  run.pool_idle_share = 1.0 - traced_eval_seconds / (2.0 * traced.wall_seconds());
  run.infeasible_ratio = traced_evals > 0 ? static_cast<double>(traced_infeasible) / traced_evals : 0.0;

  const std::vector<double> dispatch_ms = durations_ms(run.spans, "dispatch");
  const std::vector<double> eval_ms = durations_ms(run.spans, "worker.eval");
  const std::vector<double> lookup_ms = durations_ms(run.spans, "cache.lookup");
  const std::vector<double> store_ms = durations_ms(run.spans, "cache.store");
  double dispatch_sum = 0.0;
  for (const double ms : dispatch_ms) dispatch_sum += ms;
  double eval_sum = 0.0;
  for (const double ms : eval_ms) eval_sum += ms;
  report.extra.push_back({"net.dispatch_ms_p50", quantile(dispatch_ms, 0.5), "ms",
                          dispatch_ms.size(), "RemoteWorker::evaluate_batch per generation"});
  report.extra.push_back({"net.dispatch_ms_p90", quantile(dispatch_ms, 0.9), "ms",
                          dispatch_ms.size(), "RemoteWorker::evaluate_batch per generation"});
  report.extra.push_back({"net.overhead_us_per_eval",
                          traced_evals > 0 ? (dispatch_sum - eval_sum) / traced_evals * 1e3 : 0.0,
                          "us", static_cast<std::size_t>(traced_evals),
                          "dispatch time minus daemon-side Worker::evaluate time, per eval"});
  report.extra.push_back({"net.cache_lookup_ms_p50", quantile(lookup_ms, 0.5), "ms",
                          lookup_ms.size(), "FleetEvalCache::fleet_lookup"});
  report.extra.push_back({"net.cache_store_ms_p50", quantile(store_ms, 0.5), "ms",
                          store_ms.size(), "FleetEvalCache::fleet_store"});
  const CodecTimes codecs = time_codecs(codec_sample, analytic_cache_config(1));
  report.extra.push_back({"net.encode_us_per_eval", codecs.encode_us_per_eval, "us",
                          codecs.evaluations, "write_* codecs on one traced search's traffic"});
  report.extra.push_back({"net.decode_us_per_eval", codecs.decode_us_per_eval, "us",
                          codecs.evaluations, "read_* codecs on one traced search's traffic"});
  add_per_layer(report, run, options.out_dir + "/fleet_cold.spans.jsonl");
  return report;
}

}  // namespace searchbench
