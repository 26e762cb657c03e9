// codesign_har: Master::search in-process over the hardware-database worker
// (Arria 10 GX1150) training on the half-scale HAR surrogate.  Training is
// almost all of the work, so this is where nn and linalg changes show.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>

#include "core/master.h"
#include "core/worker.h"
#include "data/benchmarks.h"
#include "hwmodel/device.h"
#include "linalg/gemm.h"
#include "linalg/gemm_packed.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "layers.h"
#include "probes.h"
#include "spans.h"
#include "util/rng.h"
#include "workloads.h"

namespace searchbench {

using namespace ecad;

namespace {

constexpr double kHarScale = 0.5;

nn::TrainOptions train_options() {
  nn::TrainOptions options;
  options.epochs = 4;
  return options;
}

struct HarSetup {
  std::unique_ptr<data::TrainTestSplit> split;
  std::unique_ptr<core::FpgaHardwareDatabaseWorker> worker;
  double load_seconds = 0.0;
  double setup_seconds = 0.0;
};

HarSetup set_up(std::uint64_t data_seed, std::uint64_t eval_seed) {
  HarSetup setup;
  const Clock::time_point start = Clock::now();
  setup.split = std::make_unique<data::TrainTestSplit>(
      data::load_benchmark_split(data::Benchmark::Har, kHarScale, data_seed));
  const Clock::time_point loaded = Clock::now();
  setup.worker = std::make_unique<core::FpgaHardwareDatabaseWorker>(
      *setup.split, train_options(), eval_seed, hw::arria10_gx1150());
  setup.load_seconds = seconds_between(start, loaded);
  setup.setup_seconds = seconds_between(start, Clock::now());
  return setup;
}

// One training epoch of `genome` replayed through the public nn calls the
// trainer makes per minibatch, each timed separately.
struct StepTimes {
  double gather = 0.0;
  double forward = 0.0;
  double loss = 0.0;
  double backward = 0.0;
  double optimizer = 0.0;
  std::size_t steps = 0;
  double total() const { return gather + forward + loss + backward + optimizer; }
};

void replay_epoch(const evo::Genome& genome, const data::TrainTestSplit& split,
                  std::uint64_t eval_seed, StepTimes& times) {
  const data::Dataset& train = split.train;
  const nn::MlpSpec spec = genome.nna.to_mlp_spec(train.num_features(), train.num_classes);
  util::Rng rng(eval_seed ^ std::hash<std::string>{}(genome.key()));
  nn::Mlp mlp(spec, rng);
  const nn::TrainOptions options = train_options();
  const std::size_t layers = mlp.num_layers();
  auto optimizer = nn::make_optimizer(options.optimizer, layers * 2);
  std::vector<std::size_t> order(train.num_samples());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);

  linalg::Matrix batch_x;
  std::vector<int> batch_y;
  nn::Mlp::ForwardCache cache;
  linalg::Matrix logit_grad;
  std::vector<linalg::Matrix> grad_w;
  std::vector<linalg::Matrix> grad_b;
  for (std::size_t begin = 0; begin < order.size(); begin += options.batch_size) {
    const std::size_t end = std::min(begin + options.batch_size, order.size());
    const Clock::time_point t0 = Clock::now();
    if (batch_x.rows() != end - begin) batch_x.reshape_discard(end - begin, train.num_features());
    batch_y.resize(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      const auto row = train.features.row(order[i]);
      std::copy(row.begin(), row.end(), batch_x.row(i - begin).begin());
      batch_y[i - begin] = train.labels[order[i]];
    }
    const Clock::time_point t1 = Clock::now();
    const linalg::Matrix& logits = mlp.forward_cached(batch_x, cache);
    const Clock::time_point t2 = Clock::now();
    nn::cross_entropy_loss_grad(logits, batch_y, logit_grad);
    const Clock::time_point t3 = Clock::now();
    mlp.backward(batch_x, cache, logit_grad, grad_w, grad_b);
    const Clock::time_point t4 = Clock::now();
    for (std::size_t l = 0; l < layers; ++l) {
      optimizer->step(l * 2, mlp.weights(l).data(), grad_w[l].data(), /*decay=*/true);
      if (spec.use_bias) {
        optimizer->step(l * 2 + 1, mlp.bias(l).data(), grad_b[l].data(), /*decay=*/false);
      }
    }
    optimizer->advance();
    const Clock::time_point t5 = Clock::now();
    times.gather += seconds_between(t0, t1);
    times.forward += seconds_between(t1, t2);
    times.loss += seconds_between(t2, t3);
    times.backward += seconds_between(t3, t4);
    times.optimizer += seconds_between(t4, t5);
    ++times.steps;
  }
}

// GFLOP/s of gemm_prepacked on the batch-32 forward shapes and of gemm_at on
// the dW shapes (K = 32) of `genome`'s layers.
struct GemmRates {
  double forward_flops = 0.0;
  double forward_seconds = 0.0;
  double dw_flops = 0.0;
  double dw_seconds = 0.0;
};

void time_gemms(const evo::Genome& genome, std::size_t input_dim, std::size_t classes,
                GemmRates& rates) {
  const std::vector<std::size_t> dims = genome.nna.to_mlp_spec(input_dim, classes).layer_dims();
  util::Rng rng(7);
  const auto random_matrix = [&rng](std::size_t rows, std::size_t cols) {
    linalg::Matrix m(rows, cols);
    for (float& v : m.data()) v = static_cast<float>(rng.next_double()) - 0.5f;
    return m;
  };
  constexpr std::size_t kBatch = 32;
  constexpr double kMinSeconds = 0.004;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const double flops = 2.0 * kBatch * static_cast<double>(dims[l] * dims[l + 1]);
    const linalg::Matrix a = random_matrix(kBatch, dims[l]);
    const linalg::Matrix w = random_matrix(dims[l], dims[l + 1]);
    const linalg::Matrix delta = random_matrix(kBatch, dims[l + 1]);
    linalg::PackedB packed;
    packed.pack(w);
    linalg::Matrix y(kBatch, dims[l + 1]);
    linalg::Matrix dw(dims[l], dims[l + 1]);
    for (const bool forward : {true, false}) {
      std::size_t reps = 0;
      const Clock::time_point start = Clock::now();
      double elapsed = 0.0;
      while (elapsed < kMinSeconds) {
        if (forward) {
          linalg::gemm_prepacked(a, packed, y);
        } else {
          linalg::gemm_at(a, delta, dw);
        }
        ++reps;
        elapsed = seconds_between(start, Clock::now());
      }
      (forward ? rates.forward_flops : rates.dw_flops) += flops * static_cast<double>(reps);
      (forward ? rates.forward_seconds : rates.dw_seconds) += elapsed;
    }
  }
}

}  // namespace

Report run_codesign_har(const Options& options) {
  Report report;
  // The workload seed draws the HAR surrogate and the per-genome training
  // seeds.  The search seeds are a fixed list: architecture size moves the
  // cost of one evaluation a hundredfold, and a run of a few hundred
  // evaluations drawn afresh per seed would move cpu_ms_per_eval by a
  // quarter, so every run starts from the same initial populations.
  const std::uint64_t data_seed = derive_seed(options.seed, 10, 0);
  const std::uint64_t eval_seed = derive_seed(options.seed, 11, 0);
  const std::size_t budget = options.tiny ? 20 : 32;
  // Fixed work: one 32-evaluation search per two requested seconds (a
  // search takes about that long on a 4-core machine), so both sides of a
  // comparison train exactly the same searches.
  const std::size_t searches =
      options.tiny ? 2 : static_cast<std::size_t>(std::ceil(options.seconds / 2.0));

  // Set up three times (dataset + worker); the median is setup_s.
  EndToEnd figures;
  std::vector<double> load_seconds;
  HarSetup har;
  for (int k = 0; k < 3; ++k) {
    har = set_up(data_seed, eval_seed);
    figures.setup_seconds.push_back(har.setup_seconds);
    load_seconds.push_back(har.load_seconds);
  }
  const std::size_t features = har.split->train.num_features();
  const std::size_t classes = har.split->train.num_classes;

  std::unique_ptr<ReplicaHwdbWorker> replica;
  std::unique_ptr<EvalSpanWorker> eval_spans;
  std::unique_ptr<ProbeWorker> probe;
  if (options.trace) {
    replica = std::make_unique<ReplicaHwdbWorker>(*har.split, train_options(), eval_seed,
                                                  hw::arria10_gx1150());
    eval_spans = std::make_unique<EvalSpanWorker>(*replica);
    probe = std::make_unique<ProbeWorker>(*eval_spans, /*local_fanout=*/true);
  }

  const MachineSample machine_before = sample_machine();
  const core::Master master;
  std::vector<evo::EvolutionResult> results;  // untraced searches, in order
  std::vector<evo::EvolutionResult> traced_results;
  WindowTotals plain;
  WindowTotals traced;
  for (std::size_t i = 0; i < searches; ++i) {
    const core::SearchRequest request = search_request(i + 1, budget);
    report.attempted += budget;
    Round round;
    const auto run_plain = [&] {
      const double wall = plain.wall_seconds();
      const double cpu = plain.cpu_seconds();
      plain.begin();
      evo::EvolutionResult result = master.search(*har.worker, request);
      plain.end();
      round.wall_seconds = plain.wall_seconds() - wall;
      round.cpu_seconds = plain.cpu_seconds() - cpu;
      return result;
    };
    const auto run_traced = [&] {
      tracer().set_enabled(true);
      const std::uint64_t span_id = tracer().new_id();
      probe->begin_search(i + 1, span_id);
      traced.begin();
      Span span;
      span.name = "search";
      span.id = span_id;
      span.search = i + 1;
      span.start = Clock::now();
      evo::EvolutionResult result = master.search(*probe, request);
      span.end = Clock::now();
      traced.end();
      probe->end_search(span.end);
      tracer().set_enabled(false);
      tracer().record(std::move(span));
      return result;
    };
    try {
      // Traced runs alternate which side of a pair goes first.
      const bool traced_first = options.trace && i % 2 == 1;
      std::unique_ptr<evo::EvolutionResult> traced_result;
      if (traced_first) traced_result = std::make_unique<evo::EvolutionResult>(run_traced());
      evo::EvolutionResult result = run_plain();
      if (options.trace && !traced_first) {
        traced_result = std::make_unique<evo::EvolutionResult>(run_traced());
      }
      if (traced_result) {
        // The replica must reproduce the real worker on every candidate.
        const std::string mismatch = record_mismatch(view_of(*traced_result), view_of(result));
        if (!mismatch.empty()) {
          report.fail("search " + std::to_string(i) + ": traced replica differs: " + mismatch,
                      budget);
        }
        traced_results.push_back(std::move(*traced_result));
      }
      for (const evo::Candidate& candidate : result.history) {
        round.latency_ms.push_back(candidate.result.eval_seconds * 1e3);
      }
      round.evaluations = static_cast<double>(result.history.size());
      figures.rounds.push_back(std::move(round));
      results.push_back(std::move(result));
    } catch (const std::exception& e) {
      tracer().set_enabled(false);
      report.fail("search " + std::to_string(i) + " failed: " + e.what(), budget);
    }
  }
  const MachineSample machine_after = sample_machine();

  // Output check: re-evaluate a fixed sample of every search's history —
  // its best, its first candidate, and for the first search also its middle
  // and last — on a fresh worker and compare every non-timing field.
  {
    const HarSetup fresh = set_up(data_seed, eval_seed);
    for (std::size_t s = 0; s < results.size(); ++s) {
      const std::vector<evo::Candidate>& history = results[s].history;
      std::vector<const evo::Candidate*> sample = {&results[s].best, &history.front()};
      if (s == 0) {
        sample.push_back(&history[history.size() / 2]);
        sample.push_back(&history.back());
      }
      std::vector<evo::Genome> genomes;
      for (const evo::Candidate* candidate : sample) genomes.push_back(candidate->genome);
      util::ThreadPool pool(2);
      const std::vector<evo::EvalOutcome> again = fresh.worker->evaluate_batch(genomes, pool);
      for (std::size_t k = 0; k < sample.size(); ++k) {
        evo::EvalResult want = sample[k]->result;
        if (options.sabotage && k == 0) want.accuracy = std::nextafter(want.accuracy, 2.0);
        const std::string field =
            again[k].ok ? result_mismatch(again[k].result, want) : "failed: " + again[k].error;
        if (!field.empty()) {
          report.fail("search " + std::to_string(s) + " candidate " + sample[k]->genome.key() +
                          " re-evaluated differently: " + field,
                      history.size());
          break;
        }
      }
    }
  }

  figures.latency_note = "eval_ms: per-candidate EvalResult::eval_seconds";
  add_end_to_end(report, figures);
  add_machine_diagnostics(report, machine_before, machine_after);
  report.extra.push_back({"data.load_s", median(load_seconds), "s", load_seconds.size(),
                          "data::load_benchmark_split, median of the set-ups"});
  if (!options.trace) return report;

  // --- Per-layer figures from the traced searches. ---
  TracedRun run;
  run.spans = tracer().take();
  join_by_key(run.spans, "worker.eval", {"dispatch"});
  run.window = traced;
  double plain_evals = 0.0;
  for (const Round& round : figures.rounds) plain_evals += round.evaluations;
  run.untraced_evals_per_s = plain_evals / plain.wall_seconds();
  std::size_t infeasible = 0;
  double traced_eval_seconds = 0.0;
  for (const evo::EvolutionResult& result : traced_results) {
    for (const evo::Candidate& candidate : result.history) {
      run.evaluations += 1.0;
      traced_eval_seconds += candidate.result.eval_seconds;
      if (!candidate.genome.grid.fits(hw::arria10_gx1150())) ++infeasible;
    }
  }
  run.generations = static_cast<double>(durations_ms(run.spans, "pipeline").size());
  run.infeasible_ratio = run.evaluations > 0 ? static_cast<double>(infeasible) / run.evaluations : 0.0;
  run.pool_idle_share = 1.0 - traced_eval_seconds / (2.0 * traced.wall_seconds());

  // One replayed epoch and the GEMM shapes of a sample of trained genomes.
  std::vector<evo::Genome> sampled;
  for (const evo::EvolutionResult& result : traced_results) {
    for (std::size_t k = 0; k < result.history.size() && sampled.size() < 8; k += 11) {
      if (result.history[k].genome.grid.fits(hw::arria10_gx1150())) {
        sampled.push_back(result.history[k].genome);
      }
    }
  }
  StepTimes steps;
  GemmRates gemms;
  for (const evo::Genome& genome : sampled) {
    replay_epoch(genome, *har.split, eval_seed, steps);
    time_gemms(genome, features, classes, gemms);
  }
  if (steps.steps > 0) {
    run.forward_share = steps.forward / steps.total();
    run.backward_share = steps.backward / steps.total();
    run.optimizer_share = steps.optimizer / steps.total();
    run.loss_share = steps.loss / steps.total();
  }
  if (gemms.forward_seconds > 0) run.fwd_gflops = gemms.forward_flops / gemms.forward_seconds * 1e-9;
  if (gemms.dw_seconds > 0) run.dw_gflops = gemms.dw_flops / gemms.dw_seconds * 1e-9;

  const std::vector<double> train_ms = durations_ms(run.spans, "nn.train");
  const std::vector<double> validate_ms = durations_ms(run.spans, "nn.validate");
  const std::vector<double> hw_ms = durations_ms(run.spans, "hw.model");
  report.extra.push_back({"nn.train_ms_p50", quantile(train_ms, 0.5), "ms", train_ms.size(),
                          "nn::train per trained candidate"});
  report.extra.push_back({"nn.validate_ms_p50", quantile(validate_ms, 0.5), "ms",
                          validate_ms.size(), "nn::evaluate_accuracy per trained candidate"});
  report.extra.push_back({"nn.step_us",
                          steps.steps > 0 ? steps.total() / static_cast<double>(steps.steps) * 1e6 : 0.0,
                          "us", steps.steps, "one replayed epoch per sampled genome"});
  report.extra.push_back({"nn.step.gather_share", steps.steps > 0 ? steps.gather / steps.total() : 0.0,
                          "share", steps.steps, "minibatch row copy"});
  report.extra.push_back({"hw.model_us", quantile(hw_ms, 0.5) * 1e3, "us", hw_ms.size(),
                          "hw::evaluate_fpga + hw::estimate_physical, median"});
  add_per_layer(report, run, options.out_dir + "/codesign_har.spans.jsonl");
  return report;
}

}  // namespace searchbench
