#include "core/worker.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "core/eval_pipeline.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace ecad::core {

evo::EvalOutcome evaluate_outcome(const Worker& worker, const evo::Genome& genome) {
  // Counted here — the single funnel every evaluation passes through,
  // whether dispatched by the local Master, a WorkerServer pool task, or a
  // scheduler tenant — so evals_completed_total is ground truth for the
  // stats consistency checks in the smoke scripts.
  static util::Counter& completed = util::metrics().counter("core.evals_completed_total");
  static util::Counter& failed = util::metrics().counter("core.evals_failed_total");
  static util::Histogram& latency = util::metrics().histogram("core.eval_seconds");
  evo::EvalOutcome outcome;
  util::Stopwatch watch;
  try {
    outcome.result = worker.evaluate(genome);
    outcome.result.eval_seconds = watch.elapsed_seconds();
    outcome.ok = true;
    completed.add(1);
    latency.observe(outcome.result.eval_seconds);
  } catch (const std::exception& e) {
    outcome.error = e.what();
    failed.add(1);
  } catch (...) {
    outcome.error = "unknown evaluation error";
    failed.add(1);
  }
  return outcome;
}

double Worker::cost_hint(const evo::Genome&) const { return 0.0; }

std::vector<std::size_t> dispatch_order(const Worker& worker,
                                        const std::vector<evo::Genome>& genomes) {
  std::vector<double> hints(genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) hints[i] = worker.cost_hint(genomes[i]);
  std::vector<std::size_t> order(genomes.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return hints[a] > hints[b]; });
  return order;
}

std::vector<evo::EvalOutcome> Worker::evaluate_batch(const std::vector<evo::Genome>& genomes,
                                                     util::ThreadPool& pool) const {
  std::vector<evo::EvalOutcome> outcomes(genomes.size());
  const std::vector<std::size_t> order = dispatch_order(*this, genomes);
  pool.parallel_for(order.size(), [&](std::size_t k) {
    outcomes[order[k]] = evaluate_outcome(*this, genomes[order[k]]);
  });
  return outcomes;
}

std::vector<evo::EvalOutcome> evaluate_batch_deduped(const Worker& worker,
                                                     const std::vector<evo::Genome>& genomes,
                                                     util::ThreadPool& pool) {
  EvalPipelineOptions options;
  options.fleet_cache = false;
  return EvalPipeline(worker, options).evaluate(genomes, pool);
}

namespace {

// Deterministic per-genome training seed: identical genomes always train the
// same way, so cached results are exactly reproducible.
std::uint64_t genome_seed(std::uint64_t base, const evo::Genome& genome) {
  return base ^ std::hash<std::string>{}(genome.key());
}

}  // namespace

AccuracyWorker::AccuracyWorker(const data::TrainTestSplit& split, nn::TrainOptions options,
                               std::uint64_t seed)
    : split_(split), options_(options), seed_(seed) {}

evo::EvalResult AccuracyWorker::evaluate_accuracy(const evo::Genome& genome) const {
  evo::EvalResult result;
  const nn::MlpSpec spec =
      genome.nna.to_mlp_spec(split_.train.num_features(), split_.train.num_classes);
  spec.validate();
  result.parameters = static_cast<double>(spec.num_parameters());
  result.flops_per_sample = static_cast<double>(spec.flops_per_sample());

  util::Rng rng(genome_seed(seed_, genome));
  nn::Mlp mlp(spec, rng);
  nn::train(mlp, split_.train, /*validation=*/nullptr, options_, rng);
  result.accuracy = nn::evaluate_accuracy(mlp, split_.test);
  return result;
}

evo::EvalResult AccuracyWorker::evaluate(const evo::Genome& genome) const {
  return evaluate_accuracy(genome);
}

double AccuracyWorker::cost_hint(const evo::Genome& genome) const {
  return static_cast<double>(
      genome.nna.to_mlp_spec(split_.train.num_features(), split_.train.num_classes)
          .flops_per_sample());
}

FpgaHardwareDatabaseWorker::FpgaHardwareDatabaseWorker(const data::TrainTestSplit& split,
                                                       nn::TrainOptions options,
                                                       std::uint64_t seed, hw::FpgaDevice device,
                                                       std::size_t batch)
    : AccuracyWorker(split, options, seed), device_(std::move(device)), batch_(batch) {}

double FpgaHardwareDatabaseWorker::cost_hint(const evo::Genome& genome) const {
  return genome.grid.fits(device_) ? AccuracyWorker::cost_hint(genome) : 0.0;
}

evo::EvalResult FpgaHardwareDatabaseWorker::evaluate(const evo::Genome& genome) const {
  // Infeasible grids are not trained at all — fail fast, as the paper's
  // engine discards configurations that cannot map to the device.
  if (!genome.grid.fits(device_)) {
    evo::EvalResult result;
    result.feasible = false;
    return result;
  }
  evo::EvalResult result = evaluate_accuracy(genome);
  const nn::MlpSpec spec =
      genome.nna.to_mlp_spec(split_.train.num_features(), split_.train.num_classes);
  const hw::FpgaPerfReport perf = hw::evaluate_fpga(spec, batch_, genome.grid, device_);
  result.outputs_per_second = perf.outputs_per_second;
  result.latency_seconds = perf.latency_seconds;
  result.potential_gflops = perf.potential_gflops;
  result.effective_gflops = perf.effective_gflops;
  result.hw_efficiency = perf.efficiency;

  const hw::PhysicalReport physical = hw::estimate_physical(genome.grid, device_);
  result.power_watts = physical.power_watts;
  result.fmax_mhz = physical.fmax_mhz;
  result.feasible = physical.fits;
  return result;
}

GpuSimulationWorker::GpuSimulationWorker(const data::TrainTestSplit& split,
                                         nn::TrainOptions options, std::uint64_t seed,
                                         hw::GpuDevice device, std::size_t batch)
    : AccuracyWorker(split, options, seed), device_(std::move(device)), batch_(batch) {}

evo::EvalResult GpuSimulationWorker::evaluate(const evo::Genome& genome) const {
  evo::EvalResult result = evaluate_accuracy(genome);
  const nn::MlpSpec spec =
      genome.nna.to_mlp_spec(split_.train.num_features(), split_.train.num_classes);
  const hw::GpuPerfReport perf = hw::evaluate_gpu(spec, batch_, device_);
  result.outputs_per_second = perf.outputs_per_second;
  result.latency_seconds = perf.latency_seconds;
  result.potential_gflops = perf.peak_gflops;
  result.effective_gflops = perf.effective_gflops;
  result.hw_efficiency = perf.efficiency;
  result.power_watts = device_.board_power_w * 0.33;  // paper: ~50 W on a 150 W device
  return result;
}

evo::EvalResult PhysicalWorker::evaluate(const evo::Genome& genome) const {
  const hw::PhysicalReport physical = report(genome.grid);
  evo::EvalResult result;
  result.power_watts = physical.power_watts;
  result.fmax_mhz = physical.fmax_mhz;
  result.feasible = physical.fits;
  result.hw_efficiency = 0.0;
  return result;
}

hw::PhysicalReport PhysicalWorker::report(const hw::GridConfig& grid) const {
  return hw::estimate_physical(grid, device_);
}

}  // namespace ecad::core
