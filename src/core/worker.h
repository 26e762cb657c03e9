// ECAD workers (paper §III-B): "The evolutionary search has three workers at
// its disposal to assess the fitness of various hardware platforms":
//
//  * simulation workers    — run candidates on instruction-set hardware
//                            (here: the GPU occupancy model + MLP training);
//  * hardware database     — analytical overlay models for FPGAs;
//  * physical workers      — synthesis-level resource/power/Fmax estimates.
//
// Every worker maps a Genome to an EvalResult; the Master dispatches these
// from its thread pool, so workers must be const-callable and thread-safe.
#pragma once

#include <memory>
#include <string>

#include "data/splits.h"
#include "evo/fitness.h"
#include "evo/genome.h"
#include "hwmodel/device.h"
#include "hwmodel/fpga_model.h"
#include "hwmodel/gpu_model.h"
#include "hwmodel/resource_model.h"
#include "nn/trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ecad::core {

class FleetEvalCache;  // core/eval_pipeline.h

class Worker {
 public:
  virtual ~Worker() = default;
  virtual std::string name() const = 0;
  /// Evaluate one candidate. Must be thread-safe.
  virtual evo::EvalResult evaluate(const evo::Genome& genome) const = 0;

  /// Relative cost of evaluate(genome), used only to order a batch's
  /// dispatch (see dispatch_order): only the order of the values matters.
  /// Must be cheap, thread-safe, never throw and never return NaN.  The
  /// default, 0 for every genome, keeps index order.
  virtual double cost_hint(const evo::Genome& genome) const;

  /// Evaluate a whole generation-sized chunk, one outcome slot per genome in
  /// input order.  The default submits the items to `pool` costliest first
  /// (dispatch_order) and evaluates them via evaluate(), so a generation
  /// does not end waiting on a large network that started last.  Each
  /// outcome lands in its genome's slot, and each item's exception is caught
  /// into its error slot (one poisoned genome fails its slot, never the
  /// batch).  net::RemoteWorker overrides this to ship the chunk across the
  /// wire in EvalBatchRequest frames.
  virtual std::vector<evo::EvalOutcome> evaluate_batch(const std::vector<evo::Genome>& genomes,
                                                       util::ThreadPool& pool) const;

  /// Fleet-wide content-addressed result cache for this worker's
  /// evaluations, or nullptr (the default) when none is available.
  /// EvalPipeline consults it between dedup and dispatch; net::RemoteWorker
  /// overrides this to expose the workers' fleet cache tier.  The returned
  /// pointer is borrowed and must stay valid for the worker's lifetime.
  virtual const FleetEvalCache* fleet_cache() const { return nullptr; }
};

/// The order in which a batch's genomes are handed to a thread pool:
/// descending worker.cost_hint(), ties in index order (a stable sort), so
/// all-zero hints keep index order.  Largest-first list scheduling (Graham's
/// LPT rule) shortens a batch's makespan when item costs differ widely;
/// results never depend on it, because each outcome keeps its slot.
std::vector<std::size_t> dispatch_order(const Worker& worker,
                                        const std::vector<evo::Genome>& genomes);

/// Evaluate one genome into an outcome slot: result + wall-clock
/// eval_seconds on success, the exception message in the error slot on
/// failure.  Shared by the default batch fan-out and the WorkerServer's
/// batch executor so the two layers' slot semantics cannot diverge.
evo::EvalOutcome evaluate_outcome(const Worker& worker, const evo::Genome& genome);

/// Batch dispatch with intra-batch dedup: genomes sharing a canonical key
/// are collapsed to one evaluation before the worker (possibly a remote
/// fleet) sees the chunk, and the single outcome is fanned back to every
/// slot that asked for it.  Workers are deterministic per genome, so the
/// fan-out is exact — duplicate slots hold bit-identical results.
///
/// Compatibility shim: this is EvalPipeline (core/eval_pipeline.h) with the
/// fleet-cache stage disabled, kept for callers that want dedup semantics
/// without wiring up pipeline options.  New code should compose an
/// EvalPipeline directly.
std::vector<evo::EvalOutcome> evaluate_batch_deduped(const Worker& worker,
                                                     const std::vector<evo::Genome>& genomes,
                                                     util::ThreadPool& pool);

/// Accuracy-only worker: trains the candidate MLP on the split and measures
/// test accuracy.  Used directly for Table I/II accuracy searches.
class AccuracyWorker : public Worker {
 public:
  /// `split` must outlive the worker.  `seed` makes training deterministic
  /// per genome (genome key hashed into the stream).
  AccuracyWorker(const data::TrainTestSplit& split, nn::TrainOptions options,
                 std::uint64_t seed);

  std::string name() const override { return "accuracy"; }
  evo::EvalResult evaluate(const evo::Genome& genome) const override;
  /// The candidate's forward FLOPs per sample: training cost scales with it.
  double cost_hint(const evo::Genome& genome) const override;

 protected:
  /// Train + fill the accuracy/parameter fields; shared with subclasses.
  evo::EvalResult evaluate_accuracy(const evo::Genome& genome) const;

  const data::TrainTestSplit& split_;
  nn::TrainOptions options_;
  std::uint64_t seed_;
};

/// Hardware database worker: accuracy + analytical FPGA overlay performance
/// + physical (resource/power/Fmax) estimates for the same grid.
class FpgaHardwareDatabaseWorker final : public AccuracyWorker {
 public:
  FpgaHardwareDatabaseWorker(const data::TrainTestSplit& split, nn::TrainOptions options,
                             std::uint64_t seed, hw::FpgaDevice device, std::size_t batch = 256);

  std::string name() const override { return "hw-db:" + device_.name; }
  evo::EvalResult evaluate(const evo::Genome& genome) const override;
  /// 0 for a grid that does not fit the device (evaluate() returns without
  /// training); otherwise AccuracyWorker's FLOPs hint.
  double cost_hint(const evo::Genome& genome) const override;

  const hw::FpgaDevice& device() const { return device_; }

 private:
  hw::FpgaDevice device_;
  std::size_t batch_;
};

/// Simulation worker for GPUs: accuracy + the occupancy/roofline GPU model.
/// The hardware half of the genome is ignored (fixed architecture).
class GpuSimulationWorker final : public AccuracyWorker {
 public:
  GpuSimulationWorker(const data::TrainTestSplit& split, nn::TrainOptions options,
                      std::uint64_t seed, hw::GpuDevice device, std::size_t batch = 512);

  std::string name() const override { return "sim:" + device_.name; }
  evo::EvalResult evaluate(const evo::Genome& genome) const override;

 private:
  hw::GpuDevice device_;
  std::size_t batch_;
};

/// Physical worker: synthesis estimates only — no training, so it is cheap
/// enough to sweep (paper §IV power/Fmax statistics).
class PhysicalWorker final : public Worker {
 public:
  explicit PhysicalWorker(hw::FpgaDevice device) : device_(std::move(device)) {}

  std::string name() const override { return "physical:" + device_.name; }
  evo::EvalResult evaluate(const evo::Genome& genome) const override;

  hw::PhysicalReport report(const hw::GridConfig& grid) const;

 private:
  hw::FpgaDevice device_;
};

}  // namespace ecad::core
