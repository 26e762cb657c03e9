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

  /// Evaluate a whole generation-sized chunk, one outcome slot per genome in
  /// input order.  The default fans the items across `pool` via evaluate(),
  /// catching each item's exception into its error slot (one poisoned genome
  /// fails its slot, never the batch).  net::RemoteWorker overrides this to
  /// ship the chunk across the wire in EvalBatchRequest frames.
  virtual std::vector<evo::EvalOutcome> evaluate_batch(const std::vector<evo::Genome>& genomes,
                                                       util::ThreadPool& pool) const;

  /// Fleet-wide content-addressed result cache for this worker's
  /// evaluations, or nullptr (the default) when none is available.
  /// EvalPipeline consults it between dedup and dispatch; net::RemoteWorker
  /// overrides this to expose the workers' fleet cache tier.  The returned
  /// pointer is borrowed and must stay valid for the worker's lifetime.
  virtual const FleetEvalCache* fleet_cache() const { return nullptr; }
};

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
