// Forwarding workers through which the benchmark observes the program from
// outside.  Every call reaches the wrapped object unchanged; the probes only
// read the clock around it.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/eval_pipeline.h"
#include "core/worker.h"
#include "data/splits.h"
#include "hwmodel/device.h"
#include "nn/trainer.h"
#include "spans.h"

namespace searchbench {

/// Master-side probe in front of the worker a search dispatches to.
/// EvalPipeline calls fleet_cache() once at the start of every generation's
/// batch, so each call marks a pipeline entry: the probe always timestamps
/// it (generation round trips need no tracing).  With the tracer on it also
/// records the pipeline, generation, cache.lookup, dispatch and cache.store
/// spans, handing the pipeline a forwarding cache so lookups and stores are
/// timed too.
class ProbeWorker final : public ecad::core::Worker {
 public:
  /// `local_fanout`: dispatch through Worker::evaluate_batch's default pool
  /// fan-out over evaluate(), which forwards to `inner` — the path a local
  /// worker takes.  Otherwise evaluate_batch() is forwarded whole (a
  /// RemoteWorker ships it over the wire).
  ProbeWorker(const ecad::core::Worker& inner, bool local_fanout);

  std::string name() const override { return inner_.name(); }
  ecad::evo::EvalResult evaluate(const ecad::evo::Genome& genome) const override;
  std::vector<ecad::evo::EvalOutcome> evaluate_batch(const std::vector<ecad::evo::Genome>& genomes,
                                                     ecad::util::ThreadPool& pool) const override;
  const ecad::core::FleetEvalCache* fleet_cache() const override;

  /// Bracket one Master::search on the calling thread.  `search_span` is the
  /// harness's search span id (parent of the generation spans).
  void begin_search(std::uint64_t search_id, std::uint64_t search_span);
  /// Pipeline entry times of the search; closes its open spans at `end`.
  std::vector<Clock::time_point> end_search(Clock::time_point end);
  /// Close every open pipeline span (scheduler runners have no end_search).
  void flush();

 private:
  struct ThreadState {
    std::uint64_t search = 0;
    std::uint64_t search_span = 0;  // 0: no generation spans (scheduler runner)
    std::uint64_t generation = 0;
    std::vector<Clock::time_point> entries;
    Span generation_span;  // open when id != 0
    Span pipeline_span;    // open when id != 0
    Clock::time_point last_stage_end{};
  };

  class ProbeCache final : public ecad::core::FleetEvalCache {
   public:
    explicit ProbeCache(const ProbeWorker& owner) : owner_(owner) {}
    void fleet_lookup(const std::vector<ecad::evo::Genome>& genomes,
                      std::vector<ecad::evo::EvalOutcome>& outcomes) const override;
    void fleet_store(const std::vector<ecad::evo::Genome>& genomes,
                     const std::vector<ecad::evo::EvalOutcome>& outcomes) const override;

   private:
    const ProbeWorker& owner_;
  };

  ThreadState& state() const;
  /// Record a stage span under the thread's open pipeline.
  void stage(const char* name, Clock::time_point start, Clock::time_point end,
             const std::vector<ecad::evo::Genome>* batch) const;
  static void close(ThreadState& state, Clock::time_point generation_end);

  const ecad::core::Worker& inner_;
  const bool local_fanout_;
  ProbeCache cache_{*this};
  mutable std::mutex mutex_;
  mutable std::map<std::thread::id, ThreadState> threads_;
};

/// Records a worker.eval span (keyed by the genome) around each evaluation
/// of `inner` while the tracer is on.  Spans opened inside inner.evaluate()
/// on the same thread can parent to current_eval_span().
class EvalSpanWorker final : public ecad::core::Worker {
 public:
  explicit EvalSpanWorker(const ecad::core::Worker& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  ecad::evo::EvalResult evaluate(const ecad::evo::Genome& genome) const override;

  static std::uint64_t current_eval_span();

 private:
  const ecad::core::Worker& inner_;
};

/// FpgaHardwareDatabaseWorker::evaluate rebuilt from the public nn and
/// hwmodel calls with the worker's per-genome training seed, so the traced
/// run can time nn.train, nn.validate and hw.model inside one evaluation.
/// Its results must equal the real worker's bit for bit; the traced run
/// checks that on every candidate.
class ReplicaHwdbWorker final : public ecad::core::Worker {
 public:
  ReplicaHwdbWorker(const ecad::data::TrainTestSplit& split, ecad::nn::TrainOptions options,
                    std::uint64_t seed, ecad::hw::FpgaDevice device, std::size_t batch = 256);
  std::string name() const override { return "hw-db:" + device_.name; }
  ecad::evo::EvalResult evaluate(const ecad::evo::Genome& genome) const override;

 private:
  const ecad::data::TrainTestSplit& split_;
  ecad::nn::TrainOptions options_;
  std::uint64_t seed_;
  ecad::hw::FpgaDevice device_;
  std::size_t batch_;
};

}  // namespace searchbench
