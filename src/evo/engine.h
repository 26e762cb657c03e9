// Steady-state evolutionary engine (paper §III-A, based on Goldberg & Deb's
// steady-state model [16]): tournament parent selection, crossover+mutation,
// reverse-tournament replacement, no generational barrier.  Offspring are
// evaluated in parallel batches by the Master's thread pool and deduplicated
// through the EvalCache.
//
// Two dispatch modes:
//  * sequential (default): each offspring batch is bred, evaluated, and
//    folded into the population before the next one is bred — the fully
//    deterministic trajectory every seeded test pins.
//  * overlapped (config.overlap_generations): batches are shipped through an
//    AsyncBatchDispatcher and the engine breeds the next batch — from
//    parents that are already scored — while up to max_inflight_batches
//    previous batches are still evaluating remotely.  Batches are folded in
//    submission order at fixed points (whenever the pipeline is full), so
//    the overlapped trajectory is also deterministic for a given config; it
//    just differs from the sequential one because breeding no longer waits
//    for the immediately preceding batch.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "evo/cache.h"
#include "evo/fitness.h"
#include "evo/genome.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/thread_safety.h"

namespace ecad::evo {

struct EvolutionConfig {
  std::size_t population_size = 16;
  /// Total unique-candidate evaluation budget (including the initial
  /// population).
  std::size_t max_evaluations = 100;
  std::size_t tournament_size = 3;
  double crossover_probability = 0.6;
  /// Expected point mutations per offspring (at least one is applied).
  double mutation_strength = 1.5;
  /// Attempts to generate a not-yet-evaluated offspring before the slot is
  /// skipped (counted in RunStats::duplicates_skipped).
  std::size_t dedup_attempts = 12;
  /// Offspring evaluated concurrently per steady-state step (0 = pool size).
  std::size_t batch_size = 0;
  /// Overlap breeding with in-flight evaluation batches (see file header).
  /// Off by default: the overlapped trajectory is deterministic but not the
  /// same search as the sequential one.
  bool overlap_generations = false;
  /// Evaluation batches the overlapped mode keeps in flight before it
  /// blocks on the oldest (>= 1; ignored when overlap is off).
  std::size_t max_inflight_batches = 2;
};

struct Candidate {
  Genome genome;
  EvalResult result;
  double fitness = 0.0;
};

struct RunStats {
  std::size_t models_evaluated = 0;   // unique evaluations performed
  std::size_t duplicates_skipped = 0; // known genomes dropped instead of re-evaluated
  std::size_t overlapped_batches = 0; // batches bred while another was in flight
  double total_eval_seconds = 0.0;    // summed worker time (Table III "Total")
  double avg_eval_seconds = 0.0;      // per-model mean (Table III "AVG")
  double wall_seconds = 0.0;          // end-to-end search wall clock
};

struct EvolutionResult {
  std::vector<Candidate> population;  // final population, best first
  std::vector<Candidate> history;     // every unique evaluated candidate
  Candidate best;
  RunStats stats;
};

/// Complete engine state at a generation boundary — everything a fresh
/// process needs to continue the search bit-identically (see evo/snapshot.h
/// for the versioned binary codec).  `history` doubles as the Pareto
/// archive: it holds every unique evaluated candidate, which is the exact
/// input the NSGA-II / Pareto reporting paths rank.
struct EngineSnapshot {
  std::string rng_state;    // util::Rng::serialize() of the search stream
  bool overlap = false;     // mode the snapshot was taken in (sanity-checked on resume)
  std::uint64_t generation = 0;
  /// Genomes submitted for evaluation so far — the budget spent.  Equals
  /// models_evaluated in sequential mode; in overlapped mode it additionally
  /// counts the `pending` batches still in flight.
  std::uint64_t submitted = 0;
  std::vector<Candidate> population;
  std::vector<Candidate> history;
  /// Overlapped mode: in-flight offspring batches in submission order.
  /// Resume re-dispatches them before breeding anything new.
  std::vector<std::vector<Genome>> pending;
  // RunStats at the boundary (wall_seconds excluded: it restarts on resume
  // and is not part of the printed record).
  std::uint64_t models_evaluated = 0;
  std::uint64_t duplicates_skipped = 0;
  std::uint64_t overlapped_batches = 0;
  double total_eval_seconds = 0.0;
  // Dedup-cache tallies (entries are reconstructed from history + pending).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Snapshot handed to the progress observer at each generation boundary.
/// The vectors are borrowed from the running engine and only valid for the
/// duration of the callback.
struct GenerationProgress {
  std::size_t generation = 0;  // 0 = the scored initial population
  std::size_t models_evaluated = 0;
  std::size_t duplicates_skipped = 0;
  const std::vector<Candidate>* population = nullptr;
  const std::vector<Candidate>* history = nullptr;
};

class EvolutionEngine {
 public:
  /// `evaluate` is the worker dispatch: genome -> measured result.  It is
  /// called from pool threads and must be thread-safe.
  using Evaluator = std::function<EvalResult(const Genome&)>;
  /// Whole-generation dispatch: genomes -> one outcome slot per genome, in
  /// input order.  Called with the pool at its disposal; the Master wires
  /// core::Worker::evaluate_batch in here so remote backends amortize one
  /// network round-trip over the whole chunk.  In overlapped mode it runs on
  /// dispatcher threads — up to max_inflight_batches calls concurrently — so
  /// it must be thread-safe.  May throw for batch-wide failures; per-item
  /// failures go in error slots.
  using BatchEvaluator =
      std::function<std::vector<EvalOutcome>(const std::vector<Genome>&, util::ThreadPool&)>;
  /// Scalar fitness, bigger = fitter (see FitnessRegistry).
  using Fitness = std::function<double(const EvalResult&)>;

  /// Per-genome evaluator: wrapped into a BatchEvaluator that fans items
  /// across the pool, preserving the pre-batching exception behavior (the
  /// first item failure, in index order, propagates out of run()).
  EvolutionEngine(SearchSpace space, EvolutionConfig config, Evaluator evaluate, Fitness fitness);
  EvolutionEngine(SearchSpace space, EvolutionConfig config, BatchEvaluator evaluate,
                  Fitness fitness);

  /// Run the full search. Deterministic in `rng` for a serial pool (1 thread);
  /// the overlapped mode is deterministic for any pool width because batches
  /// fold in submission order at fixed points.
  EvolutionResult run(util::Rng& rng, util::ThreadPool& pool);

  /// Continue a search from a checkpoint: restores the RNG stream (the
  /// seed `rng` was constructed with is irrelevant), dedup cache, stats,
  /// population, and — in overlapped mode — re-dispatches the in-flight
  /// batches, then runs to completion.  Contract: with a deterministic
  /// evaluator, resume produces a final record bit-identical to the
  /// uninterrupted run the snapshot was taken from.  Throws
  /// std::invalid_argument for snapshots inconsistent with this engine's
  /// config (mode mismatch, empty population).
  EvolutionResult resume(const EngineSnapshot& snapshot, util::Rng& rng, util::ThreadPool& pool);

  /// Checkpoint hook, invoked on the fold thread at every generation
  /// boundary the engine can be resumed from (after the progress observer).
  /// The snapshot is self-contained — the sink may persist it from another
  /// thread.  Like the observer, the sink consumes no engine RNG, so
  /// checkpointing never perturbs the trajectory.
  using CheckpointSink = std::function<void(const EngineSnapshot&)>;
  void set_checkpoint_sink(CheckpointSink sink) { checkpoint_ = std::move(sink); }

  /// Generation-boundary hook (the search service's progress stream and
  /// cancellation point).  Called on the run() thread after the initial
  /// population is scored (generation 0) and after every subsequent fold.
  /// Returning false stops the search at this boundary: batches already in
  /// flight (overlapped mode) still fold into the record, but nothing new is
  /// bred or dispatched, and run() finalizes the partial result.  While the
  /// observer returns true the trajectory is bit-identical to running
  /// without one — the hook consumes no RNG and mutates nothing.
  using ProgressObserver = std::function<bool(const GenerationProgress&)>;
  void set_progress_observer(ProgressObserver observer) { observer_ = std::move(observer); }

  const EvalCache& cache() const { return cache_; }

 private:
  /// One generation-sized chunk through the batch evaluator: candidates in
  /// input order, results cached, stats updated.  The first failed slot (in
  /// index order) throws std::runtime_error with the slot's error message.
  std::vector<Candidate> evaluate_generation(const std::vector<Genome>& genomes,
                                             util::ThreadPool& pool);
  /// Outcome slots -> scored candidates (shared tail of the sequential and
  /// overlapped folds): throws on the first failed slot, stores results in
  /// the cache, updates stats.
  std::vector<Candidate> fold_outcomes(const std::vector<Genome>& genomes,
                                       std::vector<EvalOutcome> outcomes)
      ECAD_EXCLUDES(stats_mutex_);
  /// Unique evaluations performed so far (the run loops' budget check; the
  /// stats lock makes the read sound even while overlapped batches fold).
  std::size_t models_evaluated() const ECAD_EXCLUDES(stats_mutex_);
  /// Invoke the observer (if any) for one generation boundary; true = keep
  /// searching.  No observer always means keep searching.
  bool notify_progress(std::size_t generation, const std::vector<Candidate>& population,
                       const std::vector<Candidate>& history) ECAD_EXCLUDES(stats_mutex_);
  /// Breed up to `count` fresh offspring from scored parents (tournament +
  /// crossover + mutation + cache-reservation dedup).  Falls back to one
  /// random immigrant when the neighborhood is exhausted; empty means even
  /// the immigrant was a duplicate and the search should stop.
  std::vector<Genome> breed_offspring(const std::vector<Candidate>& population,
                                      std::size_t count, util::Rng& rng);
  /// Reverse-tournament replacement of `evaluated` into the population,
  /// appending every candidate to the history.
  void replace_into(std::vector<Candidate> evaluated, std::vector<Candidate>& population,
                    std::vector<Candidate>& history, util::Rng& rng);

  /// Capture engine state and hand it to the checkpoint sink (no-op without
  /// one).  Called only at resumable generation boundaries.
  void emit_checkpoint(const util::Rng& rng, std::size_t generation, std::size_t submitted,
                       const std::vector<Candidate>& population,
                       const std::vector<Candidate>& history,
                       std::vector<std::vector<Genome>> pending) ECAD_EXCLUDES(stats_mutex_);

  /// The shared loop bodies.  Fresh runs enter with `resumed == false`
  /// (generation 0 gets notified and checkpointed); resume() enters with the
  /// restored state and `resumed == true` (the snapshot's boundary was
  /// already notified in the previous life).
  EvolutionResult run_sequential(util::Rng& rng, util::ThreadPool& pool,
                                 std::vector<Candidate> population,
                                 std::vector<Candidate> history, std::size_t start_generation,
                                 bool resumed);
  EvolutionResult run_overlapped(util::Rng& rng, util::ThreadPool& pool,
                                 std::vector<Candidate> population, std::vector<Candidate> history,
                                 std::size_t start_generation,
                                 std::vector<std::vector<Genome>> pending,
                                 std::size_t submitted_start, bool resumed);
  EvolutionResult finalize(std::vector<Candidate> population, std::vector<Candidate> history,
                           double wall_seconds);

  std::size_t tournament_best(const std::vector<Candidate>& population, util::Rng& rng) const;
  std::size_t tournament_worst(const std::vector<Candidate>& population, util::Rng& rng) const;

  SearchSpace space_;
  EvolutionConfig config_;
  BatchEvaluator evaluate_;
  Fitness fitness_;
  ProgressObserver observer_;
  CheckpointSink checkpoint_;
  EvalCache cache_;
  mutable util::Mutex stats_mutex_;
  RunStats stats_ ECAD_GUARDED_BY(stats_mutex_);
};

/// Submit/poll dispatch for overlapped evolution: submit() ships one
/// offspring batch to the BatchEvaluator on a dedicated thread and returns a
/// ticket immediately; poll() answers without blocking; wait() collects a
/// ticket's outcomes (each ticket exactly once).  Destruction blocks until
/// every in-flight batch finishes, so borrowed genomes and the pool are
/// never referenced after the owner's frame unwinds.
class AsyncBatchDispatcher {
 public:
  using Ticket = std::uint64_t;

  /// `evaluate` and `pool` are borrowed and must outlive the dispatcher.
  AsyncBatchDispatcher(const EvolutionEngine::BatchEvaluator& evaluate, util::ThreadPool& pool)
      : evaluate_(evaluate), pool_(pool) {}

  /// Ships `genomes` for evaluation; never blocks on the evaluation itself.
  Ticket submit(std::vector<Genome> genomes) ECAD_EXCLUDES(mutex_);
  /// True once wait(ticket) would not block. False for unknown/collected
  /// tickets.
  bool poll(Ticket ticket) const ECAD_EXCLUDES(mutex_);
  /// Outcomes for `ticket`, blocking until they settle.  Rethrows the batch
  /// evaluator's exception for batch-wide failures.  Throws
  /// std::invalid_argument for unknown (or already collected) tickets.
  std::vector<EvalOutcome> wait(Ticket ticket) ECAD_EXCLUDES(mutex_);

  std::size_t in_flight() const ECAD_EXCLUDES(mutex_);

 private:
  const EvolutionEngine::BatchEvaluator& evaluate_;
  util::ThreadPool& pool_;
  mutable util::Mutex mutex_;
  Ticket next_ticket_ ECAD_GUARDED_BY(mutex_) = 1;
  std::map<Ticket, std::future<std::vector<EvalOutcome>>> futures_ ECAD_GUARDED_BY(mutex_);
};

}  // namespace ecad::evo
