#include "core/search_scheduler.h"

#include <algorithm>
#include <limits>

#include "evo/pareto.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace ecad::core {

// ---------------------------------------------------------------------------
// FairShareGate

void FairShareGate::add(std::uint64_t id, double weight, std::uint64_t remaining) {
  util::MutexLock lock(mutex_);
  Entry entry;
  entry.weight = weight > 0.0 ? weight : 1.0;
  entry.pass = virtual_time_;  // no credit for time spent unregistered
  entry.remaining = remaining;
  entries_[id] = entry;
}

void FairShareGate::remove(std::uint64_t id) {
  util::MutexLock lock(mutex_);
  entries_.erase(id);
  // Wake everyone: a blocked acquire(id) must notice its entry vanished,
  // and removing a low-pass waiter may promote another search to "next".
  cv_.notify_all();
}

void FairShareGate::set_remaining(std::uint64_t id, std::uint64_t remaining) {
  util::MutexLock lock(mutex_);
  auto it = entries_.find(id);
  if (it != entries_.end()) it->second.remaining = remaining;
}

bool FairShareGate::acquire(std::uint64_t id, std::size_t items) {
  // How long dispatches sit waiting for a slot — the contention signal the
  // autoscaling direction needs.  The cv wait releases the mutex, so the
  // stopwatch spans exactly the blocked time plus lock overhead.
  static util::Histogram& wait_hist = util::metrics().histogram("scheduler.gate_wait_seconds");
  static util::Gauge& pass_gauge = util::metrics().gauge("scheduler.gate_pass");
  util::Stopwatch waited;
  util::MutexLock lock(mutex_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  // Catch up to the global virtual time: a search that sat out several
  // rounds (breeding, folding, or just created) must not have banked an
  // arbitrarily low pass, or it would monopolize the gate until it
  // "repaid" time it never contended for.
  it->second.pass = std::max(it->second.pass, virtual_time_);
  it->second.waiting = true;
  for (;;) {
    it = entries_.find(id);
    if (it == entries_.end()) return false;  // removed while waiting (cancel/drain)
    if (in_use_ < slots_ && next_waiting_locked() == id) break;
    cv_.wait(mutex_);
  }
  Entry& entry = it->second;
  entry.waiting = false;
  virtual_time_ = entry.pass;
  entry.pass += static_cast<double>(items) / entry.weight;
  ++entry.grants;
  ++in_use_;
  wait_hist.observe(waited.elapsed_seconds());
  pass_gauge.set(virtual_time_);
  return true;
}

void FairShareGate::release() {
  util::MutexLock lock(mutex_);
  if (in_use_ > 0) --in_use_;
  cv_.notify_all();
}

std::uint64_t FairShareGate::grants(std::uint64_t id) const {
  util::MutexLock lock(mutex_);
  auto it = entries_.find(id);
  return it == entries_.end() ? 0 : it->second.grants;
}

std::uint64_t FairShareGate::next_waiting_locked() const {
  std::uint64_t chosen = 0;
  const Entry* best = nullptr;
  for (const auto& [id, entry] : entries_) {
    if (!entry.waiting) continue;
    const bool wins = best == nullptr || entry.pass < best->pass ||
                      (entry.pass == best->pass && entry.remaining < best->remaining);
    if (wins) {
      best = &entry;
      chosen = id;
    }
  }
  return chosen;  // map order makes "lowest id" the implicit final tiebreak
}

// ---------------------------------------------------------------------------
// SearchScheduler

const char* to_string(SearchState state) {
  switch (state) {
    case SearchState::Queued: return "queued";
    case SearchState::Running: return "running";
    case SearchState::Completed: return "completed";
    case SearchState::Canceled: return "canceled";
    case SearchState::Failed: return "failed";
  }
  return "unknown";
}

SearchScheduler::SearchScheduler(const Worker& worker, SearchSchedulerOptions options)
    : worker_(worker),
      options_(options),
      registry_(evo::FitnessRegistry::with_builtins()),
      gate_(options.dispatch_slots) {
  if (options_.max_concurrent_searches == 0) options_.max_concurrent_searches = 1;
  if (options_.checkpoint.enabled()) {
    ensure_checkpoint_dir(options_.checkpoint.dir);
    journal_ = std::make_unique<SubmissionJournal>(
        SubmissionJournal::journal_path(options_.checkpoint.dir));
  }
  runners_.reserve(options_.max_concurrent_searches);
  for (std::size_t i = 0; i < options_.max_concurrent_searches; ++i) {
    runners_.emplace_back([this] { runner_loop(); });
  }
}

SearchScheduler::~SearchScheduler() {
  drain();
  {
    util::MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& runner : runners_) runner.join();
}

std::uint64_t SearchScheduler::submit(SearchRequest request, ProgressFn on_progress,
                                      DoneFn on_done) {
  registry_.get(request.fitness);  // unknown fitness fails fast, pre-queue
  auto search = std::make_shared<Search>();
  search->request = std::move(request);
  search->on_progress = std::move(on_progress);
  search->on_done = std::move(on_done);
  return enqueue(std::move(search), /*journal=*/true);
}

std::uint64_t SearchScheduler::resume_submit(const ResumableSearch& resumable,
                                             ProgressFn on_progress, DoneFn on_done) {
  registry_.get(resumable.request.fitness);
  auto search = std::make_shared<Search>();
  search->id = resumable.search_id;
  search->request = resumable.request;
  search->on_progress = std::move(on_progress);
  search->on_done = std::move(on_done);
  if (resumable.has_snapshot) {
    search->resume_from = std::make_shared<evo::EngineSnapshot>(resumable.snapshot);
  }
  // Already journaled by the process that accepted it.
  return enqueue(std::move(search), /*journal=*/false);
}

std::uint64_t SearchScheduler::enqueue(std::shared_ptr<Search> search, bool journal) {
  std::uint64_t id = 0;
  std::uint64_t budget = search->request.evolution.max_evaluations;
  if (search->resume_from) {
    const std::uint64_t spent = search->resume_from->models_evaluated;
    budget = budget > spent ? budget - spent : 0;
  }
  {
    util::MutexLock lock(mutex_);
    if (draining_) throw std::runtime_error("scheduler is draining; rejecting new searches");
    if (search->id != 0) {
      // Resumed search: keep its original id, never reuse it for new work.
      id = search->id;
      if (searches_.count(id) != 0) {
        throw std::runtime_error("search id " + std::to_string(id) + " is already registered");
      }
      next_id_ = std::max(next_id_, id + 1);
    } else {
      id = next_id_++;
      search->id = id;
    }
    // Journal before the id escapes this process: once submit() returns (and
    // the SearchAccepted frame goes out), a daemon kill must not lose the
    // accepted search.  The append is durable (fsync) and under the mutex,
    // so journal order matches id order.
    if (journal && journal_) journal_->append(id, search->request);
    searches_.emplace(id, search);
    // Equal stride weights: fairness is per-batch round-robin, with the
    // remaining-budget tiebreak deciding turn order within a round.  The
    // gate must learn the id before the search is poppable: a runner that
    // reaches acquire() first would read "unregistered" as "canceled".
    gate_.add(id, 1.0, budget);
    queue_.push_back(std::move(search));
  }
  work_cv_.notify_one();
  return id;
}

bool SearchScheduler::cancel(std::uint64_t id, const std::string& reason) {
  std::shared_ptr<Search> search;
  {
    util::MutexLock lock(mutex_);
    auto it = searches_.find(id);
    if (it == searches_.end()) return false;
    search = it->second;
    if (search->state != SearchState::Queued && search->state != SearchState::Running) {
      return false;  // already terminal
    }
    search->cancel_reason = reason;
  }
  search->cancel_requested.store(true, std::memory_order_release);
  // Deregistering unblocks a dispatcher waiting in acquire() (it returns
  // false -> SearchCanceled) and guarantees nothing new is admitted.
  gate_.remove(id);
  util::Log(util::LogLevel::Info, "core")
      << "search " << id << " cancel requested" << (reason.empty() ? "" : (": " + reason));
  return true;
}

void SearchScheduler::drain() {
  {
    util::MutexLock lock(mutex_);
    if (!draining_) {
      draining_ = true;
      util::Log(util::LogLevel::Info, "core")
          << "scheduler draining: " << queue_.size() << " queued, " << running_
          << " running searches";
    }
  }
  wait_idle();
}

void SearchScheduler::wait_idle() {
  util::MutexLock lock(mutex_);
  while (running_ > 0 || !queue_.empty()) idle_cv_.wait(mutex_);
}

std::size_t SearchScheduler::active_searches() const {
  util::MutexLock lock(mutex_);
  return queue_.size() + running_;
}

SearchState SearchScheduler::state_of(std::uint64_t id) const {
  util::MutexLock lock(mutex_);
  auto it = searches_.find(id);
  return it == searches_.end() ? SearchState::Failed : it->second->state;
}

bool SearchScheduler::draining() const {
  util::MutexLock lock(mutex_);
  return draining_;
}

std::string SearchScheduler::cancel_reason_for(Search& search) {
  util::MutexLock lock(mutex_);
  return search.cancel_reason.empty() ? std::string("canceled") : search.cancel_reason;
}

void SearchScheduler::runner_loop() {
  for (;;) {
    std::shared_ptr<Search> search;
    {
      util::MutexLock lock(mutex_);
      while (queue_.empty() && !stopping_) work_cv_.wait(mutex_);
      if (queue_.empty()) return;  // stopping, nothing left to run
      search = queue_.front();
      queue_.pop_front();
      search->state = SearchState::Running;
      ++running_;
    }
    static util::Gauge& active_gauge = util::metrics().gauge("scheduler.searches_active");
    active_gauge.add(1.0);
    SearchOutcome outcome = run_one(*search);
    active_gauge.add(-1.0);
    {
      util::MutexLock lock(mutex_);
      search->state = outcome.state;
    }
    // The done-callback runs before running_ drops so drain() returning
    // implies every terminal frame has been handed to its connection.
    if (search->on_done) search->on_done(outcome);
    {
      util::MutexLock lock(mutex_);
      --running_;
      idle_cv_.notify_all();
    }
  }
}

SearchOutcome SearchScheduler::run_one(Search& search) {
  util::TraceSpan span("core", "search " + std::to_string(search.id));
  SearchOutcome outcome;
  outcome.search_id = search.id;
  std::unique_ptr<CheckpointWriter> writer;
  if (options_.checkpoint.enabled()) {
    writer = std::make_unique<CheckpointWriter>(options_.checkpoint.dir, search.id,
                                                search.request, options_.checkpoint.every);
  }
  // Terminal bookkeeping: everything except a drain-cancel drops the .done
  // marker (a drained search is exactly what --resume must pick back up; a
  // client cancel, completion, or failure must never be re-admitted).
  const auto seal_unless_drain_resumable = [&] {
    if (!writer) return;
    const bool drain_resumable =
        outcome.state == SearchState::Canceled &&
        !search.cancel_requested.load(std::memory_order_acquire);
    if (!drain_resumable) writer->mark_done();
  };
  try {
    if (search.cancel_requested.load(std::memory_order_acquire)) {
      gate_.remove(search.id);
      outcome.state = SearchState::Canceled;
      outcome.message = cancel_reason_for(search);
      seal_unless_drain_resumable();
      return outcome;
    }
    if (draining()) {  // was queued when the drain started
      gate_.remove(search.id);
      outcome.state = SearchState::Canceled;
      outcome.message = "daemon draining";
      seal_unless_drain_resumable();
      return outcome;
    }
    const auto& fitness = registry_.get(search.request.fitness);
    // The exact Master::search evaluator — the full EvalPipeline (dedup ->
    // fleet cache -> dispatch) — with the fair-share gate in front: one
    // Grant per generation batch, held for the batch's whole worker
    // round-trip.  Tenants share one Worker, so they share its fleet cache:
    // a genome one tenant evaluated settles from cache for every other.
    const evo::EvolutionEngine::BatchEvaluator inner = make_search_evaluator(worker_);
    const std::uint64_t id = search.id;
    evo::EvolutionEngine engine(
        search.request.space, search.request.evolution,
        [this, id, &inner](const std::vector<evo::Genome>& genomes, util::ThreadPool& pool) {
          FairShareGate::Grant grant(gate_, id, genomes.size());
          return inner(genomes, pool);
        },
        fitness);
    bool stopped_early = false;
    engine.set_progress_observer([this, &search, &stopped_early](
                                     const evo::GenerationProgress& progress) {
      gate_.set_remaining(search.id,
                          search.request.evolution.max_evaluations > progress.models_evaluated
                              ? search.request.evolution.max_evaluations - progress.models_evaluated
                              : 0);
      emit_progress(search, static_cast<std::uint32_t>(progress.generation), *progress.population,
                    *progress.history, progress.models_evaluated);
      const bool keep = !search.cancel_requested.load(std::memory_order_acquire) && !draining();
      if (!keep) stopped_early = true;
      return keep;
    });
    if (writer) {
      engine.set_checkpoint_sink(
          [&writer](const evo::EngineSnapshot& snapshot) { writer->write(snapshot); });
    }
    util::Rng rng(search.request.seed);
    util::ThreadPool pool(search.request.threads);
    evo::EvolutionResult result = search.resume_from ? engine.resume(*search.resume_from, rng, pool)
                                                     : engine.run(rng, pool);
    gate_.remove(search.id);
    if (search.cancel_requested.load(std::memory_order_acquire)) {
      outcome.state = SearchState::Canceled;
      outcome.message = cancel_reason_for(search);
    } else if (stopped_early &&
               result.stats.models_evaluated < search.request.evolution.max_evaluations) {
      outcome.state = SearchState::Canceled;
      outcome.message = "daemon draining";
    } else {
      outcome.state = SearchState::Completed;
      outcome.result = std::move(result);
    }
  } catch (const SearchCanceled&) {
    gate_.remove(search.id);
    outcome.state = SearchState::Canceled;
    outcome.message = search.cancel_requested.load(std::memory_order_acquire)
                          ? cancel_reason_for(search)
                          : "daemon draining";
  } catch (const std::exception& e) {
    gate_.remove(search.id);
    outcome.state = SearchState::Failed;
    outcome.message = e.what();
  }
  seal_unless_drain_resumable();
  util::Log(util::LogLevel::Info, "core")
      << "search " << search.id << ' ' << to_string(outcome.state)
      << (outcome.message.empty() ? "" : (": " + outcome.message));
  return outcome;
}

void SearchScheduler::emit_progress(Search& search, std::uint32_t generation,
                                    const std::vector<evo::Candidate>& population,
                                    const std::vector<evo::Candidate>& history,
                                    std::size_t models_evaluated) {
  // Progress goes to the tenant's stream only.  A registry series per
  // search id would never be dropped, and a resident daemon's registry
  // would outgrow what one StatsReport may carry.
  if (!search.on_progress) return;
  SearchProgressInfo info;
  info.search_id = search.id;
  info.generation = generation;
  info.models_evaluated = models_evaluated;
  info.max_evaluations = search.request.evolution.max_evaluations;
  std::vector<evo::EvalResult> results;
  results.reserve(population.size());
  for (const evo::Candidate& candidate : population) results.push_back(candidate.result);
  const std::vector<evo::Metric> metrics = {evo::Metric::Accuracy, evo::Metric::Throughput};
  info.pareto_front_size = static_cast<std::uint32_t>(evo::pareto_front(results, metrics).size());
  double best = -std::numeric_limits<double>::infinity();
  for (const evo::Candidate& candidate : history) best = std::max(best, candidate.fitness);
  info.best_fitness = best;
  search.on_progress(info);
}

}  // namespace ecad::core
