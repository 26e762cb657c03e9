// SearchScheduler + FairShareGate: fair-share batch interleaving across
// concurrent searches, per-search cancellation, and graceful drain.
#include "core/search_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/master.h"
#include "util/metrics.h"

namespace ecad::core {
namespace {

// Deterministic analytic worker with an optional per-evaluation delay, so a
// search can be held "in flight" long enough to cancel or drain under it.
class SlowAnalyticWorker final : public Worker {
 public:
  explicit SlowAnalyticWorker(int delay_ms = 0) : delay_ms_(delay_ms) {}

  std::string name() const override { return "slow-analytic"; }

  evo::EvalResult evaluate(const evo::Genome& genome) const override {
    calls_.fetch_add(1);
    if (delay_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    }
    evo::EvalResult result;
    result.accuracy = 0.5 + 0.1 * static_cast<double>(genome.nna.hidden.size());
    result.outputs_per_second = 1e6 / static_cast<double>(genome.grid.dsp_usage());
    return result;
  }

  std::size_t calls() const { return calls_.load(); }

 private:
  int delay_ms_ = 0;
  mutable std::atomic<std::size_t> calls_{0};
};

SearchRequest small_request(std::uint64_t seed, std::size_t evaluations) {
  SearchRequest request;
  request.seed = seed;
  request.evolution.population_size = 6;
  request.evolution.max_evaluations = evaluations;
  request.evolution.batch_size = 3;
  request.threads = 1;
  return request;
}

/// Latch for outcomes delivered on runner threads.
class OutcomeBox {
 public:
  void put(const SearchOutcome& outcome) {
    std::lock_guard<std::mutex> lock(mutex_);
    outcome_ = outcome;
    done_ = true;
    cv_.notify_all();
  }
  SearchOutcome take() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return done_; });
    return outcome_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  SearchOutcome outcome_;
  bool done_ = false;
};

TEST(FairShareGate, WeightedGrantsApproachWeightRatio) {
  // One trial: two pumps rendezvous on `go` before their first acquire, and
  // each grant holds the slot ~200us — so thread-startup skew is a fraction
  // of one grant and cannot let either pump lap the other uncontended.
  // Returns {heavy grants, light grants}.
  auto trial = [] {
    FairShareGate gate(1);
    gate.add(1, 3.0, 1000);
    gate.add(2, 1.0, 1000);
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    auto pump = [&gate, &ready, &go, &stop](std::uint64_t id) {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      while (!stop.load()) {
        if (!gate.acquire(id, 1)) return;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        gate.release();
      }
    };
    std::thread heavy(pump, 1);
    std::thread light(pump, 2);
    while (ready.load() < 2) std::this_thread::yield();
    go.store(true);
    while (gate.grants(1) + gate.grants(2) < 300) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true);
    heavy.join();
    light.join();
    return std::pair<std::uint64_t, std::uint64_t>{gate.grants(1), gate.grants(2)};
  };

  // Stride scheduling gives the weight-3 entry ~3x the batches whenever both
  // pumps actually contend.  An oversubscribed single core can't guarantee
  // that: a holder descheduled in its release->reacquire gap leaves the
  // other pump as the only waiter, and the gate's no-banked-credit catch-up
  // then deliberately collapses such rounds into 1:1 alternation.  So demand
  // the ratio from the best of a few independent trials — the property under
  // test is the gate's choice rule, not the OS scheduler's cooperation.
  std::uint64_t heavy_grants = 0;
  std::uint64_t light_grants = 0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    std::tie(heavy_grants, light_grants) = trial();
    if (light_grants > 0 && heavy_grants >= light_grants * 2) return;
  }
  EXPECT_GT(light_grants, 0u) << "light search starved outright";
  EXPECT_GE(heavy_grants, light_grants * 2) << heavy_grants << " vs " << light_grants;
}

TEST(FairShareGate, RemoveWakesBlockedAcquire) {
  FairShareGate gate(1);
  gate.add(1, 1.0, 10);
  gate.add(2, 1.0, 10);
  ASSERT_TRUE(gate.acquire(1, 1));  // hold the only slot
  std::atomic<bool> returned{false};
  std::atomic<bool> granted{true};
  std::thread waiter([&] {
    granted.store(gate.acquire(2, 1));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load()) << "acquire returned without a slot";
  gate.remove(2);  // cancellation path
  waiter.join();
  EXPECT_TRUE(returned.load());
  EXPECT_FALSE(granted.load()) << "a removed search must not be granted a slot";
  gate.release();
}

TEST(FairShareGate, AcquireAfterRemoveFailsFast) {
  FairShareGate gate(2);
  gate.add(7, 1.0, 10);
  gate.remove(7);
  EXPECT_FALSE(gate.acquire(7, 1));
  EXPECT_EQ(gate.grants(7), 0u);
}

TEST(SearchScheduler, MatchesMasterSearchExactly) {
  const SlowAnalyticWorker worker;
  Master master;
  const SearchRequest request = small_request(11, 24);
  const evo::EvolutionResult reference = master.search(worker, request);

  SearchSchedulerOptions options;
  options.max_concurrent_searches = 1;
  SearchScheduler scheduler(worker, options);
  OutcomeBox box;
  scheduler.submit(request, nullptr, [&box](const SearchOutcome& outcome) { box.put(outcome); });
  const SearchOutcome outcome = box.take();

  ASSERT_EQ(outcome.state, SearchState::Completed) << outcome.message;
  ASSERT_EQ(outcome.result.history.size(), reference.history.size());
  for (std::size_t i = 0; i < reference.history.size(); ++i) {
    EXPECT_EQ(outcome.result.history[i].genome.key(), reference.history[i].genome.key())
        << "candidate " << i << " diverged";
    EXPECT_EQ(outcome.result.history[i].fitness, reference.history[i].fitness);
  }
  EXPECT_EQ(outcome.result.best.genome.key(), reference.best.genome.key());
  EXPECT_EQ(outcome.result.stats.models_evaluated, reference.stats.models_evaluated);
  EXPECT_EQ(outcome.result.stats.duplicates_skipped, reference.stats.duplicates_skipped);
}

TEST(SearchScheduler, ProgressObserverStreamsGenerationBoundaries) {
  const SlowAnalyticWorker worker;
  SearchScheduler scheduler(worker);
  std::mutex mutex;
  std::vector<SearchProgressInfo> seen;
  OutcomeBox box;
  const std::uint64_t id = scheduler.submit(
      small_request(3, 24),
      [&](const SearchProgressInfo& info) {
        std::lock_guard<std::mutex> lock(mutex);
        seen.push_back(info);
      },
      [&box](const SearchOutcome& outcome) { box.put(outcome); });
  const SearchOutcome outcome = box.take();
  ASSERT_EQ(outcome.state, SearchState::Completed);
  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_GE(seen.size(), 2u) << "expected generation 0 plus at least one fold";
  EXPECT_EQ(seen.front().generation, 0u);
  EXPECT_EQ(seen.front().search_id, id);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].generation, seen[i - 1].generation + 1);
    EXPECT_GE(seen[i].models_evaluated, seen[i - 1].models_evaluated);
  }
  EXPECT_EQ(seen.back().models_evaluated, 24u);
  EXPECT_GT(seen.back().pareto_front_size, 0u);
}

// A resident daemon runs searches without end, and the registry never drops
// a metric: per-search series would grow it until StatsReport refuses to
// carry it.  Progress reaches the tenant through its stream instead.
TEST(SearchScheduler, RegistryDoesNotGrowWithSearchesRun) {
  const SlowAnalyticWorker worker;
  SearchScheduler scheduler(worker);
  const auto run_searches = [&scheduler](std::uint64_t first_seed, int count) {
    for (int k = 0; k < count; ++k) {
      OutcomeBox box;
      scheduler.submit(small_request(first_seed + static_cast<std::uint64_t>(k), 12),
                       [](const SearchProgressInfo&) {},
                       [&box](const SearchOutcome& outcome) { box.put(outcome); });
      ASSERT_EQ(box.take().state, SearchState::Completed);
    }
  };
  run_searches(100, 1);
  const std::size_t after_one = util::metrics().snapshot("scheduler.").size();
  run_searches(200, 5);
  EXPECT_EQ(util::metrics().snapshot("scheduler.").size(), after_one);
}

TEST(SearchScheduler, FairShareLetsSmallSearchesFinishUnderABigOne) {
  const SlowAnalyticWorker worker(/*delay_ms=*/1);
  SearchSchedulerOptions options;
  options.max_concurrent_searches = 3;
  options.dispatch_slots = 1;  // full contention: every batch goes through the gate in turn
  SearchScheduler scheduler(worker, options);

  std::atomic<bool> big_done{false};
  std::atomic<int> small_finished_while_big_ran{0};
  OutcomeBox big_box;
  scheduler.submit(small_request(1, 600), nullptr, [&](const SearchOutcome& outcome) {
    big_done.store(true);
    big_box.put(outcome);
  });
  OutcomeBox small_a;
  OutcomeBox small_b;
  scheduler.submit(small_request(2, 24), nullptr, [&](const SearchOutcome& outcome) {
    if (!big_done.load()) small_finished_while_big_ran.fetch_add(1);
    small_a.put(outcome);
  });
  scheduler.submit(small_request(3, 24), nullptr, [&](const SearchOutcome& outcome) {
    if (!big_done.load()) small_finished_while_big_ran.fetch_add(1);
    small_b.put(outcome);
  });

  EXPECT_EQ(small_a.take().state, SearchState::Completed);
  EXPECT_EQ(small_b.take().state, SearchState::Completed);
  EXPECT_EQ(big_box.take().state, SearchState::Completed);
  // The big search must not have stalled the small ones past its fair
  // share: both 24-evaluation searches finish while the 600-evaluation one
  // is still running.
  EXPECT_EQ(small_finished_while_big_ran.load(), 2)
      << "small searches queued behind the big one instead of interleaving";
}

TEST(SearchScheduler, CancelStopsDispatchingToTheDeadSearch) {
  const SlowAnalyticWorker worker(/*delay_ms=*/3);
  SearchScheduler scheduler(worker);
  std::atomic<std::uint32_t> generations{0};
  OutcomeBox box;
  const std::uint64_t id = scheduler.submit(
      small_request(5, 600),
      [&generations](const SearchProgressInfo&) { generations.fetch_add(1); },
      [&box](const SearchOutcome& outcome) { box.put(outcome); });
  while (generations.load() < 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(scheduler.cancel(id, "test cancel"));
  const SearchOutcome outcome = box.take();
  EXPECT_EQ(outcome.state, SearchState::Canceled);
  EXPECT_EQ(outcome.message, "test cancel");
  EXPECT_EQ(scheduler.state_of(id), SearchState::Canceled);
  // Nothing is requeued to the dead search: the worker sees no further
  // evaluations once the cancel has settled.
  const std::size_t calls_at_done = worker.calls();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(worker.calls(), calls_at_done) << "evaluations dispatched after cancellation";
  // A second cancel is a clean no-op.
  EXPECT_FALSE(scheduler.cancel(id, "again"));
}

TEST(SearchScheduler, CancelQueuedSearchNeverDispatches) {
  const SlowAnalyticWorker worker(/*delay_ms=*/2);
  SearchSchedulerOptions options;
  options.max_concurrent_searches = 1;
  SearchScheduler scheduler(worker, options);
  OutcomeBox running_box;
  const std::uint64_t running = scheduler.submit(
      small_request(1, 300), nullptr,
      [&running_box](const SearchOutcome& outcome) { running_box.put(outcome); });
  OutcomeBox queued_box;
  std::atomic<int> queued_progress{0};
  const std::uint64_t queued = scheduler.submit(
      small_request(2, 300),
      [&queued_progress](const SearchProgressInfo&) { queued_progress.fetch_add(1); },
      [&queued_box](const SearchOutcome& outcome) { queued_box.put(outcome); });
  ASSERT_TRUE(scheduler.cancel(queued, "canceled while queued"));
  scheduler.cancel(running, "unblock the runner");
  EXPECT_EQ(queued_box.take().state, SearchState::Canceled);
  EXPECT_EQ(queued_progress.load(), 0) << "a canceled queued search must not start";
  running_box.take();
}

TEST(SearchScheduler, DrainFinishesInFlightGenerationsAndCancelsTheRest) {
  const SlowAnalyticWorker worker(/*delay_ms=*/3);
  SearchSchedulerOptions options;
  options.max_concurrent_searches = 1;
  SearchScheduler scheduler(worker, options);
  std::atomic<std::uint32_t> generations{0};
  OutcomeBox running_box;
  scheduler.submit(
      small_request(7, 600),
      [&generations](const SearchProgressInfo&) { generations.fetch_add(1); },
      [&running_box](const SearchOutcome& outcome) { running_box.put(outcome); });
  OutcomeBox queued_box;
  scheduler.submit(small_request(8, 600), nullptr,
                   [&queued_box](const SearchOutcome& outcome) { queued_box.put(outcome); });
  while (generations.load() < 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  scheduler.drain();
  // drain() returns only after every done-callback has fired.
  const SearchOutcome running_outcome = running_box.take();
  const SearchOutcome queued_outcome = queued_box.take();
  EXPECT_EQ(running_outcome.state, SearchState::Canceled);
  EXPECT_EQ(running_outcome.message, "daemon draining");
  EXPECT_EQ(queued_outcome.state, SearchState::Canceled);
  EXPECT_EQ(queued_outcome.message, "daemon draining");
  EXPECT_EQ(scheduler.active_searches(), 0u);
  // The in-flight generation completed (no torn batches): the worker goes
  // quiet the moment drain() returns.
  const std::size_t calls_at_drain = worker.calls();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(worker.calls(), calls_at_drain);
  // And the scheduler admits nothing new.
  EXPECT_THROW(scheduler.submit(small_request(9, 24), nullptr, nullptr), std::runtime_error);
}

TEST(SearchScheduler, UnknownFitnessFailsFast) {
  const SlowAnalyticWorker worker;
  SearchScheduler scheduler(worker);
  EXPECT_THROW(
      {
        SearchRequest request = small_request(1, 24);
        request.fitness = "no-such-fitness";
        scheduler.submit(std::move(request), nullptr, nullptr);
      },
      std::out_of_range);
  EXPECT_EQ(scheduler.active_searches(), 0u);
}

}  // namespace
}  // namespace ecad::core
