// Scheduler-level crash safety: checkpointing searches through the
// FairShareGate, journaled admissions, drain-canceled searches staying
// resumable, and resume_submit() continuing a search bit-identically.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/search_scheduler.h"

namespace ecad::core {
namespace {

class SlowAnalyticWorker final : public Worker {
 public:
  explicit SlowAnalyticWorker(int delay_ms = 0) : delay_ms_(delay_ms) {}

  std::string name() const override { return "slow-analytic"; }

  evo::EvalResult evaluate(const evo::Genome& genome) const override {
    if (delay_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    }
    evo::EvalResult result;
    result.accuracy = 0.5 + 0.1 * static_cast<double>(genome.nna.hidden.size());
    result.outputs_per_second = 1e6 / static_cast<double>(genome.grid.dsp_usage());
    return result;
  }

 private:
  int delay_ms_ = 0;
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

// mkdtemp, not a fixed name: the submission journal is append-only, so a
// reused directory would leak state between test-binary invocations.
std::string make_temp_dir(const std::string& stem) {
  std::string templ = ::testing::TempDir() + "sched_resume_" + stem + "_XXXXXX";
  if (::mkdtemp(templ.data()) == nullptr) {
    ADD_FAILURE() << "mkdtemp failed for " << templ;
  }
  return templ;
}

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

void expect_same_record(const evo::EvolutionResult& a, const evo::EvolutionResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].genome, b.history[i].genome) << "history[" << i << "]";
    EXPECT_EQ(a.history[i].fitness, b.history[i].fitness);
  }
  EXPECT_EQ(a.best.genome, b.best.genome);
  EXPECT_EQ(a.best.fitness, b.best.fitness);
  EXPECT_EQ(a.stats.models_evaluated, b.stats.models_evaluated);
  EXPECT_EQ(a.stats.duplicates_skipped, b.stats.duplicates_skipped);
}

evo::EvolutionResult run_uninterrupted(const SearchRequest& request) {
  SlowAnalyticWorker worker;
  SearchScheduler scheduler(worker, {});
  OutcomeBox box;
  scheduler.submit(
      request, [](const SearchProgressInfo&) {},
      [&box](const SearchOutcome& outcome) { box.put(outcome); });
  const SearchOutcome outcome = box.take();
  EXPECT_EQ(outcome.state, SearchState::Completed);
  return outcome.result;
}

TEST(SchedulerCheckpoint, CompletedSearchLeavesDoneMarkerAndJournalEntry) {
  const std::string dir = make_temp_dir("complete");
  SlowAnalyticWorker worker;
  SearchSchedulerOptions options;
  options.checkpoint.dir = dir;
  SearchScheduler scheduler(worker, options);
  OutcomeBox box;
  const std::uint64_t id = scheduler.submit(
      small_request(3, 18), [](const SearchProgressInfo&) {},
      [&box](const SearchOutcome& outcome) { box.put(outcome); });
  EXPECT_EQ(box.take().state, SearchState::Completed);

  // Terminal: nothing to resume, but the journal still names the search.
  EXPECT_TRUE(scan_checkpoint_dir(dir).empty());
  EXPECT_NO_THROW(util::read_file_bytes(done_marker_path(dir, id)));
  const auto journaled = SubmissionJournal::load(SubmissionJournal::journal_path(dir));
  ASSERT_EQ(journaled.size(), 1u);
  EXPECT_EQ(journaled[0].search_id, id);
}

TEST(SchedulerCheckpoint, DrainCanceledSearchResumesBitIdentically) {
  const SearchRequest request = small_request(5, 36);
  const evo::EvolutionResult baseline = run_uninterrupted(request);

  const std::string dir = make_temp_dir("drain");
  OutcomeBox interrupted;
  {
    SlowAnalyticWorker slow(/*delay_ms=*/10);
    SearchSchedulerOptions options;
    options.checkpoint.dir = dir;
    // Declared before the scheduler so they outlive its draining destructor,
    // during which the progress callback may still fire.
    std::mutex mutex;
    std::condition_variable cv;
    bool progressed = false;
    SearchScheduler scheduler(slow, options);
    scheduler.submit(
        request,
        [&](const SearchProgressInfo&) {
          std::lock_guard<std::mutex> lock(mutex);
          progressed = true;
          cv.notify_all();
        },
        [&interrupted](const SearchOutcome& outcome) { interrupted.put(outcome); });
    // Wait for a generation boundary (=> a checkpoint on disk), then let the
    // scheduler destructor drain mid-search.
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return progressed; });
  }
  const SearchOutcome canceled = interrupted.take();
  ASSERT_EQ(canceled.state, SearchState::Canceled) << canceled.message;

  // The drained search kept its checkpoint — the whole point of the
  // drain-vs-client-cancel distinction.
  const std::vector<ResumableSearch> resumables = scan_checkpoint_dir(dir);
  ASSERT_EQ(resumables.size(), 1u);
  ASSERT_TRUE(resumables[0].has_snapshot);

  SlowAnalyticWorker fast;  // delay differs; results must not
  SearchSchedulerOptions options;
  options.checkpoint.dir = dir;
  SearchScheduler scheduler(fast, options);
  OutcomeBox resumed;
  scheduler.resume_submit(
      resumables[0], [](const SearchProgressInfo&) {},
      [&resumed](const SearchOutcome& outcome) { resumed.put(outcome); });
  const SearchOutcome outcome = resumed.take();
  ASSERT_EQ(outcome.state, SearchState::Completed) << outcome.message;
  expect_same_record(baseline, outcome.result);
  EXPECT_TRUE(scan_checkpoint_dir(dir).empty()) << "resumed search left a live checkpoint";
}

TEST(SchedulerCheckpoint, JournalOnlySearchIsReadmittedFromScratch) {
  const SearchRequest request = small_request(9, 18);
  const evo::EvolutionResult baseline = run_uninterrupted(request);

  // A journal entry with no checkpoint: accepted, never started.
  const std::string dir = make_temp_dir("journal_only");
  {
    SubmissionJournal journal(SubmissionJournal::journal_path(dir));
    journal.append(4, request);
  }
  const std::vector<ResumableSearch> resumables = scan_checkpoint_dir(dir);
  ASSERT_EQ(resumables.size(), 1u);
  EXPECT_FALSE(resumables[0].has_snapshot);

  SlowAnalyticWorker worker;
  SearchSchedulerOptions options;
  options.checkpoint.dir = dir;
  SearchScheduler scheduler(worker, options);
  OutcomeBox box;
  const std::uint64_t id = scheduler.resume_submit(
      resumables[0], [](const SearchProgressInfo&) {},
      [&box](const SearchOutcome& outcome) { box.put(outcome); });
  EXPECT_EQ(id, 4u) << "resume must keep the original search id";
  const SearchOutcome outcome = box.take();
  ASSERT_EQ(outcome.state, SearchState::Completed) << outcome.message;
  expect_same_record(baseline, outcome.result);
}

TEST(SchedulerCheckpoint, NewSubmissionsContinueAboveResumedIds) {
  const std::string dir = make_temp_dir("id_continuity");
  {
    SubmissionJournal journal(SubmissionJournal::journal_path(dir));
    journal.append(7, small_request(1, 12));
  }
  SlowAnalyticWorker worker;
  SearchSchedulerOptions options;
  options.checkpoint.dir = dir;
  SearchScheduler scheduler(worker, options);
  OutcomeBox resumed_box;
  const std::vector<ResumableSearch> resumables = scan_checkpoint_dir(dir);
  ASSERT_EQ(resumables.size(), 1u);
  scheduler.resume_submit(
      resumables[0], [](const SearchProgressInfo&) {},
      [&resumed_box](const SearchOutcome& outcome) { resumed_box.put(outcome); });
  OutcomeBox new_box;
  const std::uint64_t new_id = scheduler.submit(
      small_request(2, 12), [](const SearchProgressInfo&) {},
      [&new_box](const SearchOutcome& outcome) { new_box.put(outcome); });
  EXPECT_GT(new_id, 7u) << "fresh ids must not collide with resumed ones";
  const SearchOutcome resumed_outcome = resumed_box.take();
  EXPECT_EQ(resumed_outcome.state, SearchState::Completed) << resumed_outcome.message;
  const SearchOutcome new_outcome = new_box.take();
  EXPECT_EQ(new_outcome.state, SearchState::Completed) << new_outcome.message;
}

TEST(SchedulerCheckpoint, DuplicateResumeIdRejected) {
  const std::string dir = make_temp_dir("dup");
  {
    SubmissionJournal journal(SubmissionJournal::journal_path(dir));
    journal.append(3, small_request(1, 600));
  }
  SlowAnalyticWorker slow(/*delay_ms=*/5);
  SearchSchedulerOptions options;
  options.checkpoint.dir = dir;
  SearchScheduler scheduler(slow, options);
  const std::vector<ResumableSearch> resumables = scan_checkpoint_dir(dir);
  ASSERT_EQ(resumables.size(), 1u);
  OutcomeBox box;
  scheduler.resume_submit(
      resumables[0], [](const SearchProgressInfo&) {},
      [&box](const SearchOutcome& outcome) { box.put(outcome); });
  EXPECT_THROW(scheduler.resume_submit(
                   resumables[0], [](const SearchProgressInfo&) {},
                   [](const SearchOutcome&) {}),
               std::runtime_error);
}

}  // namespace
}  // namespace ecad::core
