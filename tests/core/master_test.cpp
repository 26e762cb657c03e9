#include "core/master.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "data/splits.h"
#include "data/synthetic.h"
#include "hwmodel/device.h"

namespace ecad::core {
namespace {

// Deterministic analytic worker (no training): lets master tests run fast.
class AnalyticWorker final : public Worker {
 public:
  std::string name() const override { return "analytic"; }
  evo::EvalResult evaluate(const evo::Genome& genome) const override {
    evo::EvalResult result;
    result.accuracy = 0.5 + 0.1 * static_cast<double>(genome.nna.hidden.size());
    result.outputs_per_second = 1e6 / static_cast<double>(genome.grid.dsp_usage());
    return result;
  }
};

TEST(Master, RunsSearchWithNamedFitness) {
  Master master;
  const AnalyticWorker worker;
  SearchRequest request;
  request.evolution.population_size = 6;
  request.evolution.max_evaluations = 24;
  request.fitness = "accuracy";
  request.threads = 1;
  const auto result = master.search(worker, request);
  EXPECT_GE(result.stats.models_evaluated, 6u);
  // Accuracy grows with depth; the winner should use max layers (4).
  EXPECT_EQ(result.best.genome.nna.hidden.size(), 4u);
}

// Counts distinct evaluations — the probe for intra-batch dedup.
class CountingWorker final : public Worker {
 public:
  std::string name() const override { return "counting"; }
  evo::EvalResult evaluate(const evo::Genome& genome) const override {
    calls_.fetch_add(1);
    evo::EvalResult result;
    result.accuracy = 0.5 + 0.01 * static_cast<double>(genome.nna.hidden.size());
    result.parameters = static_cast<double>(genome.grid.dsp_usage());
    return result;
  }
  std::size_t calls() const { return calls_.load(); }

 private:
  mutable std::atomic<std::size_t> calls_{0};
};

TEST(Master, IntraBatchDedupCollapsesDuplicatesAndFansResultsBack) {
  const CountingWorker worker;
  util::ThreadPool pool(2);

  evo::Genome a;
  a.nna.hidden = {16};
  evo::Genome b;
  b.nna.hidden = {32, 8};
  // a twice, b three times, a again: 6 slots, 2 unique evaluations.
  const std::vector<evo::Genome> genomes = {a, b, a, b, b, a};
  const std::vector<evo::EvalOutcome> outcomes = evaluate_batch_deduped(worker, genomes, pool);

  ASSERT_EQ(outcomes.size(), genomes.size());
  EXPECT_EQ(worker.calls(), 2u) << "duplicate genomes crossed the dedup layer";
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << "slot " << i;
    const evo::EvalResult direct = worker.evaluate(genomes[i]);
    EXPECT_EQ(outcomes[i].result.accuracy, direct.accuracy) << "slot " << i;
    EXPECT_EQ(outcomes[i].result.parameters, direct.parameters) << "slot " << i;
  }
  // Duplicate slots hold bit-identical copies of the first occurrence.
  EXPECT_EQ(outcomes[0].result.accuracy, outcomes[2].result.accuracy);
  EXPECT_EQ(outcomes[1].result.accuracy, outcomes[4].result.accuracy);
}

TEST(Master, DedupPassesUniqueBatchesStraightThrough) {
  const CountingWorker worker;
  util::ThreadPool pool(2);
  std::vector<evo::Genome> genomes(3);
  for (std::size_t i = 0; i < genomes.size(); ++i) genomes[i].nna.hidden = {8 + 8 * i};
  const std::vector<evo::EvalOutcome> outcomes = evaluate_batch_deduped(worker, genomes, pool);
  ASSERT_EQ(outcomes.size(), genomes.size());
  EXPECT_EQ(worker.calls(), genomes.size());
  for (const evo::EvalOutcome& outcome : outcomes) EXPECT_TRUE(outcome.ok);
}

TEST(Master, DedupPreservesPerSlotErrorsForPoisonedDuplicates) {
  // Poisoned genome appearing twice: both slots fail with the same message,
  // from one evaluation.
  class PartiallyThrowingWorker final : public Worker {
   public:
    std::string name() const override { return "partial"; }
    evo::EvalResult evaluate(const evo::Genome& genome) const override {
      if (genome.nna.hidden.empty()) throw std::domain_error("poisoned");
      evo::EvalResult result;
      result.accuracy = 0.7;
      return result;
    }
  };
  const PartiallyThrowingWorker worker;
  util::ThreadPool pool(2);
  evo::Genome poisoned;  // empty hidden list
  evo::Genome healthy;
  healthy.nna.hidden = {8};
  const std::vector<evo::Genome> genomes = {poisoned, healthy, poisoned};
  const std::vector<evo::EvalOutcome> outcomes = evaluate_batch_deduped(worker, genomes, pool);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_TRUE(outcomes[1].ok);
  EXPECT_FALSE(outcomes[2].ok);
  EXPECT_EQ(outcomes[0].error, outcomes[2].error);
}

// Worker that fails on every genome — exercises error propagation.
class ExplodingWorker final : public Worker {
 public:
  std::string name() const override { return "exploding"; }
  evo::EvalResult evaluate(const evo::Genome& genome) const override {
    throw std::domain_error("synthetic failure for " + std::to_string(genome.grid.rows) +
                            " rows");
  }
};

TEST(Master, WorkerFailureCarriesWorkerNameAndGenomeKey) {
  Master master;
  const ExplodingWorker worker;
  SearchRequest request;
  request.evolution.population_size = 4;
  request.evolution.max_evaluations = 8;
  request.threads = 2;
  try {
    master.search(worker, request);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    // The offending candidate is identifiable: worker name, genome key, and
    // the original reason all survive the thread-pool rethrow.
    EXPECT_NE(message.find("worker 'exploding' failed on genome "), std::string::npos)
        << message;
    EXPECT_NE(message.find("h:"), std::string::npos) << message;  // genome key prefix
    EXPECT_NE(message.find("synthetic failure"), std::string::npos) << message;
  }
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Every field a search's record carries except eval_seconds (wall clock).
void expect_same_record(const evo::Candidate& a, const evo::Candidate& b, const std::string& what) {
  EXPECT_EQ(a.genome.key(), b.genome.key()) << what;
  EXPECT_TRUE(same_bits(a.fitness, b.fitness)) << what;
  const evo::EvalResult& x = a.result;
  const evo::EvalResult& y = b.result;
  const double evo::EvalResult::*fields[] = {
      &evo::EvalResult::accuracy,         &evo::EvalResult::outputs_per_second,
      &evo::EvalResult::latency_seconds,  &evo::EvalResult::potential_gflops,
      &evo::EvalResult::effective_gflops, &evo::EvalResult::hw_efficiency,
      &evo::EvalResult::power_watts,      &evo::EvalResult::fmax_mhz,
      &evo::EvalResult::parameters,       &evo::EvalResult::flops_per_sample};
  for (const auto field : fields) EXPECT_TRUE(same_bits(x.*field, y.*field)) << what;
  EXPECT_EQ(x.feasible, y.feasible) << what;
}

// Largest-first dispatch reorders which thread trains which candidate when;
// the record must not notice, whatever the pool width.
TEST(Master, HardwareDatabaseSearchIsIndependentOfThreadCount) {
  data::SyntheticSpec spec;
  spec.num_samples = 240;
  spec.num_features = 12;
  spec.num_classes = 3;
  util::Rng data_rng(17);
  util::Rng split_rng(18);
  const data::TrainTestSplit split =
      data::stratified_split(data::generate_synthetic(spec, data_rng), 0.25, split_rng);
  nn::TrainOptions options;
  options.epochs = 2;
  const FpgaHardwareDatabaseWorker worker(split, options, 5, hw::arria10_gx1150());

  SearchRequest request;
  request.seed = 9;
  request.fitness = "accuracy_x_throughput";
  request.evolution.population_size = 8;
  request.evolution.max_evaluations = 24;
  request.evolution.batch_size = 4;
  request.space.width_choices = {4, 8, 16, 32, 64, 128};
  Master master;
  std::vector<evo::EvolutionResult> results;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    request.threads = threads;
    results.push_back(master.search(worker, request));
  }
  for (std::size_t r = 1; r < results.size(); ++r) {
    const std::vector<evo::Candidate>& want = results[0].history;
    const std::vector<evo::Candidate>& got = results[r].history;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_same_record(got[i], want[i], "run " + std::to_string(r) + " candidate " +
                                              std::to_string(i));
    }
    expect_same_record(results[r].best, results[0].best, "best of run " + std::to_string(r));
  }
}

TEST(Master, UnknownFitnessThrows) {
  Master master;
  const AnalyticWorker worker;
  SearchRequest request;
  request.fitness = "made_up_metric";
  EXPECT_THROW(master.search(worker, request), std::out_of_range);
}

TEST(Master, CustomFitnessRegistration) {
  Master master;
  master.registry().register_fn("inverse_dsp", [](const evo::EvalResult& result) {
    return result.outputs_per_second;  // analytic worker: smaller grid = higher
  });
  const AnalyticWorker worker;
  SearchRequest request;
  request.evolution.population_size = 6;
  request.evolution.max_evaluations = 30;
  request.fitness = "inverse_dsp";
  request.threads = 1;
  const auto result = master.search(worker, request);
  // The best genome should use a small grid (dsp_usage near the minimum 16).
  EXPECT_LE(result.best.genome.grid.dsp_usage(), 64u);
}

TEST(Master, ParetoCandidatesAreNonDominatedAndSorted) {
  std::vector<evo::Candidate> history;
  auto add = [&history](double accuracy, double throughput) {
    evo::Candidate candidate;
    candidate.result.accuracy = accuracy;
    candidate.result.outputs_per_second = throughput;
    history.push_back(candidate);
  };
  add(0.95, 1e5);
  add(0.90, 1e6);
  add(0.90, 5e5);  // dominated
  add(0.85, 1e7);
  add(0.70, 1e3);  // dominated

  const auto front = Master::pareto_candidates(
      history, {evo::Metric::Accuracy, evo::Metric::Throughput});
  ASSERT_EQ(front.size(), 3u);
  EXPECT_DOUBLE_EQ(front[0].result.accuracy, 0.95);  // sorted by accuracy desc
  EXPECT_DOUBLE_EQ(front[1].result.accuracy, 0.90);
  EXPECT_DOUBLE_EQ(front[2].result.accuracy, 0.85);
}

}  // namespace
}  // namespace ecad::core
