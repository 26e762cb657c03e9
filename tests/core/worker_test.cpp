#include "core/worker.h"

#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "data/benchmarks.h"

namespace ecad::core {
namespace {

class WorkerTest : public ::testing::Test {
 protected:
  WorkerTest()
      : split_(data::load_benchmark_split(data::Benchmark::CreditG, 0.3, 5)) {
    options_.epochs = 8;
  }

  evo::Genome small_genome() const {
    evo::Genome genome;
    genome.nna.hidden = {16};
    genome.grid = {8, 8, 8, 4, 4};
    return genome;
  }

  data::TrainTestSplit split_;
  nn::TrainOptions options_;
};

TEST_F(WorkerTest, AccuracyWorkerTrainsAndScores) {
  const AccuracyWorker worker(split_, options_, 3);
  const evo::EvalResult result = worker.evaluate(small_genome());
  EXPECT_GT(result.accuracy, 0.5);  // must beat coin flip on credit-g surrogate
  EXPECT_LE(result.accuracy, 1.0);
  EXPECT_GT(result.parameters, 0.0);
  EXPECT_GT(result.flops_per_sample, 0.0);
  EXPECT_TRUE(result.feasible);
  // Accuracy worker does not model hardware.
  EXPECT_DOUBLE_EQ(result.outputs_per_second, 0.0);
}

TEST_F(WorkerTest, AccuracyWorkerDeterministicPerGenome) {
  const AccuracyWorker worker(split_, options_, 3);
  const evo::EvalResult a = worker.evaluate(small_genome());
  const evo::EvalResult b = worker.evaluate(small_genome());
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
}

TEST_F(WorkerTest, FpgaWorkerFillsHardwareMetrics) {
  const FpgaHardwareDatabaseWorker worker(split_, options_, 3, hw::arria10_gx1150(1), 256);
  const evo::EvalResult result = worker.evaluate(small_genome());
  EXPECT_GT(result.accuracy, 0.5);
  EXPECT_GT(result.outputs_per_second, 0.0);
  EXPECT_GT(result.latency_seconds, 0.0);
  EXPECT_GT(result.potential_gflops, 0.0);
  EXPECT_GT(result.hw_efficiency, 0.0);
  EXPECT_GT(result.power_watts, 20.0);
  EXPECT_GT(result.fmax_mhz, 100.0);
}

TEST_F(WorkerTest, FpgaWorkerRejectsOversizedGridWithoutTraining) {
  const FpgaHardwareDatabaseWorker worker(split_, options_, 3, hw::arria10_gx1150(1), 256);
  evo::Genome genome = small_genome();
  genome.grid = {32, 32, 16, 4, 4};  // 16384 DSPs >> 1518
  const evo::EvalResult result = worker.evaluate(genome);
  EXPECT_FALSE(result.feasible);
  EXPECT_DOUBLE_EQ(result.accuracy, 0.0);  // fail fast: no training happened
}

TEST_F(WorkerTest, GpuWorkerIgnoresHardwareTraits) {
  const GpuSimulationWorker worker(split_, options_, 3, hw::titan_x(), 512);
  evo::Genome a = small_genome();
  evo::Genome b = small_genome();
  b.grid = {16, 16, 4, 8, 8};  // different grid, same NNA
  const evo::EvalResult ra = worker.evaluate(a);
  const evo::EvalResult rb = worker.evaluate(b);
  EXPECT_DOUBLE_EQ(ra.outputs_per_second, rb.outputs_per_second);
}

TEST_F(WorkerTest, GpuWorkerEfficiencyIsLowForSmallNets) {
  const GpuSimulationWorker worker(split_, options_, 3, hw::titan_x(), 512);
  const evo::EvalResult result = worker.evaluate(small_genome());
  EXPECT_GT(result.hw_efficiency, 0.0);
  EXPECT_LT(result.hw_efficiency, 0.05);  // paper: ~0.3% on MLP workloads
}

TEST_F(WorkerTest, PhysicalWorkerNeedsNoTraining) {
  const PhysicalWorker worker(hw::arria10_gx1150(1));
  const evo::EvalResult result = worker.evaluate(small_genome());
  EXPECT_GT(result.power_watts, 20.0);
  EXPECT_GT(result.fmax_mhz, 100.0);
  EXPECT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.accuracy, 0.0);
}

TEST_F(WorkerTest, FpgaWorkerCostHintSkipsOversizedGridsAndGrowsWithWidth) {
  const FpgaHardwareDatabaseWorker worker(split_, options_, 3, hw::arria10_gx1150(1), 256);
  evo::Genome oversized = small_genome();
  oversized.grid = {32, 32, 16, 4, 4};  // evaluate() returns without training
  EXPECT_EQ(worker.cost_hint(oversized), 0.0);

  double previous = 0.0;
  for (const std::size_t width : {4u, 16u, 64u, 256u}) {
    evo::Genome genome = small_genome();
    genome.nna.hidden = {width, width};
    const double hint = worker.cost_hint(genome);
    EXPECT_GT(hint, previous) << "width " << width;
    previous = hint;
  }
  // The hint is the accuracy half's: FLOPs of one forward pass.
  const AccuracyWorker accuracy(split_, options_, 3);
  EXPECT_EQ(worker.cost_hint(small_genome()), accuracy.cost_hint(small_genome()));
  EXPECT_EQ(accuracy.cost_hint(small_genome()), worker.evaluate(small_genome()).flops_per_sample);
}

// Records the order it evaluates in; each genome's hint is its first width's
// entry in `hints`, and its result names its width.
class HintedRecordingWorker final : public Worker {
 public:
  explicit HintedRecordingWorker(std::vector<double> hints) : hints_(std::move(hints)) {}
  std::string name() const override { return "hinted"; }
  double cost_hint(const evo::Genome& genome) const override {
    return hints_.at(genome.nna.hidden.front());
  }
  evo::EvalResult evaluate(const evo::Genome& genome) const override {
    std::lock_guard<std::mutex> lock(mutex_);
    order_.push_back(genome.nna.hidden.front());
    evo::EvalResult result;
    result.parameters = static_cast<double>(genome.nna.hidden.front());
    return result;
  }
  std::vector<std::size_t> order() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return order_;
  }

 private:
  std::vector<double> hints_;
  mutable std::mutex mutex_;
  mutable std::vector<std::size_t> order_;
};

std::vector<evo::Genome> genomes_with_widths(const std::vector<std::size_t>& widths) {
  std::vector<evo::Genome> genomes(widths.size());
  for (std::size_t i = 0; i < widths.size(); ++i) genomes[i].nna.hidden = {widths[i]};
  return genomes;
}

TEST(WorkerDispatch, BatchRunsCostliestFirstAndKeepsEachOutcomeInItsSlot) {
  // Width w has hint hints[w]: widths 1 and 4 tie at 5, widths 0 and 5 at 0.
  const HintedRecordingWorker worker({0.0, 5.0, 9.0, 1.0, 5.0, 0.0, 7.0});
  const std::vector<evo::Genome> genomes = genomes_with_widths({0, 1, 2, 3, 4, 5, 6});
  util::ThreadPool pool(1);  // one thread runs the tasks in submission order
  const std::vector<evo::EvalOutcome> outcomes = worker.evaluate_batch(genomes, pool);

  EXPECT_EQ(worker.order(), (std::vector<std::size_t>{2, 6, 1, 4, 3, 0, 5}));
  EXPECT_EQ(dispatch_order(worker, genomes), (std::vector<std::size_t>{2, 6, 1, 4, 3, 0, 5}));
  ASSERT_EQ(outcomes.size(), genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
    EXPECT_EQ(outcomes[i].result.parameters, static_cast<double>(i)) << "slot " << i;
  }
}

TEST(WorkerDispatch, ZeroHintsKeepIndexOrder) {
  const HintedRecordingWorker worker(std::vector<double>(6, 0.0));
  const std::vector<evo::Genome> genomes = genomes_with_widths({5, 3, 1, 4, 0, 2});
  util::ThreadPool pool(1);
  worker.evaluate_batch(genomes, pool);
  EXPECT_EQ(worker.order(), (std::vector<std::size_t>{5, 3, 1, 4, 0, 2}));
  EXPECT_EQ(dispatch_order(worker, genomes), (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(dispatch_order(worker, {}).empty());
}

TEST_F(WorkerTest, WorkerNamesIdentifyBackend) {
  EXPECT_EQ(AccuracyWorker(split_, options_, 1).name(), "accuracy");
  EXPECT_NE(FpgaHardwareDatabaseWorker(split_, options_, 1, hw::arria10_gx1150()).name().find(
                "hw-db"),
            std::string::npos);
  EXPECT_NE(GpuSimulationWorker(split_, options_, 1, hw::titan_x()).name().find("sim"),
            std::string::npos);
  EXPECT_NE(PhysicalWorker(hw::arria10_gx1150()).name().find("physical"), std::string::npos);
}

}  // namespace
}  // namespace ecad::core
