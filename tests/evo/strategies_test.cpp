#include "evo/strategies.h"

#include <gtest/gtest.h>

#include <set>

namespace ecad::evo {
namespace {

// Same synthetic landscape as engine_test: rewards 2x64 tanh on a 16-row grid.
EvalResult landscape(const Genome& genome) {
  EvalResult result;
  double score = 0.0;
  if (genome.nna.hidden.size() == 2) score += 0.3;
  for (std::size_t width : genome.nna.hidden) {
    if (width == 64) score += 0.2;
  }
  if (genome.nna.activation == nn::Activation::Tanh) score += 0.1;
  if (genome.grid.rows == 16) score += 0.2;
  result.accuracy = score;
  return result;
}

double fitness(const EvalResult& result) { return result.accuracy; }

TEST(RandomSearch, RespectsBudgetAndDedups) {
  util::Rng rng(1);
  util::ThreadPool pool(1);
  const EvolutionResult result = random_search(SearchSpace{}, 40, landscape, fitness, rng, pool);
  EXPECT_LE(result.history.size(), 40u);
  EXPECT_GE(result.history.size(), 35u);
  std::set<std::string> keys;
  for (const auto& candidate : result.history) keys.insert(candidate.genome.key());
  EXPECT_EQ(keys.size(), result.history.size());
}

TEST(RandomSearch, BestIsMaxOfHistory) {
  util::Rng rng(2);
  util::ThreadPool pool(2);
  const EvolutionResult result = random_search(SearchSpace{}, 30, landscape, fitness, rng, pool);
  double max_fitness = 0.0;
  for (const auto& candidate : result.history) {
    max_fitness = std::max(max_fitness, candidate.fitness);
  }
  EXPECT_DOUBLE_EQ(result.best.fitness, max_fitness);
}

TEST(RandomSearch, ExhaustsTinySpacesGracefully) {
  SearchSpace tiny;
  tiny.width_choices = {8};
  tiny.max_hidden_layers = 1;
  tiny.activations = {nn::Activation::ReLU};
  tiny.allow_no_bias = false;
  tiny.search_hardware = false;  // exactly one genome exists
  util::Rng rng(3);
  util::ThreadPool pool(1);
  const EvolutionResult result = random_search(tiny, 50, landscape, fitness, rng, pool);
  EXPECT_EQ(result.history.size(), 1u);
}

TEST(RandomSearch, ZeroBudgetThrows) {
  util::Rng rng(8);
  util::ThreadPool pool(1);
  std::size_t evaluations = 0;
  const auto counting = [&evaluations](const Genome& genome) {
    ++evaluations;
    return landscape(genome);
  };
  EXPECT_THROW(random_search(SearchSpace{}, 0, counting, fitness, rng, pool),
               std::invalid_argument);
  EXPECT_EQ(evaluations, 0u);
}

TEST(HillClimb, ImprovesOverItsOwnStart) {
  util::Rng rng(4);
  util::ThreadPool pool(1);
  HillClimbConfig config;
  config.max_evaluations = 60;
  const EvolutionResult result = hill_climb(SearchSpace{}, config, landscape, fitness, rng, pool);
  EXPECT_GE(result.best.fitness, result.history.front().fitness);
  EXPECT_GT(result.best.fitness, 0.3);
  EXPECT_LE(result.history.size(), 60u + config.neighbours_per_step);
}

TEST(HillClimb, NeverEvaluatesDuplicates) {
  util::Rng rng(5);
  util::ThreadPool pool(2);
  HillClimbConfig config;
  config.max_evaluations = 50;
  const EvolutionResult result = hill_climb(SearchSpace{}, config, landscape, fitness, rng, pool);
  std::set<std::string> keys;
  for (const auto& candidate : result.history) keys.insert(candidate.genome.key());
  EXPECT_EQ(keys.size(), result.history.size());
}

TEST(HillClimb, ZeroNeighboursThrows) {
  util::Rng rng(6);
  util::ThreadPool pool(1);
  HillClimbConfig config;
  config.neighbours_per_step = 0;
  EXPECT_THROW(hill_climb(SearchSpace{}, config, landscape, fitness, rng, pool),
               std::invalid_argument);
}

TEST(HillClimb, ZeroBudgetThrows) {
  util::Rng rng(9);
  util::ThreadPool pool(1);
  std::size_t evaluations = 0;
  const auto counting = [&evaluations](const Genome& genome) {
    ++evaluations;
    return landscape(genome);
  };
  HillClimbConfig config;
  config.max_evaluations = 0;
  EXPECT_THROW(hill_climb(SearchSpace{}, config, counting, fitness, rng, pool),
               std::invalid_argument);
  EXPECT_EQ(evaluations, 0u);
}

TEST(Strategies, StatsAreConsistent) {
  util::Rng rng(7);
  util::ThreadPool pool(1);
  const EvolutionResult result = random_search(SearchSpace{}, 20, landscape, fitness, rng, pool);
  EXPECT_EQ(result.stats.models_evaluated, result.history.size());
  EXPECT_NEAR(result.stats.avg_eval_seconds,
              result.stats.total_eval_seconds / static_cast<double>(result.history.size()),
              1e-12);
}

}  // namespace
}  // namespace ecad::evo
