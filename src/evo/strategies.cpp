#include "evo/strategies.h"

#include <algorithm>
#include <stdexcept>

#include "util/stopwatch.h"

namespace ecad::evo {

namespace {

Candidate evaluate_one(const Genome& genome, const EvolutionEngine::Evaluator& evaluate,
                       const EvolutionEngine::Fitness& fitness) {
  Candidate candidate;
  candidate.genome = genome;
  util::Stopwatch watch;
  candidate.result = evaluate(genome);
  candidate.result.eval_seconds = watch.elapsed_seconds();
  candidate.fitness = fitness(candidate.result);
  return candidate;
}

void finalize(EvolutionResult& out, const util::Stopwatch& wall) {
  out.stats.models_evaluated = out.history.size();
  for (const Candidate& candidate : out.history) {
    out.stats.total_eval_seconds += candidate.result.eval_seconds;
  }
  out.stats.avg_eval_seconds =
      out.history.empty() ? 0.0
                          : out.stats.total_eval_seconds /
                                static_cast<double>(out.history.size());
  out.stats.wall_seconds = wall.elapsed_seconds();
  out.best = out.history.front();
  for (const Candidate& candidate : out.history) {
    if (candidate.fitness > out.best.fitness) out.best = candidate;
  }
  out.population = out.history;
  std::sort(out.population.begin(), out.population.end(),
            [](const Candidate& a, const Candidate& b) { return a.fitness > b.fitness; });
  if (out.population.size() > 16) out.population.resize(16);
}

}  // namespace

EvolutionResult random_search(const SearchSpace& space, std::size_t max_evaluations,
                              const EvolutionEngine::Evaluator& evaluate,
                              const EvolutionEngine::Fitness& fitness, util::Rng& rng,
                              util::ThreadPool& pool) {
  space.validate();
  if (max_evaluations == 0) {
    throw std::invalid_argument("random_search: max_evaluations must be > 0");
  }
  util::Stopwatch wall;
  EvolutionResult out;
  EvalCache cache;

  while (out.history.size() < max_evaluations) {
    // Draw a batch of unseen genomes.
    std::vector<Genome> batch;
    const std::size_t want =
        std::min(std::max<std::size_t>(1, pool.size()), max_evaluations - out.history.size());
    std::size_t attempts = 0;
    while (batch.size() < want && attempts < want * 50) {
      Genome genome = random_genome(space, rng);
      ++attempts;
      if (cache.contains(genome.key())) {
        ++out.stats.duplicates_skipped;
        continue;
      }
      cache.store(genome.key(), EvalResult{});
      batch.push_back(std::move(genome));
    }
    if (batch.empty()) break;  // space exhausted

    std::vector<Candidate> evaluated(batch.size());
    pool.parallel_for(batch.size(), [&](std::size_t i) {
      evaluated[i] = evaluate_one(batch[i], evaluate, fitness);
    });
    for (Candidate& candidate : evaluated) out.history.push_back(std::move(candidate));
  }
  finalize(out, wall);
  return out;
}

EvolutionResult hill_climb(const SearchSpace& space, const HillClimbConfig& config,
                           const EvolutionEngine::Evaluator& evaluate,
                           const EvolutionEngine::Fitness& fitness, util::Rng& rng,
                           util::ThreadPool& pool) {
  space.validate();
  if (config.max_evaluations == 0) {
    throw std::invalid_argument("hill_climb: max_evaluations must be > 0");
  }
  if (config.neighbours_per_step == 0) {
    throw std::invalid_argument("hill_climb: neighbours_per_step must be > 0");
  }
  util::Stopwatch wall;
  EvolutionResult out;
  EvalCache cache;

  auto fresh_random = [&]() -> std::optional<Genome> {
    for (int attempt = 0; attempt < 100; ++attempt) {
      Genome genome = random_genome(space, rng);
      if (!cache.contains(genome.key())) return genome;
    }
    return std::nullopt;
  };

  std::optional<Genome> seed = fresh_random();
  if (!seed) return out;
  cache.store(seed->key(), EvalResult{});
  Candidate incumbent = evaluate_one(*seed, evaluate, fitness);
  out.history.push_back(incumbent);

  std::size_t stale = 0;
  while (out.history.size() < config.max_evaluations) {
    // Propose unseen neighbours of the incumbent.
    std::vector<Genome> neighbours;
    std::size_t attempts = 0;
    const std::size_t want = std::min(config.neighbours_per_step,
                                      config.max_evaluations - out.history.size());
    while (neighbours.size() < want && attempts < want * 30) {
      Genome neighbour = mutate(incumbent.genome, space, rng, config.mutation_count);
      ++attempts;
      if (cache.contains(neighbour.key())) continue;
      cache.store(neighbour.key(), EvalResult{});
      neighbours.push_back(std::move(neighbour));
    }
    if (neighbours.empty()) {
      // Local neighbourhood exhausted: restart.
      std::optional<Genome> restart = fresh_random();
      if (!restart) break;
      cache.store(restart->key(), EvalResult{});
      incumbent = evaluate_one(*restart, evaluate, fitness);
      out.history.push_back(incumbent);
      stale = 0;
      continue;
    }

    std::vector<Candidate> evaluated(neighbours.size());
    pool.parallel_for(neighbours.size(), [&](std::size_t i) {
      evaluated[i] = evaluate_one(neighbours[i], evaluate, fitness);
    });

    bool improved = false;
    for (Candidate& candidate : evaluated) {
      if (candidate.fitness > incumbent.fitness) {
        incumbent = candidate;
        improved = true;
      }
      out.history.push_back(std::move(candidate));
    }
    stale = improved ? 0 : stale + 1;
    if (stale >= config.restart_patience && out.history.size() < config.max_evaluations) {
      if (std::optional<Genome> restart = fresh_random()) {
        cache.store(restart->key(), EvalResult{});
        incumbent = evaluate_one(*restart, evaluate, fitness);
        out.history.push_back(incumbent);
        stale = 0;
      }
    }
  }
  finalize(out, wall);
  return out;
}

}  // namespace ecad::evo
