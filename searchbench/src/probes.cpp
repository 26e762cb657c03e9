#include "probes.h"

#include <functional>

#include "hwmodel/fpga_model.h"
#include "hwmodel/resource_model.h"
#include "util/rng.h"

namespace searchbench {

using namespace ecad;

ProbeWorker::ProbeWorker(const core::Worker& inner, bool local_fanout)
    : inner_(inner), local_fanout_(local_fanout) {}

ProbeWorker::ThreadState& ProbeWorker::state() const {
  // Each thread touches only its own entry; std::map keeps references
  // stable while other threads insert theirs.
  std::lock_guard<std::mutex> lock(mutex_);
  return threads_[std::this_thread::get_id()];
}

void ProbeWorker::close(ThreadState& state, Clock::time_point generation_end) {
  if (state.pipeline_span.id != 0) {
    state.pipeline_span.end = state.last_stage_end;
    tracer().record(std::move(state.pipeline_span));
    state.pipeline_span = Span{};
  }
  if (state.generation_span.id != 0) {
    state.generation_span.end = generation_end;
    tracer().record(std::move(state.generation_span));
    state.generation_span = Span{};
  }
}

const core::FleetEvalCache* ProbeWorker::fleet_cache() const {
  const Clock::time_point now = Clock::now();
  const core::FleetEvalCache* inner_cache = inner_.fleet_cache();
  ThreadState& s = state();
  s.entries.push_back(now);
  const std::uint64_t generation = s.generation++;
  if (!tracer().enabled()) return inner_cache;

  close(s, now);
  std::uint64_t parent = 0;
  if (s.search_span != 0) {
    s.generation_span.name = "generation";
    s.generation_span.id = tracer().new_id();
    s.generation_span.parent = s.search_span;
    s.generation_span.search = s.search;
    s.generation_span.generation = generation;
    s.generation_span.start = now;
    parent = s.generation_span.id;
  }
  s.pipeline_span.name = "pipeline";
  s.pipeline_span.id = tracer().new_id();
  s.pipeline_span.parent = parent;
  s.pipeline_span.search = s.search;
  s.pipeline_span.generation = generation;
  s.pipeline_span.start = now;
  s.last_stage_end = Clock::now();
  s.pipeline_span.probe_seconds = seconds_between(now, s.last_stage_end);
  return inner_cache == nullptr ? nullptr : &cache_;
}

void ProbeWorker::stage(const char* name, Clock::time_point start, Clock::time_point end,
                        const std::vector<evo::Genome>* batch) const {
  ThreadState& s = state();
  Span span;
  span.name = name;
  span.id = tracer().new_id();
  span.parent = s.pipeline_span.id;
  span.search = s.search;
  span.generation = s.pipeline_span.generation;
  span.start = start;
  span.end = end;
  const bool dispatch = span.name == "dispatch";
  if (batch != nullptr && (dispatch || s.pipeline_span.batch_keys.empty())) {
    std::vector<std::uint64_t> keys;
    keys.reserve(batch->size());
    for (const evo::Genome& genome : *batch) keys.push_back(key_hash(genome));
    if (s.pipeline_span.batch_keys.empty() && !keys.empty()) {
      s.pipeline_span.key = keys.front();
      s.pipeline_span.batch_keys = keys;
    }
    if (dispatch) span.batch_keys = std::move(keys);
  }
  tracer().record(std::move(span));
  s.last_stage_end = Clock::now();
  s.pipeline_span.probe_seconds += seconds_between(end, s.last_stage_end);
}

evo::EvalResult ProbeWorker::evaluate(const evo::Genome& genome) const {
  return inner_.evaluate(genome);
}

std::vector<evo::EvalOutcome> ProbeWorker::evaluate_batch(const std::vector<evo::Genome>& genomes,
                                                          util::ThreadPool& pool) const {
  const auto forward = [&] {
    return local_fanout_ ? Worker::evaluate_batch(genomes, pool)
                         : inner_.evaluate_batch(genomes, pool);
  };
  if (!tracer().enabled()) return forward();
  const Clock::time_point start = Clock::now();
  std::vector<evo::EvalOutcome> outcomes = forward();
  stage("dispatch", start, Clock::now(), &genomes);
  return outcomes;
}

void ProbeWorker::ProbeCache::fleet_lookup(const std::vector<evo::Genome>& genomes,
                                           std::vector<evo::EvalOutcome>& outcomes) const {
  const Clock::time_point start = Clock::now();
  owner_.inner_.fleet_cache()->fleet_lookup(genomes, outcomes);
  owner_.stage("cache.lookup", start, Clock::now(), &genomes);
}

void ProbeWorker::ProbeCache::fleet_store(const std::vector<evo::Genome>& genomes,
                                          const std::vector<evo::EvalOutcome>& outcomes) const {
  const Clock::time_point start = Clock::now();
  owner_.inner_.fleet_cache()->fleet_store(genomes, outcomes);
  owner_.stage("cache.store", start, Clock::now(), nullptr);
}

void ProbeWorker::begin_search(std::uint64_t search_id, std::uint64_t search_span) {
  ThreadState& s = state();
  s.search = search_id;
  s.search_span = search_span;
  s.generation = 0;
  s.entries.clear();
}

std::vector<Clock::time_point> ProbeWorker::end_search(Clock::time_point end) {
  ThreadState& s = state();
  close(s, end);
  s.search = 0;
  s.search_span = 0;
  return std::move(s.entries);
}

void ProbeWorker::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [thread, s] : threads_) close(s, s.last_stage_end);
}

namespace {
thread_local std::uint64_t t_eval_span = 0;
}  // namespace

std::uint64_t EvalSpanWorker::current_eval_span() { return t_eval_span; }

evo::EvalResult EvalSpanWorker::evaluate(const evo::Genome& genome) const {
  if (!tracer().enabled()) return inner_.evaluate(genome);
  Span span;
  span.name = "worker.eval";
  span.id = tracer().new_id();
  span.key = key_hash(genome);
  struct Restore {
    std::uint64_t previous;
    ~Restore() { t_eval_span = previous; }
  } restore{t_eval_span};
  t_eval_span = span.id;
  span.start = Clock::now();
  evo::EvalResult result = inner_.evaluate(genome);
  span.end = Clock::now();
  tracer().record(std::move(span));
  return result;
}

ReplicaHwdbWorker::ReplicaHwdbWorker(const data::TrainTestSplit& split, nn::TrainOptions options,
                                     std::uint64_t seed, hw::FpgaDevice device, std::size_t batch)
    : split_(split), options_(options), seed_(seed), device_(std::move(device)), batch_(batch) {}

evo::EvalResult ReplicaHwdbWorker::evaluate(const evo::Genome& genome) const {
  const std::uint64_t parent = EvalSpanWorker::current_eval_span();
  const auto timed = [parent](const char* name, const auto& call) {
    Span span;
    span.name = name;
    span.id = tracer().new_id();
    span.parent = parent;
    span.start = Clock::now();
    call();
    span.end = Clock::now();
    tracer().record(std::move(span));
  };

  evo::EvalResult result;
  if (!genome.grid.fits(device_)) {
    result.feasible = false;
    return result;
  }
  const nn::MlpSpec spec =
      genome.nna.to_mlp_spec(split_.train.num_features(), split_.train.num_classes);
  spec.validate();
  result.parameters = static_cast<double>(spec.num_parameters());
  result.flops_per_sample = static_cast<double>(spec.flops_per_sample());

  // The worker's per-genome training seed: base seed ^ std::hash of the key.
  util::Rng rng(seed_ ^ std::hash<std::string>{}(genome.key()));
  nn::Mlp mlp(spec, rng);
  timed("nn.train", [&] { nn::train(mlp, split_.train, /*validation=*/nullptr, options_, rng); });
  timed("nn.validate", [&] { result.accuracy = nn::evaluate_accuracy(mlp, split_.test); });
  timed("hw.model", [&] {
    const hw::FpgaPerfReport perf = hw::evaluate_fpga(spec, batch_, genome.grid, device_);
    result.outputs_per_second = perf.outputs_per_second;
    result.latency_seconds = perf.latency_seconds;
    result.potential_gflops = perf.potential_gflops;
    result.effective_gflops = perf.effective_gflops;
    result.hw_efficiency = perf.efficiency;
    const hw::PhysicalReport physical = hw::estimate_physical(genome.grid, device_);
    result.power_watts = physical.power_watts;
    result.fmax_mhz = physical.fmax_mhz;
    result.feasible = physical.fits;
  });
  return result;
}

}  // namespace searchbench
