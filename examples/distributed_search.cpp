// Distributed evaluation demo (paper §III): shard one co-design search
// across two worker daemons and verify the result matches in-process
// evaluation exactly.
//
// Everything runs inside this one process — two WorkerServers on loopback
// ephemeral ports stand in for remote machines — so the demo needs no
// orchestration.  Swap the endpoints for real hosts running `ecad_workerd`
// and nothing else changes.
//
// The Master ships each generation as EvalBatchRequest shards pulled from a
// shared queue and the workers stream one EvalItemResult frame per candidate
// as it completes, so a slow candidate never delays its shard-mates'
// results; a background heartbeat pings sidelined endpoints so a restarted
// daemon rejoins without waiting to be probed by an evaluation.
#include <cstdio>

#include "core/master.h"
#include "core/worker.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "net/remote_worker.h"
#include "net/worker_server.h"
#include "util/logging.h"

using namespace ecad;

int main() {
  util::set_log_level(util::LogLevel::Warn);

  // The evaluation machinery lives server-side: dataset + training config.
  data::SyntheticSpec spec;
  spec.num_samples = 400;
  spec.num_features = 12;
  spec.num_classes = 3;
  util::Rng data_rng(7);
  const data::Dataset dataset = data::generate_synthetic(spec, data_rng);
  const data::TrainTestSplit split = data::stratified_split(dataset, 0.25, data_rng);
  nn::TrainOptions train;
  train.epochs = 3;
  const core::AccuracyWorker worker(split, train, /*seed=*/42);

  // Two "remote machines" on loopback.
  net::WorkerServer server_a(worker);
  net::WorkerServer server_b(worker);
  server_a.start();
  server_b.start();
  std::printf("workers listening on 127.0.0.1:%u and 127.0.0.1:%u\n", server_a.port(),
              server_b.port());

  net::RemoteWorkerOptions remote_options;
  remote_options.endpoints = {{"127.0.0.1", server_a.port()}, {"127.0.0.1", server_b.port()}};
  remote_options.fallback = &worker;  // belt and braces: degrade, never fail
  const net::RemoteWorker remote(remote_options);

  core::SearchRequest request;
  request.seed = 3;
  request.evolution.population_size = 6;
  request.evolution.max_evaluations = 18;
  request.evolution.batch_size = 3;
  request.threads = 4;

  core::Master master;
  const evo::EvolutionResult distributed = master.search(remote, request);
  const evo::EvolutionResult local = master.search(worker, request);

  std::printf("distributed: best %s fitness %.6f (%zu models, %zu served remotely in %zu batch frames)\n",
              distributed.best.genome.key().c_str(), distributed.best.fitness,
              distributed.stats.models_evaluated,
              server_a.requests_served() + server_b.requests_served(),
              remote.batches_dispatched());
  std::printf("local:       best %s fitness %.6f (%zu models)\n", local.best.genome.key().c_str(),
              local.best.fitness, local.stats.models_evaluated);
  const bool match = distributed.best.genome == local.best.genome &&
                     distributed.best.fitness == local.best.fitness &&
                     distributed.history.size() == local.history.size();
  std::printf("results %s\n", match ? "MATCH bit-for-bit" : "DIVERGED (bug!)");

  server_a.stop();
  server_b.stop();
  return match ? 0 : 1;
}
