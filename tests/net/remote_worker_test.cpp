// End-to-end tests for the distributed evaluation service: WorkerServer
// daemons on loopback + RemoteWorker as the Master's evaluation backend.
// Covers the ISSUE 3 acceptance criteria in-process: distributed == local
// bit-for-bit, graceful degradation when a worker dies mid-search, and
// fallback to local evaluation when nothing is reachable.
#include "net/remote_worker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include "core/master.h"
#include "net/worker_server.h"
#include "util/thread_pool.h"

namespace ecad::net {
namespace {

// Deterministic closed-form worker; an optional delay stretches searches so
// tests can interfere mid-flight.
class AnalyticWorker : public core::Worker {
 public:
  explicit AnalyticWorker(int delay_ms = 0) : delay_ms_(delay_ms) {}

  std::string name() const override { return "analytic"; }

  evo::EvalResult evaluate(const evo::Genome& genome) const override {
    if (delay_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    }
    evo::EvalResult result;
    double capacity = 0.0;
    for (std::size_t width : genome.nna.hidden) capacity += static_cast<double>(width);
    result.accuracy = 0.5 + 0.08 * static_cast<double>(genome.nna.hidden.size()) +
                      capacity / 16384.0;
    result.outputs_per_second = 1e6 / static_cast<double>(genome.grid.dsp_usage());
    result.parameters = capacity;
    return result;
  }

 private:
  int delay_ms_;
};

class ThrowingWorker final : public core::Worker {
 public:
  std::string name() const override { return "throwing"; }
  evo::EvalResult evaluate(const evo::Genome& genome) const override {
    throw std::runtime_error("cannot evaluate " + genome.key());
  }
};

evo::Genome test_genome() {
  evo::Genome genome;
  genome.nna.hidden = {32, 16};
  return genome;
}

bool results_identical(const evo::EvalResult& a, const evo::EvalResult& b) {
  // Bit-exact on everything except eval_seconds (wall clock, set engine-side).
  return std::memcmp(&a.accuracy, &b.accuracy, sizeof(double)) == 0 &&
         a.outputs_per_second == b.outputs_per_second && a.parameters == b.parameters &&
         a.feasible == b.feasible;
}

TEST(WorkerServer, EvaluatesOverLoopback) {
  const AnalyticWorker worker;
  WorkerServer server(worker);
  server.start();
  ASSERT_GT(server.port(), 0);

  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", server.port()}};
  const RemoteWorker remote(options);

  const evo::Genome genome = test_genome();
  const evo::EvalResult via_network = remote.evaluate(genome);
  const evo::EvalResult direct = worker.evaluate(genome);
  EXPECT_TRUE(results_identical(via_network, direct));
  EXPECT_EQ(remote.remote_evaluations(), 1u);
  EXPECT_EQ(server.requests_served(), 1u);
  server.stop();
}

TEST(WorkerServer, ServesConcurrentRequestsFromManyThreads) {
  const AnalyticWorker worker(/*delay_ms=*/2);
  WorkerServer server(worker);
  server.start();

  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", server.port()}};
  const RemoteWorker remote(options);
  const AnalyticWorker oracle;

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5; ++i) {
        evo::Genome genome;
        genome.nna.hidden = {static_cast<std::size_t>(8 + 8 * t), static_cast<std::size_t>(4 + i)};
        const evo::EvalResult remote_result = remote.evaluate(genome);
        if (!results_identical(remote_result, oracle.evaluate(genome))) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.requests_served(), 40u);
  server.stop();
}

TEST(WorkerServer, PingAndRemoteExceptionPropagation) {
  const ThrowingWorker worker;
  WorkerServer server(worker);
  server.start();

  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", server.port()}};
  const RemoteWorker remote(options);
  EXPECT_EQ(remote.ping_all(), 1u);

  // A *remote* evaluation failure is deterministic: no endpoint retry, the
  // remote message surfaces locally.
  try {
    remote.evaluate(test_genome());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::strstr(e.what(), "remote evaluation failed"), nullptr);
    EXPECT_NE(std::strstr(e.what(), "cannot evaluate"), nullptr);
  }
  server.stop();
}

TEST(RemoteWorker, DistributedSearchMatchesLocalBitForBit) {
  const AnalyticWorker worker;
  WorkerServer server_a(worker);
  WorkerServer server_b(worker);
  server_a.start();
  server_b.start();

  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", server_a.port()}, {"127.0.0.1", server_b.port()}};
  const RemoteWorker remote(options);

  core::SearchRequest request;
  request.seed = 5;
  request.evolution.population_size = 6;
  request.evolution.max_evaluations = 30;
  request.evolution.batch_size = 3;
  request.threads = 4;

  core::Master master;
  const evo::EvolutionResult distributed = master.search(remote, request);
  const evo::EvolutionResult local = master.search(worker, request);

  // Both daemons actually participated.
  EXPECT_GT(server_a.requests_served(), 0u);
  EXPECT_GT(server_b.requests_served(), 0u);
  EXPECT_EQ(server_a.requests_served() + server_b.requests_served(),
            distributed.stats.models_evaluated);

  // The searches are the same search: identical history, winner, fitness.
  ASSERT_EQ(distributed.history.size(), local.history.size());
  for (std::size_t i = 0; i < local.history.size(); ++i) {
    EXPECT_EQ(distributed.history[i].genome, local.history[i].genome) << "index " << i;
    EXPECT_EQ(distributed.history[i].fitness, local.history[i].fitness) << "index " << i;
    EXPECT_TRUE(results_identical(distributed.history[i].result, local.history[i].result))
        << "index " << i;
  }
  EXPECT_EQ(distributed.best.genome, local.best.genome);
  EXPECT_EQ(distributed.best.fitness, local.best.fitness);

  server_a.stop();
  server_b.stop();
}

TEST(RemoteWorker, SurvivesWorkerDeathMidSearch) {
  const AnalyticWorker worker(/*delay_ms=*/3);
  WorkerServer server_a(worker);
  WorkerServer server_b(worker);
  server_a.start();
  server_b.start();

  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", server_a.port()}, {"127.0.0.1", server_b.port()}};
  options.endpoint_cooldown_ms = 200;
  const RemoteWorker remote(options);

  core::SearchRequest request;
  request.seed = 9;
  request.evolution.population_size = 6;
  request.evolution.max_evaluations = 60;
  request.evolution.batch_size = 3;
  request.threads = 4;

  // Kill one daemon while the search is in flight.
  std::thread assassin([&server_b] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server_b.stop();
  });

  core::Master master;
  const evo::EvolutionResult distributed = master.search(remote, request);
  assassin.join();

  // The search completed on the surviving worker and still matches local.
  const evo::EvolutionResult local = master.search(worker, request);
  ASSERT_EQ(distributed.history.size(), local.history.size());
  EXPECT_EQ(distributed.best.genome, local.best.genome);
  EXPECT_EQ(distributed.best.fitness, local.best.fitness);
  EXPECT_EQ(distributed.stats.models_evaluated, local.stats.models_evaluated);

  server_a.stop();
}

TEST(RemoteWorker, FallsBackToLocalWhenNothingIsReachable) {
  // Grab a port that is guaranteed dead: bind, read, close.
  std::uint16_t dead_port = 0;
  {
    Listener listener("127.0.0.1", 0);
    dead_port = listener.port();
  }

  const AnalyticWorker local_worker;
  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", dead_port}};
  options.connect_timeout_ms = 200;
  options.fallback = &local_worker;
  const RemoteWorker remote(options);

  const evo::Genome genome = test_genome();
  const evo::EvalResult result = remote.evaluate(genome);
  EXPECT_TRUE(results_identical(result, local_worker.evaluate(genome)));
  EXPECT_EQ(remote.fallback_evaluations(), 1u);
  EXPECT_EQ(remote.remote_evaluations(), 0u);
}

TEST(RemoteWorker, ThrowsWithoutFallbackWhenUnreachable) {
  std::uint16_t dead_port = 0;
  {
    Listener listener("127.0.0.1", 0);
    dead_port = listener.port();
  }
  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", dead_port}};
  options.connect_timeout_ms = 200;
  const RemoteWorker remote(options);
  EXPECT_THROW(remote.evaluate(test_genome()), NetError);
  EXPECT_EQ(remote.ping_all(), 0u);
}

TEST(RemoteWorker, RequiresAtLeastOneEndpoint) {
  RemoteWorkerOptions options;
  EXPECT_THROW(RemoteWorker remote(std::move(options)), std::invalid_argument);
}

TEST(WorkerServer, PeerShutdownFrameStopsServerAndTeardownIsClean) {
  const AnalyticWorker worker;
  auto server = std::make_unique<WorkerServer>(worker);
  server->start();

  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", server->port()}};
  const RemoteWorker remote(options);
  remote.shutdown_all();

  // The event loop exits on its own once the Shutdown frame lands.
  for (int i = 0; i < 200 && server->running(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(server->running());
  // Regression: stop()/destruction after a self-initiated loop exit must
  // still join the loop thread — skipping it terminates the process.
  server->stop();
  server.reset();
}

// ---------------------------------------------------------------------------
// Batched evaluation
// ---------------------------------------------------------------------------

TEST(RemoteWorkerBatch, BatchOutcomesMatchOracleAndUseBatchFrames) {
  const AnalyticWorker worker;
  WorkerServer server_a(worker);
  WorkerServer server_b(worker);
  server_a.start();
  server_b.start();

  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", server_a.port()}, {"127.0.0.1", server_b.port()}};
  const RemoteWorker remote(options);
  util::ThreadPool pool(4);

  std::vector<evo::Genome> genomes;
  for (std::size_t i = 0; i < 12; ++i) {
    evo::Genome genome;
    genome.nna.hidden = {16 + 8 * i, 8};
    genomes.push_back(genome);
  }
  const std::vector<evo::EvalOutcome> outcomes = remote.evaluate_batch(genomes, pool);

  ASSERT_EQ(outcomes.size(), genomes.size());
  const AnalyticWorker oracle;
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << "item " << i << ": " << outcomes[i].error;
    EXPECT_TRUE(results_identical(outcomes[i].result, oracle.evaluate(genomes[i]))) << "item " << i;
  }
  // The 12 items travelled in a handful of shard frames (the completion-
  // driven scheduler keeps several small shards in flight), never 12
  // per-genome round-trips; the reserved cold-start shards guarantee both
  // endpoints took a share.
  EXPECT_EQ(remote.remote_evaluations(), genomes.size());
  EXPECT_GE(remote.batches_dispatched(), 2u);
  EXPECT_LT(remote.batches_dispatched(), genomes.size());
  // Every outcome arrived as a streamed item frame.
  EXPECT_EQ(remote.streamed_items(), genomes.size());
  EXPECT_GT(server_a.requests_served(), 0u);
  EXPECT_GT(server_b.requests_served(), 0u);
  EXPECT_EQ(server_a.requests_served() + server_b.requests_served(), genomes.size());

  server_a.stop();
  server_b.stop();
}

TEST(RemoteWorkerBatch, PoisonedGenomeFailsItsSlotNotTheBatch) {
  // A worker that throws on genomes with an empty hidden list.
  class PartiallyThrowingWorker final : public core::Worker {
   public:
    std::string name() const override { return "partial"; }
    evo::EvalResult evaluate(const evo::Genome& genome) const override {
      if (genome.nna.hidden.empty()) {
        throw std::runtime_error("cannot evaluate " + genome.key());
      }
      evo::EvalResult result;
      result.accuracy = 0.5 + 0.001 * static_cast<double>(genome.nna.hidden[0]);
      return result;
    }
  };
  const PartiallyThrowingWorker worker;
  WorkerServer server(worker);
  server.start();

  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", server.port()}};
  const RemoteWorker remote(options);
  util::ThreadPool pool(2);

  std::vector<evo::Genome> genomes(3);
  genomes[0].nna.hidden = {8};
  genomes[1].nna.hidden.clear();  // poisoned
  genomes[2].nna.hidden = {16};
  const std::vector<evo::EvalOutcome> outcomes = remote.evaluate_batch(genomes, pool);

  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_NE(outcomes[1].error.find("remote evaluation failed"), std::string::npos);
  EXPECT_NE(outcomes[1].error.find("cannot evaluate"), std::string::npos);
  EXPECT_TRUE(outcomes[2].ok);
  server.stop();
}

TEST(RemoteWorkerBatch, EndpointDeathMidBatchReshardsWithoutLossOrDuplication) {
  const AnalyticWorker worker(/*delay_ms=*/15);
  WorkerServer server_a(worker);
  WorkerServer server_b(worker);
  server_a.start();
  server_b.start();

  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", server_a.port()}, {"127.0.0.1", server_b.port()}};
  options.heartbeat_interval_ms = 0;  // keep the dead endpoint dead for this test
  options.endpoint_cooldown_ms = 60000;
  const RemoteWorker remote(options);
  util::ThreadPool pool(4);

  std::vector<evo::Genome> genomes;
  for (std::size_t i = 0; i < 10; ++i) {
    evo::Genome genome;
    // assign(1, w) rather than = {w}: in this file GCC 12's Release build
    // warns -Wnonnull on the inlined initializer-list assignment.
    genome.nna.hidden.assign(1, 8 + 4 * i);
    genomes.push_back(genome);
  }

  // Kill endpoint B while its shard is almost certainly still evaluating.
  std::thread assassin([&server_b] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server_b.stop();
  });
  const std::vector<evo::EvalOutcome> outcomes = remote.evaluate_batch(genomes, pool);
  assassin.join();

  // Every slot settled exactly once with the oracle value: B's unfinished
  // share was re-sharded onto A, nothing was lost or answered twice.
  ASSERT_EQ(outcomes.size(), genomes.size());
  const AnalyticWorker oracle;
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << "item " << i << ": " << outcomes[i].error;
    EXPECT_TRUE(results_identical(outcomes[i].result, oracle.evaluate(genomes[i]))) << "item " << i;
  }
  EXPECT_EQ(remote.remote_evaluations(), genomes.size());
  server_a.stop();
}

TEST(RemoteWorkerBatch, FallsBackToLocalWhenNothingIsReachable) {
  std::uint16_t dead_port = 0;
  {
    Listener listener("127.0.0.1", 0);
    dead_port = listener.port();
  }
  const AnalyticWorker local_worker;
  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", dead_port}};
  options.connect_timeout_ms = 200;
  options.fallback = &local_worker;
  const RemoteWorker remote(options);
  util::ThreadPool pool(2);

  std::vector<evo::Genome> genomes(4);
  for (std::size_t i = 0; i < genomes.size(); ++i) genomes[i].nna.hidden.assign(1, 8 + i);
  const std::vector<evo::EvalOutcome> outcomes = remote.evaluate_batch(genomes, pool);
  ASSERT_EQ(outcomes.size(), genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok);
    EXPECT_TRUE(results_identical(outcomes[i].result, local_worker.evaluate(genomes[i])));
  }
  EXPECT_EQ(remote.fallback_evaluations(), genomes.size());
  EXPECT_EQ(remote.remote_evaluations(), 0u);
}

// ---------------------------------------------------------------------------
// Streaming
// ---------------------------------------------------------------------------

// A worker whose first-listed genome shape is slow: shard-mates behind it
// must stream back ahead of it.
class HeterogeneousWorker final : public core::Worker {
 public:
  std::string name() const override { return "hetero"; }
  evo::EvalResult evaluate(const evo::Genome& genome) const override {
    // hidden[0] == 7 marks the injected slow genome.
    const bool slow = !genome.nna.hidden.empty() && genome.nna.hidden[0] == 7;
    std::this_thread::sleep_for(std::chrono::milliseconds(slow ? 120 : 1));
    evo::EvalResult result;
    result.accuracy = 0.5 + 0.001 * static_cast<double>(genome.nna.hidden.empty()
                                                            ? 0
                                                            : genome.nna.hidden[0]);
    return result;
  }
};

TEST(StreamingV3, SlowGenomeDoesNotBlockShardMatesAndFramesArriveOutOfOrder) {
  const HeterogeneousWorker worker;
  WorkerServerOptions server_options;
  server_options.threads = 4;  // items must be able to overtake the slow one
  WorkerServer server(worker, server_options);
  server.start();

  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", server.port()}};
  options.streams_per_endpoint = 1;  // one shard carries the whole batch
  options.max_shard_items = 8;
  const RemoteWorker remote(options);
  util::ThreadPool pool(2);

  // Slot 0 sleeps 120ms, slots 1..3 finish in ~1ms: their item frames arrive
  // first, so the stream is consumed out of order by construction.
  std::vector<evo::Genome> genomes(4);
  genomes[0].nna.hidden = {7};
  genomes[1].nna.hidden = {16};
  genomes[2].nna.hidden = {24};
  genomes[3].nna.hidden = {32};
  const std::vector<evo::EvalOutcome> outcomes = remote.evaluate_batch(genomes, pool);

  const HeterogeneousWorker oracle;
  ASSERT_EQ(outcomes.size(), genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << "item " << i << ": " << outcomes[i].error;
    EXPECT_TRUE(results_identical(outcomes[i].result, oracle.evaluate(genomes[i]))) << "item " << i;
  }
  EXPECT_EQ(remote.streamed_items(), genomes.size());
  EXPECT_GE(remote.out_of_order_items(), 1u);
  EXPECT_EQ(remote.batches_dispatched(), 1u);
  server.stop();
}

// One seeded search run over streaming workers and fully local must be the
// *same search*, bit for bit.  Streaming only changes when results travel,
// never what they are or how the engine consumes them.
TEST(StreamingV3, SearchResultsBitIdenticalToLocal) {
  const AnalyticWorker worker;
  WorkerServer server_a(worker);
  WorkerServer server_b(worker);
  server_a.start();
  server_b.start();

  core::SearchRequest request;
  request.seed = 17;
  request.evolution.population_size = 6;
  request.evolution.max_evaluations = 36;
  request.evolution.batch_size = 4;
  request.threads = 4;
  core::Master master;

  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", server_a.port()}, {"127.0.0.1", server_b.port()}};
  const RemoteWorker remote(options);
  const evo::EvolutionResult streaming = master.search(remote, request);
  const evo::EvolutionResult local = master.search(worker, request);

  ASSERT_EQ(streaming.history.size(), local.history.size());
  for (std::size_t i = 0; i < local.history.size(); ++i) {
    EXPECT_EQ(streaming.history[i].genome, local.history[i].genome) << "index " << i;
    EXPECT_EQ(streaming.history[i].fitness, local.history[i].fitness) << "index " << i;
    EXPECT_TRUE(results_identical(streaming.history[i].result, local.history[i].result))
        << "index " << i;
  }
  EXPECT_EQ(streaming.best.genome, local.best.genome);
  EXPECT_EQ(streaming.best.fitness, local.best.fitness);
  EXPECT_EQ(remote.streamed_items(), remote.remote_evaluations());

  server_a.stop();
  server_b.stop();
}

TEST(StreamingV3, MidStreamDeathLosesOnlyUnansweredItems) {
  const AnalyticWorker worker(/*delay_ms=*/15);
  WorkerServerOptions options_a;
  options_a.threads = 2;
  WorkerServer server_a(worker, options_a);
  WorkerServerOptions options_b;
  options_b.threads = 2;
  WorkerServer server_b(worker, options_b);
  server_a.start();
  server_b.start();

  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", server_a.port()}, {"127.0.0.1", server_b.port()}};
  options.heartbeat_interval_ms = 0;  // keep the dead endpoint dead
  options.endpoint_cooldown_ms = 60000;
  const RemoteWorker remote(options);
  util::ThreadPool pool(4);

  std::vector<evo::Genome> genomes;
  for (std::size_t i = 0; i < 12; ++i) {
    evo::Genome genome;
    genome.nna.hidden.assign(1, 8 + 4 * i);
    genomes.push_back(genome);
  }

  std::thread assassin([&server_b] {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    server_b.stop();
  });
  const std::vector<evo::EvalOutcome> outcomes = remote.evaluate_batch(genomes, pool);
  assassin.join();

  // Every slot settled exactly once with the oracle value; B's unanswered
  // items were requeued onto A without loss or duplication.
  ASSERT_EQ(outcomes.size(), genomes.size());
  const AnalyticWorker oracle;
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << "item " << i << ": " << outcomes[i].error;
    EXPECT_TRUE(results_identical(outcomes[i].result, oracle.evaluate(genomes[i]))) << "item " << i;
  }
  EXPECT_EQ(remote.remote_evaluations(), genomes.size());
  server_a.stop();
}

// ---------------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------------

TEST(Heartbeat, RevivedEndpointRejoinsViaPingWithoutAnEvaluation) {
  const AnalyticWorker worker;
  const std::uint16_t port = [] {
    Listener listener("127.0.0.1", 0);
    return listener.port();
  }();

  auto server = std::make_unique<WorkerServer>(worker, WorkerServerOptions{"127.0.0.1", port});
  server->start();

  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", port}};
  options.connect_timeout_ms = 200;
  options.endpoint_cooldown_ms = 50;  // would expire almost immediately...
  options.heartbeat_interval_ms = 40;  // ...but heartbeats gate revival on a real Pong
  const RemoteWorker remote(options);

  ASSERT_TRUE(results_identical(remote.evaluate(test_genome()), worker.evaluate(test_genome())));
  EXPECT_EQ(remote.healthy_endpoints(), 1u);

  // Kill the daemon and provoke a failure so the endpoint is sidelined.
  server->stop();
  server.reset();
  EXPECT_THROW(remote.evaluate(test_genome()), NetError);
  EXPECT_EQ(remote.healthy_endpoints(), 0u);

  // With the daemon still dead the endpoint must STAY sidelined well past
  // the cooldown window: revival is ping-gated, not timer-gated.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(remote.healthy_endpoints(), 0u);
  EXPECT_EQ(remote.heartbeat_rejoins(), 0u);

  // Revive the daemon on the same port; the heartbeat thread's Ping — not an
  // evaluation, none happens here — must bring the endpoint back.
  WorkerServer revived(worker, WorkerServerOptions{"127.0.0.1", port});
  revived.start();
  bool rejoined = false;
  for (int i = 0; i < 100 && !rejoined; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    rejoined = remote.healthy_endpoints() == 1;
  }
  EXPECT_TRUE(rejoined);
  EXPECT_GE(remote.heartbeat_rejoins(), 1u);

  // And the pool is immediately usable again.
  EXPECT_TRUE(results_identical(remote.evaluate(test_genome()), worker.evaluate(test_genome())));
  revived.stop();
}

TEST(Heartbeat, DisabledHeartbeatFallsBackToCooldownExpiry) {
  const AnalyticWorker worker;
  WorkerServer server(worker);
  server.start();

  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", server.port()}};
  options.heartbeat_interval_ms = 0;
  options.endpoint_cooldown_ms = 30;
  const RemoteWorker remote(options);
  // Sideline the endpoint artificially by evaluating against a stopped
  // server, then check the cooldown lets it back in.
  server.stop();
  EXPECT_THROW(remote.evaluate(test_genome()), NetError);
  EXPECT_EQ(remote.healthy_endpoints(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(remote.healthy_endpoints(), 1u);  // timer-gated revival
}

TEST(WorkerServer, StopIsIdempotentAndRestartable) {
  const AnalyticWorker worker;
  WorkerServer server(worker);
  server.start();
  const std::uint16_t first_port = server.port();
  EXPECT_GT(first_port, 0);
  server.stop();
  server.stop();  // idempotent

  // A fresh server can bind again immediately (SO_REUSEADDR).
  WorkerServer second(worker, {"127.0.0.1", first_port, 0, 50});
  second.start();
  EXPECT_EQ(second.port(), first_port);
  second.stop();
}

}  // namespace
}  // namespace ecad::net
