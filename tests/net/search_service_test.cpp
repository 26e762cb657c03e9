// End-to-end search service: SearchClient against an in-process
// SearchServer + SearchScheduler — submission, progress streaming,
// determinism vs Master::search, cancellation, and rejection.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/master.h"
#include "core/search_scheduler.h"
#include "net/search_client.h"
#include "net/search_server.h"

namespace ecad::net {
namespace {

class AnalyticWorker final : public core::Worker {
 public:
  explicit AnalyticWorker(int delay_ms = 0) : delay_ms_(delay_ms) {}
  std::string name() const override { return "analytic"; }
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

core::SearchRequest sample_request(std::uint64_t seed, std::size_t evaluations = 24) {
  core::SearchRequest request;
  request.seed = seed;
  request.evolution.population_size = 6;
  request.evolution.max_evaluations = evaluations;
  request.evolution.batch_size = 3;
  request.threads = 1;
  return request;
}

/// Worker + scheduler + server, started on an ephemeral port.
struct Service {
  explicit Service(int delay_ms = 0, std::size_t max_searches = 3)
      : worker(delay_ms),
        scheduler(worker,
                  [max_searches] {
                    core::SearchSchedulerOptions options;
                    options.max_concurrent_searches = max_searches;
                    options.dispatch_slots = 2;
                    return options;
                  }()),
        server(scheduler) {
    server.start();
  }

  SearchClient make_client() {
    SearchClientOptions options;
    options.host = "127.0.0.1";
    options.port = server.port();
    options.frame_timeout_ms = 60000;
    return SearchClient(options);
  }

  AnalyticWorker worker;
  core::SearchScheduler scheduler;
  SearchServer server;
};

TEST(SearchService, SubmittedSearchMatchesMasterSearchExactly) {
  Service service;
  core::Master master;
  const core::SearchRequest request = sample_request(11);
  const evo::EvolutionResult reference = master.search(service.worker, request);

  SearchClient client = service.make_client();
  client.connect();
  const std::uint64_t search_id = client.submit(request);
  EXPECT_GT(search_id, 0u);
  std::vector<SearchProgress> progress;
  const SearchDone done = client.stream(
      search_id, [&progress](const SearchProgress& frame) { progress.push_back(frame); });

  ASSERT_EQ(done.status, SearchDone::Status::Completed) << done.message;
  ASSERT_EQ(done.record.history.size(), reference.history.size());
  for (std::size_t i = 0; i < reference.history.size(); ++i) {
    EXPECT_EQ(done.record.history[i].genome.key(), reference.history[i].genome.key());
    EXPECT_EQ(done.record.history[i].fitness, reference.history[i].fitness);
    EXPECT_EQ(done.record.history[i].result.accuracy, reference.history[i].result.accuracy);
  }
  EXPECT_EQ(done.record.best.genome.key(), reference.best.genome.key());
  EXPECT_EQ(done.record.models_evaluated, reference.stats.models_evaluated);
  EXPECT_EQ(done.record.duplicates_skipped, reference.stats.duplicates_skipped);

  ASSERT_GE(progress.size(), 2u) << "expected generation 0 plus folds";
  EXPECT_EQ(progress.front().generation, 0u);
  EXPECT_EQ(progress.back().models_evaluated, 24u);
  for (const SearchProgress& frame : progress) {
    EXPECT_EQ(frame.search_id, search_id);
    EXPECT_EQ(frame.max_evaluations, 24u);
  }
}

TEST(SearchService, ThreeConcurrentClientsGetIndependentDeterministicResults) {
  Service service;
  core::Master master;
  const std::uint64_t seeds[] = {21, 22, 23};
  std::vector<evo::EvolutionResult> references;
  for (const std::uint64_t seed : seeds) {
    references.push_back(master.search(service.worker, sample_request(seed)));
  }

  struct ClientResult {
    SearchDone done;
    std::size_t progress_frames = 0;
  };
  std::vector<ClientResult> results(3);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < 3; ++i) {
    clients.emplace_back([&service, &results, &seeds, i] {
      SearchClient client = service.make_client();
      client.connect();
      const std::uint64_t id = client.submit(sample_request(seeds[i]));
      results[i].done = client.stream(id, [&results, i](const SearchProgress&) {
        ++results[i].progress_frames;
      });
    });
  }
  for (std::thread& thread : clients) thread.join();

  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(results[i].done.status, SearchDone::Status::Completed)
        << "seed " << seeds[i] << ": " << results[i].done.message;
    ASSERT_EQ(results[i].done.record.history.size(), references[i].history.size());
    for (std::size_t j = 0; j < references[i].history.size(); ++j) {
      EXPECT_EQ(results[i].done.record.history[j].genome.key(),
                references[i].history[j].genome.key())
          << "seed " << seeds[i] << " candidate " << j;
      EXPECT_EQ(results[i].done.record.history[j].fitness, references[i].history[j].fitness);
    }
    EXPECT_EQ(results[i].done.record.best.genome.key(), references[i].best.genome.key());
    EXPECT_GE(results[i].progress_frames, 2u);
  }
}

TEST(SearchService, CancelMidStreamYieldsCanceledDone) {
  Service service(/*delay_ms=*/2);
  SearchClient client = service.make_client();
  client.connect();
  const std::uint64_t search_id = client.submit(sample_request(5, /*evaluations=*/600));
  std::size_t frames = 0;
  bool cancel_sent = false;
  const SearchDone done = client.stream(search_id, [&](const SearchProgress& frame) {
    ++frames;
    if (!cancel_sent && frames >= 2) {
      client.cancel(frame.search_id);
      cancel_sent = true;
    }
  });
  EXPECT_EQ(done.status, SearchDone::Status::Canceled);
  EXPECT_EQ(done.message, "canceled by client");
  EXPECT_TRUE(done.record.history.empty());
  EXPECT_LT(frames, 250u) << "cancel did not stop the stream early";
}

TEST(SearchService, UnknownFitnessIsRejectedWithReason) {
  Service service;
  SearchClient client = service.make_client();
  client.connect();
  core::SearchRequest request = sample_request(1);
  request.fitness = "no-such-fitness";
  try {
    client.submit(request);
    FAIL() << "rejected submission did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-fitness"), std::string::npos) << e.what();
  }
  // The connection survives a rejection: a corrected submission goes through.
  const std::uint64_t id = client.submit(sample_request(1));
  const SearchDone done = client.stream(id, nullptr);
  EXPECT_EQ(done.status, SearchDone::Status::Completed);
}

TEST(SearchService, ShutdownFrameStopsTheServer) {
  Service service;
  SearchClient client = service.make_client();
  client.connect();
  client.shutdown_server();
  for (int i = 0; i < 100 && service.server.running(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(service.server.running());
  service.server.stop();
  EXPECT_EQ(service.server.searches_accepted(), 0u);
}

TEST(SearchService, ServerStopDrainsRunningSearches) {
  auto service = std::make_unique<Service>(/*delay_ms=*/2, /*max_searches=*/2);
  SearchClient client = service->make_client();
  client.connect();
  const std::uint64_t search_id = client.submit(sample_request(9, /*evaluations=*/600));
  // Let it get a couple of generations in.
  std::atomic<bool> stopped{false};
  std::thread stopper([&service, &stopped] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    service->server.stop();  // drains: the running search folds what is in flight
    stopped.store(true);
  });
  const SearchDone done = client.stream(search_id, nullptr);
  stopper.join();
  EXPECT_TRUE(stopped.load());
  EXPECT_EQ(done.status, SearchDone::Status::Canceled);
  EXPECT_EQ(done.message, "daemon draining");
}

}  // namespace
}  // namespace ecad::net
