// RemoteWorker's fleet-cache client over real sockets: lookups and stores
// ride the pooled, handshaken connections the evaluation shards use, a
// failed exchange drops only its own connection (never throwing, never
// sidelining the endpoint), and a sidelined endpoint gets no cache traffic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/remote_worker.h"
#include "net/wire.h"
#include "net/worker_server.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace ecad::net {
namespace {

class ConstantWorker final : public core::Worker {
 public:
  std::string name() const override { return "constant"; }
  evo::EvalResult evaluate(const evo::Genome&) const override { return evo::EvalResult{}; }
};

/// A fleet-cache daemon in miniature on a plain Listener: answers Hello,
/// keeps every CacheStore entry, answers CacheLookup with the stored hits,
/// and counts the connections it accepted.  It serves one connection at a
/// time until the client hangs up; with `lookups_per_connection` > 0 it
/// hangs up itself right after answering that many lookups on a connection.
class CachePeer {
 public:
  explicit CachePeer(std::size_t lookups_per_connection = 0)
      : listener_("127.0.0.1", 0), lookups_per_connection_(lookups_per_connection) {
    thread_ = std::thread([this] { serve(); });
  }
  CachePeer(const CachePeer&) = delete;
  CachePeer& operator=(const CachePeer&) = delete;
  ~CachePeer() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  Endpoint endpoint() const { return Endpoint{"127.0.0.1", listener_.port()}; }
  std::size_t accepted() const { return accepted_.load(); }

 private:
  void serve() {
    while (!stop_.load()) {
      std::optional<Socket> accepted;
      try {
        accepted = listener_.accept(50);
      } catch (const NetError&) {
        return;  // listener closed
      }
      if (!accepted) continue;
      accepted_.fetch_add(1);
      try {
        serve_connection(*accepted);
      } catch (const NetError&) {
        // the client hung up
      } catch (const WireError& e) {
        ADD_FAILURE() << "malformed frame: " << e.what();
      }
    }
  }

  void serve_connection(Socket& socket) {
    std::vector<std::uint8_t> inbox;
    std::vector<std::uint8_t> scratch(4096);
    std::size_t lookups = 0;
    while (!stop_.load()) {
      const std::size_t n = socket.recv_some(scratch.data(), scratch.size(), 50);
      inbox.insert(inbox.end(), scratch.begin(),
                   scratch.begin() + static_cast<std::ptrdiff_t>(n));
      Frame frame;
      while (try_extract_frame(inbox, frame)) {
        WireReader reader(frame.payload);
        if (frame.type == MsgType::Hello) {
          WireWriter ack;
          write_hello_payload(ack, "cache-peer");
          send_frame_on(socket, MsgType::HelloAck, ack.bytes());
        } else if (frame.type == MsgType::CacheStore) {
          for (const CacheEntry& entry : read_cache_store(reader).entries) {
            results_[entry.key] = entry.result;
          }
        } else if (frame.type == MsgType::CacheLookup) {
          CacheStore found;
          for (const std::uint64_t key : read_cache_lookup(reader).keys) {
            const auto it = results_.find(key);
            if (it != results_.end()) found.entries.push_back(CacheEntry{key, it->second});
          }
          WireWriter writer;
          write_cache_store(writer, found);
          send_frame_on(socket, MsgType::CacheStore, writer.bytes());
          if (++lookups == lookups_per_connection_) return;
        } else {
          ADD_FAILURE() << "unexpected " << to_string(frame.type);
          return;
        }
      }
    }
  }

  Listener listener_;
  const std::size_t lookups_per_connection_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> accepted_{0};
  std::unordered_map<std::uint64_t, evo::EvalResult> results_;  // serve() thread only
  std::thread thread_;  // last: serve() uses every member above
};

RemoteWorkerOptions cache_options(std::vector<Endpoint> endpoints) {
  RemoteWorkerOptions options;
  options.endpoints = std::move(endpoints);
  options.cache_config = "test-config";
  options.connect_timeout_ms = 2000;
  options.heartbeat_interval_ms = 0;
  return options;
}

evo::Genome genome_of(std::size_t width) {
  evo::Genome genome;
  genome.nna.hidden = {width, 7};
  return genome;
}

/// Every field distinct and not exactly representable in decimal.
evo::EvalResult result_of(std::size_t width) {
  const double w = static_cast<double>(width);
  evo::EvalResult result;
  result.accuracy = 1.0 / (3.0 + w);
  result.outputs_per_second = 1e6 / 7.0 + w;
  result.latency_seconds = 1e-3 / (11.0 + w);
  result.potential_gflops = 0.1 * w;
  result.effective_gflops = 0.07 * w;
  result.hw_efficiency = 0.7 + 1e-9 * w;
  result.power_watts = 13.0 / 9.0;
  result.fmax_mhz = 241.3 + w;
  result.parameters = 1000.0 * w;
  result.flops_per_sample = 2.0 / 3.0 * w;
  result.eval_seconds = 0.01 / (w + 1.0);
  result.feasible = (width % 2) == 0;
  return result;
}

bool bit_identical(const evo::EvalResult& a, const evo::EvalResult& b) {
  const double fa[] = {a.accuracy,      a.outputs_per_second, a.latency_seconds,
                       a.potential_gflops, a.effective_gflops, a.hw_efficiency,
                       a.power_watts,   a.fmax_mhz,           a.parameters,
                       a.flops_per_sample, a.eval_seconds};
  const double fb[] = {b.accuracy,      b.outputs_per_second, b.latency_seconds,
                       b.potential_gflops, b.effective_gflops, b.hw_efficiency,
                       b.power_watts,   b.fmax_mhz,           b.parameters,
                       b.flops_per_sample, b.eval_seconds};
  return std::memcmp(fa, fb, sizeof(fa)) == 0 && a.feasible == b.feasible;
}

std::vector<evo::EvalOutcome> ok_outcomes(const std::vector<std::size_t>& widths) {
  std::vector<evo::EvalOutcome> outcomes(widths.size());
  for (std::size_t i = 0; i < widths.size(); ++i) {
    outcomes[i].result = result_of(widths[i]);
    outcomes[i].ok = true;
  }
  return outcomes;
}

TEST(FleetCacheClient, ExchangesReuseOnePooledConnection) {
  CachePeer peer;
  {
    const RemoteWorker remote(cache_options({peer.endpoint()}));
    const core::FleetEvalCache* cache = remote.fleet_cache();
    ASSERT_NE(cache, nullptr);
    // Store width w, then look up every width stored so far plus one never
    // stored: 20 stores and 20 lookups, each on the same connection.
    for (std::size_t w = 1; w <= 20; ++w) {
      cache->fleet_store({genome_of(w)}, ok_outcomes({w}));
      std::vector<evo::Genome> genomes;
      for (std::size_t v = 1; v <= w; ++v) genomes.push_back(genome_of(v));
      genomes.push_back(genome_of(1000 + w));
      std::vector<evo::EvalOutcome> outcomes(genomes.size());
      cache->fleet_lookup(genomes, outcomes);
      for (std::size_t v = 1; v <= w; ++v) {
        const evo::EvalOutcome& hit = outcomes[v - 1];
        ASSERT_TRUE(hit.ok) << "width " << v << " after " << w << " stores";
        EXPECT_TRUE(bit_identical(hit.result, result_of(v))) << "width " << v;
      }
      EXPECT_FALSE(outcomes.back().settled()) << "a key never stored settled";
    }
    EXPECT_EQ(remote.healthy_endpoints(), 1u);
  }
  EXPECT_EQ(peer.accepted(), 1u);
}

TEST(FleetCacheClient, AFailedExchangeDropsOnlyItsConnection) {
  CachePeer peer(/*lookups_per_connection=*/1);
  {
    RemoteWorkerOptions options = cache_options({peer.endpoint()});
    options.endpoint_cooldown_ms = 600000;  // a sidelining would outlast the test
    const RemoteWorker remote(options);
    const core::FleetEvalCache* cache = remote.fleet_cache();
    ASSERT_NE(cache, nullptr);
    const std::vector<evo::Genome> genomes = {genome_of(3)};
    cache->fleet_store(genomes, ok_outcomes({3}));

    std::vector<evo::EvalOutcome> first(1);
    cache->fleet_lookup(genomes, first);
    ASSERT_TRUE(first[0].ok);  // answered; then the peer hung up

    std::vector<evo::EvalOutcome> second(1);
    EXPECT_NO_THROW(cache->fleet_lookup(genomes, second));
    EXPECT_FALSE(second[0].settled()) << "the dead connection answered";
    EXPECT_EQ(remote.healthy_endpoints(), 1u) << "a cache failure sidelined the endpoint";

    std::vector<evo::EvalOutcome> third(1);
    cache->fleet_lookup(genomes, third);
    ASSERT_TRUE(third[0].ok) << "the next lookup did not reconnect";
    EXPECT_TRUE(bit_identical(third[0].result, result_of(3)));
  }
  EXPECT_EQ(peer.accepted(), 2u);
}

TEST(FleetCacheClient, SidelinedEndpointGetsNoCacheTraffic) {
  const ConstantWorker worker;
  WorkerServerOptions server_options;
  server_options.cache_only = true;  // drops evaluation frames
  server_options.cache_bytes = 1 << 20;
  WorkerServer server(worker, server_options);
  server.start();

  RemoteWorkerOptions options = cache_options({{"127.0.0.1", server.port()}});
  options.endpoint_cooldown_ms = 600000;
  options.streams_per_endpoint = 1;
  options.fallback = &worker;
  const RemoteWorker remote(options);
  util::ThreadPool pool(1);
  // The cache-only daemon drops the shard's connection, which sidelines the
  // endpoint; the fallback evaluates the genome locally.
  const std::vector<evo::EvalOutcome> evaluated = remote.evaluate_batch({genome_of(5)}, pool);
  ASSERT_TRUE(evaluated[0].ok);
  ASSERT_EQ(remote.fallback_evaluations(), 1u);
  ASSERT_EQ(remote.healthy_endpoints(), 0u);

  const util::Counter& accepted = util::metrics().counter("workerd.connections_accepted_total");
  const std::uint64_t before = accepted.value();
  EXPECT_GE(before, 1u);  // the failed shard's connection
  const core::FleetEvalCache* cache = remote.fleet_cache();
  ASSERT_NE(cache, nullptr);
  for (std::size_t w = 1; w <= 5; ++w) {
    cache->fleet_store({genome_of(w)}, ok_outcomes({w}));
    std::vector<evo::EvalOutcome> outcomes(1);
    cache->fleet_lookup({genome_of(w)}, outcomes);
    EXPECT_FALSE(outcomes[0].settled());
  }
  EXPECT_EQ(accepted.value(), before) << "a sidelined endpoint received cache connections";
  EXPECT_EQ(server.cache().entries(), 0u) << "a sidelined endpoint received cache stores";
  server.stop();
}

}  // namespace
}  // namespace ecad::net
