#include "fleet.h"

#include <thread>

#include "net/fleet_cache.h"
#include "net/wire.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace searchbench {

using namespace ecad;

namespace {
// 16384 entries per daemon: the whole service_warm search set fits, and a
// fleet_cold run fills it within its first searches and then evicts, so
// memory stops growing early in the run.
constexpr std::size_t kCacheBytes = 16384 * net::kCacheEntryBytes;
}  // namespace

Fleet::Fleet(bool trace_evals) {
  const core::Worker* served = &analytic_;
  if (trace_evals) {
    eval_spans_ = std::make_unique<EvalSpanWorker>(analytic_);
    served = eval_spans_.get();
  }
  for (int i = 0; i < 2; ++i) {
    net::WorkerServerOptions options;
    options.threads = 1;
    options.cache_bytes = kCacheBytes;
    servers_.push_back(std::make_unique<net::WorkerServer>(*served, options));
    servers_.back()->start();
  }
}

Fleet::~Fleet() {
  for (auto& server : servers_) server->stop();
}

std::vector<net::Endpoint> Fleet::endpoints() const {
  std::vector<net::Endpoint> out;
  for (const auto& server : servers_) out.push_back({server->host(), server->port()});
  return out;
}

std::vector<std::size_t> Fleet::cache_entries() const {
  std::vector<std::size_t> out;
  for (const auto& server : servers_) out.push_back(server->cache().entries());
  return out;
}

std::string analytic_cache_config(std::uint64_t eval_seed) {
  net::EvalConfigId id;
  id.worker_kind = "analytic";
  id.eval_seed = eval_seed;
  return id.to_string();
}

std::unique_ptr<net::RemoteWorker> connect_master(const Fleet& fleet,
                                                  const std::string& cache_config) {
  net::RemoteWorkerOptions options;
  options.endpoints = fleet.endpoints();
  options.cache_config = cache_config;
  auto remote = std::make_unique<net::RemoteWorker>(options);
  // A search runs two shard streams per endpoint on its two pool threads,
  // so it can hold two connections to each daemon at once.  Two callers
  // dispatching concurrently open at least that many; six rounds, then more
  // until three rounds in a row open no new connection.
  util::Rng rng(99);
  const evo::SearchSpace space;
  std::vector<evo::Genome> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(evo::random_genome(space, rng));
  std::uint64_t opens = sample_process().tcp_active_opens;
  for (int quiet = 0, round = 0; round < 60 && (round < 6 || quiet < 3); ++round) {
    std::vector<std::thread> callers;
    for (int c = 0; c < 2; ++c) {
      callers.emplace_back([&remote, &batch] {
        util::ThreadPool pool(2);
        remote->evaluate_batch(batch, pool);
      });
    }
    for (std::thread& caller : callers) caller.join();
    const std::uint64_t now = sample_process().tcp_active_opens;
    quiet = now == opens ? quiet + 1 : 0;
    opens = now;
  }
  return remote;
}

CodecTimes time_codecs(const std::vector<evo::Candidate>& history,
                       const std::string& cache_config) {
  CodecTimes times;
  double encode = 0.0;
  double decode = 0.0;
  std::size_t sink = 0;
  for (std::size_t begin = 0; begin < history.size(); begin += 8) {
    const std::size_t end = std::min(begin + 8, history.size());
    net::EvalBatchRequest request;
    request.batch_id = begin;
    net::CacheLookup lookup;
    net::CacheStore store;
    std::vector<net::EvalItemResult> items;
    for (std::size_t i = begin; i < end; ++i) {
      request.genomes.push_back(history[i].genome);
      const std::uint64_t key = net::fleet_cache_key(cache_config, history[i].genome.key());
      lookup.keys.push_back(key);
      store.entries.push_back({key, history[i].result});
      net::EvalItemResult item;
      item.batch_id = begin;
      item.index = static_cast<std::uint32_t>(i - begin);
      item.outcome.result = history[i].result;
      item.outcome.ok = true;
      items.push_back(std::move(item));
    }

    const Clock::time_point t0 = Clock::now();
    net::WireWriter request_writer;
    net::write_eval_batch_request(request_writer, request);
    std::vector<net::WireWriter> item_writers(items.size());
    for (std::size_t k = 0; k < items.size(); ++k) {
      net::write_eval_item_result(item_writers[k], items[k]);
    }
    net::WireWriter lookup_writer;
    net::write_cache_lookup(lookup_writer, lookup);
    net::WireWriter store_writer;
    net::write_cache_store(store_writer, store);
    const Clock::time_point t1 = Clock::now();
    {
      net::WireReader reader(request_writer.bytes());
      sink += net::read_eval_batch_request(reader).genomes.size();
    }
    for (const net::WireWriter& writer : item_writers) {
      net::WireReader reader(writer.bytes());
      sink += net::read_eval_item_result(reader).index;
    }
    {
      net::WireReader reader(lookup_writer.bytes());
      sink += net::read_cache_lookup(reader).keys.size();
    }
    {
      net::WireReader reader(store_writer.bytes());
      sink += net::read_cache_store(reader).entries.size();
    }
    const Clock::time_point t2 = Clock::now();
    encode += seconds_between(t0, t1);
    decode += seconds_between(t1, t2);
    times.evaluations += end - begin;
  }
  if (times.evaluations > 0 && sink > 0) {
    times.encode_us_per_eval = encode / static_cast<double>(times.evaluations) * 1e6;
    times.decode_us_per_eval = decode / static_cast<double>(times.evaluations) * 1e6;
  }
  return times;
}

}  // namespace searchbench
