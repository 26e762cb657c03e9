#include "net/remote_worker.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "net/fleet_cache.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace ecad::net {

namespace {

/// A shard's frames share the per-item budget: a shard of N genomes allows
/// up to N * request_timeout_ms for any single item frame
/// (negative timeouts keep meaning "block forever").
int batch_timeout_ms(int per_item_ms, std::size_t items) {
  if (per_item_ms < 0) return -1;
  const long long total =
      static_cast<long long>(per_item_ms) * static_cast<long long>(std::max<std::size_t>(1, items));
  return total > INT_MAX ? INT_MAX : static_cast<int>(total);
}

}  // namespace

RemoteWorker::RemoteWorker(RemoteWorkerOptions options) : options_(std::move(options)) {
  if (options_.endpoints.empty()) {
    throw std::invalid_argument("RemoteWorker: endpoint list is empty");
  }
  {
    // No other thread exists yet, but states_ is mutex_-guarded and the
    // analysis (rightly) has no carve-out for constructors.
    util::MutexLock lock(mutex_);
    states_.resize(options_.endpoints.size());
  }
  if (options_.heartbeat_interval_ms > 0) {
    heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });
  }
}

RemoteWorker::~RemoteWorker() {
  {
    util::MutexLock lock(heartbeat_mutex_);
    stopping_ = true;
  }
  heartbeat_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
}

std::string RemoteWorker::name() const {
  return "remote(" + std::to_string(options_.endpoints.size()) + " endpoints)";
}

const core::FleetEvalCache* RemoteWorker::fleet_cache() const {
  const bool enabled = options_.fleet_cache && !options_.cache_config.empty();
  return enabled ? &cache_client_ : nullptr;
}

void RemoteWorker::FleetCacheClient::fleet_lookup(const std::vector<evo::Genome>& genomes,
                                                  std::vector<evo::EvalOutcome>& outcomes) const {
  static util::Counter& hits = util::metrics().counter("net.fleet_cache_hits_total");
  static util::Counter& misses = util::metrics().counter("net.fleet_cache_misses_total");
  const RemoteWorkerOptions& options = owner_.options_;

  // Duplicate keys are possible only when the dedup stage is disabled; keep
  // every slot for a key so one reply settles all of them.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> slots_by_key;
  for (std::size_t i = 0; i < genomes.size() && i < outcomes.size(); ++i) {
    slots_by_key[fleet_cache_key(options.cache_config, genomes[i].key())].push_back(i);
  }

  std::size_t settled = 0;
  for (std::size_t e = 0; e < options.endpoints.size() && settled < slots_by_key.size(); ++e) {
    Checkout conn;
    if (!owner_.checkout_endpoint(e, conn, /*penalize_on_failure=*/false)) continue;
    try {
      CacheLookup lookup;
      lookup.keys.reserve(slots_by_key.size() - settled);
      for (const auto& [key, slots] : slots_by_key) {
        if (!outcomes[slots.front()].ok) lookup.keys.push_back(key);
      }
      // Chunk to the frame cap; generation batches are far smaller, but the
      // pipeline contract does not know that.
      for (std::size_t offset = 0; offset < lookup.keys.size(); offset += kMaxCacheEntries) {
        CacheLookup chunk;
        chunk.keys.assign(lookup.keys.begin() + static_cast<std::ptrdiff_t>(offset),
                          lookup.keys.begin() +
                              static_cast<std::ptrdiff_t>(
                                  std::min(offset + kMaxCacheEntries, lookup.keys.size())));
        WireWriter writer;
        write_cache_lookup(writer, chunk);
        send_frame_on(conn.socket, MsgType::CacheLookup, writer.bytes());
        const Frame reply = recv_frame_on(conn.socket, options.connect_timeout_ms);
        if (reply.type != MsgType::CacheStore) {
          throw NetError("cache: expected CacheStore, got " + std::string(to_string(reply.type)));
        }
        WireReader reader(reply.payload);
        const CacheStore found = read_cache_store(reader);
        reader.expect_end();
        for (const CacheEntry& entry : found.entries) {
          const auto it = slots_by_key.find(entry.key);
          if (it == slots_by_key.end() || outcomes[it->second.front()].ok) continue;
          for (const std::size_t slot : it->second) {
            outcomes[slot].result = entry.result;
            outcomes[slot].ok = true;
          }
          ++settled;
        }
      }
      owner_.check_in(std::move(conn));
    } catch (const NetError&) {
    } catch (const WireError&) {
      // Best-effort: a half-answered endpoint keeps whatever settled; the
      // rest stays unsettled and dispatches normally.  Only this connection
      // is dropped; the endpoint stays in the pool.
    }
  }
  hits.add(settled);
  misses.add(slots_by_key.size() - settled);
}

void RemoteWorker::FleetCacheClient::fleet_store(const std::vector<evo::Genome>& genomes,
                                                 const std::vector<evo::EvalOutcome>& outcomes) const {
  static util::Counter& published = util::metrics().counter("net.fleet_cache_publishes_total");
  const RemoteWorkerOptions& options = owner_.options_;

  CacheStore store;
  for (std::size_t i = 0; i < genomes.size() && i < outcomes.size(); ++i) {
    if (!outcomes[i].ok) continue;  // failures are not content-addressable facts
    store.entries.push_back(
        CacheEntry{fleet_cache_key(options.cache_config, genomes[i].key()), outcomes[i].result});
  }
  if (store.entries.empty()) return;
  published.add(store.entries.size());

  // Broadcast to every endpoint: a replicated cache makes a later run hit
  // regardless of which daemon its shards happen to land on.
  for (std::size_t e = 0; e < options.endpoints.size(); ++e) {
    Checkout conn;
    if (!owner_.checkout_endpoint(e, conn, /*penalize_on_failure=*/false)) continue;
    try {
      for (std::size_t offset = 0; offset < store.entries.size(); offset += kMaxCacheEntries) {
        CacheStore chunk;
        chunk.entries.assign(store.entries.begin() + static_cast<std::ptrdiff_t>(offset),
                             store.entries.begin() +
                                 static_cast<std::ptrdiff_t>(
                                     std::min(offset + kMaxCacheEntries, store.entries.size())));
        WireWriter writer;
        write_cache_store(writer, chunk);
        send_frame_on(conn.socket, MsgType::CacheStore, writer.bytes());
      }
      owner_.check_in(std::move(conn));
    } catch (const NetError&) {
      // Fire-and-forget: a lost store costs a future re-evaluation.
    }
  }
}

bool RemoteWorker::endpoint_available(const EndpointState& state, Clock::time_point now) const {
  if (!state.down) return true;
  // Without a heartbeat thread the fixed cooldown window is the only way
  // back in; with one, only a successful ping revives the endpoint.
  return options_.heartbeat_interval_ms <= 0 && now >= state.down_until;
}

bool RemoteWorker::connect_endpoint(std::size_t endpoint_index, Socket& out,
                                    bool penalize_on_failure) const {
  const Endpoint& endpoint = options_.endpoints[endpoint_index];
  try {
    Socket socket = Socket::connect(endpoint, options_.connect_timeout_ms);
    client_handshake(socket, "ecad-master", options_.connect_timeout_ms);
    {
      util::MutexLock lock(mutex_);
      states_[endpoint_index].down = false;
    }
    out = std::move(socket);
    return true;
  } catch (const NetError& e) {
    util::Log(util::LogLevel::Debug, "net")
        << "endpoint " << endpoint.to_string() << " unavailable: " << e.what();
  } catch (const WireError& e) {
    util::Log(util::LogLevel::Warn, "net")
        << "endpoint " << endpoint.to_string() << " protocol mismatch: " << e.what();
  }
  if (penalize_on_failure) penalize(endpoint_index);
  return false;
}

bool RemoteWorker::checkout(Checkout& out) const {
  // The endpoint count comes from the immutable options, not from the
  // mutex_-guarded states_ — the old unlocked states_.size() read was benign
  // (the vector never resizes after construction) but unprovable.
  const std::size_t count = options_.endpoints.size();
  const std::size_t start = round_robin_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t offset = 0; offset < count; ++offset) {
    const std::size_t index = (start + offset) % count;
    {
      util::MutexLock lock(mutex_);
      EndpointState& state = states_[index];
      if (!endpoint_available(state, Clock::now())) continue;
      if (!state.idle.empty()) {
        out.endpoint_index = index;
        out.socket = std::move(state.idle.back());
        state.idle.pop_back();
        return true;
      }
    }
    // Connect + handshake outside the lock: a slow or dead endpoint must not
    // stall the other evaluation threads.
    if (connect_endpoint(index, out.socket)) {
      out.endpoint_index = index;
      return true;
    }
  }
  return false;
}

bool RemoteWorker::checkout_endpoint(std::size_t endpoint_index, Checkout& out,
                                     bool penalize_on_failure) const {
  {
    util::MutexLock lock(mutex_);
    EndpointState& state = states_[endpoint_index];
    if (!endpoint_available(state, Clock::now())) return false;
    if (!state.idle.empty()) {
      out.endpoint_index = endpoint_index;
      out.socket = std::move(state.idle.back());
      state.idle.pop_back();
      return true;
    }
  }
  if (connect_endpoint(endpoint_index, out.socket, penalize_on_failure)) {
    out.endpoint_index = endpoint_index;
    return true;
  }
  return false;
}

void RemoteWorker::check_in(Checkout&& checkout) const {
  util::MutexLock lock(mutex_);
  states_[checkout.endpoint_index].idle.push_back(std::move(checkout.socket));
}

void RemoteWorker::penalize(std::size_t endpoint_index) const {
  util::MutexLock lock(mutex_);
  EndpointState& state = states_[endpoint_index];
  state.down = true;
  state.down_until = Clock::now() + std::chrono::milliseconds(options_.endpoint_cooldown_ms);
  state.idle.clear();  // stale sockets to a failed daemon are worthless
}

void RemoteWorker::record_item_latency(std::size_t endpoint_index, double seconds) const {
  // Clamp instead of discarding: a loopback analytic eval really can finish
  // inside the clock granularity, and a zero EWMA would read as "unobserved".
  seconds = std::max(seconds, 1e-9);
  // The histogram keeps the full per-endpoint latency distribution the EWMA
  // below compresses away; labeled lookup before taking mutex_ so the
  // registry mutex is never acquired under it.
  util::metrics()
      .histogram(util::labeled_metric("net.item_latency_seconds", "endpoint",
                                      options_.endpoints[endpoint_index].to_string()))
      .observe(seconds);
  util::MutexLock lock(mutex_);
  EndpointState& state = states_[endpoint_index];
  if (state.item_latency_ewma_s <= 0.0) {
    state.item_latency_ewma_s = seconds;
    state.item_latency_var_s2 = 0.0;
    return;
  }
  const double deviation = seconds - state.item_latency_ewma_s;
  state.item_latency_ewma_s += 0.3 * deviation;
  state.item_latency_var_s2 = 0.7 * state.item_latency_var_s2 + 0.3 * deviation * deviation;
}

std::size_t RemoteWorker::shard_size(std::size_t endpoint_index, const BatchQueue& queue) const {
  // Fair share of the *currently pending* items across every stream of this
  // round.  This is both the equal cold-start prior (every endpoint starts
  // with the same unobserved latency, so the first wave splits the queue
  // evenly) and a hard ceiling on the adaptive size — without it a fast
  // endpoint's latency estimate can claim the whole queue in one shard,
  // starving the rest of the fleet and silently recreating the one-giant-
  // shard degeneration this scheduler exists to kill.
  const std::size_t pending = queue.pending.size();
  if (pending == 0) return 1;
  const std::size_t streams = std::max<std::size_t>(1, queue.total_streams);
  const std::size_t fair_share = (pending + streams - 1) / streams;
  const std::size_t cap =
      std::min(fair_share, std::max<std::size_t>(1, std::min<std::size_t>(
                                                        options_.max_shard_items, kMaxBatchItems)));
  double ewma = 0.0;
  double variance = 0.0;
  {
    util::MutexLock lock(mutex_);
    ewma = states_[endpoint_index].item_latency_ewma_s;
    variance = states_[endpoint_index].item_latency_var_s2;
  }
  if (ewma <= 0.0) return cap;  // equal prior: the fair share itself
  // Aim each shard at ~shard_target_ms of endpoint wall clock, penalized by
  // the observed latency spread: a jittery endpoint gets smaller shards so a
  // stuck genome strands less work behind it.
  const double target_s = std::max(1, options_.shard_target_ms) / 1000.0;
  const double penalized_latency = ewma + std::sqrt(std::max(0.0, variance));
  if (penalized_latency <= 0.0) return cap;
  const double exact = target_s / penalized_latency;
  if (exact >= static_cast<double>(cap)) return cap;
  return std::max<std::size_t>(1, static_cast<std::size_t>(exact));
}

void RemoteWorker::exchange_stream(std::size_t endpoint_index, Socket& socket,
                                   const std::vector<evo::Genome>& genomes,
                                   const std::vector<std::size_t>& items,
                                   std::vector<evo::EvalOutcome>& outcomes) const {
  EvalBatchRequest request;
  request.batch_id = next_batch_id_.fetch_add(1, std::memory_order_relaxed);
  request.genomes.reserve(items.size());
  for (std::size_t index : items) request.genomes.push_back(genomes[index]);
  WireWriter writer;
  write_eval_batch_request(writer, request);
  send_frame_on(socket, MsgType::EvalBatchRequest, writer.bytes());
  batches_dispatched_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t batch_id = request.batch_id;

  // Item frames arrive in completion order; slots settle by frame index the
  // moment each lands, so a disconnect below loses only unanswered items.
  const int frame_timeout = batch_timeout_ms(options_.request_timeout_ms, items.size());
  std::vector<char> seen(items.size(), 0);
  std::size_t settled = 0;
  std::uint32_t highest_index = 0;
  bool any_seen = false;
  std::size_t out_of_order = 0;
  util::Stopwatch watch;
  double previous_arrival_s = 0.0;
  while (settled < items.size()) {
    const Frame frame = recv_frame_on(socket, frame_timeout);
    if (frame.type != MsgType::EvalItemResult) {
      if (frame.type == MsgType::EvalBatchDone) {
        throw WireError("wire: EvalBatchDone with " + std::to_string(items.size() - settled) +
                        " unsettled items");
      }
      throw NetError("expected EvalItemResult, got " + std::string(to_string(frame.type)));
    }
    WireReader reader(frame.payload);
    EvalItemResult item = read_eval_item_result(reader);
    reader.expect_end();
    if (item.batch_id != batch_id) {
      throw NetError("item batch id mismatch (" + std::to_string(item.batch_id) + " != " +
                     std::to_string(batch_id) + ")");
    }
    if (item.index >= items.size()) {
      throw WireError("wire: item index " + std::to_string(item.index) + " beyond shard of " +
                      std::to_string(items.size()));
    }
    if (seen[item.index]) {
      throw WireError("wire: duplicate item frame for index " + std::to_string(item.index));
    }
    seen[item.index] = 1;
    ++settled;
    if (any_seen && item.index < highest_index) ++out_of_order;
    if (!any_seen || item.index > highest_index) highest_index = item.index;
    any_seen = true;

    // Arrival gaps sum to the shard's wall clock, so their EWMA is the
    // endpoint's true per-item rate while their spread captures the
    // heterogeneity the adaptive sizer reacts to.
    const double arrival_s = watch.elapsed_seconds();
    record_item_latency(endpoint_index, arrival_s - previous_arrival_s);
    previous_arrival_s = arrival_s;

    evo::EvalOutcome& slot = outcomes[items[item.index]];
    slot = std::move(item.outcome);
    if (!slot.ok) slot.error = "remote evaluation failed: " + slot.error;
    streamed_items_.fetch_add(1, std::memory_order_relaxed);
  }
  const Frame done_frame = recv_frame_on(socket, frame_timeout);
  if (done_frame.type != MsgType::EvalBatchDone) {
    throw NetError("expected EvalBatchDone, got " + std::string(to_string(done_frame.type)));
  }
  WireReader done_reader(done_frame.payload);
  const EvalBatchDone done = read_eval_batch_done(done_reader);
  done_reader.expect_end();
  if (done.batch_id != batch_id || done.count != items.size()) {
    throw WireError("wire: EvalBatchDone mismatch (batch " + std::to_string(done.batch_id) +
                    ", count " + std::to_string(done.count) + ")");
  }
  if (out_of_order > 0) {
    out_of_order_items_.fetch_add(out_of_order, std::memory_order_relaxed);
    util::Log(util::LogLevel::Debug, "net")
        << "streamed shard of " << items.size() << " items consumed " << out_of_order
        << " out-of-order item frames";
  }
}

bool RemoteWorker::run_shard(Checkout& conn, const std::vector<evo::Genome>& genomes,
                             const std::vector<std::size_t>& items,
                             std::vector<evo::EvalOutcome>& outcomes,
                             std::vector<std::size_t>& unfinished) const {
  const std::string endpoint_label = options_.endpoints[conn.endpoint_index].to_string();
  static util::Histogram& shard_hist = util::metrics().histogram("net.shard_items");
  shard_hist.observe(static_cast<double>(items.size()));
  util::metrics()
      .counter(util::labeled_metric("net.items_dispatched_total", "endpoint", endpoint_label))
      .add(items.size());
  util::TraceSpan span("net",
                       "shard " + endpoint_label + " n=" + std::to_string(items.size()));
  bool healthy = false;
  try {
    exchange_stream(conn.endpoint_index, conn.socket, genomes, items, outcomes);
    healthy = true;
  } catch (const NetError& e) {
    util::Log(util::LogLevel::Warn, "net")
        << "batch shard on " << options_.endpoints[conn.endpoint_index].to_string()
        << " failed (" << e.what() << "); requeueing unsettled items";
    penalize(conn.endpoint_index);
  } catch (const WireError& e) {
    util::Log(util::LogLevel::Warn, "net")
        << "malformed batch response from "
        << options_.endpoints[conn.endpoint_index].to_string() << " (" << e.what()
        << "); requeueing unsettled items";
    penalize(conn.endpoint_index);
  }
  std::size_t settled_count = 0;
  for (std::size_t index : items) {
    if (outcomes[index].settled()) {
      ++settled_count;  // includes slots a failed shard settled before dying
    } else {
      unfinished.push_back(index);
    }
  }
  remote_evaluations_.fetch_add(settled_count, std::memory_order_relaxed);
  return healthy;
}

void RemoteWorker::drive_endpoint(std::size_t endpoint_index,
                                  const std::vector<evo::Genome>& genomes,
                                  std::vector<std::size_t> first_shard, BatchQueue& queue,
                                  std::vector<evo::EvalOutcome>& outcomes, bool primary) const {
  const auto requeue = [&queue](const std::vector<std::size_t>& items) {
    if (items.empty()) return;
    static util::Counter& requeued = util::metrics().counter("net.requeued_items_total");
    requeued.add(items.size());
    util::MutexLock lock(queue.mutex);
    for (std::size_t index : items) queue.pending.push_back(index);
  };

  // Connection first, work second: until the stream actually holds a
  // handshaken socket it owns no items, so a connect timeout here delays
  // nothing — the other streams keep draining the queue meanwhile.
  Checkout conn;
  if (!checkout_endpoint(endpoint_index, conn, /*penalize_on_failure=*/primary)) {
    requeue(first_shard);
    return;
  }

  std::vector<std::size_t> shard = std::move(first_shard);
  for (;;) {
    if (shard.empty()) {
      util::MutexLock lock(queue.mutex);
      if (queue.pending.empty()) break;
      const std::size_t take = std::min(shard_size(endpoint_index, queue), queue.pending.size());
      shard.assign(queue.pending.begin(),
                   queue.pending.begin() + static_cast<std::ptrdiff_t>(take));
      queue.pending.erase(queue.pending.begin(),
                          queue.pending.begin() + static_cast<std::ptrdiff_t>(take));
    }
    std::vector<std::size_t> unfinished;
    const bool healthy = run_shard(conn, genomes, shard, outcomes, unfinished);
    requeue(unfinished);
    if (!healthy) return;  // connection dead, endpoint sidelined; drop it
    shard.clear();
  }
  check_in(std::move(conn));
}

std::vector<evo::EvalOutcome> RemoteWorker::evaluate_batch(const std::vector<evo::Genome>& genomes,
                                                           util::ThreadPool& pool) const {
  std::vector<evo::EvalOutcome> outcomes(genomes.size());
  if (genomes.empty()) return outcomes;
  util::TraceSpan batch_span("net", "evaluate_batch n=" + std::to_string(genomes.size()));

  std::vector<std::size_t> pending(genomes.size());
  std::iota(pending.begin(), pending.end(), std::size_t{0});

  // Each scheduling round spins up a bounded set of shard streams over the
  // currently healthy endpoints, all pulling from one shared queue; a round
  // ends when every stream has drained or died, and whatever is unsettled
  // re-enters the next round (endpoints may have revived by then).
  const std::size_t max_rounds =
      std::max<std::size_t>(1, options_.max_rounds) * options_.endpoints.size() + 1;
  bool waited_for_revival = false;
  for (std::size_t round = 0; round < max_rounds && !pending.empty(); ++round) {
    std::vector<std::size_t> available;
    {
      util::MutexLock lock(mutex_);
      const Clock::time_point now = Clock::now();
      for (std::size_t i = 0; i < states_.size(); ++i) {
        if (endpoint_available(states_[i], now)) available.push_back(i);
      }
    }
    if (available.empty()) {
      // With heartbeats on, a sidelined endpoint revives only through the
      // background ping — which may be milliseconds away.  Give it one
      // bounded window before declaring the fleet dead: a transiently
      // penalized endpoint (e.g. a handshake that lost a race) should cost
      // a beat, not the whole batch's worth of remote work.
      if (options_.heartbeat_interval_ms > 0 && !waited_for_revival) {
        waited_for_revival = true;
        const int wait_ms =
            std::min(2000, std::max(100, options_.heartbeat_interval_ms * 4));
        const Clock::time_point deadline =
            Clock::now() + std::chrono::milliseconds(wait_ms);
        while (Clock::now() < deadline && healthy_endpoints() == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (healthy_endpoints() > 0) continue;
      }
      break;  // nothing reachable; fall through to fallback
    }

    const std::size_t streams_each = std::max<std::size_t>(1, options_.streams_per_endpoint);
    const std::size_t total_streams =
        std::max<std::size_t>(1, std::min(available.size() * streams_each, pending.size()));

    BatchQueue queue;
    // Reserve one equal-prior shard per endpoint up front: the round's first
    // wave covers the whole fleet deterministically, and only then does the
    // shared queue turn the remainder into a work-stealing race.  No stream
    // has launched yet, but shard_size() requires queue.mutex — the old
    // "or has exclusive access pre-launch" escape hatch is gone — so the
    // whole setup pass takes the lock.
    std::vector<std::vector<std::size_t>> reserved(available.size());
    {
      util::MutexLock lock(queue.mutex);
      queue.pending.assign(pending.begin(), pending.end());
      queue.total_streams = total_streams;
      for (std::size_t s = 0; s < available.size() && !queue.pending.empty(); ++s) {
        const std::size_t take =
            std::min(shard_size(available[s], queue), queue.pending.size());
        reserved[s].assign(queue.pending.begin(),
                           queue.pending.begin() + static_cast<std::ptrdiff_t>(take));
        queue.pending.erase(queue.pending.begin(),
                            queue.pending.begin() + static_cast<std::ptrdiff_t>(take));
      }
    }

    struct Stream {
      std::size_t endpoint_index = 0;
      std::vector<std::size_t> first_shard;
      bool primary = false;
    };
    std::vector<Stream> streams;
    streams.reserve(available.size() * streams_each);
    for (std::size_t s = 0; s < available.size(); ++s) {
      for (std::size_t k = 0; k < streams_each; ++k) {
        Stream stream;
        stream.endpoint_index = available[s];
        stream.primary = (k == 0);
        if (k == 0) stream.first_shard = std::move(reserved[s]);
        streams.push_back(std::move(stream));
      }
    }

    if (streams.size() == 1) {
      drive_endpoint(streams[0].endpoint_index, genomes, std::move(streams[0].first_shard),
                     queue, outcomes, /*primary=*/true);
    } else {
      pool.parallel_for(streams.size(), [&](std::size_t s) {
        drive_endpoint(streams[s].endpoint_index, genomes, std::move(streams[s].first_shard),
                       queue, outcomes, /*primary=*/streams[s].primary);
      });
    }

    std::vector<std::size_t> next;
    for (std::size_t index : pending) {
      if (!outcomes[index].settled()) next.push_back(index);
    }
    pending = std::move(next);
  }

  if (!pending.empty()) {
    if (options_.fallback == nullptr) {
      throw NetError("RemoteWorker: no evaluation daemon reachable and no local fallback configured");
    }
    util::Log(util::LogLevel::Warn, "net")
        << "no evaluation daemon reachable for " << pending.size()
        << " batch items; falling back to local worker '" << options_.fallback->name() << "'";
    std::vector<evo::Genome> rest;
    rest.reserve(pending.size());
    for (std::size_t index : pending) rest.push_back(genomes[index]);
    std::vector<evo::EvalOutcome> rest_outcomes = options_.fallback->evaluate_batch(rest, pool);
    for (std::size_t k = 0; k < pending.size() && k < rest_outcomes.size(); ++k) {
      outcomes[pending[k]] = std::move(rest_outcomes[k]);
    }
    fallback_evaluations_.fetch_add(pending.size(), std::memory_order_relaxed);
  }
  return outcomes;
}

evo::EvalResult RemoteWorker::evaluate(const evo::Genome& genome) const {
  const std::vector<evo::Genome> genomes{genome};
  const std::vector<std::size_t> items{0};
  std::vector<evo::EvalOutcome> outcomes(1);
  const std::size_t attempts = options_.max_rounds * options_.endpoints.size();
  for (std::size_t attempt = 0; attempt < attempts && !outcomes[0].settled(); ++attempt) {
    Checkout conn;
    if (!checkout(conn)) break;  // every endpoint down or cooling off
    // A network fault sidelines the endpoint inside run_shard and the next
    // attempt rotates elsewhere; a completed exchange returns the socket.
    std::vector<std::size_t> unfinished;
    if (run_shard(conn, genomes, items, outcomes, unfinished)) check_in(std::move(conn));
  }
  if (outcomes[0].settled()) {
    // A remote evaluation error is deterministic per genome — retrying on
    // another endpoint would fail identically, so surface it to the Master.
    if (!outcomes[0].ok) throw std::runtime_error(outcomes[0].error);
    return outcomes[0].result;
  }
  if (options_.fallback != nullptr) {
    fallback_evaluations_.fetch_add(1, std::memory_order_relaxed);
    util::Log(util::LogLevel::Warn, "net")
        << "no evaluation daemon reachable; falling back to local worker '"
        << options_.fallback->name() << "'";
    return options_.fallback->evaluate(genome);
  }
  throw NetError("RemoteWorker: no evaluation daemon reachable and no local fallback configured");
}

std::size_t RemoteWorker::ping_all() const {
  std::size_t alive = 0;
  for (const Endpoint& endpoint : options_.endpoints) {
    try {
      Socket socket = Socket::connect(endpoint, options_.connect_timeout_ms);
      send_frame_on(socket, MsgType::Ping, {});
      const Frame frame = recv_frame_on(socket, options_.connect_timeout_ms);
      if (frame.type == MsgType::Pong) ++alive;
    } catch (const NetError&) {
    } catch (const WireError&) {
    }
  }
  return alive;
}

std::size_t RemoteWorker::healthy_endpoints() const {
  util::MutexLock lock(mutex_);
  const Clock::time_point now = Clock::now();
  std::size_t healthy = 0;
  for (const EndpointState& state : states_) {
    if (endpoint_available(state, now)) ++healthy;
  }
  return healthy;
}

void RemoteWorker::shutdown_all() const {
  for (const Endpoint& endpoint : options_.endpoints) {
    try {
      Socket socket = Socket::connect(endpoint, options_.connect_timeout_ms);
      send_frame_on(socket, MsgType::Shutdown, {});
    } catch (const NetError&) {
      // Already gone — that's what shutdown wanted anyway.
    }
  }
}

void RemoteWorker::heartbeat_loop() {
  const auto interval = std::chrono::milliseconds(options_.heartbeat_interval_ms);
  for (;;) {
    {
      // Explicit check/wait/check instead of a predicate lambda: the analysis
      // can't see guarded reads inside a lambda body (see util/mutex.h).  A
      // spurious wakeup at worst triggers one early ping sweep.
      util::MutexLock lock(heartbeat_mutex_);
      if (stopping_) return;
      heartbeat_cv_.wait_for(heartbeat_mutex_, interval);
      if (stopping_) return;
    }

    std::vector<std::size_t> sidelined;
    {
      util::MutexLock state_lock(mutex_);
      for (std::size_t i = 0; i < states_.size(); ++i) {
        if (states_[i].down) sidelined.push_back(i);
      }
    }
    for (std::size_t index : sidelined) {
      const Endpoint& endpoint = options_.endpoints[index];
      try {
        Socket socket = Socket::connect(endpoint, options_.connect_timeout_ms);
        send_frame_on(socket, MsgType::Ping, {});
        const Frame frame = recv_frame_on(socket, options_.connect_timeout_ms);
        if (frame.type != MsgType::Pong) continue;
        {
          util::MutexLock state_lock(mutex_);
          EndpointState& state = states_[index];
          if (!state.down) continue;  // an evaluation beat us to it
          state.down = false;
        }
        heartbeat_rejoins_.fetch_add(1, std::memory_order_relaxed);
        static util::Counter& rejoins = util::metrics().counter("net.heartbeat_rejoins_total");
        rejoins.add(1);
        util::Log(util::LogLevel::Info, "net")
            << "endpoint " << endpoint.to_string() << " rejoined the pool via heartbeat ping";
      } catch (const NetError&) {
        // Still down; try again next tick.
      } catch (const WireError&) {
      }
    }
  }
}

}  // namespace ecad::net
