// RemoteWorker: a core::Worker whose evaluations run on remote ecad_workerd
// daemons.  The Master stays oblivious — it dispatches genomes exactly as it
// would to a local worker, and this class fans the work out across a pool of
// endpoints with per-request timeouts, retry-on-disconnect, and (optionally)
// fallback to a local worker when nothing is reachable.
//
// Batch scheduling (completion-driven): evaluate_batch() feeds a shared
// pending queue through a bounded number of concurrent shard streams per
// endpoint.  Each stream pops a small shard off the queue, ships it as one
// EvalBatchRequest frame, and settles outcome slots incrementally as the
// worker streams EvalItemResult frames back in completion order, so one slow
// genome never delays its shard-mates' results.  A stream that drains its
// shard immediately pops the next one, which is work stealing by
// construction: fast endpoints simply consume more of the queue while a slow
// endpoint grinds through its shard.  Shard sizes adapt per endpoint from
// the observed per-item latency EWMA and its variance (high-variance
// endpoints get smaller shards so a stuck item strands less work); at cold
// start every endpoint gets the same equal-prior shard so no single endpoint
// swallows the whole queue before the others have a measurement.  When an
// endpoint dies mid-shard its unsettled items return to the queue for the
// surviving streams; items the remote worker itself failed on are NOT
// retried (deterministic per genome) and surface through their per-item
// error slots.  evaluate() is the same machinery with a one-item shard.
//
// Connection model: each exchange — an evaluation shard or a fleet-cache
// lookup or store — checks a connection out of a per-endpoint idle pool
// (connecting + handshaking lazily), speaks on it exclusively, and returns
// it for reuse only after a clean exchange, so failure handling stays local
// to one exchange.  A warm generation thus costs no new connection.
// The Hello/HelloAck exchange only proves the peer is alive and speaks this
// build's protocol version (every frame header carries it); a peer of
// another version fails the handshake and is sidelined like a dead one.
//
// Heartbeats: endpoints that fail are sidelined, and a background thread
// pings sidelined endpoints every heartbeat_interval_ms — a revived daemon
// rejoins the pool via Ping/Pong without waiting for an evaluation to probe
// it.  With heartbeats disabled (interval 0), a sidelined endpoint rejoins
// when a fixed cooldown window expires.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "core/eval_pipeline.h"
#include "core/worker.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/mutex.h"
#include "util/thread_safety.h"

namespace ecad::net {

struct RemoteWorkerOptions {
  std::vector<Endpoint> endpoints;
  int connect_timeout_ms = 2000;
  /// Per-item deadline (covers remote training time): a shard of N genomes
  /// allows up to N * request_timeout_ms between successive frames.
  int request_timeout_ms = 120000;
  /// How long a failed endpoint sits out before being retried when
  /// heartbeats are disabled.  With heartbeats on, a sidelined endpoint
  /// rejoins only when a ping succeeds.
  int endpoint_cooldown_ms = 1000;
  /// Full passes over the endpoint list before giving up on the network.
  std::size_t max_rounds = 2;
  /// Background ping period for sidelined endpoints; 0 disables the
  /// heartbeat thread (sidelining then falls back to the cooldown window).
  int heartbeat_interval_ms = 250;
  /// Concurrent shard streams per endpoint in evaluate_batch().  Two keeps
  /// the daemon's pool fed while the previous shard's tail is still
  /// streaming back; 1 restores strictly sequential shards per endpoint.
  std::size_t streams_per_endpoint = 2;
  /// Wall clock the adaptive sizer aims at per shard once an endpoint has a
  /// latency measurement.  Smaller targets mean finer-grained work stealing
  /// (less work strands behind a slow genome) at the cost of more frames.
  int shard_target_ms = 200;
  /// Hard cap on items per shard (also bounded by kMaxBatchItems).
  std::size_t max_shard_items = 256;
  /// Canonical eval-config identity (net::EvalConfigId::to_string()) hashed
  /// into every fleet-cache key.  Empty — the default — disables the cache
  /// client: fleet_cache() returns nullptr and no cache frames are sent.
  /// Every master sharing a fleet must derive this from the same worker
  /// spec, or their caches silently partition.
  std::string cache_config;
  /// Master-side kill switch for the fleet cache client (ecad_searchd
  /// --no-fleet-cache); cache_config must also be non-empty to enable.
  bool fleet_cache = true;
  /// When no endpoint is reachable: evaluate locally on this worker instead
  /// of failing the search. nullptr = throw NetError.
  const core::Worker* fallback = nullptr;
};

class RemoteWorker final : public core::Worker {
 public:
  /// Throws std::invalid_argument when no endpoints are given.
  explicit RemoteWorker(RemoteWorkerOptions options);
  ~RemoteWorker() override;

  std::string name() const override;

  /// Thread-safe; called concurrently by the Master's pool.  Ships the
  /// genome as a one-item shard.  Network faults rotate to the next
  /// endpoint; a *remote evaluation* error (the worker threw on its
  /// machine) is not retried — it is deterministic — and surfaces as
  /// std::runtime_error with the remote message.
  evo::EvalResult evaluate(const evo::Genome& genome) const ECAD_EXCLUDES(mutex_) override;

  /// Completion-driven batch dispatch (see the header comment): shards pull
  /// from a shared queue across all healthy endpoints, slots settle as item
  /// frames stream back, unsettled items of a dying endpoint return to the
  /// queue.  Outcomes are in input order; network exhaustion falls back to
  /// the local worker or throws NetError, exactly like evaluate().
  std::vector<evo::EvalOutcome> evaluate_batch(const std::vector<evo::Genome>& genomes,
                                               util::ThreadPool& pool) const
      ECAD_EXCLUDES(mutex_) override;

  /// The fleet cache tier as a core::FleetEvalCache, or nullptr when
  /// disabled (empty cache_config or fleet_cache=false).  EvalPipeline
  /// consults it between dedup and dispatch; the client speaks
  /// CacheLookup/CacheStore on the pooled connections, so a daemon restart
  /// costs at most a miss, never a failed search.
  const core::FleetEvalCache* fleet_cache() const override;

  /// Round-trip a Ping to every endpoint; number of live daemons.
  std::size_t ping_all() const;

  /// Ask every reachable daemon to exit (used by ecad_searchd --shutdown-workers).
  void shutdown_all() const;

  std::size_t remote_evaluations() const {
    return remote_evaluations_.load(std::memory_order_relaxed);
  }
  std::size_t fallback_evaluations() const {
    return fallback_evaluations_.load(std::memory_order_relaxed);
  }
  /// EvalBatchRequest frames dispatched (shards, not generations).
  std::size_t batches_dispatched() const {
    return batches_dispatched_.load(std::memory_order_relaxed);
  }
  /// EvalItemResult frames consumed.
  std::size_t streamed_items() const {
    return streamed_items_.load(std::memory_order_relaxed);
  }
  /// Streamed item frames that arrived before a lower-index shard-mate —
  /// direct evidence the pipeline consumed results in completion order.
  std::size_t out_of_order_items() const {
    return out_of_order_items_.load(std::memory_order_relaxed);
  }
  /// Sidelined endpoints revived by the heartbeat thread's Ping.
  std::size_t heartbeat_rejoins() const {
    return heartbeat_rejoins_.load(std::memory_order_relaxed);
  }
  /// Endpoints currently eligible for checkout (not sidelined).
  std::size_t healthy_endpoints() const ECAD_EXCLUDES(mutex_);

 private:
  using Clock = std::chrono::steady_clock;

  /// Speaks the cache frames for the owning RemoteWorker on its pooled
  /// connections.  Lookups walk the endpoint list in order until every key
  /// settles (the fleet is replicated by broadcast stores, so the first
  /// daemon usually answers everything); stores broadcast to every endpoint
  /// so a later run hits regardless of shard placement.  Sidelined
  /// endpoints are skipped.  A failed exchange drops only its connection:
  /// it never throws and never sidelines the endpoint — the cache is an
  /// optimization, never a dependency.
  class FleetCacheClient final : public core::FleetEvalCache {
   public:
    explicit FleetCacheClient(const RemoteWorker& owner) : owner_(owner) {}
    void fleet_lookup(const std::vector<evo::Genome>& genomes,
                      std::vector<evo::EvalOutcome>& outcomes) const override;
    void fleet_store(const std::vector<evo::Genome>& genomes,
                     const std::vector<evo::EvalOutcome>& outcomes) const override;

   private:
    const RemoteWorker& owner_;
  };

  struct EndpointState {
    bool down = false;                    // sidelined until ping / cooldown expiry
    Clock::time_point down_until{};       // cooldown gate (heartbeats disabled)
    /// EWMA of observed per-item latency (seconds); 0 = not yet observed.
    /// Every endpoint starts at the same unobserved prior, so cold-start
    /// shard sizing is equal-share by construction.
    double item_latency_ewma_s = 0.0;
    /// EWMA of squared deviation from the latency mean; feeds the sizer's
    /// variance penalty (jittery endpoints get smaller shards).
    double item_latency_var_s2 = 0.0;
    std::vector<Socket> idle;             // handshaken connections ready for reuse
  };

  struct Checkout {
    std::size_t endpoint_index = 0;
    Socket socket;
  };

  /// Shared work queue of one evaluate_batch() call: indices not yet handed
  /// to a stream.  Failed shards push their unsettled indices back.
  struct BatchQueue {
    util::Mutex mutex;
    std::deque<std::size_t> pending ECAD_GUARDED_BY(mutex);
    /// Streams pulling from this queue; bounds every shard to its fair
    /// share of the pending items (see shard_size()).
    std::size_t total_streams ECAD_GUARDED_BY(mutex) = 1;
  };

  /// `state` must be a reference into states_, which is only stable while
  /// mutex_ is held.
  bool endpoint_available(const EndpointState& state, Clock::time_point now) const
      ECAD_REQUIRES(mutex_);

  /// Next healthy endpoint in round-robin order with a ready or freshly
  /// connected (and handshaken) socket; false when every endpoint is
  /// sidelined or unreachable right now.
  bool checkout(Checkout& out) const ECAD_EXCLUDES(mutex_);
  /// Same, but pinned to one endpoint (used by the batch scheduler, which
  /// decides placement itself).  With `penalize_on_failure` (the default)
  /// a failed connect sidelines the endpoint; a secondary shard stream
  /// passes false — failing to open an *extra* connection (e.g. against a
  /// single-connection daemon) must not sideline an endpoint whose primary
  /// stream is healthy mid-shard.
  bool checkout_endpoint(std::size_t endpoint_index, Checkout& out,
                         bool penalize_on_failure = true) const ECAD_EXCLUDES(mutex_);
  void check_in(Checkout&& checkout) const ECAD_EXCLUDES(mutex_);
  void penalize(std::size_t endpoint_index) const ECAD_EXCLUDES(mutex_);
  /// Fold one per-item latency sample into the endpoint's EWMA/variance.
  void record_item_latency(std::size_t endpoint_index, double seconds) const
      ECAD_EXCLUDES(mutex_);
  /// Items the next shard for this endpoint should carry: the latency-EWMA
  /// adaptive size (equal prior when unobserved), hard-bounded by the fair
  /// share of the currently pending queue across every stream — one fast
  /// endpoint must never swallow the whole queue and starve the fleet.
  /// The REQUIRES contract replaces the old "caller holds queue.mutex (or
  /// has exclusive access pre-launch)" comment: every caller now holds the
  /// lock, including the pre-launch reservation pass.
  std::size_t shard_size(std::size_t endpoint_index, const BatchQueue& queue) const
      ECAD_REQUIRES(queue.mutex) ECAD_EXCLUDES(mutex_);

  /// Connect + Hello/HelloAck; on failure sidelines the endpoint when
  /// `penalize_on_failure`.
  bool connect_endpoint(std::size_t endpoint_index, Socket& out,
                        bool penalize_on_failure = true) const ECAD_EXCLUDES(mutex_);

  /// One EvalBatchRequest for `items` (indices into `genomes`) answered by
  /// streamed EvalItemResult frames (completion order) + a terminal
  /// EvalBatchDone.  Slots settle incrementally, so a mid-stream disconnect
  /// loses only the unanswered items; per-item latencies feed the adaptive
  /// sizer.  Throws NetError/WireError on connection-level failures (the
  /// caller requeues unsettled items).
  void exchange_stream(std::size_t endpoint_index, Socket& socket,
                       const std::vector<evo::Genome>& genomes,
                       const std::vector<std::size_t>& items,
                       std::vector<evo::EvalOutcome>& outcomes) const;

  /// Run one shard on an already checked-out connection; indices it could
  /// not finish (network fault) land in `unfinished` for requeueing.
  /// Returns false — after sidelining the endpoint — when the connection
  /// died; the stream must stop using it.
  bool run_shard(Checkout& conn, const std::vector<evo::Genome>& genomes,
                 const std::vector<std::size_t>& items, std::vector<evo::EvalOutcome>& outcomes,
                 std::vector<std::size_t>& unfinished) const;

  /// One shard stream: establishes its connection FIRST (so no item is ever
  /// stranded behind a connect timeout), then pops shards off the queue and
  /// runs them until the queue drains or the connection dies.  `first_shard`
  /// (optional, may be empty) is the round's reserved equal-prior shard that
  /// guarantees every healthy endpoint participates before stealing starts;
  /// it is requeued untouched when the stream cannot connect.  `primary`
  /// marks the endpoint's first stream — the only one allowed to sideline
  /// the endpoint over a failed *connect* (see checkout_endpoint).
  void drive_endpoint(std::size_t endpoint_index, const std::vector<evo::Genome>& genomes,
                      std::vector<std::size_t> first_shard, BatchQueue& queue,
                      std::vector<evo::EvalOutcome>& outcomes, bool primary) const
      ECAD_EXCLUDES(queue.mutex, mutex_);

  void heartbeat_loop() ECAD_EXCLUDES(heartbeat_mutex_, mutex_);

  RemoteWorkerOptions options_;
  FleetCacheClient cache_client_{*this};
  /// Guards endpoint states + idle pools (enforced via ECAD_GUARDED_BY).
  mutable util::Mutex mutex_;
  mutable std::vector<EndpointState> states_ ECAD_GUARDED_BY(mutex_);
  mutable std::atomic<std::uint64_t> next_batch_id_{1};
  mutable std::atomic<std::size_t> round_robin_{0};
  mutable std::atomic<std::size_t> remote_evaluations_{0};
  mutable std::atomic<std::size_t> fallback_evaluations_{0};
  mutable std::atomic<std::size_t> batches_dispatched_{0};
  mutable std::atomic<std::size_t> streamed_items_{0};
  mutable std::atomic<std::size_t> out_of_order_items_{0};
  mutable std::atomic<std::size_t> heartbeat_rejoins_{0};

  util::Mutex heartbeat_mutex_;
  util::CondVar heartbeat_cv_;
  bool stopping_ ECAD_GUARDED_BY(heartbeat_mutex_) = false;
  std::thread heartbeat_thread_;
};

}  // namespace ecad::net
