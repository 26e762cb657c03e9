// Evaluation daemon: wraps any core::Worker behind the wire protocol.
//
// Architecture (paper §III): remote Workers hold the expensive evaluation
// machinery (training data, hardware models) and serve EvalBatchRequest
// frames from the Master.  One poll(2) event-loop thread owns the listener
// and all connection reads; complete request frames are dispatched to the
// existing util::ThreadPool, so N in-flight requests — from one Master
// connection or several — evaluate concurrently.  A batch's items each get
// their own pool task (they evaluate concurrently with each other and with
// other requests), submitted costliest first by the wrapped worker's
// cost_hint (core::dispatch_order).  Every item streams its own
// EvalItemResult frame, carrying its request index, the moment it completes
// (completion order, not request order) and the last one closes the batch
// with EvalBatchDone.  Responses are written from pool threads under a
// per-connection mutex (frames stay whole on the wire).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/worker.h"
#include "net/fleet_cache.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/mutex.h"
#include "util/thread_pool.h"
#include "util/thread_safety.h"

namespace ecad::net {

struct WorkerServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral port; read the actual one back via port().
  std::uint16_t port = 0;
  /// Evaluation pool width; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Event-loop poll granularity (also bounds stop() latency).
  int poll_interval_ms = 50;
  /// Byte budget for the fleet result cache tier (CacheLookup/CacheStore
  /// frames).  0 — the default — disables the tier: lookups answer empty
  /// and stores are dropped.
  std::size_t cache_bytes = 0;
  /// Serve *only* the cache tier (plus handshake/ping/stats): evaluation
  /// frames are protocol violations and drop the connection.  For dedicated
  /// `ecad_workerd --cache-only` daemons that pool cache capacity without
  /// burning evaluation threads.
  bool cache_only = false;
};

class WorkerServer {
 public:
  /// `worker` must outlive the server and be thread-safe (the core::Worker
  /// contract) — evaluations run concurrently on the pool.
  WorkerServer(const core::Worker& worker, WorkerServerOptions options = {});
  ~WorkerServer();

  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  /// Bind + launch the event loop. Throws NetError if the port is taken.
  void start();

  /// Close the listener and all connections, join the loop, drain the pool.
  /// Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Actual bound port (valid after start()).
  std::uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Total candidate evaluations served — one per EvalBatchRequest item
  /// (counted before its item frame is written, so a client holding a
  /// result always sees itself included).
  std::size_t requests_served() const { return requests_served_.load(std::memory_order_relaxed); }

  /// The fleet result cache tier, exposed so the daemon can persist it
  /// across restarts (`ecad_workerd --cache-file`).  Thread-safe; preload
  /// before start() so warm entries are visible from the first lookup.
  FleetResultCache& cache() { return cache_; }
  const FleetResultCache& cache() const { return cache_; }

 private:
  struct Connection {
    Socket socket;
    std::vector<std::uint8_t> inbox;  // partial-frame reassembly buffer
    /// Serializes response frames: pool tasks and the loop thread both write
    /// to the socket, and a frame must hit the wire whole.  The socket itself
    /// can't be GUARDED_BY it — the loop thread recv()s without it — so the
    /// contract is "every send_all goes through send_frame".
    util::Mutex write_mutex;
    std::atomic<bool> closed{false};
  };

  void run_loop();
  /// Returns false when the connection should be dropped.
  bool handle_frame(const std::shared_ptr<Connection>& connection, Frame frame);
  void handle_batch_request(const std::shared_ptr<Connection>& connection, Frame frame);
  void send_frame(const std::shared_ptr<Connection>& connection, MsgType type,
                  const std::vector<std::uint8_t>& payload)
      ECAD_EXCLUDES(connection->write_mutex);

  const core::Worker& worker_;
  WorkerServerOptions options_;
  FleetResultCache cache_;
  Listener listener_;
  std::uint16_t port_ = 0;
  std::unique_ptr<util::ThreadPool> pool_;
  std::thread loop_thread_;
  std::vector<std::shared_ptr<Connection>> connections_;  // owned by the loop thread
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> requests_served_{0};
};

}  // namespace ecad::net
