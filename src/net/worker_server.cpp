#include "net/worker_server.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>

#include "net/stats.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ecad::net {

WorkerServer::WorkerServer(const core::Worker& worker, WorkerServerOptions options)
    : worker_(worker), options_(std::move(options)), cache_(options_.cache_bytes) {}

WorkerServer::~WorkerServer() { stop(); }

void WorkerServer::start() {
  if (pool_) return;  // already started
  listener_ = Listener(options_.host, options_.port);
  port_ = listener_.port();
  pool_ = std::make_unique<util::ThreadPool>(options_.threads);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { run_loop(); });
  util::Log(util::LogLevel::Info, "net")
      << "worker server '" << worker_.name() << "' listening on " << options_.host << ":" << port_
      << " (" << pool_->size() << " eval threads)";
}

void WorkerServer::stop() {
  // Full teardown must run even when the event loop already exited on its
  // own (peer Shutdown frame, poll failure) — running_ being false only
  // means the loop is done, not that the thread was joined or the pool
  // drained; skipping the join here would std::terminate in ~WorkerServer.
  running_.store(false, std::memory_order_release);
  if (loop_thread_.joinable()) loop_thread_.join();
  if (!pool_) return;  // never started, or a previous stop() finished
  // Shut the sockets down *before* draining the pool: a task blocked in
  // send_all() against a stalled peer is only unblocked by shutdown(2), so
  // the reverse order could wait on it forever.
  for (const auto& connection : connections_) {
    connection->closed.store(true, std::memory_order_release);
    connection->socket.shutdown_both();
  }
  pool_->shutdown();
  pool_.reset();
  connections_.clear();
  listener_.close();
  util::Log(util::LogLevel::Info, "net")
      << "worker server on port " << port_ << " stopped after "
      << requests_served_.load(std::memory_order_relaxed) << " evaluations";
}

void WorkerServer::send_frame(const std::shared_ptr<Connection>& connection, MsgType type,
                              const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> frame = encode_frame(type, payload);
  util::MutexLock lock(connection->write_mutex);
  if (connection->closed.load(std::memory_order_acquire)) return;
  connection->socket.send_all(frame.data(), frame.size());
}

bool WorkerServer::handle_frame(const std::shared_ptr<Connection>& connection, Frame frame) {
  switch (frame.type) {
    case MsgType::Hello: {
      WireReader reader(frame.payload);
      const std::string client = read_hello_payload(reader);
      util::Log(util::LogLevel::Debug, "net") << "hello from '" << client << "'";
      WireWriter ack;
      write_hello_payload(ack, worker_.name());
      send_frame(connection, MsgType::HelloAck, ack.bytes());
      return true;
    }
    case MsgType::Ping:
      send_frame(connection, MsgType::Pong, {});
      return true;
    case MsgType::Shutdown:
      util::Log(util::LogLevel::Info, "net") << "shutdown requested by peer";
      running_.store(false, std::memory_order_release);
      return false;
    case MsgType::EvalBatchRequest: {
      if (options_.cache_only) {
        util::Log(util::LogLevel::Warn, "net")
            << "EvalBatchRequest on a cache-only daemon; dropping connection";
        return false;
      }
      handle_batch_request(connection, std::move(frame));
      return true;
    }
    case MsgType::CacheLookup: {
      // Served on the loop thread: lookups are a handful of map probes, far
      // cheaper than the evaluations they displace.  The answer is a
      // CacheStore frame carrying only the hits — an absent key was a miss.
      WireReader reader(frame.payload);
      const CacheLookup lookup = read_cache_lookup(reader);
      reader.expect_end();
      CacheStore found;
      for (const std::uint64_t key : lookup.keys) {
        if (auto result = cache_.lookup(key)) {
          found.entries.push_back(CacheEntry{key, *result});
        }
      }
      WireWriter writer;
      write_cache_store(writer, found);
      send_frame(connection, MsgType::CacheStore, writer.bytes());
      return true;
    }
    case MsgType::CacheStore: {
      // Fire-and-forget publish from a master; no acknowledgement frame.
      WireReader reader(frame.payload);
      const CacheStore store = read_cache_store(reader);
      reader.expect_end();
      for (const CacheEntry& entry : store.entries) cache_.store(entry.key, entry.result);
      return true;
    }
    case MsgType::GetStats: {
      WireReader reader(frame.payload);
      const GetStats request = read_get_stats(reader);
      reader.expect_end();
      WireWriter writer;
      write_stats_report(writer, snapshot_stats_report(request.prefix));
      send_frame(connection, MsgType::StatsReport, writer.bytes());
      return true;
    }
    case MsgType::HelloAck:
    case MsgType::Pong:
    case MsgType::EvalItemResult:
    case MsgType::EvalBatchDone:
    // The search-service frames belong to ecad_searchd's SearchServer;
    // an evaluation daemon never accepts whole searches.
    case MsgType::SubmitSearch:
    case MsgType::SearchAccepted:
    case MsgType::SearchProgress:
    case MsgType::SearchDone:
    case MsgType::CancelSearch:
    // A daemon never *receives* its own answer frame.
    case MsgType::StatsReport:
      util::Log(util::LogLevel::Warn, "net")
          << "unexpected " << to_string(frame.type) << " from client; dropping connection";
      return false;
  }
  return false;
}

void WorkerServer::handle_batch_request(const std::shared_ptr<Connection>& connection,
                                        Frame frame) {
  WireReader reader(frame.payload);
  EvalBatchRequest request = read_eval_batch_request(reader);
  reader.expect_end();

  static util::Counter& batches = util::metrics().counter("workerd.batches_total");
  batches.add(1);
  static util::Gauge& pending_items = util::metrics().gauge("workerd.pending_items");
  pending_items.add(static_cast<double>(request.genomes.size()));
  util::trace_instant("workerd", "batch " + std::to_string(request.batch_id) + " accepted n=" +
                                     std::to_string(request.genomes.size()));

  // Shared by the batch's pool tasks: `remaining` elects the task that
  // sends the terminal frame.
  struct BatchJob {
    std::uint64_t batch_id = 0;
    std::vector<evo::Genome> genomes;
    std::atomic<std::size_t> remaining{0};
  };
  auto job = std::make_shared<BatchJob>();
  job->batch_id = request.batch_id;
  job->genomes = std::move(request.genomes);
  job->remaining.store(job->genomes.size(), std::memory_order_relaxed);

  // Every item streams its own frame the moment it completes (completion
  // order); the last one to finish closes the batch with EvalBatchDone.
  auto finish = [this, connection, job] {
    EvalBatchDone done;
    done.batch_id = job->batch_id;
    done.count = static_cast<std::uint32_t>(job->genomes.size());
    WireWriter writer;
    write_eval_batch_done(writer, done);
    try {
      send_frame(connection, MsgType::EvalBatchDone, writer.bytes());
    } catch (const NetError& e) {
      util::Log(util::LogLevel::Debug, "net") << "batch done frame dropped: " << e.what();
    }
  };
  if (job->genomes.empty()) {  // degenerate but legal: answer immediately
    finish();
    return;
  }
  // Costliest items first, so the shard's last item to start is a cheap one;
  // each item frame still carries its request index.
  for (const std::size_t i : core::dispatch_order(worker_, job->genomes)) {
    pool_->submit([this, connection, job, finish, i] {
      static util::Gauge& concurrent = util::metrics().gauge("workerd.concurrent_evals");
      static util::Gauge& pending = util::metrics().gauge("workerd.pending_items");
      concurrent.add(1.0);
      EvalItemResult item;
      item.batch_id = job->batch_id;
      item.index = static_cast<std::uint32_t>(i);
      {
        util::TraceSpan span("workerd",
                             "batch " + std::to_string(job->batch_id) + " item " +
                                 std::to_string(i));
        item.outcome = core::evaluate_outcome(worker_, job->genomes[i]);
      }
      concurrent.add(-1.0);
      pending.add(-1.0);
      WireWriter writer;
      write_eval_item_result(writer, item);
      // Count before writing: a client holding the frame must never observe
      // a counter that excludes it.
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      try {
        send_frame(connection, MsgType::EvalItemResult, writer.bytes());
      } catch (const NetError& e) {
        util::Log(util::LogLevel::Debug, "net") << "item frame dropped: " << e.what();
      }
      if (job->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) finish();
    });
  }
}

void WorkerServer::run_loop() {
  std::vector<std::uint8_t> scratch(64 * 1024);
  while (running_.load(std::memory_order_acquire)) {
    // (Re)build the poll set: listener + every live connection.
    std::vector<struct pollfd> pfds;
    pfds.reserve(connections_.size() + 1);
    pfds.push_back({listener_.fd(), POLLIN, 0});
    for (const auto& connection : connections_) {
      pfds.push_back({connection->socket.fd(), POLLIN, 0});
    }
    const int rc = ::poll(pfds.data(), pfds.size(), options_.poll_interval_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      util::Log(util::LogLevel::Error, "net") << "poll failed; stopping server";
      running_.store(false, std::memory_order_release);  // running() must not lie
      break;
    }
    if (rc == 0) continue;

    // The number of connections the poll set was built from; accepting below
    // grows connections_, but those new entries have no pfds slot this round.
    const std::size_t polled = connections_.size();

    if (pfds[0].revents & POLLIN) {
      static util::Counter& accepted_total =
          util::metrics().counter("workerd.connections_accepted_total");
      try {
        if (auto accepted = listener_.accept(0)) {
          accepted_total.add(1);
          auto connection = std::make_shared<Connection>();
          connection->socket = std::move(*accepted);
          connections_.push_back(std::move(connection));
        }
      } catch (const NetError& e) {
        util::Log(util::LogLevel::Warn, "net") << "accept failed: " << e.what();
      }
    }

    std::vector<std::shared_ptr<Connection>> dead;
    for (std::size_t i = 0; i < polled; ++i) {
      const auto& connection = connections_[i];
      const short revents = pfds[i + 1].revents;
      if (revents == 0) continue;
      bool keep = (revents & (POLLERR | POLLNVAL)) == 0;
      if (keep && (revents & (POLLIN | POLLHUP))) {
        try {
          const std::size_t n =
              connection->socket.recv_some(scratch.data(), scratch.size(), 0);
          if (n > 0) {
            connection->inbox.insert(connection->inbox.end(), scratch.begin(),
                                     scratch.begin() + static_cast<std::ptrdiff_t>(n));
            Frame frame;
            while (keep && try_extract_frame(connection->inbox, frame)) {
              keep = handle_frame(connection, std::move(frame));
            }
          }
        } catch (const NetError&) {
          keep = false;  // peer EOF or reset
        } catch (const WireError& e) {
          util::Log(util::LogLevel::Warn, "net")
              << "protocol error: " << e.what() << "; dropping connection";
          keep = false;
        }
      }
      if (!keep) dead.push_back(connection);
    }
    for (const auto& connection : dead) {
      connection->closed.store(true, std::memory_order_release);
      connection->socket.shutdown_both();
      connections_.erase(std::remove(connections_.begin(), connections_.end(), connection),
                         connections_.end());
    }
  }
}

}  // namespace ecad::net
