#include "net/search_server.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>

#include "net/stats.h"
#include "util/logging.h"

namespace ecad::net {

namespace {

SearchDone done_from_outcome(const core::SearchOutcome& outcome) {
  SearchDone done;
  done.search_id = outcome.search_id;
  switch (outcome.state) {
    case core::SearchState::Completed:
      done.status = SearchDone::Status::Completed;
      done.record.history = outcome.result.history;
      done.record.best = outcome.result.best;
      done.record.models_evaluated = outcome.result.stats.models_evaluated;
      done.record.duplicates_skipped = outcome.result.stats.duplicates_skipped;
      break;
    case core::SearchState::Canceled:
      done.status = SearchDone::Status::Canceled;
      done.message = outcome.message;
      break;
    default:
      done.status = SearchDone::Status::Failed;
      done.message = outcome.message;
      break;
  }
  return done;
}

}  // namespace

SearchServer::SearchServer(core::SearchScheduler& scheduler, SearchServerOptions options)
    : scheduler_(scheduler), options_(std::move(options)) {}

SearchServer::~SearchServer() { stop(); }

void SearchServer::start() {
  if (started_) return;
  listener_ = Listener(options_.host, options_.port);
  port_ = listener_.port();
  started_ = true;
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { run_loop(); });
  util::Log(util::LogLevel::Info, "net")
      << "search server '" << options_.name << "' listening on " << options_.host << ":" << port_;
}

void SearchServer::stop() {
  running_.store(false, std::memory_order_release);
  if (loop_thread_.joinable()) loop_thread_.join();
  if (!started_) return;
  started_ = false;
  // Drain before closing sockets: running searches finish their in-flight
  // generations and every terminal SearchDone frame is written through the
  // still-open connections.  Only then is it safe to tear the wires down.
  scheduler_.drain();
  for (const auto& connection : connections_) {
    connection->closed.store(true, std::memory_order_release);
    connection->socket.shutdown_both();
  }
  connections_.clear();
  listener_.close();
  util::Log(util::LogLevel::Info, "net")
      << "search server on port " << port_ << " stopped: "
      << searches_accepted_.load(std::memory_order_relaxed) << " accepted, "
      << searches_completed_.load(std::memory_order_relaxed) << " completed, "
      << searches_canceled_.load(std::memory_order_relaxed) << " canceled, "
      << searches_failed_.load(std::memory_order_relaxed) << " failed";
}

void SearchServer::send_frame(const std::shared_ptr<Connection>& connection, MsgType type,
                              const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> frame = encode_frame(type, payload);
  util::MutexLock lock(connection->write_mutex);
  if (connection->closed.load(std::memory_order_acquire)) return;
  connection->socket.send_all(frame.data(), frame.size());
}

void SearchServer::send_done(const std::shared_ptr<Connection>& connection,
                             const core::SearchOutcome& outcome) {
  // Count before writing (a client holding the frame always sees itself in
  // the daemon's exit summary).
  switch (outcome.state) {
    case core::SearchState::Completed:
      searches_completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case core::SearchState::Canceled:
      searches_canceled_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      searches_failed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  WireWriter writer;
  write_search_done(writer, done_from_outcome(outcome));
  try {
    send_frame(connection, MsgType::SearchDone, writer.bytes());
  } catch (const NetError& e) {
    util::Log(util::LogLevel::Debug, "net") << "SearchDone dropped: " << e.what();
  }
}

void SearchServer::handle_submit(const std::shared_ptr<Connection>& connection, Frame frame) {
  WireReader reader(frame.payload);
  SubmitSearch submit = read_submit_search(reader);
  reader.expect_end();

  auto on_progress = [this, connection](const core::SearchProgressInfo& info) {
    SearchProgress progress;
    progress.search_id = info.search_id;
    progress.generation = info.generation;
    progress.models_evaluated = info.models_evaluated;
    progress.max_evaluations = info.max_evaluations;
    progress.pareto_front_size = info.pareto_front_size;
    progress.best_fitness = info.best_fitness;
    WireWriter writer;
    write_search_progress(writer, progress);
    try {
      send_frame(connection, MsgType::SearchProgress, writer.bytes());
    } catch (const NetError& e) {
      util::Log(util::LogLevel::Debug, "net") << "SearchProgress dropped: " << e.what();
    }
  };
  auto on_done = [this, connection](const core::SearchOutcome& outcome) {
    send_done(connection, outcome);
  };

  // Ahead-of-us count at admission time (informational, for the client log).
  const auto queue_position = static_cast<std::uint32_t>(scheduler_.active_searches());
  try {
    // The accepted frame must precede the search's first progress frame, and
    // a runner may pick the search up the instant submit() enqueues it — so
    // hold the write lock across submit + ack; the runner's first progress
    // write blocks on it until the ack is on the wire.
    util::MutexLock lock(connection->write_mutex);
    const std::uint64_t search_id =
        scheduler_.submit(std::move(submit.request), on_progress, on_done);
    connection->live_searches.push_back(search_id);
    searches_accepted_.fetch_add(1, std::memory_order_relaxed);
    SearchAccepted accepted;
    accepted.submit_id = submit.submit_id;
    accepted.search_id = search_id;
    accepted.queue_position = queue_position;
    WireWriter writer;
    write_search_accepted(writer, accepted);
    const std::vector<std::uint8_t> out = encode_frame(MsgType::SearchAccepted, writer.bytes());
    if (!connection->closed.load(std::memory_order_acquire)) {
      connection->socket.send_all(out.data(), out.size());
    }
    util::Log(util::LogLevel::Info, "net")
        << "accepted search " << search_id << " (submit " << submit.submit_id << ", "
        << queue_position << " ahead)";
  } catch (const NetError&) {
    throw;  // connection-level failure: let the loop drop the connection
  } catch (const std::exception& e) {
    // Rejected (draining, unknown fitness, ...): answer with a Failed
    // SearchDone carrying search_id 0 — the reserved "no search" id — so
    // the client's pending submit fails with the reason instead of a
    // dropped connection.
    core::SearchOutcome outcome;
    outcome.search_id = 0;
    outcome.state = core::SearchState::Failed;
    outcome.message = e.what();
    util::Log(util::LogLevel::Warn, "net")
        << "rejected search submission (submit " << submit.submit_id << "): " << e.what();
    send_done(connection, outcome);
  }
}

bool SearchServer::handle_frame(const std::shared_ptr<Connection>& connection, Frame frame) {
  switch (frame.type) {
    case MsgType::Hello: {
      WireReader reader(frame.payload);
      const std::string client = read_hello_payload(reader);
      util::Log(util::LogLevel::Debug, "net") << "hello from '" << client << "'";
      WireWriter ack;
      write_hello_payload(ack, options_.name);
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
    case MsgType::SubmitSearch: {
      handle_submit(connection, std::move(frame));
      return true;
    }
    case MsgType::CancelSearch: {
      WireReader reader(frame.payload);
      const CancelSearch cancel = read_cancel_search(reader);
      reader.expect_end();
      if (!scheduler_.cancel(cancel.search_id, "canceled by client")) {
        util::Log(util::LogLevel::Debug, "net")
            << "cancel for unknown or finished search " << cancel.search_id << "; ignoring";
      }
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
    // This daemon runs searches; it never receives evaluation traffic or
    // its own server->client frames.
    case MsgType::HelloAck:
    case MsgType::Pong:
    case MsgType::EvalBatchRequest:
    case MsgType::EvalItemResult:
    case MsgType::EvalBatchDone:
    case MsgType::SearchAccepted:
    case MsgType::SearchProgress:
    case MsgType::SearchDone:
    case MsgType::StatsReport:
    case MsgType::CacheLookup:
    case MsgType::CacheStore:
      util::Log(util::LogLevel::Warn, "net")
          << "unexpected " << to_string(frame.type) << " from client; dropping connection";
      return false;
  }
  return false;
}

void SearchServer::run_loop() {
  std::vector<std::uint8_t> scratch(64 * 1024);
  while (running_.load(std::memory_order_acquire)) {
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
      running_.store(false, std::memory_order_release);
      break;
    }
    if (rc == 0) continue;

    const std::size_t polled = connections_.size();

    if (pfds[0].revents & POLLIN) {
      try {
        if (auto accepted = listener_.accept(0)) {
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
          const std::size_t n = connection->socket.recv_some(scratch.data(), scratch.size(), 0);
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
      // A disconnecting client takes its searches with it: cancel() is a
      // no-op (returns false) for the ones that already finished.
      for (const std::uint64_t id : connection->live_searches) {
        if (scheduler_.cancel(id, "client disconnected")) {
          util::Log(util::LogLevel::Info, "net")
              << "search " << id << " canceled: client disconnected";
        }
      }
      connection->closed.store(true, std::memory_order_release);
      connection->socket.shutdown_both();
      connections_.erase(std::remove(connections_.begin(), connections_.end(), connection),
                         connections_.end());
    }
  }
}

}  // namespace ecad::net
