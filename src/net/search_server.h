// Search-as-a-service front end: a resident master daemon
// that accepts whole searches from thin clients and streams their progress.
//
// One poll(2) event-loop thread owns the listener and all connection reads
// (the WorkerServer pattern); parsed SubmitSearch frames go straight into
// the borrowed core::SearchScheduler, whose runner threads execute the
// searches and fire the progress/done callbacks.  Those callbacks write
// SearchProgress / SearchDone frames from scheduler threads under each
// connection's write mutex, so frames from concurrent searches interleave
// whole on the wire, in completion order.  A client that disconnects takes
// its searches with it (they are canceled, not orphaned).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/search_scheduler.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/mutex.h"
#include "util/thread_safety.h"

namespace ecad::net {

struct SearchServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral port; read the actual one back via port().
  std::uint16_t port = 0;
  /// Event-loop poll granularity (also bounds stop() latency).
  int poll_interval_ms = 50;
  /// Display name sent in HelloAck.
  std::string name = "ecad-searchd";
};

class SearchServer {
 public:
  /// `scheduler` is borrowed and must outlive the server; its worker fleet
  /// is shared by every search this server admits.
  SearchServer(core::SearchScheduler& scheduler, SearchServerOptions options = {});
  ~SearchServer();

  SearchServer(const SearchServer&) = delete;
  SearchServer& operator=(const SearchServer&) = delete;

  /// Bind + launch the event loop. Throws NetError if the port is taken.
  void start();

  /// Graceful shutdown: stop accepting, drain the scheduler (running
  /// searches finish their in-flight generations and their SearchDone
  /// frames go out), then close every connection.  Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Actual bound port (valid after start()).
  std::uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Searches admitted (SearchAccepted sent).
  std::size_t searches_accepted() const {
    return searches_accepted_.load(std::memory_order_relaxed);
  }
  /// Terminal SearchDone frames by status.
  std::size_t searches_completed() const {
    return searches_completed_.load(std::memory_order_relaxed);
  }
  std::size_t searches_canceled() const {
    return searches_canceled_.load(std::memory_order_relaxed);
  }
  std::size_t searches_failed() const { return searches_failed_.load(std::memory_order_relaxed); }

 private:
  struct Connection {
    Socket socket;
    std::vector<std::uint8_t> inbox;  // partial-frame reassembly buffer
    /// Serializes outgoing frames: scheduler runner threads (progress/done)
    /// and the loop thread (acks) both write to the socket.
    util::Mutex write_mutex;
    std::atomic<bool> closed{false};
    /// Searches submitted over this connection that have not reported done
    /// yet; owned by the loop thread (disconnect cancels them).
    std::vector<std::uint64_t> live_searches;
  };

  void run_loop();
  /// Returns false when the connection should be dropped.
  bool handle_frame(const std::shared_ptr<Connection>& connection, Frame frame);
  void handle_submit(const std::shared_ptr<Connection>& connection, Frame frame);
  void send_frame(const std::shared_ptr<Connection>& connection, MsgType type,
                  const std::vector<std::uint8_t>& payload)
      ECAD_EXCLUDES(connection->write_mutex);
  void send_done(const std::shared_ptr<Connection>& connection, const core::SearchOutcome& outcome);

  core::SearchScheduler& scheduler_;
  SearchServerOptions options_;
  Listener listener_;
  std::uint16_t port_ = 0;
  std::thread loop_thread_;
  std::vector<std::shared_ptr<Connection>> connections_;  // owned by the loop thread
  std::atomic<bool> running_{false};
  bool started_ = false;
  std::atomic<std::size_t> searches_accepted_{0};
  std::atomic<std::size_t> searches_completed_{0};
  std::atomic<std::size_t> searches_canceled_{0};
  std::atomic<std::size_t> searches_failed_{0};
};

}  // namespace ecad::net
