// Thin client for the search service: submit a whole search
// to a resident ecad_searchd master, stream its per-generation progress,
// and collect the deterministic final record.
//
// Blocking, single-threaded, one search at a time per client — the shape
// the --submit CLI and the service smoke need.  Concurrency comes from
// running several clients (processes or threads) against one daemon.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/master.h"
#include "net/socket.h"
#include "net/wire.h"

namespace ecad::net {

struct SearchClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int connect_timeout_ms = 5000;
  /// Per-frame receive budget while streaming.  A healthy daemon emits a
  /// progress frame per folded generation, so this bounds silence, not
  /// total search time.  Negative = block forever.
  int frame_timeout_ms = 120000;
  /// Display name sent in Hello.
  std::string name = "ecad-search-client";
};

class SearchClient {
 public:
  explicit SearchClient(SearchClientOptions options);
  ~SearchClient();

  SearchClient(const SearchClient&) = delete;
  SearchClient& operator=(const SearchClient&) = delete;

  /// Connect + handshake.  Throws NetError on connection failure and
  /// WireError when the daemon answers at another protocol version.
  void connect();

  /// Submit one search; blocks until the daemon answers.  Returns the
  /// server-assigned search id.  Throws std::runtime_error with the
  /// daemon's reason when the submission is rejected.
  std::uint64_t submit(const core::SearchRequest& request);

  /// Consume the stream for `search_id` until its SearchDone arrives,
  /// invoking `on_progress` (may be null) per progress frame.  Calling
  /// cancel() from inside the callback is allowed — the resulting
  /// SearchDone (status Canceled) still ends the stream normally.
  SearchDone stream(std::uint64_t search_id,
                    const std::function<void(const SearchProgress&)>& on_progress);

  /// Ask the daemon to stop `search_id` at its next generation boundary.
  void cancel(std::uint64_t search_id);

  /// Ask the daemon to exit its accept loop (it drains and stops).
  void shutdown_server();

  void close();

 private:
  SearchClientOptions options_;
  Socket socket_;
  std::uint64_t next_submit_id_ = 1;
};

}  // namespace ecad::net
