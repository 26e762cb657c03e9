#include "net/search_client.h"

#include "util/logging.h"

namespace ecad::net {

SearchClient::SearchClient(SearchClientOptions options) : options_(std::move(options)) {}

SearchClient::~SearchClient() { close(); }

void SearchClient::connect() {
  Endpoint endpoint;
  endpoint.host = options_.host;
  endpoint.port = options_.port;
  socket_ = Socket::connect(endpoint, options_.connect_timeout_ms);
  socket_.set_nodelay(true);
  const std::string server = client_handshake(socket_, options_.name, options_.frame_timeout_ms);
  util::Log(util::LogLevel::Debug, "net") << "connected to search daemon '" << server << "'";
}

std::uint64_t SearchClient::submit(const core::SearchRequest& request) {
  SubmitSearch message;
  message.submit_id = next_submit_id_++;
  message.request = request;
  WireWriter writer;
  write_submit_search(writer, message);
  send_frame_on(socket_, MsgType::SubmitSearch, writer.bytes());
  // The accepted frame is written under the daemon's connection lock before
  // any progress frame for the new search, so it is the next search-service
  // frame on the wire (Pongs for interleaved pings may still precede it).
  for (;;) {
    const Frame reply = recv_frame_on(socket_, options_.frame_timeout_ms);
    if (reply.type == MsgType::SearchAccepted) {
      WireReader reader(reply.payload);
      const SearchAccepted accepted = read_search_accepted(reader);
      reader.expect_end();
      if (accepted.submit_id != message.submit_id) {
        throw WireError("SearchAccepted for submit " + std::to_string(accepted.submit_id) +
                        ", expected " + std::to_string(message.submit_id));
      }
      return accepted.search_id;
    }
    if (reply.type == MsgType::SearchDone) {
      WireReader reader(reply.payload);
      const SearchDone done = read_search_done(reader);
      reader.expect_end();
      if (done.search_id == 0) {  // the reserved "no search" id: a rejection
        throw std::runtime_error("search rejected: " + done.message);
      }
      continue;  // a previous search of this connection finishing; not ours
    }
    if (reply.type == MsgType::SearchProgress || reply.type == MsgType::Pong) {
      continue;  // interleaved traffic for other searches on this connection
    }
    throw WireError("unexpected " + std::string(to_string(reply.type)) +
                    " while awaiting SearchAccepted");
  }
}

SearchDone SearchClient::stream(std::uint64_t search_id,
                                const std::function<void(const SearchProgress&)>& on_progress) {
  for (;;) {
    const Frame frame = recv_frame_on(socket_, options_.frame_timeout_ms);
    if (frame.type == MsgType::SearchProgress) {
      WireReader reader(frame.payload);
      const SearchProgress progress = read_search_progress(reader);
      reader.expect_end();
      if (progress.search_id == search_id && on_progress) on_progress(progress);
      continue;
    }
    if (frame.type == MsgType::SearchDone) {
      WireReader reader(frame.payload);
      SearchDone done = read_search_done(reader);
      reader.expect_end();
      if (done.search_id == search_id) return done;
      continue;  // another search on this connection
    }
    if (frame.type == MsgType::Pong) continue;
    throw WireError("unexpected " + std::string(to_string(frame.type)) +
                    " while streaming search " + std::to_string(search_id));
  }
}

void SearchClient::cancel(std::uint64_t search_id) {
  CancelSearch message;
  message.search_id = search_id;
  WireWriter writer;
  write_cancel_search(writer, message);
  send_frame_on(socket_, MsgType::CancelSearch, writer.bytes());
}

void SearchClient::shutdown_server() { send_frame_on(socket_, MsgType::Shutdown, {}); }

void SearchClient::close() {
  if (socket_.valid()) socket_.close();
}

}  // namespace ecad::net
