// The one-generation wire contract: every frame carries kProtocolVersion,
// and a frame at any other version is rejected by name — by the decoder, by
// both daemons (which drop the connection without a reply), and by every
// client (the pooled RemoteWorker sidelines such a peer, SearchClient and
// fetch_stats throw).
#include <gtest/gtest.h>

#include <atomic>
#include <initializer_list>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/search_scheduler.h"
#include "net/remote_worker.h"
#include "net/search_client.h"
#include "net/search_server.h"
#include "net/stats.h"
#include "net/wire.h"
#include "net/worker_server.h"
#include "util/thread_pool.h"

namespace ecad::net {
namespace {

class ConstantWorker final : public core::Worker {
 public:
  std::string name() const override { return "constant"; }
  evo::EvalResult evaluate(const evo::Genome&) const override { return evo::EvalResult{}; }
};

/// Rewrite an encoded frame's header version (bytes 4-5, little-endian).
void set_frame_version(std::vector<std::uint8_t>& frame, std::uint16_t version) {
  frame[4] = static_cast<std::uint8_t>(version & 0xff);
  frame[5] = static_cast<std::uint8_t>(version >> 8);
}

void expect_names_both_versions(const std::string& message, std::uint16_t other) {
  EXPECT_NE(message.find(std::to_string(other)), std::string::npos) << message;
  EXPECT_NE(message.find(std::to_string(kProtocolVersion)), std::string::npos) << message;
}

/// A peer built from another wire generation: it answers every Hello with a
/// HelloAck framed at kProtocolVersion - 1 and counts the evaluation
/// requests that still reach it.
class OtherVersionPeer {
 public:
  OtherVersionPeer() : listener_("127.0.0.1", 0) { thread_ = std::thread([this] { serve(); }); }
  OtherVersionPeer(const OtherVersionPeer&) = delete;
  OtherVersionPeer& operator=(const OtherVersionPeer&) = delete;
  ~OtherVersionPeer() {
    // Join before the listener dies: serve() polls stop_ every accept
    // timeout, and closing the fd under a live accept() would race.
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  std::uint16_t port() const { return listener_.port(); }
  std::size_t hellos() const { return hellos_.load(); }
  std::size_t batch_requests() const { return batch_requests_.load(); }

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
      try {
        for (;;) {
          const Frame frame = recv_frame_on(*accepted, 2000);
          if (frame.type == MsgType::EvalBatchRequest) batch_requests_.fetch_add(1);
          if (frame.type != MsgType::Hello) continue;
          hellos_.fetch_add(1);
          WireWriter ack;
          write_hello_payload(ack, "other-generation");
          std::vector<std::uint8_t> bytes = encode_frame(MsgType::HelloAck, ack.bytes());
          set_frame_version(bytes, kProtocolVersion - 1);
          accepted->send_all(bytes.data(), bytes.size());
        }
      } catch (const NetError&) {
        // the client hung up after rejecting the ack
      } catch (const WireError&) {
      }
    }
  }

  Listener listener_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> hellos_{0};
  std::atomic<std::size_t> batch_requests_{0};
  std::thread thread_;  // last: serve() uses every member above
};

/// Encode a frame as a peer of wire generation `version` would.
std::vector<std::uint8_t> frame_at(std::uint16_t version, MsgType type,
                                   const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame = encode_frame(type, payload);
  set_frame_version(frame, version);
  return frame;
}

std::vector<std::uint8_t> hello_at(std::uint16_t version) {
  WireWriter hello;
  write_hello_payload(hello, "other-generation");
  return frame_at(version, MsgType::Hello, hello.bytes());
}

/// Send `bytes` to the daemon on `port` and require it to close the
/// connection without writing a single byte back.
void expect_dropped_without_reply(std::uint16_t port, const std::vector<std::uint8_t>& bytes) {
  Socket socket = Socket::connect(Endpoint{"127.0.0.1", port}, 2000);
  socket.send_all(bytes.data(), bytes.size());
  // A reply would return bytes and a silent-but-open connection would time
  // out with 0; only a close without reply surfaces as NetError (EOF/reset).
  std::uint8_t byte = 0;
  EXPECT_THROW(socket.recv_some(&byte, 1, 5000), NetError);
}

/// Send a Hello framed at kProtocolVersion +/- 1 and require the daemon to
/// close the connection without writing a single byte back.
void expect_hello_dropped_without_reply(std::uint16_t port) {
  for (const int delta : {-1, 1}) {
    SCOPED_TRACE("version delta " + std::to_string(delta));
    expect_dropped_without_reply(port, hello_at(static_cast<std::uint16_t>(kProtocolVersion + delta)));
  }
}

/// Every frame of `types` decodes at kProtocolVersion, and the same frame at
/// `generation` (the older build that introduced those types) is rejected by
/// name.
void expect_generation_rejected(std::initializer_list<MsgType> types, std::uint16_t generation) {
  for (const MsgType type : types) {
    EXPECT_EQ(decode_frame_header(encode_frame(type, {}).data()).type, type) << to_string(type);
    const std::vector<std::uint8_t> frame = frame_at(generation, type, {});
    try {
      decode_frame_header(frame.data());
      ADD_FAILURE() << to_string(type) << " at version " << generation << " was accepted";
    } catch (const WireError& e) {
      expect_names_both_versions(e.what(), generation);
    }
  }
}

TEST(WireFrameVersion, EveryMsgTypeCarriesTheProtocolVersion) {
  const auto last = static_cast<std::uint16_t>(MsgType::CacheStore);
  for (std::uint16_t raw = 1; raw <= last; ++raw) {
    const auto type = static_cast<MsgType>(raw);
    EXPECT_STRNE(to_string(type), "?") << "type " << raw;
    const std::vector<std::uint8_t> frame = encode_frame(type, {});
    EXPECT_EQ(frame[4], kProtocolVersion & 0xff) << to_string(type);
    EXPECT_EQ(frame[5], kProtocolVersion >> 8) << to_string(type);
    EXPECT_EQ(decode_frame_header(frame.data()).type, type) << to_string(type);
  }
}

TEST(WireFrameVersion, UnsupportedVersionsAreRejected) {
  const std::vector<std::uint16_t> others = {
      static_cast<std::uint16_t>(kProtocolVersion - 1),
      static_cast<std::uint16_t>(kProtocolVersion + 1), 0};
  for (const std::uint16_t other : others) {
    std::vector<std::uint8_t> frame = encode_frame(MsgType::Ping, {});
    set_frame_version(frame, other);
    try {
      decode_frame_header(frame.data());
      ADD_FAILURE() << "version " << other << " was accepted";
    } catch (const WireError& e) {
      expect_names_both_versions(e.what(), other);
    }
  }
}

TEST(WireFrameVersion, VersionBeyondV3IsRejected) {
  // The v4-v6 generations of older builds, the next one, and versions that
  // differ from this build's only in the high byte.
  const std::vector<std::uint16_t> versions = {
      4, 5, 6, static_cast<std::uint16_t>(kProtocolVersion + 1),
      static_cast<std::uint16_t>(0x0100 | kProtocolVersion), 0xffff};
  for (const std::uint16_t version : versions) {
    const std::vector<std::uint8_t> frame = frame_at(version, MsgType::Ping, {});
    EXPECT_THROW(decode_frame_header(frame.data()), WireError) << "version " << version;
  }
}

TEST(WireFrameVersion, StreamingFramesAtVersion3AreRejected) {
  expect_generation_rejected({MsgType::EvalItemResult, MsgType::EvalBatchDone}, 3);
}

TEST(WireSearch, V4FramesAreRejected) {
  expect_generation_rejected({MsgType::SubmitSearch, MsgType::SearchAccepted,
                              MsgType::SearchProgress, MsgType::SearchDone,
                              MsgType::CancelSearch},
                             4);
}

TEST(WireStats, FramesAtProtocolVersionFiveAreRejected) {
  expect_generation_rejected({MsgType::GetStats, MsgType::StatsReport}, 5);
}

TEST(WireCache, FramesAtProtocolVersionSixAreRejected) {
  expect_generation_rejected({MsgType::CacheLookup, MsgType::CacheStore}, 6);
}

TEST(ProtocolVersion, ServersDropAHelloAtAnotherVersionWithoutReply) {
  const ConstantWorker worker;
  WorkerServer worker_server(worker);
  worker_server.start();
  expect_hello_dropped_without_reply(worker_server.port());
  worker_server.stop();

  core::SearchScheduler scheduler(worker, core::SearchSchedulerOptions{});
  SearchServer search_server(scheduler);
  search_server.start();
  expect_hello_dropped_without_reply(search_server.port());
  search_server.stop();
}

TEST(StreamingV3, PinnedV2MasterGetsNoItemFrames) {
  const ConstantWorker worker;
  WorkerServer server(worker);
  server.start();

  // A v2-generation master frames its Hello and its batch at version 2.
  EvalBatchRequest request;
  request.batch_id = 1;
  request.genomes.resize(3);
  WireWriter batch;
  write_eval_batch_request(batch, request);
  std::vector<std::uint8_t> bytes = hello_at(2);
  const std::vector<std::uint8_t> batch_frame = frame_at(2, MsgType::EvalBatchRequest, batch.bytes());
  bytes.insert(bytes.end(), batch_frame.begin(), batch_frame.end());

  expect_dropped_without_reply(server.port(), bytes);
  EXPECT_EQ(server.requests_served(), 0u);
  server.stop();
}

TEST(SearchService, OldProtocolClientCannotSubmit) {
  const ConstantWorker worker;
  core::SearchScheduler scheduler(worker, core::SearchSchedulerOptions{});
  SearchServer server(scheduler);
  server.start();

  // A client one generation old frames its Hello and SubmitSearch at
  // kProtocolVersion - 1: the server drops it before reading the search.
  const auto old_version = static_cast<std::uint16_t>(kProtocolVersion - 1);
  SubmitSearch submit;
  submit.submit_id = 1;
  WireWriter payload;
  write_submit_search(payload, submit);
  std::vector<std::uint8_t> bytes = hello_at(old_version);
  const std::vector<std::uint8_t> submit_frame =
      frame_at(old_version, MsgType::SubmitSearch, payload.bytes());
  bytes.insert(bytes.end(), submit_frame.begin(), submit_frame.end());

  expect_dropped_without_reply(server.port(), bytes);
  EXPECT_EQ(server.searches_accepted(), 0u);

  // The server keeps serving current clients.
  SearchClientOptions options;
  options.port = server.port();
  options.frame_timeout_ms = 5000;
  SearchClient client(options);
  EXPECT_NO_THROW(client.connect());
  client.close();
  server.stop();
}

TEST(ProtocolVersion, RemoteWorkerSidelinesAPeerAckingAtAnotherVersion) {
  const OtherVersionPeer peer;
  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", peer.port()}};
  options.heartbeat_interval_ms = 0;  // no revival: the peer stays sidelined
  options.endpoint_cooldown_ms = 60000;
  const RemoteWorker remote(options);
  util::ThreadPool pool(2);

  std::vector<evo::Genome> genomes(4);
  for (std::size_t i = 0; i < genomes.size(); ++i) genomes[i].nna.hidden = {8 + i};
  EXPECT_THROW(remote.evaluate_batch(genomes, pool), NetError);
  EXPECT_GE(peer.hellos(), 1u);
  EXPECT_EQ(peer.batch_requests(), 0u);
  EXPECT_EQ(remote.healthy_endpoints(), 0u);
  EXPECT_EQ(remote.remote_evaluations(), 0u);
}

TEST(ProtocolVersion, ClientsRejectAHelloAckAtAnotherVersion) {
  const OtherVersionPeer peer;
  SearchClientOptions options;
  options.port = peer.port();
  options.frame_timeout_ms = 5000;
  SearchClient client(options);
  try {
    client.connect();
    ADD_FAILURE() << "SearchClient accepted a HelloAck at another version";
  } catch (const WireError& e) {
    expect_names_both_versions(e.what(), kProtocolVersion - 1);
  }
  client.close();  // the peer serves one connection at a time

  try {
    fetch_stats("127.0.0.1", peer.port(), "", 5000);
    ADD_FAILURE() << "fetch_stats accepted a HelloAck at another version";
  } catch (const WireError& e) {
    expect_names_both_versions(e.what(), kProtocolVersion - 1);
  }
  EXPECT_EQ(peer.hellos(), 2u);
}

}  // namespace
}  // namespace ecad::net
