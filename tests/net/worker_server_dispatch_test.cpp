// WorkerServer dispatch order: a shard's items go to the evaluation pool
// costliest first (core::dispatch_order), and every streamed
// EvalItemResult still names its request index.
#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "core/worker.h"
#include "net/socket.h"
#include "net/wire.h"
#include "net/worker_server.h"

namespace ecad::net {
namespace {

// Hint = hints[first width]; records the order it evaluates in, and its
// result names the genome's width.
class RecordingWorker final : public core::Worker {
 public:
  explicit RecordingWorker(std::vector<double> hints) : hints_(std::move(hints)) {}
  std::string name() const override { return "recording"; }
  double cost_hint(const evo::Genome& genome) const override {
    return hints_.at(genome.nna.hidden.front());
  }
  evo::EvalResult evaluate(const evo::Genome& genome) const override {
    std::lock_guard<std::mutex> lock(mutex_);
    order_.push_back(genome.nna.hidden.front());
    evo::EvalResult result;
    result.parameters = static_cast<double>(genome.nna.hidden.front());
    return result;
  }
  std::vector<std::size_t> order() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return order_;
  }

 private:
  std::vector<double> hints_;
  mutable std::mutex mutex_;
  mutable std::vector<std::size_t> order_;
};

TEST(WorkerServerDispatch, ShardRunsLargestFirstAndItemsKeepTheirIndex) {
  // Width w is request index w; widths 1 and 3 tie.
  const RecordingWorker worker({2.0, 8.0, 0.0, 8.0, 32.0, 1.0});
  WorkerServerOptions options;
  options.threads = 1;  // one eval thread: evaluation order == submission order
  WorkerServer server(worker, options);
  server.start();

  Socket socket = Socket::connect(Endpoint{"127.0.0.1", server.port()}, 5000);
  client_handshake(socket, "dispatch-test", 5000);
  EvalBatchRequest request;
  request.batch_id = 77;
  for (std::size_t width = 0; width < 6; ++width) {
    evo::Genome genome;
    genome.nna.hidden = {width};
    request.genomes.push_back(genome);
  }
  WireWriter writer;
  write_eval_batch_request(writer, request);
  send_frame_on(socket, MsgType::EvalBatchRequest, writer.bytes());

  std::vector<std::uint32_t> arrival;
  for (std::size_t k = 0; k < request.genomes.size(); ++k) {
    const Frame frame = recv_frame_on(socket, 10000);
    ASSERT_EQ(frame.type, MsgType::EvalItemResult);
    WireReader reader(frame.payload);
    const EvalItemResult item = read_eval_item_result(reader);
    EXPECT_EQ(item.batch_id, 77u);
    ASSERT_TRUE(item.outcome.ok) << item.outcome.error;
    EXPECT_EQ(item.outcome.result.parameters, static_cast<double>(item.index))
        << "item frame carries another slot's result";
    arrival.push_back(item.index);
  }
  EXPECT_EQ(recv_frame_on(socket, 10000).type, MsgType::EvalBatchDone);
  server.stop();

  const std::vector<std::size_t> largest_first = {4, 1, 3, 0, 5, 2};
  EXPECT_EQ(worker.order(), largest_first);
  EXPECT_EQ(arrival, std::vector<std::uint32_t>(largest_first.begin(), largest_first.end()));
}

}  // namespace
}  // namespace ecad::net
