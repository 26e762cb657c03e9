// Wire-format guard: committed golden frames under tests/net/golden/ pin the
// on-wire encoding of every MsgType at kProtocolVersion.  If today's
// encoders stop producing these exact bytes, or today's decoders stop
// accepting them, the protocol silently drifted — so the build fails
// instead.  Test names keep the generation suffix each frame carried when it
// was first pinned; the fixtures themselves are all `*_v{kProtocolVersion}`.
//
// Regenerating (only after an *intentional* format change, which must bump
// kProtocolVersion):
//     ECAD_REGEN_GOLDEN=1 ./ecad_net_tests --gtest_filter='Golden*'
// then commit the rewritten fixtures with the change that justified them.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "net/wire.h"

#ifndef ECAD_NET_GOLDEN_DIR
#error "ECAD_NET_GOLDEN_DIR must point at tests/net/golden (set by tests/CMakeLists.txt)"
#endif

namespace ecad::net {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(ECAD_NET_GOLDEN_DIR) + "/" + name;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "missing golden fixture " << path
                  << " (regenerate with ECAD_REGEN_GOLDEN=1)";
    return {};
  }
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

bool regen_requested() {
  const char* env = std::getenv("ECAD_REGEN_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << "cannot write " << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Encoder half of the guard: today's encoder must reproduce the committed
/// bytes exactly.  In regen mode the fixture is rewritten first.
void expect_matches_golden(const std::string& name, const std::vector<std::uint8_t>& encoded) {
  if (regen_requested()) write_file(golden_path(name), encoded);
  const std::vector<std::uint8_t> golden = read_file(golden_path(name));
  ASSERT_EQ(encoded.size(), golden.size()) << name << ": frame size drifted";
  for (std::size_t i = 0; i < golden.size(); ++i) {
    ASSERT_EQ(encoded[i], golden[i]) << name << ": byte " << i << " drifted";
  }
}

// Fixed, fully-specified payload contents — never derived from defaults that
// another change could move under us.
evo::Genome golden_genome() {
  evo::Genome genome;
  genome.nna.hidden = {64, 32, 16};
  genome.nna.activation = nn::Activation::ReLU;
  genome.nna.use_bias = true;
  genome.grid.rows = 8;
  genome.grid.cols = 16;
  genome.grid.vec_width = 4;
  genome.grid.interleave_m = 2;
  genome.grid.interleave_n = 32;
  return genome;
}

evo::EvalResult golden_result() {
  evo::EvalResult result;
  result.accuracy = 0.875;
  result.outputs_per_second = 123456.789;
  result.latency_seconds = 0.0009765625;
  result.potential_gflops = 512.0;
  result.effective_gflops = 448.25;
  result.hw_efficiency = 0.875048828125;
  result.power_watts = 17.5;
  result.fmax_mhz = 287.5;
  result.parameters = 4242.0;
  result.flops_per_sample = 8484.0;
  result.eval_seconds = 1.25;
  result.feasible = true;
  return result;
}

TEST(GoldenFrames, HelloV1) {
  WireWriter payload;
  write_hello_payload(payload, "ecad-master");
  expect_matches_golden("hello_v7.bin", encode_frame(MsgType::Hello, payload.bytes()));

  const std::vector<std::uint8_t> golden = read_file(golden_path("hello_v7.bin"));
  ASSERT_GE(golden.size(), kFrameHeaderBytes);
  EXPECT_EQ(decode_frame_header(golden.data()).type, MsgType::Hello);
  WireReader reader(golden.data() + kFrameHeaderBytes, golden.size() - kFrameHeaderBytes);
  EXPECT_EQ(read_hello_payload(reader), "ecad-master");
}

TEST(GoldenFrames, HelloAckV1) {
  WireWriter payload;
  write_hello_payload(payload, "analytic");
  expect_matches_golden("hello_ack_v7.bin", encode_frame(MsgType::HelloAck, payload.bytes()));
}

TEST(GoldenFrames, ControlFramesV1) {
  expect_matches_golden("ping_v7.bin", encode_frame(MsgType::Ping, {}));
  expect_matches_golden("pong_v7.bin", encode_frame(MsgType::Pong, {}));
  expect_matches_golden("shutdown_v7.bin", encode_frame(MsgType::Shutdown, {}));
}

TEST(GoldenFrames, EvalBatchRequestV2EncodesAndDecodes) {
  EvalBatchRequest request;
  request.batch_id = 11;
  request.genomes = {golden_genome(), golden_genome()};
  request.genomes[1].nna.hidden = {128};
  request.genomes[1].nna.use_bias = false;
  WireWriter payload;
  write_eval_batch_request(payload, request);
  expect_matches_golden("eval_batch_request_v7.bin",
                        encode_frame(MsgType::EvalBatchRequest, payload.bytes()));

  const std::vector<std::uint8_t> golden = read_file(golden_path("eval_batch_request_v7.bin"));
  ASSERT_GE(golden.size(), kFrameHeaderBytes);
  const FrameHeader header = decode_frame_header(golden.data());
  EXPECT_EQ(header.type, MsgType::EvalBatchRequest);
  WireReader reader(golden.data() + kFrameHeaderBytes, golden.size() - kFrameHeaderBytes);
  const EvalBatchRequest decoded = read_eval_batch_request(reader);
  reader.expect_end();
  EXPECT_EQ(decoded.batch_id, 11u);
  ASSERT_EQ(decoded.genomes.size(), 2u);
  EXPECT_EQ(decoded.genomes[0], request.genomes[0]);
  EXPECT_EQ(decoded.genomes[1], request.genomes[1]);
}

TEST(GoldenFrames, EvalItemResultV3EncodesAndDecodes) {
  EvalItemResult item;
  item.batch_id = 21;
  item.index = 2;
  item.outcome.ok = true;
  item.outcome.result = golden_result();
  WireWriter payload;
  write_eval_item_result(payload, item);
  expect_matches_golden("eval_item_result_v7.bin",
                        encode_frame(MsgType::EvalItemResult, payload.bytes()));

  const std::vector<std::uint8_t> golden = read_file(golden_path("eval_item_result_v7.bin"));
  ASSERT_GE(golden.size(), kFrameHeaderBytes);
  const FrameHeader header = decode_frame_header(golden.data());
  EXPECT_EQ(header.type, MsgType::EvalItemResult);
  WireReader reader(golden.data() + kFrameHeaderBytes, golden.size() - kFrameHeaderBytes);
  const EvalItemResult decoded = read_eval_item_result(reader);
  reader.expect_end();
  EXPECT_EQ(decoded.batch_id, 21u);
  EXPECT_EQ(decoded.index, 2u);
  ASSERT_TRUE(decoded.outcome.ok);
  const evo::EvalResult expected = golden_result();
  EXPECT_EQ(decoded.outcome.result.accuracy, expected.accuracy);
  EXPECT_EQ(decoded.outcome.result.eval_seconds, expected.eval_seconds);
  EXPECT_EQ(decoded.outcome.result.feasible, expected.feasible);
}

TEST(GoldenFrames, EvalItemResultErrorV3) {
  EvalItemResult item;
  item.batch_id = 21;
  item.index = 5;
  item.outcome.ok = false;
  item.outcome.error = "cannot evaluate genome";
  WireWriter payload;
  write_eval_item_result(payload, item);
  expect_matches_golden("eval_item_result_err_v7.bin",
                        encode_frame(MsgType::EvalItemResult, payload.bytes()));
}

TEST(GoldenFrames, EvalBatchDoneV3EncodesAndDecodes) {
  EvalBatchDone done;
  done.batch_id = 21;
  done.count = 6;
  WireWriter payload;
  write_eval_batch_done(payload, done);
  expect_matches_golden("eval_batch_done_v7.bin",
                        encode_frame(MsgType::EvalBatchDone, payload.bytes()));

  const std::vector<std::uint8_t> golden = read_file(golden_path("eval_batch_done_v7.bin"));
  ASSERT_GE(golden.size(), kFrameHeaderBytes);
  const FrameHeader header = decode_frame_header(golden.data());
  EXPECT_EQ(header.type, MsgType::EvalBatchDone);
  WireReader reader(golden.data() + kFrameHeaderBytes, golden.size() - kFrameHeaderBytes);
  const EvalBatchDone decoded = read_eval_batch_done(reader);
  reader.expect_end();
  EXPECT_EQ(decoded.batch_id, 21u);
  EXPECT_EQ(decoded.count, 6u);
}

namespace {

core::SearchRequest golden_search_request() {
  core::SearchRequest request;
  request.seed = 11;
  request.threads = 3;
  request.fitness = "accuracy";
  request.evolution.population_size = 6;
  request.evolution.max_evaluations = 24;
  request.evolution.batch_size = 3;
  request.space.search_hardware = true;
  return request;
}

evo::Candidate golden_candidate() {
  evo::Candidate candidate;
  candidate.genome = golden_genome();
  candidate.result = golden_result();
  candidate.fitness = 0.875;
  return candidate;
}

}  // namespace

TEST(GoldenFrames, SubmitSearchV4EncodesAndDecodes) {
  SubmitSearch submit;
  submit.submit_id = 31;
  submit.request = golden_search_request();
  WireWriter payload;
  write_submit_search(payload, submit);
  expect_matches_golden("submit_search_v7.bin",
                        encode_frame(MsgType::SubmitSearch, payload.bytes()));

  const std::vector<std::uint8_t> golden = read_file(golden_path("submit_search_v7.bin"));
  ASSERT_GE(golden.size(), kFrameHeaderBytes);
  const FrameHeader header = decode_frame_header(golden.data());
  EXPECT_EQ(header.type, MsgType::SubmitSearch);
  WireReader reader(golden.data() + kFrameHeaderBytes, golden.size() - kFrameHeaderBytes);
  const SubmitSearch decoded = read_submit_search(reader);
  reader.expect_end();
  EXPECT_EQ(decoded.submit_id, 31u);
  EXPECT_EQ(decoded.request.seed, 11u);
  EXPECT_EQ(decoded.request.evolution.max_evaluations, 24u);
  EXPECT_EQ(decoded.request.fitness, "accuracy");
}

TEST(GoldenFrames, SearchAcceptedV4) {
  SearchAccepted accepted;
  accepted.submit_id = 31;
  accepted.search_id = 5;
  accepted.queue_position = 2;
  WireWriter payload;
  write_search_accepted(payload, accepted);
  expect_matches_golden("search_accepted_v7.bin",
                        encode_frame(MsgType::SearchAccepted, payload.bytes()));
}

TEST(GoldenFrames, SearchProgressV4EncodesAndDecodes) {
  SearchProgress progress;
  progress.search_id = 5;
  progress.generation = 3;
  progress.models_evaluated = 15;
  progress.max_evaluations = 24;
  progress.pareto_front_size = 4;
  progress.best_fitness = 0.9375;
  WireWriter payload;
  write_search_progress(payload, progress);
  expect_matches_golden("search_progress_v7.bin",
                        encode_frame(MsgType::SearchProgress, payload.bytes()));

  const std::vector<std::uint8_t> golden = read_file(golden_path("search_progress_v7.bin"));
  ASSERT_GE(golden.size(), kFrameHeaderBytes);
  const FrameHeader header = decode_frame_header(golden.data());
  EXPECT_EQ(header.type, MsgType::SearchProgress);
  WireReader reader(golden.data() + kFrameHeaderBytes, golden.size() - kFrameHeaderBytes);
  const SearchProgress decoded = read_search_progress(reader);
  reader.expect_end();
  EXPECT_EQ(decoded.search_id, 5u);
  EXPECT_EQ(decoded.generation, 3u);
  EXPECT_EQ(decoded.best_fitness, 0.9375);
}

TEST(GoldenFrames, SearchDoneV4EncodesAndDecodes) {
  SearchDone done;
  done.search_id = 5;
  done.status = SearchDone::Status::Completed;
  done.record.history = {golden_candidate(), golden_candidate()};
  done.record.history[1].fitness = 0.9375;
  done.record.best = done.record.history[1];
  done.record.models_evaluated = 2;
  done.record.duplicates_skipped = 1;
  WireWriter payload;
  write_search_done(payload, done);
  expect_matches_golden("search_done_v7.bin", encode_frame(MsgType::SearchDone, payload.bytes()));

  const std::vector<std::uint8_t> golden = read_file(golden_path("search_done_v7.bin"));
  ASSERT_GE(golden.size(), kFrameHeaderBytes);
  const FrameHeader header = decode_frame_header(golden.data());
  EXPECT_EQ(header.type, MsgType::SearchDone);
  WireReader reader(golden.data() + kFrameHeaderBytes, golden.size() - kFrameHeaderBytes);
  const SearchDone decoded = read_search_done(reader);
  reader.expect_end();
  EXPECT_EQ(decoded.status, SearchDone::Status::Completed);
  ASSERT_EQ(decoded.record.history.size(), 2u);
  EXPECT_EQ(decoded.record.best.fitness, 0.9375);
  EXPECT_EQ(decoded.record.models_evaluated, 2u);
  EXPECT_EQ(decoded.record.duplicates_skipped, 1u);
}

TEST(GoldenFrames, SearchDoneCanceledV4) {
  SearchDone done;
  done.search_id = 5;
  done.status = SearchDone::Status::Canceled;
  done.message = "daemon draining";
  WireWriter payload;
  write_search_done(payload, done);
  expect_matches_golden("search_done_err_v7.bin",
                        encode_frame(MsgType::SearchDone, payload.bytes()));
}

TEST(GoldenFrames, CancelSearchV4) {
  CancelSearch cancel;
  cancel.search_id = 5;
  WireWriter payload;
  write_cancel_search(payload, cancel);
  expect_matches_golden("cancel_search_v7.bin",
                        encode_frame(MsgType::CancelSearch, payload.bytes()));
}

TEST(GoldenFrames, GetStatsV5EncodesAndDecodes) {
  GetStats request;
  request.prefix = "net.";
  WireWriter payload;
  write_get_stats(payload, request);
  expect_matches_golden("get_stats_v7.bin", encode_frame(MsgType::GetStats, payload.bytes()));

  const std::vector<std::uint8_t> golden = read_file(golden_path("get_stats_v7.bin"));
  ASSERT_GE(golden.size(), kFrameHeaderBytes);
  const FrameHeader header = decode_frame_header(golden.data());
  EXPECT_EQ(header.type, MsgType::GetStats);
  WireReader reader(golden.data() + kFrameHeaderBytes, golden.size() - kFrameHeaderBytes);
  const GetStats decoded = read_get_stats(reader);
  reader.expect_end();
  EXPECT_EQ(decoded.prefix, "net.");
}

TEST(GoldenFrames, StatsReportV5EncodesAndDecodes) {
  StatsReport report;
  StatsEntry counter;
  counter.name = "core.evals_completed_total";
  counter.kind = 0;
  counter.value = 48.0;
  counter.count = 48;
  StatsEntry gauge;
  gauge.name = "scheduler.searches_active";
  gauge.kind = 1;
  gauge.value = 2.0;
  StatsEntry histogram;
  histogram.name = "core.eval_seconds";
  histogram.kind = 2;
  histogram.count = 6;
  histogram.sum = 0.0859375;
  histogram.buckets = {0, 1, 2, 3};  // truncated tail: trailing zeros dropped
  report.entries = {counter, gauge, histogram};
  WireWriter payload;
  write_stats_report(payload, report);
  expect_matches_golden("stats_report_v7.bin",
                        encode_frame(MsgType::StatsReport, payload.bytes()));

  const std::vector<std::uint8_t> golden = read_file(golden_path("stats_report_v7.bin"));
  ASSERT_GE(golden.size(), kFrameHeaderBytes);
  const FrameHeader header = decode_frame_header(golden.data());
  EXPECT_EQ(header.type, MsgType::StatsReport);
  WireReader reader(golden.data() + kFrameHeaderBytes, golden.size() - kFrameHeaderBytes);
  const StatsReport decoded = read_stats_report(reader);
  reader.expect_end();
  ASSERT_EQ(decoded.entries.size(), 3u);
  EXPECT_EQ(decoded.entries[0].name, "core.evals_completed_total");
  EXPECT_EQ(decoded.entries[0].value, 48.0);
  EXPECT_EQ(decoded.entries[1].kind, 1);
  EXPECT_EQ(decoded.entries[2].count, 6u);
  EXPECT_EQ(decoded.entries[2].sum, 0.0859375);
  EXPECT_EQ(decoded.entries[2].buckets, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(GoldenFrames, CacheLookupV6EncodesAndDecodes) {
  CacheLookup lookup;
  lookup.keys = {0x0123456789abcdefull, 0xfedcba9876543210ull, 42};
  WireWriter payload;
  write_cache_lookup(payload, lookup);
  expect_matches_golden("cache_lookup_v7.bin",
                        encode_frame(MsgType::CacheLookup, payload.bytes()));

  const std::vector<std::uint8_t> golden = read_file(golden_path("cache_lookup_v7.bin"));
  ASSERT_GE(golden.size(), kFrameHeaderBytes);
  const FrameHeader header = decode_frame_header(golden.data());
  EXPECT_EQ(header.type, MsgType::CacheLookup);
  WireReader reader(golden.data() + kFrameHeaderBytes, golden.size() - kFrameHeaderBytes);
  const CacheLookup decoded = read_cache_lookup(reader);
  reader.expect_end();
  ASSERT_EQ(decoded.keys.size(), 3u);
  EXPECT_EQ(decoded.keys[0], 0x0123456789abcdefull);
  EXPECT_EQ(decoded.keys[1], 0xfedcba9876543210ull);
  EXPECT_EQ(decoded.keys[2], 42u);
}

TEST(GoldenFrames, CacheStoreV6EncodesAndDecodes) {
  CacheStore store;
  store.entries.push_back(CacheEntry{0x0123456789abcdefull, golden_result()});
  evo::EvalResult second = golden_result();
  second.accuracy = 0.9375;
  second.feasible = false;
  store.entries.push_back(CacheEntry{42, second});
  WireWriter payload;
  write_cache_store(payload, store);
  expect_matches_golden("cache_store_v7.bin", encode_frame(MsgType::CacheStore, payload.bytes()));

  const std::vector<std::uint8_t> golden = read_file(golden_path("cache_store_v7.bin"));
  ASSERT_GE(golden.size(), kFrameHeaderBytes);
  const FrameHeader header = decode_frame_header(golden.data());
  EXPECT_EQ(header.type, MsgType::CacheStore);
  WireReader reader(golden.data() + kFrameHeaderBytes, golden.size() - kFrameHeaderBytes);
  const CacheStore decoded = read_cache_store(reader);
  reader.expect_end();
  ASSERT_EQ(decoded.entries.size(), 2u);
  EXPECT_EQ(decoded.entries[0].key, 0x0123456789abcdefull);
  EXPECT_EQ(decoded.entries[0].result.accuracy, golden_result().accuracy);
  EXPECT_EQ(decoded.entries[0].result.eval_seconds, golden_result().eval_seconds);
  EXPECT_TRUE(decoded.entries[0].result.feasible);
  EXPECT_EQ(decoded.entries[1].key, 42u);
  EXPECT_EQ(decoded.entries[1].result.accuracy, 0.9375);
  EXPECT_FALSE(decoded.entries[1].result.feasible);
}

}  // namespace
}  // namespace ecad::net
