// Round-trip and hostile-input coverage for the search-service codecs:
// every write_X has its read_X exercised here, on both the
// happy path and truncated/corrupt payloads.
#include <gtest/gtest.h>

#include <vector>

#include "net/wire.h"

namespace ecad::net {
namespace {

evo::Candidate sample_candidate(std::size_t width, double fitness) {
  evo::Candidate candidate;
  candidate.genome.nna.hidden = {width, width / 2};
  candidate.genome.nna.activation = nn::Activation::ReLU;
  candidate.genome.nna.use_bias = true;
  candidate.genome.grid.rows = 8;
  candidate.genome.grid.cols = 16;
  candidate.genome.grid.vec_width = 4;
  candidate.genome.grid.interleave_m = 2;
  candidate.genome.grid.interleave_n = 32;
  candidate.result.accuracy = 0.5 + fitness / 10.0;
  candidate.result.outputs_per_second = 1e6 + fitness;
  candidate.result.eval_seconds = 0.25;
  candidate.result.feasible = true;
  candidate.fitness = fitness;
  return candidate;
}

SearchRecord sample_record() {
  SearchRecord record;
  record.history = {sample_candidate(64, 0.875), sample_candidate(128, 0.9375),
                    sample_candidate(32, 0.8125)};
  record.best = record.history[1];
  record.models_evaluated = 3;
  record.duplicates_skipped = 1;
  return record;
}

void expect_candidates_equal(const evo::Candidate& a, const evo::Candidate& b) {
  EXPECT_EQ(a.genome, b.genome);
  EXPECT_EQ(a.result.accuracy, b.result.accuracy);
  EXPECT_EQ(a.result.outputs_per_second, b.result.outputs_per_second);
  EXPECT_EQ(a.result.eval_seconds, b.result.eval_seconds);
  EXPECT_EQ(a.result.feasible, b.result.feasible);
  EXPECT_EQ(a.fitness, b.fitness);
}

TEST(WireSearch, CandidateRoundTrips) {
  const evo::Candidate candidate = sample_candidate(64, 0.875);
  WireWriter writer;
  write_candidate(writer, candidate);
  WireReader reader(writer.bytes());
  const evo::Candidate decoded = read_candidate(reader);
  reader.expect_end();
  expect_candidates_equal(decoded, candidate);
}

TEST(WireSearch, CandidateTruncatedThrows) {
  WireWriter writer;
  write_candidate(writer, sample_candidate(64, 0.875));
  std::vector<std::uint8_t> bytes = writer.bytes();
  bytes.resize(bytes.size() - 1);
  WireReader reader(bytes);
  EXPECT_THROW(read_candidate(reader), WireError);
}

TEST(WireSearch, SearchRecordRoundTrips) {
  const SearchRecord record = sample_record();
  WireWriter writer;
  write_search_record(writer, record);
  WireReader reader(writer.bytes());
  const SearchRecord decoded = read_search_record(reader);
  reader.expect_end();
  ASSERT_EQ(decoded.history.size(), record.history.size());
  for (std::size_t i = 0; i < record.history.size(); ++i) {
    expect_candidates_equal(decoded.history[i], record.history[i]);
  }
  expect_candidates_equal(decoded.best, record.best);
  EXPECT_EQ(decoded.models_evaluated, record.models_evaluated);
  EXPECT_EQ(decoded.duplicates_skipped, record.duplicates_skipped);
}

TEST(WireSearch, SearchRecordHostileCountThrows) {
  // A length prefix above kMaxRecordCandidates must be rejected before any
  // allocation, not trusted and looped over.
  WireWriter writer;
  writer.put_u32(kMaxRecordCandidates + 1);
  WireReader reader(writer.bytes());
  EXPECT_THROW(read_search_record(reader), WireError);
}

TEST(WireSearch, OversizedSearchRecordRefusesToEncode) {
  SearchRecord record;
  record.history.resize(kMaxRecordCandidates + 1);
  WireWriter writer;
  EXPECT_THROW(write_search_record(writer, record), WireError);
}

TEST(WireSearch, SubmitSearchRoundTrips) {
  SubmitSearch submit;
  submit.submit_id = 42;
  submit.request.seed = 11;
  submit.request.threads = 3;
  submit.request.fitness = "accuracy_x_throughput";
  submit.request.evolution.population_size = 6;
  submit.request.evolution.max_evaluations = 24;
  submit.request.evolution.batch_size = 3;
  submit.request.evolution.overlap_generations = true;
  submit.request.evolution.max_inflight_batches = 4;
  submit.request.space.search_hardware = false;
  WireWriter writer;
  write_submit_search(writer, submit);
  WireReader reader(writer.bytes());
  const SubmitSearch decoded = read_submit_search(reader);
  reader.expect_end();
  EXPECT_EQ(decoded.submit_id, 42u);
  EXPECT_EQ(decoded.request.seed, 11u);
  EXPECT_EQ(decoded.request.threads, 3u);
  EXPECT_EQ(decoded.request.fitness, "accuracy_x_throughput");
  EXPECT_EQ(decoded.request.evolution.population_size, 6u);
  EXPECT_EQ(decoded.request.evolution.max_evaluations, 24u);
  EXPECT_EQ(decoded.request.evolution.batch_size, 3u);
  EXPECT_TRUE(decoded.request.evolution.overlap_generations);
  EXPECT_EQ(decoded.request.evolution.max_inflight_batches, 4u);
  EXPECT_FALSE(decoded.request.space.search_hardware);
  EXPECT_EQ(decoded.request.space.width_choices, submit.request.space.width_choices);
}

TEST(WireSearch, SearchAcceptedRoundTrips) {
  SearchAccepted accepted;
  accepted.submit_id = 7;
  accepted.search_id = 19;
  accepted.queue_position = 2;
  WireWriter writer;
  write_search_accepted(writer, accepted);
  WireReader reader(writer.bytes());
  const SearchAccepted decoded = read_search_accepted(reader);
  reader.expect_end();
  EXPECT_EQ(decoded.submit_id, 7u);
  EXPECT_EQ(decoded.search_id, 19u);
  EXPECT_EQ(decoded.queue_position, 2u);
}

TEST(WireSearch, SearchProgressRoundTrips) {
  SearchProgress progress;
  progress.search_id = 19;
  progress.generation = 5;
  progress.models_evaluated = 21;
  progress.max_evaluations = 400;
  progress.pareto_front_size = 4;
  progress.best_fitness = 0.958145;
  WireWriter writer;
  write_search_progress(writer, progress);
  WireReader reader(writer.bytes());
  const SearchProgress decoded = read_search_progress(reader);
  reader.expect_end();
  EXPECT_EQ(decoded.search_id, 19u);
  EXPECT_EQ(decoded.generation, 5u);
  EXPECT_EQ(decoded.models_evaluated, 21u);
  EXPECT_EQ(decoded.max_evaluations, 400u);
  EXPECT_EQ(decoded.pareto_front_size, 4u);
  EXPECT_EQ(decoded.best_fitness, 0.958145);
}

TEST(WireSearch, SearchDoneCompletedCarriesRecord) {
  SearchDone done;
  done.search_id = 19;
  done.status = SearchDone::Status::Completed;
  done.record = sample_record();
  WireWriter writer;
  write_search_done(writer, done);
  WireReader reader(writer.bytes());
  const SearchDone decoded = read_search_done(reader);
  reader.expect_end();
  EXPECT_EQ(decoded.search_id, 19u);
  EXPECT_EQ(decoded.status, SearchDone::Status::Completed);
  ASSERT_EQ(decoded.record.history.size(), 3u);
  expect_candidates_equal(decoded.record.best, done.record.best);
  EXPECT_EQ(decoded.record.models_evaluated, 3u);
  EXPECT_TRUE(decoded.message.empty());
}

TEST(WireSearch, SearchDoneCanceledCarriesMessageOnly) {
  SearchDone done;
  done.search_id = 19;
  done.status = SearchDone::Status::Canceled;
  done.message = "daemon draining";
  WireWriter writer;
  write_search_done(writer, done);
  WireReader reader(writer.bytes());
  const SearchDone decoded = read_search_done(reader);
  reader.expect_end();
  EXPECT_EQ(decoded.status, SearchDone::Status::Canceled);
  EXPECT_EQ(decoded.message, "daemon draining");
  EXPECT_TRUE(decoded.record.history.empty());
}

TEST(WireSearch, SearchDoneUnknownStatusThrows) {
  WireWriter writer;
  writer.put_u64(19);
  writer.put_u8(3);  // one past Status::Canceled
  writer.put_string("bogus");
  WireReader reader(writer.bytes());
  EXPECT_THROW(read_search_done(reader), WireError);
}

TEST(WireSearch, CancelSearchRoundTrips) {
  CancelSearch cancel;
  cancel.search_id = 19;
  WireWriter writer;
  write_cancel_search(writer, cancel);
  WireReader reader(writer.bytes());
  const CancelSearch decoded = read_cancel_search(reader);
  reader.expect_end();
  EXPECT_EQ(decoded.search_id, 19u);
}

}  // namespace
}  // namespace ecad::net
