// Serialization coverage (ISSUE 3 satellite): exhaustive randomized
// round-trips over Genome / EvalResult / SearchRequest, plus rejection of
// truncated and corrupted frames.  Doubles are compared by bit pattern so
// NaN payloads and signed zeros count.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "util/rng.h"

namespace ecad::net {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void expect_bit_equal(double a, double b) { EXPECT_EQ(bits_of(a), bits_of(b)); }

void expect_result_equal(const evo::EvalResult& a, const evo::EvalResult& b) {
  expect_bit_equal(a.accuracy, b.accuracy);
  expect_bit_equal(a.outputs_per_second, b.outputs_per_second);
  expect_bit_equal(a.latency_seconds, b.latency_seconds);
  expect_bit_equal(a.potential_gflops, b.potential_gflops);
  expect_bit_equal(a.effective_gflops, b.effective_gflops);
  expect_bit_equal(a.hw_efficiency, b.hw_efficiency);
  expect_bit_equal(a.power_watts, b.power_watts);
  expect_bit_equal(a.fmax_mhz, b.fmax_mhz);
  expect_bit_equal(a.parameters, b.parameters);
  expect_bit_equal(a.flops_per_sample, b.flops_per_sample);
  expect_bit_equal(a.eval_seconds, b.eval_seconds);
  EXPECT_EQ(a.feasible, b.feasible);
}

evo::Genome round_trip(const evo::Genome& genome) {
  WireWriter writer;
  write_genome(writer, genome);
  WireReader reader(writer.bytes());
  evo::Genome decoded = read_genome(reader);
  reader.expect_end();
  return decoded;
}

TEST(WirePrimitives, IntegersAreLittleEndianAndExact) {
  WireWriter writer;
  writer.put_u8(0xAB);
  writer.put_u16(0x1234);
  writer.put_u32(0xDEADBEEF);
  writer.put_u64(0x0123456789ABCDEFull);
  const auto& bytes = writer.bytes();
  ASSERT_EQ(bytes.size(), 1u + 2 + 4 + 8);
  EXPECT_EQ(bytes[0], 0xAB);
  EXPECT_EQ(bytes[1], 0x34);  // u16 low byte first
  EXPECT_EQ(bytes[2], 0x12);
  EXPECT_EQ(bytes[3], 0xEF);  // u32 low byte first
  EXPECT_EQ(bytes[6], 0xDE);

  WireReader reader(writer.bytes());
  EXPECT_EQ(reader.get_u8(), 0xAB);
  EXPECT_EQ(reader.get_u16(), 0x1234);
  EXPECT_EQ(reader.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.get_u64(), 0x0123456789ABCDEFull);
  reader.expect_end();
}

TEST(WirePrimitives, DoublesRoundTripBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.5e-300,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max()};
  for (double value : values) {
    WireWriter writer;
    writer.put_f64(value);
    WireReader reader(writer.bytes());
    expect_bit_equal(reader.get_f64(), value);
  }
}

TEST(WirePrimitives, RandomDoublesSurviveAnyBitPattern) {
  util::Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t pattern = rng();
    double value = 0.0;
    std::memcpy(&value, &pattern, sizeof(value));
    WireWriter writer;
    writer.put_f64(value);
    WireReader reader(writer.bytes());
    EXPECT_EQ(bits_of(reader.get_f64()), pattern);
  }
}

TEST(WirePrimitives, StringsAndVectorsRoundTrip) {
  WireWriter writer;
  writer.put_string("");
  writer.put_string("accuracy_x_throughput");
  writer.put_string(std::string("\0binary\xff", 8));
  writer.put_size_vector({});
  writer.put_size_vector({1, 0, std::numeric_limits<std::size_t>::max()});
  WireReader reader(writer.bytes());
  EXPECT_EQ(reader.get_string(), "");
  EXPECT_EQ(reader.get_string(), "accuracy_x_throughput");
  EXPECT_EQ(reader.get_string(), std::string("\0binary\xff", 8));
  EXPECT_TRUE(reader.get_size_vector().empty());
  EXPECT_EQ(reader.get_size_vector(),
            (std::vector<std::size_t>{1, 0, std::numeric_limits<std::size_t>::max()}));
  reader.expect_end();
}

TEST(WirePrimitives, TruncatedReadsThrowNotOverread) {
  WireWriter writer;
  writer.put_u64(42);
  for (std::size_t cut = 0; cut < 8; ++cut) {
    WireReader reader(writer.bytes().data(), cut);
    EXPECT_THROW(reader.get_u64(), WireError) << "cut=" << cut;
  }
}

TEST(WirePrimitives, HostileLengthPrefixesAreRejected) {
  // A string length prefix far beyond the buffer must throw, not allocate.
  WireWriter writer;
  writer.put_u32(0xFFFFFFFFu);
  WireReader reader(writer.bytes());
  EXPECT_THROW(reader.get_string(), WireError);

  WireWriter vec;
  vec.put_u32(0x00FFFFFFu);  // below the element cap but beyond the buffer
  WireReader vec_reader(vec.bytes());
  EXPECT_THROW(vec_reader.get_size_vector(), WireError);
}

// ---------------------------------------------------------------------------
// Genome
// ---------------------------------------------------------------------------

TEST(WireGenome, RandomizedRoundTripIsExact) {
  evo::SearchSpace space;  // defaults span the full paper search space
  util::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    evo::Genome genome = evo::random_genome(space, rng);
    const evo::Genome decoded = round_trip(genome);
    EXPECT_EQ(decoded, genome);
    EXPECT_EQ(decoded.key(), genome.key());
  }
}

TEST(WireGenome, EdgeShapesRoundTrip) {
  evo::Genome genome;
  genome.nna.hidden = {};  // degenerate: no hidden layers
  genome.nna.use_bias = false;
  genome.nna.activation = nn::Activation::Elu;
  genome.grid.rows = 1;
  genome.grid.cols = 1;
  genome.grid.vec_width = 1;
  genome.grid.interleave_m = 1;
  genome.grid.interleave_n = 1;
  EXPECT_EQ(round_trip(genome), genome);

  genome.nna.hidden = std::vector<std::size_t>(32, 512);
  genome.grid.rows = 4096;
  EXPECT_EQ(round_trip(genome), genome);
}

TEST(WireGenome, EveryActivationSurvives) {
  for (nn::Activation activation : nn::kSearchableActivations) {
    evo::Genome genome;
    genome.nna.hidden = {8};
    genome.nna.activation = activation;
    EXPECT_EQ(round_trip(genome).nna.activation, activation);
  }
}

TEST(WireGenome, TruncatedGenomePayloadAlwaysThrows) {
  evo::SearchSpace space;
  util::Rng rng(11);
  const evo::Genome genome = evo::random_genome(space, rng);
  WireWriter writer;
  write_genome(writer, genome);
  const auto& bytes = writer.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    WireReader reader(bytes.data(), cut);
    EXPECT_THROW(
        {
          evo::Genome decoded = read_genome(reader);
          reader.expect_end();
          (void)decoded;
        },
        WireError)
        << "cut=" << cut;
  }
}

TEST(WireGenome, CorruptedActivationNameIsRejected) {
  evo::Genome genome;
  genome.nna.hidden = {16, 16};
  WireWriter writer;
  write_genome(writer, genome);
  std::vector<std::uint8_t> bytes = writer.bytes();
  // The activation string "relu" sits right after the hidden vector
  // (4 count + 2*8 widths + 4 length); smash its first character.
  const std::size_t activation_offset = 4 + 16 + 4;
  ASSERT_LT(activation_offset, bytes.size());
  bytes[activation_offset] = 'z';
  WireReader reader(bytes.data(), bytes.size());
  EXPECT_THROW(read_genome(reader), WireError);
}

// ---------------------------------------------------------------------------
// EvalResult
// ---------------------------------------------------------------------------

TEST(WireEvalResult, RandomizedRoundTripIsBitExact) {
  util::Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    evo::EvalResult result;
    // Arbitrary bit patterns, not just nice values: NaNs and infs included.
    double* fields[] = {&result.accuracy,        &result.outputs_per_second,
                        &result.latency_seconds, &result.potential_gflops,
                        &result.effective_gflops, &result.hw_efficiency,
                        &result.power_watts,     &result.fmax_mhz,
                        &result.parameters,      &result.flops_per_sample,
                        &result.eval_seconds};
    for (double* field : fields) {
      const std::uint64_t pattern = rng();
      std::memcpy(field, &pattern, sizeof(double));
    }
    result.feasible = (i % 2) == 0;

    WireWriter writer;
    write_eval_result(writer, result);
    WireReader reader(writer.bytes());
    const evo::EvalResult decoded = read_eval_result(reader);
    reader.expect_end();
    expect_result_equal(decoded, result);
  }
}

TEST(WireEvalResult, TruncationAlwaysThrows) {
  evo::EvalResult result;
  result.accuracy = 0.875;
  WireWriter writer;
  write_eval_result(writer, result);
  const auto& bytes = writer.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    WireReader reader(bytes.data(), cut);
    EXPECT_THROW(read_eval_result(reader), WireError) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// SearchRequest
// ---------------------------------------------------------------------------

core::SearchRequest random_request(util::Rng& rng) {
  core::SearchRequest request;
  request.space.min_hidden_layers = 1 + rng.next_index(3);
  request.space.max_hidden_layers = request.space.min_hidden_layers + rng.next_index(4);
  request.space.width_choices.clear();
  const std::size_t widths = 1 + rng.next_index(6);
  for (std::size_t i = 0; i < widths; ++i) {
    request.space.width_choices.push_back(1u << rng.next_index(10));
  }
  request.space.activations.clear();
  const std::size_t activation_count = 1 + rng.next_index(5);
  for (std::size_t i = 0; i < activation_count; ++i) {
    request.space.activations.push_back(
        nn::kSearchableActivations[rng.next_index(5)]);
  }
  request.space.allow_no_bias = rng.next_bool(0.5);
  request.space.search_hardware = rng.next_bool(0.5);
  request.space.grid.row_choices = {1 + rng.next_index(32)};
  request.space.grid.col_choices = {1 + rng.next_index(32), 64};
  request.space.grid.vec_choices = {4, 8, 16};
  request.space.grid.interleave_choices = {1 + rng.next_index(8)};
  request.evolution.population_size = 2 + rng.next_index(30);
  request.evolution.max_evaluations = 100 + rng.next_index(1000);
  request.evolution.tournament_size = 1 + rng.next_index(5);
  request.evolution.crossover_probability = rng.next_double();
  request.evolution.mutation_strength = rng.next_double() * 4.0;
  request.evolution.dedup_attempts = rng.next_index(20);
  request.evolution.batch_size = rng.next_index(16);
  request.evolution.overlap_generations = rng.next_bool(0.5);
  request.evolution.max_inflight_batches = 1 + rng.next_index(4);
  request.fitness = rng.next_bool(0.5) ? "accuracy" : "accuracy_x_throughput";
  request.seed = rng();
  request.threads = rng.next_index(16);
  return request;
}

void expect_request_equal(const core::SearchRequest& a, const core::SearchRequest& b) {
  EXPECT_EQ(a.space.min_hidden_layers, b.space.min_hidden_layers);
  EXPECT_EQ(a.space.max_hidden_layers, b.space.max_hidden_layers);
  EXPECT_EQ(a.space.width_choices, b.space.width_choices);
  ASSERT_EQ(a.space.activations.size(), b.space.activations.size());
  for (std::size_t i = 0; i < a.space.activations.size(); ++i) {
    EXPECT_EQ(a.space.activations[i], b.space.activations[i]);
  }
  EXPECT_EQ(a.space.allow_no_bias, b.space.allow_no_bias);
  EXPECT_EQ(a.space.search_hardware, b.space.search_hardware);
  EXPECT_EQ(a.space.grid.row_choices, b.space.grid.row_choices);
  EXPECT_EQ(a.space.grid.col_choices, b.space.grid.col_choices);
  EXPECT_EQ(a.space.grid.vec_choices, b.space.grid.vec_choices);
  EXPECT_EQ(a.space.grid.interleave_choices, b.space.grid.interleave_choices);
  EXPECT_EQ(a.evolution.population_size, b.evolution.population_size);
  EXPECT_EQ(a.evolution.max_evaluations, b.evolution.max_evaluations);
  EXPECT_EQ(a.evolution.tournament_size, b.evolution.tournament_size);
  expect_bit_equal(a.evolution.crossover_probability, b.evolution.crossover_probability);
  expect_bit_equal(a.evolution.mutation_strength, b.evolution.mutation_strength);
  EXPECT_EQ(a.evolution.dedup_attempts, b.evolution.dedup_attempts);
  EXPECT_EQ(a.evolution.batch_size, b.evolution.batch_size);
  EXPECT_EQ(a.evolution.overlap_generations, b.evolution.overlap_generations);
  EXPECT_EQ(a.evolution.max_inflight_batches, b.evolution.max_inflight_batches);
  EXPECT_EQ(a.fitness, b.fitness);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.threads, b.threads);
}

TEST(WireSearchRequest, RandomizedRoundTripIsExact) {
  util::Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const core::SearchRequest request = random_request(rng);
    WireWriter writer;
    write_search_request(writer, request);
    WireReader reader(writer.bytes());
    const core::SearchRequest decoded = read_search_request(reader);
    reader.expect_end();
    expect_request_equal(decoded, request);
  }
}

TEST(WireSearchRequest, TruncationAlwaysThrows) {
  util::Rng rng(19);
  const core::SearchRequest request = random_request(rng);
  WireWriter writer;
  write_search_request(writer, request);
  const auto& bytes = writer.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    WireReader reader(bytes.data(), cut);
    EXPECT_THROW(
        {
          core::SearchRequest decoded = read_search_request(reader);
          reader.expect_end();
          (void)decoded;
        },
        WireError)
        << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(WireFrame, EncodeDecodeRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> frame = encode_frame(MsgType::EvalBatchRequest, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  // The on-wire prefix is literally "ECAD" — what a packet capture shows.
  EXPECT_EQ(frame[0], 'E');
  EXPECT_EQ(frame[1], 'C');
  EXPECT_EQ(frame[2], 'A');
  EXPECT_EQ(frame[3], 'D');
  const FrameHeader header = decode_frame_header(frame.data());
  EXPECT_EQ(header.type, MsgType::EvalBatchRequest);
  EXPECT_EQ(header.payload_size, payload.size());
}

TEST(WireFrame, BadMagicVersionTypeAndSizeAreRejected) {
  const std::vector<std::uint8_t> good = encode_frame(MsgType::Ping, {});

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(decode_frame_header(bad_magic.data()), WireError);

  std::vector<std::uint8_t> bad_version = good;
  bad_version[4] = 0x7F;
  EXPECT_THROW(decode_frame_header(bad_version.data()), WireError);

  std::vector<std::uint8_t> bad_type = good;
  bad_type[6] = 0xEE;
  bad_type[7] = 0xEE;
  EXPECT_THROW(decode_frame_header(bad_type.data()), WireError);

  std::vector<std::uint8_t> bad_size = good;
  bad_size[8] = 0xFF;
  bad_size[9] = 0xFF;
  bad_size[10] = 0xFF;
  bad_size[11] = 0xFF;
  EXPECT_THROW(decode_frame_header(bad_size.data()), WireError);
}

TEST(WireFrame, TryExtractHandlesPartialFrames) {
  WireWriter body;
  body.put_u64(77);
  const std::vector<std::uint8_t> frame = encode_frame(MsgType::EvalBatchDone, body.bytes());

  std::vector<std::uint8_t> buffer;
  Frame out;
  // Feed byte by byte: no frame until the last byte lands.
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    buffer.push_back(frame[i]);
    EXPECT_FALSE(try_extract_frame(buffer, out));
  }
  buffer.push_back(frame.back());
  ASSERT_TRUE(try_extract_frame(buffer, out));
  EXPECT_EQ(out.type, MsgType::EvalBatchDone);
  EXPECT_EQ(out.payload.size(), 8u);
  EXPECT_TRUE(buffer.empty());
}

TEST(WireFrame, TwoFramesInOneBufferPopInOrder) {
  std::vector<std::uint8_t> buffer = encode_frame(MsgType::Ping, {});
  const std::vector<std::uint8_t> second = encode_frame(MsgType::Pong, {9});
  buffer.insert(buffer.end(), second.begin(), second.end());

  Frame out;
  ASSERT_TRUE(try_extract_frame(buffer, out));
  EXPECT_EQ(out.type, MsgType::Ping);
  ASSERT_TRUE(try_extract_frame(buffer, out));
  EXPECT_EQ(out.type, MsgType::Pong);
  ASSERT_EQ(out.payload.size(), 1u);
  EXPECT_FALSE(try_extract_frame(buffer, out));
}

TEST(WireFrame, CorruptedStreamThrowsInsteadOfDesyncing) {
  std::vector<std::uint8_t> buffer = encode_frame(MsgType::Ping, {});
  buffer[2] ^= 0x40;  // corrupt the magic mid-stream
  Frame out;
  EXPECT_THROW(try_extract_frame(buffer, out), WireError);
}

}  // namespace
}  // namespace ecad::net
