// Streaming result messages: randomized round-trips over EvalItemResult /
// EvalBatchDone, and truncation and corruption rejection.
#include <gtest/gtest.h>

#include <cstring>

#include "net/wire.h"
#include "util/rng.h"

namespace ecad::net {
namespace {

evo::EvalResult random_result(util::Rng& rng) {
  evo::EvalResult result;
  double* fields[] = {&result.accuracy,         &result.outputs_per_second,
                      &result.latency_seconds,  &result.potential_gflops,
                      &result.effective_gflops, &result.hw_efficiency,
                      &result.power_watts,      &result.fmax_mhz,
                      &result.parameters,       &result.flops_per_sample,
                      &result.eval_seconds};
  for (double* field : fields) {
    const std::uint64_t pattern = rng();
    std::memcpy(field, &pattern, sizeof(double));
  }
  result.feasible = rng.next_bool(0.5);
  return result;
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(WireItemResult, RandomizedRoundTripIsBitExact) {
  util::Rng rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    EvalItemResult item;
    item.batch_id = rng();
    item.index = static_cast<std::uint32_t>(rng.next_index(kMaxBatchItems));
    item.outcome.ok = rng.next_bool(0.7);
    if (item.outcome.ok) {
      item.outcome.result = random_result(rng);
    } else {
      item.outcome.error = "evaluation failed on trial " + std::to_string(trial);
    }

    WireWriter writer;
    write_eval_item_result(writer, item);
    WireReader reader(writer.bytes());
    const EvalItemResult decoded = read_eval_item_result(reader);
    reader.expect_end();

    EXPECT_EQ(decoded.batch_id, item.batch_id);
    EXPECT_EQ(decoded.index, item.index);
    EXPECT_EQ(decoded.outcome.ok, item.outcome.ok);
    if (item.outcome.ok) {
      EXPECT_EQ(bits_of(decoded.outcome.result.accuracy), bits_of(item.outcome.result.accuracy));
      EXPECT_EQ(bits_of(decoded.outcome.result.eval_seconds),
                bits_of(item.outcome.result.eval_seconds));
      EXPECT_EQ(decoded.outcome.result.feasible, item.outcome.result.feasible);
    } else {
      EXPECT_EQ(decoded.outcome.error, item.outcome.error);
    }
  }
}

TEST(WireItemResult, TruncationAlwaysThrows) {
  util::Rng rng(47);
  EvalItemResult item;
  item.batch_id = 5;
  item.index = 3;
  item.outcome.ok = true;
  item.outcome.result = random_result(rng);
  WireWriter writer;
  write_eval_item_result(writer, item);
  const auto& bytes = writer.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    WireReader reader(bytes.data(), cut);
    EXPECT_THROW(
        {
          EvalItemResult decoded = read_eval_item_result(reader);
          reader.expect_end();
          (void)decoded;
        },
        WireError)
        << "cut=" << cut;
  }
}

TEST(WireItemResult, HostileIndexIsRejected) {
  WireWriter writer;
  writer.put_u64(1);
  writer.put_u32(kMaxBatchItems);  // one past the last legal slot
  writer.put_u8(1);
  WireReader reader(writer.bytes());
  EXPECT_THROW(read_eval_item_result(reader), WireError);

  EvalItemResult item;
  item.index = kMaxBatchItems;
  WireWriter rejected;
  EXPECT_THROW(write_eval_item_result(rejected, item), WireError);
}

TEST(WireItemResult, CorruptedOkFlagStillParsesSafely) {
  // Flip the ok byte from 1 to 0: the following EvalResult bytes get
  // reinterpreted as a string length, which must either parse as a string or
  // throw WireError — never read out of bounds (ASan guards the rest).
  util::Rng rng(41);
  EvalItemResult item;
  item.batch_id = 3;
  item.outcome.ok = true;
  item.outcome.result = random_result(rng);
  WireWriter writer;
  write_eval_item_result(writer, item);
  std::vector<std::uint8_t> bytes = writer.bytes();
  bytes[8 + 4] = 0;  // the ok flag sits after the u64 batch id + u32 index
  WireReader reader(bytes.data(), bytes.size());
  try {
    const EvalItemResult decoded = read_eval_item_result(reader);
    reader.expect_end();
    EXPECT_FALSE(decoded.outcome.ok);
  } catch (const WireError&) {
    // equally acceptable
  }
}

TEST(WireBatchDone, RoundTripAndHostileCount) {
  EvalBatchDone done;
  done.batch_id = 99;
  done.count = 17;
  WireWriter writer;
  write_eval_batch_done(writer, done);
  WireReader reader(writer.bytes());
  const EvalBatchDone decoded = read_eval_batch_done(reader);
  reader.expect_end();
  EXPECT_EQ(decoded.batch_id, 99u);
  EXPECT_EQ(decoded.count, 17u);

  WireWriter hostile;
  hostile.put_u64(1);
  hostile.put_u32(kMaxBatchItems + 1);
  WireReader hostile_reader(hostile.bytes());
  EXPECT_THROW(read_eval_batch_done(hostile_reader), WireError);

  EvalBatchDone oversized;
  oversized.count = kMaxBatchItems + 1;
  WireWriter rejected;
  EXPECT_THROW(write_eval_batch_done(rejected, oversized), WireError);
}

TEST(WireBatchDone, TruncationAlwaysThrows) {
  EvalBatchDone done;
  done.batch_id = 7;
  done.count = 2;
  WireWriter writer;
  write_eval_batch_done(writer, done);
  const auto& bytes = writer.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    WireReader reader(bytes.data(), cut);
    EXPECT_THROW(
        {
          EvalBatchDone decoded = read_eval_batch_done(reader);
          reader.expect_end();
          (void)decoded;
        },
        WireError)
        << "cut=" << cut;
  }
}

}  // namespace
}  // namespace ecad::net
