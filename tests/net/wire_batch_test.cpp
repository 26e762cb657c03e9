// Batch request messages: randomized round-trips over EvalBatchRequest,
// truncation and hostile-count rejection, and the name-only Hello payload.
#include <gtest/gtest.h>

#include "net/wire.h"
#include "util/rng.h"

namespace ecad::net {
namespace {

TEST(WireBatchRequest, RandomizedRoundTripIsExact) {
  evo::SearchSpace space;
  util::Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    EvalBatchRequest request;
    request.batch_id = rng();
    const std::size_t count = rng.next_index(17);  // 0..16, empty included
    for (std::size_t i = 0; i < count; ++i) {
      request.genomes.push_back(evo::random_genome(space, rng));
    }

    WireWriter writer;
    write_eval_batch_request(writer, request);
    WireReader reader(writer.bytes());
    const EvalBatchRequest decoded = read_eval_batch_request(reader);
    reader.expect_end();

    EXPECT_EQ(decoded.batch_id, request.batch_id);
    ASSERT_EQ(decoded.genomes.size(), request.genomes.size());
    for (std::size_t i = 0; i < request.genomes.size(); ++i) {
      EXPECT_EQ(decoded.genomes[i], request.genomes[i]) << "item " << i;
    }
  }
}

TEST(WireBatchRequest, TruncationAlwaysThrows) {
  evo::SearchSpace space;
  util::Rng rng(31);
  EvalBatchRequest request;
  request.batch_id = 77;
  for (int i = 0; i < 3; ++i) request.genomes.push_back(evo::random_genome(space, rng));
  WireWriter writer;
  write_eval_batch_request(writer, request);
  const auto& bytes = writer.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    WireReader reader(bytes.data(), cut);
    EXPECT_THROW(
        {
          EvalBatchRequest decoded = read_eval_batch_request(reader);
          reader.expect_end();
          (void)decoded;
        },
        WireError)
        << "cut=" << cut;
  }
}

TEST(WireBatchRequest, HostileCountsAreRejectedBeforeAllocation) {
  WireWriter writer;
  writer.put_u64(1);                    // batch id
  writer.put_u32(kMaxBatchItems + 1);   // count over the cap
  WireReader reader(writer.bytes());
  EXPECT_THROW(read_eval_batch_request(reader), WireError);
}

TEST(WireBatchRequest, CountBeyondPayloadIsRejected) {
  // A plausible count with no genomes behind it must throw, not overread.
  WireWriter writer;
  writer.put_u64(5);
  writer.put_u32(64);
  WireReader reader(writer.bytes());
  EXPECT_THROW(read_eval_batch_request(reader), WireError);
}

// ---------------------------------------------------------------------------
// Hello payloads
// ---------------------------------------------------------------------------

TEST(WireHello, TrailingGarbageIsRejected) {
  WireWriter writer;
  write_hello_payload(writer, "worker");
  WireReader clean(writer.bytes());
  EXPECT_EQ(read_hello_payload(clean), "worker");

  // The payload is the name and nothing else: the u16 version trailer older
  // generations appended is now trailing garbage.
  writer.put_u16(kProtocolVersion);
  WireReader reader(writer.bytes());
  EXPECT_THROW(read_hello_payload(reader), WireError);
}

}  // namespace
}  // namespace ecad::net
