// Stats frames: round-trips over GetStats / StatsReport (the
// write_get_stats/read_get_stats and write_stats_report/read_stats_report
// codec pairs), bounds rejection on both sides, message-type bounds, and the
// registry -> wire rendering the daemons answer GetStats with.
#include <gtest/gtest.h>

#include <cstring>

#include "net/stats.h"
#include "net/wire.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace ecad::net {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

StatsEntry random_entry(util::Rng& rng) {
  StatsEntry entry;
  entry.name = "metric." + std::to_string(rng());
  entry.kind = static_cast<std::uint8_t>(rng.next_index(3));
  std::uint64_t pattern = rng();
  std::memcpy(&entry.value, &pattern, sizeof(double));
  entry.count = rng();
  pattern = rng();
  std::memcpy(&entry.sum, &pattern, sizeof(double));
  const std::size_t buckets = rng.next_index(kMaxHistogramBuckets + 1);
  for (std::size_t i = 0; i < buckets; ++i) entry.buckets.push_back(rng());
  return entry;
}

TEST(WireGetStats, RoundTripsPrefix) {
  for (const std::string& prefix : {std::string(""), std::string("net."),
                                   std::string("scheduler.gate_wait_seconds")}) {
    GetStats request;
    request.prefix = prefix;
    WireWriter writer;
    write_get_stats(writer, request);
    WireReader reader(writer.bytes());
    const GetStats decoded = read_get_stats(reader);
    reader.expect_end();
    EXPECT_EQ(decoded.prefix, prefix);
  }
}

TEST(WireStatsReport, RandomizedRoundTripIsExact) {
  util::Rng rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    StatsReport report;
    const std::size_t count = rng.next_index(9);  // 0..8, empty included
    for (std::size_t i = 0; i < count; ++i) report.entries.push_back(random_entry(rng));

    WireWriter writer;
    write_stats_report(writer, report);
    WireReader reader(writer.bytes());
    const StatsReport decoded = read_stats_report(reader);
    reader.expect_end();

    ASSERT_EQ(decoded.entries.size(), report.entries.size());
    for (std::size_t i = 0; i < report.entries.size(); ++i) {
      const StatsEntry& sent = report.entries[i];
      const StatsEntry& got = decoded.entries[i];
      EXPECT_EQ(got.name, sent.name);
      EXPECT_EQ(got.kind, sent.kind);
      EXPECT_EQ(bits_of(got.value), bits_of(sent.value));
      EXPECT_EQ(got.count, sent.count);
      EXPECT_EQ(bits_of(got.sum), bits_of(sent.sum));
      EXPECT_EQ(got.buckets, sent.buckets);
    }
  }
}

TEST(WireStatsReport, TooManyEntriesIsRejectedOnWrite) {
  StatsReport report;
  report.entries.resize(kMaxStatsEntries + 1);
  WireWriter writer;
  EXPECT_THROW(write_stats_report(writer, report), WireError);
}

TEST(WireStatsReport, OversizedEntryCountIsRejectedOnRead) {
  WireWriter writer;
  writer.put_u32(kMaxStatsEntries + 1);
  WireReader reader(writer.bytes());
  EXPECT_THROW(read_stats_report(reader), WireError);
}

TEST(WireStatsReport, TooManyBucketsIsRejectedBothWays) {
  StatsReport report;
  StatsEntry entry;
  entry.name = "bad.hist";
  entry.kind = 2;
  entry.buckets.resize(kMaxHistogramBuckets + 1);
  report.entries.push_back(entry);
  WireWriter writer;
  EXPECT_THROW(write_stats_report(writer, report), WireError);

  // Hand-build the same overflow on the wire: a well-formed header followed
  // by a bucket count past the cap must throw before any allocation.
  WireWriter forged;
  forged.put_u32(1);
  forged.put_string("bad.hist");
  forged.put_u8(2);
  forged.put_f64(0.0);
  forged.put_u64(0);
  forged.put_f64(0.0);
  forged.put_u32(kMaxHistogramBuckets + 1);
  WireReader reader(forged.bytes());
  EXPECT_THROW(read_stats_report(reader), WireError);
}

TEST(WireStatsReport, TruncatedPayloadIsRejected) {
  StatsReport report;
  report.entries.push_back(StatsEntry{"m", 0, 1.0, 2, 3.0, {4, 5}});
  WireWriter writer;
  write_stats_report(writer, report);
  std::vector<std::uint8_t> bytes = writer.bytes();
  bytes.pop_back();
  WireReader reader(bytes);
  EXPECT_THROW(read_stats_report(reader), WireError);
}

TEST(WireStats, StatsMsgTypesAreKnownAndTheNextValueIsNot) {
  std::uint8_t header_bytes[kFrameHeaderBytes];
  const auto header_for = [&](std::uint16_t raw_type) {
    const std::vector<std::uint8_t> frame =
        encode_frame(MsgType::GetStats, {});  // valid scaffold, then patch type
    std::memcpy(header_bytes, frame.data(), kFrameHeaderBytes);
    header_bytes[6] = static_cast<std::uint8_t>(raw_type & 0xff);
    header_bytes[7] = static_cast<std::uint8_t>(raw_type >> 8);
  };
  header_for(static_cast<std::uint16_t>(MsgType::StatsReport));
  EXPECT_EQ(decode_frame_header(header_bytes).type, MsgType::StatsReport);
  header_for(18);  // one past the last known MsgType (CacheStore = 17)
  EXPECT_THROW(decode_frame_header(header_bytes), WireError);
}

TEST(WireStats, ToStringNamesStatsFrames) {
  EXPECT_STREQ(to_string(MsgType::GetStats), "GetStats");
  EXPECT_STREQ(to_string(MsgType::StatsReport), "StatsReport");
}

TEST(SnapshotStatsReport, RendersTheProcessRegistry) {
  // The global registry accumulates across the whole test binary; use a
  // unique prefix so this test sees exactly what it wrote.
  util::metrics().counter("wire_stats_test.counter").add(5);
  util::metrics().gauge("wire_stats_test.gauge").set(2.5);
  util::metrics().histogram("wire_stats_test.hist").observe(1e-3);

  const StatsReport report = snapshot_stats_report("wire_stats_test.");
  ASSERT_EQ(report.entries.size(), 3u);
  EXPECT_EQ(report.entries[0].name, "wire_stats_test.counter");
  EXPECT_EQ(report.entries[0].kind, static_cast<std::uint8_t>(util::MetricKind::Counter));
  EXPECT_EQ(report.entries[0].value, 5.0);
  EXPECT_EQ(report.entries[1].name, "wire_stats_test.gauge");
  EXPECT_EQ(report.entries[1].value, 2.5);
  EXPECT_EQ(report.entries[2].name, "wire_stats_test.hist");
  EXPECT_EQ(report.entries[2].count, 1u);
  ASSERT_EQ(report.entries[2].buckets.size(), util::Histogram::kBuckets);

  // And the rendered report survives the wire intact.
  WireWriter writer;
  write_stats_report(writer, report);
  WireReader reader(writer.bytes());
  const StatsReport decoded = read_stats_report(reader);
  reader.expect_end();
  EXPECT_EQ(decoded.entries.size(), report.entries.size());
  EXPECT_EQ(decoded.entries[2].buckets, report.entries[2].buckets);
}

}  // namespace
}  // namespace ecad::net
