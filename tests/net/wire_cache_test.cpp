// Fleet-cache frames and key derivation: golden-hash pins on
// fnv1a64/fleet_cache_key (a drifting key function silently invalidates
// every deployed cache), round-trips over CacheLookup / CacheStore, bounds
// rejection on both sides, and the daemon-side FleetResultCache LRU
// behavior behind them.
#include <gtest/gtest.h>

#include <cstring>

#include "net/fleet_cache.h"
#include "net/wire.h"
#include "util/rng.h"

namespace ecad::net {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

evo::EvalResult random_result(util::Rng& rng) {
  // Hostile bit patterns included: every double round-trips as raw IEEE-754
  // bits, so NaNs and infinities must survive byte-exact.
  evo::EvalResult result;
  const auto random_double = [&rng] {
    const std::uint64_t pattern = rng();
    double v = 0.0;
    std::memcpy(&v, &pattern, sizeof(v));
    return v;
  };
  result.accuracy = random_double();
  result.outputs_per_second = random_double();
  result.latency_seconds = random_double();
  result.potential_gflops = random_double();
  result.effective_gflops = random_double();
  result.hw_efficiency = random_double();
  result.power_watts = random_double();
  result.fmax_mhz = random_double();
  result.parameters = random_double();
  result.flops_per_sample = random_double();
  result.eval_seconds = random_double();
  result.feasible = rng.next_index(2) == 0;
  return result;
}

// ---------------------------------------------------------------------------
// Key derivation

TEST(FleetCacheKey, Fnv1a64MatchesGoldenValues) {
  // Pinned against an independent implementation.  If any of these move, the
  // key function changed and every deployed fleet cache is silently invalid
  // — that is a cache-format break, not a refactor.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);  // the FNV-1a offset basis
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("ecad"), 0x3018ea602618dbc4ull);
}

TEST(FleetCacheKey, EvalConfigIdRendersCanonically) {
  EvalConfigId id;
  id.worker_kind = "accuracy";
  id.data_seed = 7;
  id.data_samples = 400;
  id.data_features = 16;
  id.data_classes = 3;
  id.train_epochs = 3;
  id.eval_seed = 42;
  // The exact bytes that get hashed: reordering or renaming a field here is
  // a cache-format break and must show up as a test diff.
  EXPECT_EQ(id.to_string(),
            "worker=accuracy;data_seed=7;data_samples=400;data_features=16;"
            "data_classes=3;train_epochs=3;eval_seed=42");
}

TEST(FleetCacheKey, FleetCacheKeyMatchesGoldenValue) {
  EvalConfigId id;
  id.worker_kind = "accuracy";
  id.data_seed = 7;
  id.data_samples = 400;
  id.data_features = 16;
  id.data_classes = 3;
  id.train_epochs = 3;
  id.eval_seed = 42;
  const std::string genome_key = "nna{h=64,32,16;act=relu;bias=1}|grid{8x16v4i2,32}";
  EXPECT_EQ(fleet_cache_key(id.to_string(), genome_key), 0x4b2b309b1b64a98eull);
  // The '\n' join is unambiguous: moving bytes across the boundary must
  // produce a different key.
  EXPECT_NE(fleet_cache_key(id.to_string() + "n", genome_key),
            fleet_cache_key(id.to_string(), "n" + genome_key));
}

TEST(FleetCacheKey, DistinctConfigsPartitionTheKeySpace) {
  EvalConfigId a;
  a.worker_kind = "accuracy";
  EvalConfigId b = a;
  b.eval_seed = 1;
  const std::string genome_key = "g";
  EXPECT_NE(fleet_cache_key(a.to_string(), genome_key),
            fleet_cache_key(b.to_string(), genome_key));
}

// ---------------------------------------------------------------------------
// Wire codecs

TEST(WireCacheLookup, RandomizedRoundTripIsExact) {
  util::Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    CacheLookup lookup;
    const std::size_t count = rng.next_index(17);  // 0..16, empty included
    for (std::size_t i = 0; i < count; ++i) lookup.keys.push_back(rng());

    WireWriter writer;
    write_cache_lookup(writer, lookup);
    WireReader reader(writer.bytes());
    const CacheLookup decoded = read_cache_lookup(reader);
    reader.expect_end();
    EXPECT_EQ(decoded.keys, lookup.keys);
  }
}

TEST(WireCacheStore, RandomizedRoundTripIsExact) {
  util::Rng rng(37);
  for (int trial = 0; trial < 50; ++trial) {
    CacheStore store;
    const std::size_t count = rng.next_index(9);
    for (std::size_t i = 0; i < count; ++i) {
      store.entries.push_back(CacheEntry{rng(), random_result(rng)});
    }

    WireWriter writer;
    write_cache_store(writer, store);
    WireReader reader(writer.bytes());
    const CacheStore decoded = read_cache_store(reader);
    reader.expect_end();

    ASSERT_EQ(decoded.entries.size(), store.entries.size());
    for (std::size_t i = 0; i < store.entries.size(); ++i) {
      const CacheEntry& sent = store.entries[i];
      const CacheEntry& got = decoded.entries[i];
      EXPECT_EQ(got.key, sent.key);
      EXPECT_EQ(bits_of(got.result.accuracy), bits_of(sent.result.accuracy));
      EXPECT_EQ(bits_of(got.result.outputs_per_second), bits_of(sent.result.outputs_per_second));
      EXPECT_EQ(bits_of(got.result.latency_seconds), bits_of(sent.result.latency_seconds));
      EXPECT_EQ(bits_of(got.result.potential_gflops), bits_of(sent.result.potential_gflops));
      EXPECT_EQ(bits_of(got.result.effective_gflops), bits_of(sent.result.effective_gflops));
      EXPECT_EQ(bits_of(got.result.hw_efficiency), bits_of(sent.result.hw_efficiency));
      EXPECT_EQ(bits_of(got.result.power_watts), bits_of(sent.result.power_watts));
      EXPECT_EQ(bits_of(got.result.fmax_mhz), bits_of(sent.result.fmax_mhz));
      EXPECT_EQ(bits_of(got.result.parameters), bits_of(sent.result.parameters));
      EXPECT_EQ(bits_of(got.result.flops_per_sample), bits_of(sent.result.flops_per_sample));
      EXPECT_EQ(bits_of(got.result.eval_seconds), bits_of(sent.result.eval_seconds));
      EXPECT_EQ(got.result.feasible, sent.result.feasible);
    }
  }
}

TEST(WireCacheLookup, TooManyKeysIsRejectedOnWrite) {
  CacheLookup lookup;
  lookup.keys.resize(kMaxCacheEntries + 1);
  WireWriter writer;
  EXPECT_THROW(write_cache_lookup(writer, lookup), WireError);
}

TEST(WireCacheLookup, OversizedKeyCountIsRejectedOnRead) {
  // A hostile count past the cap must throw before any allocation.
  WireWriter forged;
  forged.put_u32(kMaxCacheEntries + 1);
  WireReader reader(forged.bytes());
  EXPECT_THROW(read_cache_lookup(reader), WireError);
}

TEST(WireCacheLookup, CountBeyondPayloadIsRejectedBeforeAllocation) {
  // In-cap count, but the payload cannot actually hold that many keys: the
  // truncation pre-check must reject it without reserving for the claim.
  WireWriter forged;
  forged.put_u32(kMaxCacheEntries);
  forged.put_u64(1);  // one key where kMaxCacheEntries were promised
  WireReader reader(forged.bytes());
  EXPECT_THROW(read_cache_lookup(reader), WireError);
}

TEST(WireCacheLookup, TruncatedPayloadIsRejected) {
  CacheLookup lookup;
  lookup.keys = {1, 2, 3};
  WireWriter writer;
  write_cache_lookup(writer, lookup);
  std::vector<std::uint8_t> bytes = writer.bytes();
  bytes.pop_back();
  WireReader reader(bytes);
  EXPECT_THROW(read_cache_lookup(reader), WireError);
}

TEST(WireCacheStore, TooManyEntriesIsRejectedOnWrite) {
  CacheStore store;
  store.entries.resize(kMaxCacheEntries + 1);
  WireWriter writer;
  EXPECT_THROW(write_cache_store(writer, store), WireError);
}

TEST(WireCacheStore, OversizedEntryCountIsRejectedOnRead) {
  WireWriter forged;
  forged.put_u32(kMaxCacheEntries + 1);
  WireReader reader(forged.bytes());
  EXPECT_THROW(read_cache_store(reader), WireError);
}

TEST(WireCacheStore, TruncatedPayloadIsRejected) {
  CacheStore store;
  store.entries.push_back(CacheEntry{7, evo::EvalResult{}});
  WireWriter writer;
  write_cache_store(writer, store);
  std::vector<std::uint8_t> bytes = writer.bytes();
  bytes.pop_back();
  WireReader reader(bytes);
  EXPECT_THROW(read_cache_store(reader), WireError);
}

TEST(WireCache, ToStringNamesCacheFrames) {
  EXPECT_STREQ(to_string(MsgType::CacheLookup), "CacheLookup");
  EXPECT_STREQ(to_string(MsgType::CacheStore), "CacheStore");
}

// ---------------------------------------------------------------------------
// Daemon-side LRU store

TEST(FleetResultCache, ZeroBudgetDisablesTheTier) {
  FleetResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.store(1, evo::EvalResult{});
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(FleetResultCache, StoreThenLookupReturnsTheResult) {
  FleetResultCache cache(16 * kCacheEntryBytes);
  ASSERT_TRUE(cache.enabled());
  evo::EvalResult result;
  result.accuracy = 0.625;
  cache.store(9, result);
  const auto hit = cache.lookup(9);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->accuracy, 0.625);
  EXPECT_FALSE(cache.lookup(10).has_value());
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), kCacheEntryBytes);
}

TEST(FleetResultCache, EvictsLeastRecentlyUsed) {
  FleetResultCache cache(2 * kCacheEntryBytes);
  cache.store(1, evo::EvalResult{});
  cache.store(2, evo::EvalResult{});
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_TRUE(cache.lookup(1).has_value());
  cache.store(3, evo::EvalResult{});
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(FleetResultCache, RefreshingAKeyDoesNotGrowOrEvict) {
  FleetResultCache cache(2 * kCacheEntryBytes);
  evo::EvalResult first;
  first.accuracy = 0.25;
  cache.store(1, first);
  cache.store(2, evo::EvalResult{});
  evo::EvalResult refreshed;
  refreshed.accuracy = 0.75;
  cache.store(1, refreshed);  // refresh, not insert: nothing evicted
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_DOUBLE_EQ(cache.lookup(1)->accuracy, 0.75);
  // The refresh also renewed key 1's recency, so 2 is the next victim.
  cache.store(3, evo::EvalResult{});
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.lookup(2).has_value());
}

TEST(FleetResultCache, SubEntryBudgetDisables) {
  // A budget below one entry's flat cost cannot hold anything; the tier
  // degrades to disabled rather than thrashing a single slot.
  FleetResultCache cache(kCacheEntryBytes - 1);
  EXPECT_FALSE(cache.enabled());
}

}  // namespace
}  // namespace ecad::net
