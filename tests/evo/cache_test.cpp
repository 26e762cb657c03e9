#include "evo/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace ecad::evo {
namespace {

TEST(EvalCache, MissThenHit) {
  EvalCache cache;
  EXPECT_FALSE(cache.lookup("a").has_value());
  EXPECT_EQ(cache.misses(), 1u);

  EvalResult result;
  result.accuracy = 0.75;
  cache.store("a", result);
  const auto hit = cache.lookup("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->accuracy, 0.75);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EvalCache, ContainsDoesNotCountHits) {
  EvalCache cache;
  cache.store("k", EvalResult{});
  EXPECT_TRUE(cache.contains("k"));
  EXPECT_FALSE(cache.contains("other"));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(EvalCache, StoreOverwrites) {
  EvalCache cache;
  EvalResult first;
  first.accuracy = 0.1;
  cache.store("k", first);
  EvalResult second;
  second.accuracy = 0.9;
  cache.store("k", second);
  EXPECT_DOUBLE_EQ(cache.lookup("k")->accuracy, 0.9);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EvalCache, ConcurrentAccessIsSafe) {
  EvalCache cache;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string key = "key" + std::to_string(i % 50);
        EvalResult result;
        result.accuracy = static_cast<double>(t);
        cache.store(key, result);
        cache.lookup(key);
        cache.contains(key);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.size(), 50u);
  EXPECT_EQ(cache.hits() + cache.misses(), 2000u);  // 4 threads x 500 lookups
}

TEST(EvalCache, StressParallelLookupStoreCountersStayConsistent) {
  // N threads hammer a shared key space with a lookup-miss → store → lookup
  // pattern. Whatever the interleaving, every lookup() must count exactly one
  // hit or one miss, and per-thread "store then lookup the same key" must hit
  // (store happens-before the same thread's next lookup under one mutex).
  EvalCache cache;
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t num_threads = hw == 0 ? 4 : std::min(8u, std::max(4u, hw));
  constexpr int kIterations = 2000;
  constexpr int kKeySpace = 64;

  std::atomic<std::size_t> lookups{0};
  std::atomic<std::size_t> post_store_misses{0};
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const std::string key = "g" + std::to_string((i * 7 + static_cast<int>(t)) % kKeySpace);
        if (!cache.lookup(key).has_value()) {
          EvalResult result;
          result.accuracy = static_cast<double>(t) / 10.0;
          cache.store(key, result);
        }
        lookups.fetch_add(1, std::memory_order_relaxed);
        // This thread stored-or-observed the key above, so this must hit.
        if (!cache.lookup(key).has_value()) {
          post_store_misses.fetch_add(1, std::memory_order_relaxed);
        }
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(post_store_misses.load(), 0u);
  // Every lookup counted exactly one hit or one miss — no lost updates.
  EXPECT_EQ(cache.hits() + cache.misses(), lookups.load());
  // Nothing is ever evicted, so each distinct key missed at least once and
  // the key space bounds the size.
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeySpace));
  EXPECT_GE(cache.misses(), static_cast<std::size_t>(kKeySpace));
  EXPECT_GT(cache.hits(), 0u);
}

}  // namespace
}  // namespace ecad::evo
