// Fleet-wide content-addressed result cache (the CacheLookup/CacheStore
// frames of the wire protocol).
//
// Two halves live here:
//
//  * Key derivation.  A cache key must be computable by *any* master sharing
//    the fleet and stable across processes, builds, and standard libraries —
//    so it is an explicit FNV-1a hash over a canonical string, never
//    std::hash (whose value is implementation-defined).  The hashed string
//    is the eval-config identity (EvalConfigId: the determinism-contract
//    fields of the worker spec) joined with the canonical genome key.  The
//    injected-delay knobs (--eval-delay-ms and friends) are documented as
//    outside the determinism contract and are deliberately NOT part of the
//    identity: they change timings, never results.
//
//  * FleetResultCache.  The daemon-side store behind CacheLookup/CacheStore:
//    an LRU map from key to EvalResult under a byte budget (--cache-bytes;
//    0 disables the tier).  Entries are fixed-size, so the budget is
//    enforced as entries * kCacheEntryBytes.  Hit/miss/eviction counters and
//    entry/byte gauges land in the process metrics registry under
//    `fleet.cache_*`, which is how the smoke matrices assert warm-fleet hit
//    rates over the stats wire.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "evo/fitness.h"
#include "util/mutex.h"
#include "util/thread_safety.h"

namespace ecad::net {

/// 64-bit FNV-1a over raw bytes.  Pinned by a golden-hash test: changing
/// this function (or the identity strings fed to it) silently invalidates
/// every deployed fleet cache, so it must never drift.
std::uint64_t fnv1a64(std::string_view bytes);

/// The determinism-contract half of a cache key: every field that changes
/// what an evaluation *returns* (as opposed to how long it takes).  Mirrors
/// the worker spec the smoke matrices pass to every process in a fleet.
struct EvalConfigId {
  std::string worker_kind;        // "analytic" | "accuracy" | "hwdb" | ...
  std::uint64_t data_seed = 0;
  std::uint64_t data_samples = 0;
  std::uint64_t data_features = 0;
  std::uint64_t data_classes = 0;
  std::uint64_t train_epochs = 0;
  std::uint64_t eval_seed = 0;

  /// Canonical `key=value;...` rendering — the exact bytes that get hashed,
  /// so reordering or renaming a field is a cache-format break.
  std::string to_string() const;
};

/// The content address of one (eval config, genome) evaluation.
/// `eval_config` is EvalConfigId::to_string(); `genome_key` is
/// evo::Genome::key().
std::uint64_t fleet_cache_key(const std::string& eval_config, const std::string& genome_key);

/// Bytes charged per cache entry against the --cache-bytes budget: the
/// EvalResult payload plus a flat allowance for the hash-map node, recency
/// list node, and key.  Entries are fixed-size so this makes the budget an
/// exact entry count rather than an estimate that drifts per platform.
inline constexpr std::size_t kCacheEntryBytes = 256;

/// Daemon-side LRU store for the fleet cache tier.  Thread-safe: the server
/// loop thread serves lookups while pool threads publish stores.
class FleetResultCache {
 public:
  /// `byte_budget` caps memory at kCacheEntryBytes per entry; 0 disables
  /// the tier entirely (lookups miss, stores are dropped, nothing counted).
  explicit FleetResultCache(std::size_t byte_budget);

  bool enabled() const { return budget_entries_ > 0; }

  /// Returns the cached result and refreshes its recency, or nullopt.
  std::optional<evo::EvalResult> lookup(std::uint64_t key) ECAD_EXCLUDES(mutex_);

  /// Insert or refresh a binding, evicting least-recently-used entries
  /// until the budget holds.
  void store(std::uint64_t key, const evo::EvalResult& result) ECAD_EXCLUDES(mutex_);

  std::size_t entries() const ECAD_EXCLUDES(mutex_);
  std::size_t bytes() const ECAD_EXCLUDES(mutex_);
  std::uint64_t evictions() const ECAD_EXCLUDES(mutex_);

  /// Every live binding, least-recently-used first — so replaying the list
  /// through store() reproduces both the contents and the recency order.
  /// Does not touch recency or the hit/miss counters.
  std::vector<std::pair<std::uint64_t, evo::EvalResult>> export_entries() const
      ECAD_EXCLUDES(mutex_);

 private:
  struct Entry {
    evo::EvalResult result;
    std::list<std::uint64_t>::iterator recency;  // position in recency_
  };

  const std::size_t budget_entries_;
  mutable util::Mutex mutex_;
  /// Most-recently-used at the front; evictions pop the back.
  std::list<std::uint64_t> recency_ ECAD_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, Entry> entries_ ECAD_GUARDED_BY(mutex_);
  std::uint64_t evictions_ ECAD_GUARDED_BY(mutex_) = 0;
};

/// Magic prefix of a fleet-cache snapshot file ("ECCF", little-endian).
/// The on-disk format is magic + util::kSnapshotFormatVersion + entry count
/// + (key, EvalResult) pairs in LRU-first order, reusing the engine-snapshot
/// EvalResult byte layout — so the same version bump covers both formats.
inline constexpr std::uint32_t kCacheFileMagic = 0x46434345u;

/// Cache entries -> snapshot bytes (LRU-first, as export_entries() yields).
std::vector<std::uint8_t> serialize_cache_entries(
    const std::vector<std::pair<std::uint64_t, evo::EvalResult>>& entries);

/// Snapshot bytes -> cache entries.  Throws util::SnapshotError on
/// truncated, corrupt, or version-mismatched input.
std::vector<std::pair<std::uint64_t, evo::EvalResult>> deserialize_cache_entries(
    const std::vector<std::uint8_t>& bytes);

/// Atomically persist the cache's live entries to `path` (tmp + fsync +
/// rename; crash label "cache_file").  Throws util::SnapshotError on I/O
/// failure.
void save_cache_file(const std::string& path, const FleetResultCache& cache);

/// Replay a snapshot file into `cache` through store(), oldest-first, and
/// return the number of entries loaded.  Throws util::SnapshotError if the
/// file is unreadable or malformed — callers log and start cold.
std::size_t load_cache_file(const std::string& path, FleetResultCache& cache);

}  // namespace ecad::net
