#include "net/fleet_cache.h"

#include "evo/snapshot.h"
#include "util/metrics.h"
#include "util/snapshot_io.h"

namespace ecad::net {

std::uint64_t fnv1a64(std::string_view bytes) {
  // FNV-1a, 64-bit: offset basis 0xcbf29ce484222325, prime 0x100000001b3.
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string EvalConfigId::to_string() const {
  return "worker=" + worker_kind + ";data_seed=" + std::to_string(data_seed) +
         ";data_samples=" + std::to_string(data_samples) +
         ";data_features=" + std::to_string(data_features) +
         ";data_classes=" + std::to_string(data_classes) +
         ";train_epochs=" + std::to_string(train_epochs) +
         ";eval_seed=" + std::to_string(eval_seed);
}

std::uint64_t fleet_cache_key(const std::string& eval_config, const std::string& genome_key) {
  // '\n' can appear in neither half, so the join is unambiguous.
  return fnv1a64(eval_config + "\n" + genome_key);
}

namespace {

// Process-wide tier counters (bumped outside the cache mutex so the registry
// mutex stays a leaf lock).  The smoke cache legs read these over the
// stats wire and assert warm-run hit-rate deltas against them.
void count_query(bool present) {
  static util::Counter& hits = util::metrics().counter("fleet.cache_hits_total");
  static util::Counter& misses = util::metrics().counter("fleet.cache_misses_total");
  (present ? hits : misses).add(1);
}

void set_size_gauges(std::size_t entries) {
  static util::Gauge& entry_gauge = util::metrics().gauge("fleet.cache_entries");
  static util::Gauge& byte_gauge = util::metrics().gauge("fleet.cache_bytes");
  entry_gauge.set(static_cast<double>(entries));
  byte_gauge.set(static_cast<double>(entries * kCacheEntryBytes));
}

void count_evictions(std::uint64_t n) {
  static util::Counter& evictions = util::metrics().counter("fleet.cache_evictions_total");
  evictions.add(n);
}

}  // namespace

FleetResultCache::FleetResultCache(std::size_t byte_budget)
    : budget_entries_(byte_budget / kCacheEntryBytes) {}

std::optional<evo::EvalResult> FleetResultCache::lookup(std::uint64_t key) {
  if (!enabled()) return std::nullopt;
  std::optional<evo::EvalResult> found;
  {
    util::MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      recency_.splice(recency_.begin(), recency_, it->second.recency);
      found = it->second.result;
    }
  }
  count_query(found.has_value());
  return found;
}

void FleetResultCache::store(std::uint64_t key, const evo::EvalResult& result) {
  if (!enabled()) return;
  std::uint64_t evicted = 0;
  std::size_t size = 0;
  {
    util::MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      // Identical keys should carry identical results (content addressing);
      // refresh recency and keep the newer bits in case they differ.
      it->second.result = result;
      recency_.splice(recency_.begin(), recency_, it->second.recency);
    } else {
      recency_.push_front(key);
      entries_.emplace(key, Entry{result, recency_.begin()});
      while (entries_.size() > budget_entries_) {
        entries_.erase(recency_.back());
        recency_.pop_back();
        ++evictions_;
        ++evicted;
      }
    }
    size = entries_.size();
  }
  if (evicted > 0) count_evictions(evicted);
  set_size_gauges(size);
}

std::size_t FleetResultCache::entries() const {
  util::MutexLock lock(mutex_);
  return entries_.size();
}

std::size_t FleetResultCache::bytes() const {
  util::MutexLock lock(mutex_);
  return entries_.size() * kCacheEntryBytes;
}

std::uint64_t FleetResultCache::evictions() const {
  util::MutexLock lock(mutex_);
  return evictions_;
}

std::vector<std::pair<std::uint64_t, evo::EvalResult>> FleetResultCache::export_entries() const {
  std::vector<std::pair<std::uint64_t, evo::EvalResult>> out;
  util::MutexLock lock(mutex_);
  out.reserve(entries_.size());
  // recency_ runs newest-first; walk it backwards so replaying the vector
  // through store() (which pushes to the front) rebuilds the same order.
  for (auto it = recency_.rbegin(); it != recency_.rend(); ++it) {
    out.emplace_back(*it, entries_.at(*it).result);
  }
  return out;
}

std::vector<std::uint8_t> serialize_cache_entries(
    const std::vector<std::pair<std::uint64_t, evo::EvalResult>>& entries) {
  util::SnapshotWriter writer;
  writer.put_u32(kCacheFileMagic);
  writer.put_u16(util::kSnapshotFormatVersion);
  writer.put_u64(entries.size());
  for (const auto& [key, result] : entries) {
    writer.put_u64(key);
    evo::write_eval_result(writer, result);
  }
  return writer.take();
}

std::vector<std::pair<std::uint64_t, evo::EvalResult>> deserialize_cache_entries(
    const std::vector<std::uint8_t>& bytes) {
  util::SnapshotReader reader(bytes);
  if (reader.get_u32() != kCacheFileMagic) {
    throw util::SnapshotError("cache file: bad magic");
  }
  const std::uint16_t version = reader.get_u16();
  if (version != util::kSnapshotFormatVersion) {
    throw util::SnapshotError("cache file: unsupported format version " +
                              std::to_string(version));
  }
  const std::uint64_t count = reader.get_u64();
  if (count > util::kMaxSnapshotVectorElems) {
    throw util::SnapshotError("cache file: entry count " + std::to_string(count) +
                              " exceeds cap");
  }
  std::vector<std::pair<std::uint64_t, evo::EvalResult>> entries;
  entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t key = reader.get_u64();
    entries.emplace_back(key, evo::read_eval_result(reader));
  }
  reader.expect_end();
  return entries;
}

void save_cache_file(const std::string& path, const FleetResultCache& cache) {
  util::write_file_atomic(path, serialize_cache_entries(cache.export_entries()),
                          "cache_file");
}

std::size_t load_cache_file(const std::string& path, FleetResultCache& cache) {
  const auto entries = deserialize_cache_entries(util::read_file_bytes(path));
  for (const auto& [key, result] : entries) {
    cache.store(key, result);
  }
  return entries.size();
}

}  // namespace ecad::net
