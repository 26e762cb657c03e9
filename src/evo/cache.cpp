#include "evo/cache.h"

#include "util/metrics.h"

namespace ecad::evo {

namespace {

// Process-wide counters aggregate across every cache instance (one per
// engine), preserving the hits + misses == lookups invariant the smoke
// stats legs assert.  Both query paths — lookup() and the presence probe
// contains() the breeding loops use — count as lookups.
void count_query(bool present) {
  static util::Counter& lookups = util::metrics().counter("evo.cache_lookups_total");
  static util::Counter& hit_counter = util::metrics().counter("evo.cache_hits_total");
  static util::Counter& miss_counter = util::metrics().counter("evo.cache_misses_total");
  lookups.add(1);
  (present ? hit_counter : miss_counter).add(1);
}

}  // namespace

std::optional<EvalResult> EvalCache::lookup(const std::string& key) {
  std::optional<EvalResult> found;
  {
    util::MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++misses_;
    } else {
      ++hits_;
      found = it->second;
    }
  }
  // Registry counters are bumped outside mutex_ so the registry mutex stays
  // a leaf lock (same discipline as RemoteWorker's labeled lookups).
  count_query(found.has_value());
  return found;
}

void EvalCache::store(const std::string& key, const EvalResult& result) {
  util::MutexLock lock(mutex_);
  entries_.insert_or_assign(key, result);
}

bool EvalCache::contains(const std::string& key) const {
  bool present = false;
  {
    util::MutexLock lock(mutex_);
    present = entries_.find(key) != entries_.end();
  }
  count_query(present);
  return present;
}

std::size_t EvalCache::size() const {
  util::MutexLock lock(mutex_);
  return entries_.size();
}

std::size_t EvalCache::hits() const {
  util::MutexLock lock(mutex_);
  return hits_;
}

std::size_t EvalCache::misses() const {
  util::MutexLock lock(mutex_);
  return misses_;
}

void EvalCache::restore_stats(std::size_t hits, std::size_t misses) {
  util::MutexLock lock(mutex_);
  hits_ = hits;
  misses_ = misses;
}

}  // namespace ecad::evo
