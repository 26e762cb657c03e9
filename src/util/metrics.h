// Process-wide metrics registry: named counters, gauges, and fixed
// log-bucket latency histograms, shared by every layer of the stack
// (RemoteWorker fan-out, WorkerServer, SearchScheduler, EvalCache).
//
// Design constraints, in order:
//  * Hot-path increments are lock-free relaxed atomics — instrumenting the
//    evaluation path must not perturb timings or serialize worker threads.
//  * Registration (name -> metric lookup) takes the registry mutex; callers
//    on hot paths cache the returned reference once (metric objects are
//    never destroyed or moved, so references stay valid for the process
//    lifetime).
//  * Snapshots race benignly with writers: every field is an independent
//    atomic, so a snapshot taken mid-update sees a slightly stale but
//    internally monotone view (TSan-clean; see metrics_test.cpp stress).
//
// Snapshots serialize two ways: to the wire (the StatsReport frame, see
// net/wire.h) and to the BENCH-style JSON schema (bench_json.h), so fleet
// stats ride the existing perf-regression tooling.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/bench_json.h"
#include "util/mutex.h"
#include "util/thread_safety.h"

namespace ecad::util {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (queue depth, concurrency, clocks).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Latency histogram over fixed base-2 log buckets.  Bucket i (i < kBuckets-1)
/// counts observations v with upper_bound(i-1) < v <= upper_bound(i), where
/// upper_bound(i) = 1e-6 * 2^i seconds — 1 µs up to ~275 s — and the last
/// bucket is the +inf overflow.  Quantiles interpolated from the buckets are
/// exact to within one bucket, i.e. at most a factor-2 relative error (the
/// bound metrics_test.cpp pins).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  /// Upper bound of bucket i in seconds; +inf for the overflow bucket.
  static double upper_bound(std::size_t i);
  /// Bucket receiving observation `v` (values <= 1 µs land in bucket 0).
  static std::size_t bucket_index(double v);

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::vector<std::uint64_t> bucket_counts() const;
  /// Quantile estimate (q in [0,1]) interpolated from the current buckets;
  /// 0 when empty.
  double quantile(double q) const;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // double stored as bit pattern
};

enum class MetricKind : std::uint8_t { Counter = 0, Gauge = 1, Histogram = 2 };

/// One metric's point-in-time state — the shape shipped in a StatsReport
/// entry. `value` carries the counter/gauge reading; histograms fill
/// `count`/`sum`/`buckets` instead.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  double value = 0.0;
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<std::uint64_t> buckets;
};

/// Quantile estimate from a histogram's bucket counts (same interpolation as
/// Histogram::quantile) — used on snapshots received over the wire.
double quantile_from_buckets(const std::vector<std::uint64_t>& buckets, double q);

/// `base{key=value}` — the labeled-series naming convention (one metric
/// object per label value, e.g. net.items_dispatched_total{endpoint=...}).
std::string labeled_metric(const std::string& base, const std::string& key,
                           const std::string& value);

/// Name -> metric map.  Lookups lock; the returned references are stable for
/// the registry's lifetime, so hot paths resolve once and increment forever.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) ECAD_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name) ECAD_EXCLUDES(mutex_);
  Histogram& histogram(const std::string& name) ECAD_EXCLUDES(mutex_);

  /// All metrics whose name starts with `prefix` ("" = everything), sorted
  /// by name.
  std::vector<MetricSnapshot> snapshot(const std::string& prefix = "") const
      ECAD_EXCLUDES(mutex_);

  /// Snapshot in the BENCH JSON schema: one entry per metric, `type` label,
  /// counters/gauges as a `value` metric, histograms as
  /// count/sum/p50_s/p90_s/p99_s.
  BenchReport to_bench_report(const std::string& bench_name) const ECAD_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ ECAD_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ ECAD_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ ECAD_GUARDED_BY(mutex_);
};

/// The process-wide registry every layer reports through (function-local
/// static, usable during other TUs' static initialization).
MetricsRegistry& metrics();

}  // namespace ecad::util
