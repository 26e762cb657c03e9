// In-memory spans recorded by the benchmark around its calls into the
// program's layers, written out when the run ends.  A span's trace id is
// (search, generation); `parent` links it into the tree
//
//   search -> generation -> pipeline -> cache.lookup | dispatch | cache.store
//          -> worker.eval -> nn.train | nn.validate | hw.model
//
// Spans recorded where the caller is known (the searching thread) link to
// their parent directly.  Spans recorded on another thread (a daemon's pool
// running worker.eval, a scheduler runner running a tenant's pipeline) carry
// genome key hashes and are joined to their parent afterwards.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "evo/genome.h"
#include "harness.h"

namespace searchbench {

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root, or not joined yet
  std::uint64_t search = 0;
  std::uint64_t generation = 0;
  Clock::time_point start{};
  Clock::time_point end{};
  /// worker.eval: hash of the evaluated genome's key; pipeline: of the
  /// batch's first genome.
  std::uint64_t key = 0;
  /// pipeline and dispatch: hashes of the batch's genome keys.
  std::vector<std::uint64_t> batch_keys;
  /// Time the probe itself spent inside the span (its bookkeeping), left
  /// out of the span's self time.
  double probe_seconds = 0.0;

  double seconds() const { return seconds_between(start, end); }
};

class Tracer {
 public:
  /// Recording is off until enabled; the benchmark switches it only between
  /// searches, so no span straddles a switch.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  std::uint64_t new_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void record(Span span);
  /// Every span recorded so far; call once the workload has stopped.
  std::vector<Span> take();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// The process's tracer, shared by every probe.
Tracer& tracer();

std::uint64_t key_hash(const ecad::evo::Genome& genome);

/// Parent each unjoined `child_name` span to the span named in
/// `parent_names` whose batch holds the child's key and whose start is
/// nearest the child's.  Returns the number of children left unjoined.
std::size_t join_by_key(std::vector<Span>& spans, const std::string& child_name,
                        const std::vector<std::string>& parent_names);

/// Give every span whose trace id is unset (0) its parent's, so spans
/// recorded without knowing their search (nn.* under worker.eval, lookups
/// under a joined pipeline) carry the id of the search they belong to.
void inherit_trace_ids(std::vector<Span>& spans);

struct SpanTotals {
  std::string name;
  std::size_t count = 0;
  double total_seconds = 0.0;
  /// Duration minus the part of it that child spans cover and minus the
  /// probe's own bookkeeping.
  double self_seconds = 0.0;
};
/// Per span name, in first-seen order.
std::vector<SpanTotals> self_times(const std::vector<Span>& spans);

/// Durations (ms) of every span with this name.
std::vector<double> durations_ms(const std::vector<Span>& spans, const std::string& name);

/// One JSON object per line: name, id, parent, search, generation, start and
/// end in microseconds since the first span, key.
void write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace searchbench
