// Shared plumbing of the search benchmark: clocks, process and registry
// counters read from outside the program, quantiles, the machine-speed
// diagnostic, record comparison, and the report every workload fills in.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/master.h"
#include "evo/engine.h"
#include "net/wire.h"
#include "util/metrics.h"

namespace searchbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: a few tiny searches instead of the measured workload.
  bool tiny = false;
  /// Flip one field of every reference record, which the output checks
  /// must report as failed operations (harness self-test).
  bool sabotage = false;
  /// Where the report file and the span file go.
  std::string out_dir = ".bench_build/out";
};

/// One reported figure.  `samples` is the number of observations behind a
/// distribution or an average (0 when the figure is a single reading).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  /// What the figure measures on this workload (printed, not in the JSON).
  std::string note;
};

struct Report {
  /// The JSON metrics of an untraced run (BENCHMARK.json end_to_end).
  std::vector<Metric> end_to_end;
  /// The JSON metrics of a traced run (BENCHMARK.json per_layer).
  std::vector<Metric> per_layer;
  /// Printed and written to the report file, never part of the JSON line:
  /// workload-specific layer figures, exact counts, machine speed.
  std::vector<Metric> extra;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for diagnosis
  /// Per-round figures of the timed phase as a JSON array, for the report
  /// file: [evaluations, wall_s, cpu_s, latency_p50_ms, latency_p90_ms, n].
  std::string rounds_json = "[]";

  /// Count `operations` failed operations, keeping `what` for the log.
  void fail(const std::string& what, std::uint64_t operations = 1);
};

/// One unit of a workload's timed phase (a search, or the whole closed-loop
/// phase) with one latency sample per operation of the workload's kind.
struct Round {
  double evaluations = 0.0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::vector<double> latency_ms;
};

/// The end-to-end figures every workload reports, in BENCHMARK.json order:
/// pooled over all rounds, or — for workloads with many short rounds — the
/// better quartile over rounds of each round's figure (the 75th percentile
/// of the rates, the 25th of the costs and latencies).  Interference from
/// other tenants of the machine only ever slows a round, and comes in bursts
/// of seconds, so the quieter rounds measure the program; a change to the
/// program moves every round, and with it the quartile.
struct EndToEnd {
  std::vector<Round> rounds;
  bool by_round = false;
  std::string latency_note;  // what one latency sample is
  std::vector<double> setup_seconds;
};
void add_end_to_end(Report& report, const EndToEnd& figures);

/// Process-wide readings whose deltas bracket a timed window.
struct ProcSample {
  double cpu_seconds = 0.0;           // user + sys of this process
  std::uint64_t tcp_active_opens = 0; // /proc/net/snmp Tcp ActiveOpens
  std::uint64_t lo_bytes = 0;         // /proc/net/dev lo receive bytes
};
ProcSample sample_process();
/// Peak resident set of this process in MB.
double peak_rss_mb();

/// Registry counters and histograms by name (util::metrics().snapshot()).
using RegistrySample = std::map<std::string, ecad::util::MetricSnapshot>;
RegistrySample sample_registry();

/// Accumulated deltas of process and registry readings over one or more
/// timed windows (fleet_cold measures each search in its own window).
class WindowTotals {
 public:
  void begin();
  void end();
  double wall_seconds() const { return wall_; }
  double cpu_seconds() const { return cpu_; }
  std::uint64_t tcp_active_opens() const { return opens_; }
  std::uint64_t lo_bytes() const { return lo_bytes_; }
  /// Counter delta (histograms: observation-count delta).
  double counter(const std::string& name) const;
  /// Histogram bucket deltas.
  std::vector<std::uint64_t> buckets(const std::string& name) const;

 private:
  Clock::time_point start_{};
  ProcSample proc_start_{};
  RegistrySample registry_start_;
  double wall_ = 0.0;
  double cpu_ = 0.0;
  std::uint64_t opens_ = 0;
  std::uint64_t lo_bytes_ = 0;
  std::map<std::string, double> counters_;
  std::map<std::string, std::vector<std::uint64_t>> buckets_;
};

/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// The state of the machine around a timed phase, recorded beside the
/// metrics so a disagreement between two sets of runs can be traced to the
/// machine or to the program; never used to scale a metric.
struct MachineSample {
  /// Summed iterations per second of a fixed floating-point loop that calls
  /// no program code, run on four threads for 0.5 s.
  double loop_per_s = 0.0;
  /// /proc/stat cpu ticks, all and stolen by the hypervisor.
  std::uint64_t ticks = 0;
  std::uint64_t steal_ticks = 0;
  /// TCP sockets in TIME_WAIT (/proc/net/sockstat), which earlier runs'
  /// loopback connections leave behind.
  std::uint64_t time_wait = 0;
};
MachineSample sample_machine();
void add_machine_diagnostics(Report& report, const MachineSample& before,
                             const MachineSample& after);

/// Seed of the i-th input derived from the workload seed (splitmix64).
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream, std::uint64_t index);

/// First non-timing field that differs between two results, bit for bit,
/// or "" when they agree.  eval_seconds is the one field left out.
std::string result_mismatch(const ecad::evo::EvalResult& got, const ecad::evo::EvalResult& want);

/// The fields tools::format_search_record prints: every history candidate
/// (genome, fitness, non-timing result fields), the winner, and the two
/// counters.  Returns "" when `got` reproduces `want` bit for bit.
struct SearchRecordView {
  const std::vector<ecad::evo::Candidate>* history = nullptr;
  const ecad::evo::Candidate* best = nullptr;
  std::uint64_t models_evaluated = 0;
  std::uint64_t duplicates_skipped = 0;
};
SearchRecordView view_of(const ecad::evo::EvolutionResult& result);
SearchRecordView view_of(const ecad::net::SearchRecord& record);
std::string record_mismatch(const SearchRecordView& got, const SearchRecordView& want);

/// The self-test sabotage: one flipped bit in the first candidate's accuracy.
void sabotage(ecad::evo::EvolutionResult& reference);

/// The co-design search every workload runs: genome with the hardware half
/// searched, fitness accuracy_x_throughput, population 16, batch 8, a
/// 2-thread pool.
ecad::core::SearchRequest search_request(std::uint64_t seed, std::size_t evaluations);

}  // namespace searchbench
