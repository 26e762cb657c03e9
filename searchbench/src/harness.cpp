#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace searchbench {

using namespace ecad;

void Report::fail(const std::string& what, std::uint64_t operations) {
  failed += operations;
  if (failures.size() < 20) failures.push_back(what);
}

void add_end_to_end(Report& report, const EndToEnd& figures) {
  double evals = 0.0;
  double wall = 0.0;
  double cpu = 0.0;
  std::vector<double> latencies;
  std::vector<double> rates;
  std::vector<double> cpus;
  std::vector<double> p50s;
  std::vector<double> p90s;
  report.rounds_json = "[";
  for (const Round& round : figures.rounds) {
    char row[160];
    std::snprintf(row, sizeof(row), "%s[%.17g, %.17g, %.17g, %.17g, %.17g, %zu]",
                  report.rounds_json.size() > 1 ? ", " : "", round.evaluations,
                  round.wall_seconds, round.cpu_seconds, quantile(round.latency_ms, 0.5),
                  quantile(round.latency_ms, 0.9), round.latency_ms.size());
    report.rounds_json += row;
    evals += round.evaluations;
    wall += round.wall_seconds;
    cpu += round.cpu_seconds;
    latencies.insert(latencies.end(), round.latency_ms.begin(), round.latency_ms.end());
    if (round.evaluations > 0 && round.wall_seconds > 0) {
      rates.push_back(round.evaluations / round.wall_seconds);
      cpus.push_back(round.cpu_seconds * 1e3 / round.evaluations);
      p50s.push_back(quantile(round.latency_ms, 0.5));
      p90s.push_back(quantile(round.latency_ms, 0.9));
    }
  }
  report.rounds_json += "]";
  const bool by_round = figures.by_round;
  const std::string how =
      by_round ? ", better quartile over " + std::to_string(rates.size()) + " rounds" : "";
  const std::size_t n_evals = static_cast<std::size_t>(evals);
  const std::size_t n_latency = latencies.size();
  report.end_to_end.push_back({"evals_per_s", by_round ? quantile(rates, 0.75) : evals / wall, "1/s", n_evals,
                               "evaluations per wall second of the timed phase" + how});
  report.end_to_end.push_back({"cpu_ms_per_eval", by_round ? quantile(cpus, 0.25) : cpu * 1e3 / evals, "ms",
                               n_evals, "process user+sys CPU per evaluation" + how});
  report.end_to_end.push_back({"latency_p50_ms", by_round ? quantile(p50s, 0.25) : quantile(latencies, 0.5),
                               "ms", n_latency, figures.latency_note + ", median" + how});
  report.end_to_end.push_back({"latency_p90_ms", by_round ? quantile(p90s, 0.25) : quantile(latencies, 0.9),
                               "ms", n_latency, figures.latency_note + ", 90th percentile" + how});
  report.end_to_end.push_back({"setup_s", median(figures.setup_seconds), "s",
                               figures.setup_seconds.size(), "median of the run's set-ups"});
  // Printed, not gated: on codesign_har the peak follows which large
  // networks happen to train at the same time and moved by 13-18% between
  // seeds, more than a bound could absorb.
  report.extra.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 0,
                          "peak resident memory of the run's process"});
  if (rates.size() > 1) {
    std::sort(rates.begin(), rates.end());
    report.extra.push_back({"rounds.evals_per_s_min", rates.front(), "1/s", rates.size(), ""});
    report.extra.push_back({"rounds.evals_per_s_max", rates.back(), "1/s", rates.size(), ""});
  }
}


namespace {

double cpu_seconds_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// "Tcp:" header line followed by a "Tcp:" value line.
std::uint64_t read_tcp_active_opens() {
  std::ifstream in("/proc/net/snmp");
  std::string header;
  std::string values;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Tcp:", 0) != 0) continue;
    if (header.empty()) {
      header = line;
    } else {
      values = line;
      break;
    }
  }
  std::istringstream names(header);
  std::istringstream numbers(values);
  std::string name;
  std::string number;
  while (names >> name && numbers >> number) {
    if (name == "ActiveOpens") return std::stoull(number);
  }
  return 0;
}

std::uint64_t read_lo_receive_bytes() {
  std::ifstream in("/proc/net/dev");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    name.erase(0, name.find_first_not_of(' '));
    if (name != "lo") continue;
    std::istringstream fields(line.substr(colon + 1));
    std::uint64_t bytes = 0;
    fields >> bytes;
    return bytes;
  }
  return 0;
}

}  // namespace

ProcSample sample_process() {
  ProcSample sample;
  sample.cpu_seconds = cpu_seconds_now();
  sample.tcp_active_opens = read_tcp_active_opens();
  sample.lo_bytes = read_lo_receive_bytes();
  return sample;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

RegistrySample sample_registry() {
  RegistrySample sample;
  for (util::MetricSnapshot& snapshot : util::metrics().snapshot()) {
    std::string name = snapshot.name;
    sample.emplace(std::move(name), std::move(snapshot));
  }
  return sample;
}

void WindowTotals::begin() {
  registry_start_ = sample_registry();
  proc_start_ = sample_process();
  start_ = Clock::now();
}

void WindowTotals::end() {
  const Clock::time_point stop = Clock::now();
  const ProcSample proc = sample_process();
  const RegistrySample registry = sample_registry();
  wall_ += seconds_between(start_, stop);
  cpu_ += proc.cpu_seconds - proc_start_.cpu_seconds;
  opens_ += proc.tcp_active_opens - proc_start_.tcp_active_opens;
  lo_bytes_ += proc.lo_bytes - proc_start_.lo_bytes;
  for (const auto& [name, snapshot] : registry) {
    const auto before = registry_start_.find(name);
    const bool histogram = snapshot.kind == util::MetricKind::Histogram;
    const double now_value = histogram ? static_cast<double>(snapshot.count) : snapshot.value;
    double then_value = 0.0;
    if (before != registry_start_.end()) {
      then_value = histogram ? static_cast<double>(before->second.count) : before->second.value;
    }
    counters_[name] += now_value - then_value;
    if (histogram) {
      std::vector<std::uint64_t>& sums = buckets_[name];
      sums.resize(snapshot.buckets.size(), 0);
      for (std::size_t i = 0; i < snapshot.buckets.size(); ++i) {
        const std::uint64_t then_bucket =
            before != registry_start_.end() && i < before->second.buckets.size()
                ? before->second.buckets[i]
                : 0;
        sums[i] += snapshot.buckets[i] - then_bucket;
      }
    }
  }
}

double WindowTotals::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<std::uint64_t> WindowTotals::buckets(const std::string& name) const {
  const auto it = buckets_.find(name);
  return it == buckets_.end() ? std::vector<std::uint64_t>{} : it->second;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t low = static_cast<std::size_t>(std::floor(position));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double frac = position - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

namespace {

double machine_loop_rate(double seconds) {
  // A fixed dependent multiply-add chain on four threads at once, one per
  // core of the reference machine: the same instructions on every run, so
  // the summed rate moves only with the machine — its speed, or cores taken
  // by other work.
  constexpr int kThreads = 4;
  std::vector<double> rates(kThreads, 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rates, t, seconds] {
      volatile double sink = 0.0;
      std::uint64_t iterations = 0;
      const Clock::time_point start = Clock::now();
      double elapsed = 0.0;
      while (elapsed < seconds) {
        double x = 1.0;
        for (int i = 0; i < 100000; ++i) x = x * 0.999999 + 1e-7;
        sink = sink + x;
        ++iterations;
        elapsed = seconds_between(start, Clock::now());
      }
      rates[t] = static_cast<double>(iterations) / elapsed;
    });
  }
  for (std::thread& thread : threads) thread.join();
  double total = 0.0;
  for (const double rate : rates) total += rate;
  return total;
}

}  // namespace

MachineSample sample_machine() {
  MachineSample sample;
  sample.loop_per_s = machine_loop_rate(0.5);
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    std::uint64_t ticks = 0;
    if (!(stat >> ticks)) break;
    sample.ticks += ticks;
    if (field == 7) sample.steal_ticks = ticks;
  }
  std::ifstream sockstat("/proc/net/sockstat");
  std::string word;
  while (sockstat >> word) {
    if (word == "tw") {
      sockstat >> sample.time_wait;
      break;
    }
  }
  return sample;
}

void add_machine_diagnostics(Report& report, const MachineSample& before,
                             const MachineSample& after) {
  report.extra.push_back({"machine.loop_per_s_before", before.loop_per_s, "1/s", 0,
                          "fixed loop on 4 threads, no program code"});
  report.extra.push_back({"machine.loop_per_s_after", after.loop_per_s, "1/s", 0, ""});
  const std::uint64_t ticks = after.ticks - before.ticks;
  report.extra.push_back({"machine.steal_share",
                          ticks > 0 ? static_cast<double>(after.steal_ticks - before.steal_ticks) /
                                          static_cast<double>(ticks)
                                    : 0.0,
                          "share", 0, "/proc/stat steal over the timed phase"});
  report.extra.push_back({"machine.tcp_time_wait_before", static_cast<double>(before.time_wait),
                          "count", 0, "loopback sockets left in TIME_WAIT"});
}

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream, std::uint64_t index) {
  std::uint64_t z = workload_seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
                    index * 0x94D049BB133111EBull + 0x2545F4914F6CDD1Dull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return (z % 1000000007ull) + 1;  // small, printable, never 0
}

namespace {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

}  // namespace

std::string result_mismatch(const evo::EvalResult& got, const evo::EvalResult& want) {
  const struct {
    const char* name;
    double got;
    double want;
  } fields[] = {
      {"accuracy", got.accuracy, want.accuracy},
      {"outputs_per_second", got.outputs_per_second, want.outputs_per_second},
      {"latency_seconds", got.latency_seconds, want.latency_seconds},
      {"potential_gflops", got.potential_gflops, want.potential_gflops},
      {"effective_gflops", got.effective_gflops, want.effective_gflops},
      {"hw_efficiency", got.hw_efficiency, want.hw_efficiency},
      {"power_watts", got.power_watts, want.power_watts},
      {"fmax_mhz", got.fmax_mhz, want.fmax_mhz},
      {"parameters", got.parameters, want.parameters},
      {"flops_per_sample", got.flops_per_sample, want.flops_per_sample},
  };
  for (const auto& field : fields) {
    if (!same_bits(field.got, field.want)) return field.name;
  }
  if (got.feasible != want.feasible) return "feasible";
  return "";
}

SearchRecordView view_of(const evo::EvolutionResult& result) {
  return {&result.history, &result.best, result.stats.models_evaluated,
          result.stats.duplicates_skipped};
}

SearchRecordView view_of(const net::SearchRecord& record) {
  return {&record.history, &record.best, record.models_evaluated, record.duplicates_skipped};
}

std::string record_mismatch(const SearchRecordView& got, const SearchRecordView& want) {
  if (got.history->size() != want.history->size()) {
    return "history size " + std::to_string(got.history->size()) + " != " +
           std::to_string(want.history->size());
  }
  for (std::size_t i = 0; i < got.history->size(); ++i) {
    const evo::Candidate& a = (*got.history)[i];
    const evo::Candidate& b = (*want.history)[i];
    if (a.genome != b.genome) return "cand " + std::to_string(i) + " genome";
    if (!same_bits(a.fitness, b.fitness)) return "cand " + std::to_string(i) + " fitness";
    const std::string field = result_mismatch(a.result, b.result);
    if (!field.empty()) return "cand " + std::to_string(i) + " " + field;
  }
  if (got.best->genome != want.best->genome) return "best genome";
  if (!same_bits(got.best->fitness, want.best->fitness)) return "best fitness";
  if (got.models_evaluated != want.models_evaluated) return "models_evaluated";
  if (got.duplicates_skipped != want.duplicates_skipped) return "duplicates_skipped";
  return "";
}

void sabotage(evo::EvolutionResult& reference) {
  if (reference.history.empty()) return;
  double& accuracy = reference.history.front().result.accuracy;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &accuracy, sizeof(bits));
  bits ^= 1;
  std::memcpy(&accuracy, &bits, sizeof(bits));
}

core::SearchRequest search_request(std::uint64_t seed, std::size_t evaluations) {
  core::SearchRequest request;
  request.seed = seed;
  request.fitness = "accuracy_x_throughput";
  request.threads = 2;
  request.space.search_hardware = true;
  request.evolution.population_size = 16;
  request.evolution.batch_size = 8;
  request.evolution.max_evaluations = evaluations;
  return request;
}

}  // namespace searchbench
