// searchbench: one seeded workload of the co-design search, measured end to
// end (or, with --trace 1, layer by layer), with every output checked
// against the determinism contract.
//
//   searchbench --workload codesign_har|fleet_cold|service_warm
//               --seed N --seconds S --trace 0|1
//               [--tiny] [--sabotage] [--out-dir DIR]
//
// Prints one line per figure (name, value, unit, sample count), then, as
// the last line of stdout, the JSON result: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1).  The
// full report goes to DIR/<workload>-seed<N>-trace<T>.json.  Exits 1 when
// any operation failed.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

using searchbench::Metric;
using searchbench::Options;
using searchbench::Report;

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--sabotage") {
      options.sabotage = true;
    } else if (arg == "--out-dir") {
      options.out_dir = value();
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (options.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return options;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_metrics(const std::vector<Metric>& metrics, bool with_detail) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"";
    if (with_detail) out += ", \"samples\": " + std::to_string(metrics[i].samples);
    out += "}";
  }
  return out + "}";
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const Metric& metric : metrics) {
    std::printf("%-32s %14.6g %-8s n=%-8zu %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples, metric.note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "searchbench: %s\n", e.what());
    return 2;
  }
  ecad::util::set_log_level(ecad::util::LogLevel::Warn);

  Report report;
  try {
    if (options.workload == "codesign_har") {
      report = searchbench::run_codesign_har(options);
    } else if (options.workload == "fleet_cold") {
      report = searchbench::run_fleet_cold(options);
    } else if (options.workload == "service_warm") {
      report = searchbench::run_service_warm(options);
    } else {
      std::fprintf(stderr, "searchbench: unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "searchbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::printf("# workload %s seed %llu seconds %g trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  print_table("end to end", report.end_to_end);
  if (options.trace) print_table("per layer", report.per_layer);
  print_table("detail", report.extra);
  for (const std::string& failure : report.failures) std::printf("FAILED %s\n", failure.c_str());

  const std::string detail = "{\"workload\": \"" + options.workload +
                             "\", \"seed\": " + std::to_string(options.seed) +
                             ", \"trace\": " + (options.trace ? "1" : "0") +
                             ", \"attempted\": " + std::to_string(report.attempted) +
                             ", \"failed\": " + std::to_string(report.failed) +
                             ", \"end_to_end\": " + json_metrics(report.end_to_end, true) +
                             ", \"per_layer\": " + json_metrics(report.per_layer, true) +
                             ", \"detail\": " + json_metrics(report.extra, true) +
                             ", \"rounds\": " + report.rounds_json + "}\n";
  std::error_code ignored;
  std::filesystem::create_directories(options.out_dir, ignored);
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  if (std::FILE* file = std::fopen(path.c_str(), "w")) {
    std::fputs(detail.c_str(), file);
    std::fclose(file);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              json_metrics(options.trace ? report.per_layer : report.end_to_end, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
