// ecad_workerd — distributed evaluation daemon (paper §III: a remote Worker
// serving the Master's co-design population).
//
//   ecad_workerd --port 7001                         # analytic worker
//   ecad_workerd --port 0 --worker accuracy
//                --data-seed 7 --train-epochs 5      # ephemeral port, MLP eval
//
// Prints "LISTENING <port>" on stdout once ready (scripts scrape this to
// learn ephemeral ports), then serves until SIGINT/SIGTERM or a Shutdown
// frame arrives.  ECAD_LOG_LEVEL (or --log-level) controls verbosity.
#include <csignal>
#include <cstdio>
#include <iostream>
#include <thread>

#include "daemon_common.h"
#include "net/fleet_cache.h"
#include "net/worker_server.h"
#include "util/logging.h"
#include "util/snapshot_io.h"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;
void handle_signal(int) { g_stop_requested = 1; }

void print_usage() {
  std::cout <<
      "usage: ecad_workerd [options]\n"
      "  --host H          bind address (default 127.0.0.1)\n"
      "  --port P          TCP port; 0 = ephemeral (default 0)\n"
      "  --threads N       evaluation threads; 0 = hardware concurrency\n"
      "  --worker KIND     analytic | accuracy | hwdb (default analytic)\n"
      "  --cache-bytes N   byte budget for the fleet result cache tier\n"
      "                    (CacheLookup/CacheStore frames); 0 disables the\n"
      "                    tier (default 0)\n"
      "  --cache-only      serve only the cache tier (plus handshake/ping/\n"
      "                    stats); evaluation frames drop the connection\n"
      "  --cache-file PATH persist the fleet cache tier across restarts:\n"
      "                    reload entries at startup (missing/corrupt file =\n"
      "                    start cold) and snapshot them atomically on exit\n"
      "                    (SIGTERM/SIGINT/Shutdown); needs --cache-bytes > 0\n"
      "  --eval-delay-ms N artificial per-evaluation delay (analytic only)\n"
      "  --eval-slow-modulo N   slow-genome injection: genomes whose DSP usage\n"
      "                    divides by N sleep --eval-slow-delay-ms instead\n"
      "                    (analytic only; deterministic per genome)\n"
      "  --eval-slow-delay-ms N delay for injected slow genomes\n"
      "  --data-seed S     synthetic dataset seed (accuracy/hwdb)\n"
      "  --data-samples N  synthetic dataset size (default 600)\n"
      "  --data-features N feature count (default 16)\n"
      "  --data-classes N  class count (default 3)\n"
      "  --train-epochs N  epochs per candidate (default 5)\n"
      "  --eval-seed S     per-genome training seed base (default 42)\n"
      "  --metrics-json PATH  on exit, dump this process's metrics registry as\n"
      "                    BENCH-style JSON (flavor metrics-snapshot); a live\n"
      "                    daemon answers GetStats frames either way (see\n"
      "                    ecad_searchd --stats)\n"
      "  --trace-file PATH write a Chrome trace-event JSON of the batch\n"
      "                    lifecycle (load in Perfetto); ECAD_TRACE=PATH is the\n"
      "                    flagless equivalent\n"
      "  --log-level L     trace|debug|info|warn|error|off\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ecad;
  try {
    const tools::ArgParser args(argc, argv);
    if (args.get_flag("help")) {
      print_usage();
      return 0;
    }
    if (args.has("log-level")) {
      util::set_log_level(util::parse_log_level(args.get("log-level", "info")));
    }

    tools::maybe_open_trace(args);

    const tools::WorkerConfig worker_config = tools::worker_config_from_args(args);
    const tools::WorkerBundle bundle = tools::make_worker(worker_config);

    net::WorkerServerOptions options;
    options.host = args.get("host", "127.0.0.1");
    const long long port = args.get_int("port", 0);
    if (port < 0 || port > 65535) {
      throw std::invalid_argument("--port " + std::to_string(port) +
                                  " out of range (0-65535)");
    }
    options.port = static_cast<std::uint16_t>(port);
    options.threads = static_cast<std::size_t>(args.get_int("threads", 0));
    const long long cache_bytes = args.get_int("cache-bytes", 0);
    if (cache_bytes < 0) {
      throw std::invalid_argument("--cache-bytes " + std::to_string(cache_bytes) +
                                  " must be non-negative");
    }
    options.cache_bytes = static_cast<std::size_t>(cache_bytes);
    options.cache_only = args.get_flag("cache-only");

    const std::string cache_file = args.get("cache-file", "");
    if (!cache_file.empty() && options.cache_bytes == 0) {
      throw std::invalid_argument("--cache-file needs --cache-bytes > 0");
    }

    net::WorkerServer server(*bundle.worker, options);

    // Warm the cache tier before the listener opens so reloaded entries are
    // visible from the very first CacheLookup.  A missing or unusable file
    // means a cold start, never a failed one.
    if (!cache_file.empty()) {
      try {
        const std::size_t loaded = net::load_cache_file(cache_file, server.cache());
        util::Log(util::LogLevel::Info, "workerd")
            << "reloaded " << loaded << " fleet-cache entries from " << cache_file;
      } catch (const util::SnapshotError& e) {
        util::Log(util::LogLevel::Warn, "workerd")
            << "starting with a cold fleet cache: " << e.what();
      }
    }

    server.start();
    util::set_log_identity("workerd:" + std::to_string(server.port()));

    // Stdout handshake for scripts (ephemeral-port discovery).
    std::printf("LISTENING %u\n", static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (server.running() && g_stop_requested == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.stop();
    if (!cache_file.empty()) {
      net::save_cache_file(cache_file, server.cache());
      util::Log(util::LogLevel::Info, "workerd")
          << "snapshotted " << server.cache().entries() << " fleet-cache entries to "
          << cache_file;
    }
    tools::maybe_write_metrics_json(args, "workerd");
    util::trace_close();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ecad_workerd: " << e.what() << '\n';
    return 1;
  }
}
