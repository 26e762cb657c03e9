// ecad_searchd — search driver for the distributed evaluation service
// (paper §III-A: the Master distributing the co-design population).
//
// Three modes:
//
//   ecad_searchd --seed 3 --evaluations 48                  # one-shot, in-process
//   ecad_searchd --workers 127.0.0.1:7001,127.0.0.1:7002
//                --seed 3 --evaluations 48                  # one-shot, sharded
//
//   ecad_searchd --serve --port 7100 --workers ...          # resident daemon:
//     accepts SubmitSearch frames, runs several searches
//     concurrently over the shared worker fleet with fair-share batch
//     interleaving, streams per-generation progress, drains on SIGTERM.
//
//   ecad_searchd --submit 127.0.0.1:7100 --seed 3 ...       # thin client:
//     ships the search to a resident daemon, logs streamed progress to
//     stderr, prints the final record to stdout.
//
// Stdout is a deterministic record of the search (candidate keys + all
// non-timing result fields at full double precision), so runs with the same
// seed — local, distributed, or submitted to a daemon — must produce
// byte-identical output.  The CI loopback and service smoke jobs diff
// exactly that.  Timing and progress go to stderr via the logger.
#include <csignal>
#include <cstdio>
#include <iostream>
#include <thread>

#include "core/checkpoint.h"
#include "core/master.h"
#include "core/search_scheduler.h"
#include "daemon_common.h"
#include "net/fleet_cache.h"
#include "net/remote_worker.h"
#include "net/search_client.h"
#include "net/search_server.h"
#include "util/logging.h"
#include "util/snapshot_io.h"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;
void handle_signal(int) { g_stop_requested = 1; }

void print_usage() {
  std::cout <<
      "usage: ecad_searchd [options]\n"
      "modes (default: run one search in this process)\n"
      "  --serve           resident search daemon: accept SubmitSearch frames\n"
      "  --submit HOST:PORT  ship this search to a resident daemon\n"
      "  --stop-server     with --submit: just ask the daemon to drain and exit\n"
      "  --stats LIST      query each daemon's metrics registry over the wire\n"
      "                    (GetStats frames; works against workerd and\n"
      "                    searchd daemons alike)\n"
      "search options\n"
      "  --workers LIST    comma-separated host:port endpoints; empty = evaluate locally\n"
      "  --fallback-local  degrade to in-process evaluation if no daemon is reachable\n"
      "  --ping            just probe --workers and print the live count\n"
      "  --shutdown-workers  after the search (or alone), ask daemons to exit\n"
      "  --seed N          search seed (default 1)\n"
      "  --population N    population size (default 8)\n"
      "  --evaluations N   unique-candidate budget (default 32)\n"
      "  --batch N         offspring per steady-state step (default 4)\n"
      "  --fitness NAME    fitness registry entry (default accuracy)\n"
      "  --threads N       Master dispatch threads (default 2)\n"
      "  --no-hw-search    freeze the hardware half of the genome\n"
      "  --overlap         overlapped evolution: breed the next batch while the\n"
      "                    previous one is still in flight (deterministic, but a\n"
      "                    different trajectory than the default sequential mode)\n"
      "  --inflight N      in-flight batches the overlapped mode pipelines (default 2)\n"
      "  --request-timeout-ms N   per-evaluation network deadline (default 120000)\n"
      "  --no-fleet-cache  never consult or publish to the workers' fleet\n"
      "                    result cache tier (CacheLookup/CacheStore frames)\n"
      "  --heartbeat-ms N  background ping period for sidelined endpoints\n"
      "                    (default 250; 0 disables heartbeats)\n"
      "  --worker/--data-*/--train-epochs/--eval-seed   local worker spec\n"
      "                    (must match the daemons' flags for bit-exact results)\n"
      "serve options\n"
      "  --host H          bind address (default 127.0.0.1)\n"
      "  --port P          TCP port; 0 = ephemeral, printed as LISTENING <port>\n"
      "  --max-searches N  searches running concurrently (default 2)\n"
      "  --dispatch-slots N  evaluation batches in flight across all searches\n"
      "                    (default 2; fair-share interleaving decides whose)\n"
      "submit options\n"
      "  --cancel-after-progress N  send CancelSearch after N progress frames\n"
      "  --frame-timeout-ms N  per-frame receive budget while streaming\n"
      "                    (default 120000)\n"
      "crash-safety options\n"
      "  --checkpoint-dir D  persist per-search engine snapshots (and, with\n"
      "                    --serve, a submission journal) under D; a killed\n"
      "                    process restarted with --resume continues each\n"
      "                    unfinished search bit-identically\n"
      "  --checkpoint-every N  persist every Nth generation boundary\n"
      "                    (default 1; boundary 0 always persists)\n"
      "  --resume          continue from --checkpoint-dir: one-shot mode loads\n"
      "                    the persisted search and prints its record; --serve\n"
      "                    re-admits every unfinished search (journal order,\n"
      "                    sorted by id) and writes each finished record to\n"
      "                    D/search_<id>.record\n"
      "observability options\n"
      "  --stats-prefix P  with --stats: only metrics whose name starts with P\n"
      "  --metrics-json PATH  on exit, dump this process's metrics registry as\n"
      "                    BENCH-style JSON (flavor metrics-snapshot)\n"
      "  --trace-file PATH write a Chrome trace-event JSON of the batch\n"
      "                    lifecycle (load in Perfetto); ECAD_TRACE=PATH is the\n"
      "                    flagless equivalent\n"
      "  --log-level L     trace|debug|info|warn|error|off\n";
}

ecad::core::SearchRequest search_request_from_args(const ecad::tools::ArgParser& args) {
  ecad::core::SearchRequest request;
  request.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  request.evolution.population_size = static_cast<std::size_t>(args.get_int("population", 8));
  request.evolution.max_evaluations = static_cast<std::size_t>(args.get_int("evaluations", 32));
  // Fixed batch size: with the default (0 = pool width) the search
  // trajectory would depend on the local core count, breaking cross-run
  // comparability.
  request.evolution.batch_size = static_cast<std::size_t>(args.get_int("batch", 4));
  request.fitness = args.get("fitness", "accuracy");
  request.threads = static_cast<std::size_t>(args.get_int("threads", 2));
  request.space.search_hardware = !args.get_flag("no-hw-search");
  request.evolution.overlap_generations = args.get_flag("overlap");
  request.evolution.max_inflight_batches = static_cast<std::size_t>(args.get_int("inflight", 2));
  return request;
}

ecad::core::CheckpointOptions checkpoint_options_from_args(const ecad::tools::ArgParser& args) {
  ecad::core::CheckpointOptions checkpoint;
  checkpoint.dir = args.get("checkpoint-dir", "");
  const long long every = args.get_int("checkpoint-every", 1);
  if (every < 1) {
    throw std::invalid_argument("--checkpoint-every " + std::to_string(every) +
                                " must be >= 1");
  }
  checkpoint.every = static_cast<std::size_t>(every);
  if (args.get_flag("resume") && !checkpoint.enabled()) {
    throw std::invalid_argument("--resume needs --checkpoint-dir");
  }
  return checkpoint;
}

/// The fleet-cache identity of this process's worker spec: the
/// determinism-contract fields, never the delay-injection knobs (those
/// change timings, not results).  Every master sharing a fleet derives the
/// same string from the same spec flags, so their cache keys agree.
std::string cache_config_from(const ecad::tools::WorkerConfig& config) {
  ecad::net::EvalConfigId id;
  id.worker_kind = config.kind;
  id.data_seed = config.data_seed;
  id.data_samples = config.data_samples;
  id.data_features = config.data_features;
  id.data_classes = config.data_classes;
  id.train_epochs = config.train_epochs;
  id.eval_seed = config.eval_seed;
  return id.to_string();
}

/// Evaluation backend from flags: a RemoteWorker fleet when --workers is
/// given, the local bundle worker otherwise.  The returned pointer borrows
/// from `bundle`/`remote`.
const ecad::core::Worker* make_backend(const ecad::tools::ArgParser& args,
                                       const ecad::tools::WorkerConfig& worker_config,
                                       const ecad::tools::WorkerBundle& bundle,
                                       const std::vector<ecad::net::Endpoint>& endpoints,
                                       std::unique_ptr<ecad::net::RemoteWorker>& remote) {
  using namespace ecad;
  if (endpoints.empty()) return bundle.worker.get();
  net::RemoteWorkerOptions options;
  options.endpoints = endpoints;
  options.request_timeout_ms = static_cast<int>(args.get_int("request-timeout-ms", 120000));
  options.heartbeat_interval_ms = static_cast<int>(args.get_int("heartbeat-ms", 250));
  options.cache_config = cache_config_from(worker_config);
  options.fleet_cache = !args.get_flag("no-fleet-cache");
  if (args.get_flag("fallback-local")) options.fallback = bundle.worker.get();
  remote = std::make_unique<net::RemoteWorker>(std::move(options));
  return remote.get();
}

int run_serve(const ecad::tools::ArgParser& args) {
  using namespace ecad;
  const tools::WorkerConfig worker_config = tools::worker_config_from_args(args);
  const tools::WorkerBundle bundle = tools::make_worker(worker_config);
  const std::vector<net::Endpoint> endpoints = net::parse_endpoint_list(args.get("workers", ""));
  std::unique_ptr<net::RemoteWorker> remote;
  const core::Worker* worker = make_backend(args, worker_config, bundle, endpoints, remote);

  core::SearchSchedulerOptions scheduler_options;
  scheduler_options.max_concurrent_searches =
      static_cast<std::size_t>(args.get_int("max-searches", 2));
  scheduler_options.dispatch_slots = static_cast<std::size_t>(args.get_int("dispatch-slots", 2));
  scheduler_options.checkpoint = checkpoint_options_from_args(args);
  core::SearchScheduler scheduler(*worker, scheduler_options);

  // Re-admit unfinished searches from a previous incarnation before the
  // listener opens, so resumed work precedes any new submissions.  Resumed
  // searches have no client connection left to stream to; their records land
  // in <checkpoint-dir>/search_<id>.record instead (atomically, so a poller
  // never reads a torn record).
  if (args.get_flag("resume")) {
    const std::string checkpoint_dir = scheduler_options.checkpoint.dir;
    const std::vector<core::ResumableSearch> resumables =
        core::scan_checkpoint_dir(checkpoint_dir);
    for (const core::ResumableSearch& resumable : resumables) {
      scheduler.resume_submit(
          resumable,
          [](const core::SearchProgressInfo& progress) {
            util::Log(util::LogLevel::Info, "searchd")
                << "resumed search " << progress.search_id << " generation "
                << progress.generation << ": " << progress.models_evaluated << "/"
                << progress.max_evaluations << " evaluated";
          },
          [checkpoint_dir](const core::SearchOutcome& outcome) {
            if (outcome.state != core::SearchState::Completed) {
              util::Log(util::LogLevel::Warn, "searchd")
                  << "resumed search " << outcome.search_id << " ended "
                  << core::to_string(outcome.state) << ": " << outcome.message;
              return;
            }
            const std::string record = tools::format_search_record(
                outcome.result.history, outcome.result.best,
                outcome.result.stats.models_evaluated, outcome.result.stats.duplicates_skipped);
            const std::string path =
                checkpoint_dir + "/search_" + std::to_string(outcome.search_id) + ".record";
            util::write_file_atomic(
                path, std::vector<std::uint8_t>(record.begin(), record.end()));
            util::Log(util::LogLevel::Info, "searchd")
                << "resumed search " << outcome.search_id << " record written to " << path;
          });
    }
    util::Log(util::LogLevel::Info, "searchd")
        << "re-admitted " << resumables.size() << " unfinished search(es) from "
        << checkpoint_dir;
  }

  net::SearchServerOptions server_options;
  server_options.host = args.get("host", "127.0.0.1");
  const long long port = args.get_int("port", 0);
  if (port < 0 || port > 65535) {
    throw std::invalid_argument("--port " + std::to_string(port) + " out of range (0-65535)");
  }
  server_options.port = static_cast<std::uint16_t>(port);

  net::SearchServer server(scheduler, server_options);
  server.start();
  util::set_log_identity("searchd:" + std::to_string(server.port()));

  // Stdout handshake for scripts (ephemeral-port discovery).
  std::printf("LISTENING %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (server.running() && g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Graceful drain: running searches finish their in-flight generations and
  // send SearchDone before the sockets close.
  server.stop();
  util::Log(util::LogLevel::Info, "searchd")
      << "service summary: accepted=" << server.searches_accepted()
      << " completed=" << server.searches_completed()
      << " canceled=" << server.searches_canceled() << " failed=" << server.searches_failed();
  if (remote && args.get_flag("shutdown-workers")) remote->shutdown_all();
  tools::maybe_write_metrics_json(args, "searchd");
  util::trace_close();
  return 0;
}

int run_stats(const ecad::tools::ArgParser& args) {
  using namespace ecad;
  const std::vector<net::Endpoint> endpoints = net::parse_endpoint_list(args.get("stats", ""));
  if (endpoints.empty()) {
    throw std::invalid_argument("--stats needs HOST:PORT[,HOST:PORT...]");
  }
  const std::string prefix = args.get("stats-prefix", "");
  const int timeout_ms = static_cast<int>(args.get_int("request-timeout-ms", 5000));
  for (const net::Endpoint& endpoint : endpoints) {
    tools::print_stats_report(endpoint.to_string(),
                              net::fetch_stats(endpoint.host, endpoint.port, prefix, timeout_ms));
  }
  return 0;
}

int run_submit(const ecad::tools::ArgParser& args) {
  using namespace ecad;
  const net::Endpoint endpoint = net::parse_endpoint(args.get("submit", ""));
  net::SearchClientOptions options;
  options.host = endpoint.host;
  options.port = endpoint.port;
  options.frame_timeout_ms = static_cast<int>(args.get_int("frame-timeout-ms", 120000));
  net::SearchClient client(options);
  client.connect();

  if (args.get_flag("stop-server")) {
    client.shutdown_server();
    util::Log(util::LogLevel::Info, "searchd") << "shutdown sent to " << endpoint.to_string();
    return 0;
  }

  const core::SearchRequest request = search_request_from_args(args);
  const std::uint64_t search_id = client.submit(request);
  util::Log(util::LogLevel::Info, "searchd")
      << "search " << search_id << " accepted by " << endpoint.to_string();

  const long long cancel_after = args.get_int("cancel-after-progress", -1);
  std::size_t progress_frames = 0;
  bool cancel_sent = false;
  const net::SearchDone done =
      client.stream(search_id, [&](const net::SearchProgress& progress) {
        ++progress_frames;
        util::Log(util::LogLevel::Info, "searchd")
            << "search " << progress.search_id << " generation " << progress.generation << ": "
            << progress.models_evaluated << "/" << progress.max_evaluations
            << " evaluated, pareto front " << progress.pareto_front_size << ", best fitness "
            << progress.best_fitness;
        if (cancel_after >= 0 && !cancel_sent &&
            progress_frames >= static_cast<std::size_t>(cancel_after)) {
          client.cancel(progress.search_id);
          cancel_sent = true;
          util::Log(util::LogLevel::Info, "searchd")
              << "cancel sent after " << progress_frames << " progress frames";
        }
      });

  switch (done.status) {
    case net::SearchDone::Status::Completed:
      tools::print_search_record(done.record.history, done.record.best,
                                 static_cast<std::size_t>(done.record.models_evaluated),
                                 static_cast<std::size_t>(done.record.duplicates_skipped));
      util::Log(util::LogLevel::Info, "searchd")
          << "submitted search finished after " << progress_frames << " progress frames";
      tools::maybe_write_metrics_json(args, "searchd");
      return 0;
    case net::SearchDone::Status::Canceled:
      util::Log(util::LogLevel::Warn, "searchd") << "search canceled: " << done.message;
      return 3;
    case net::SearchDone::Status::Failed:
      break;
  }
  throw std::runtime_error("search failed: " + done.message);
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
    util::set_log_identity("searchd");
    tools::maybe_open_trace(args);

    if (args.get_flag("serve")) return run_serve(args);
    if (args.has("submit")) return run_submit(args);
    if (args.has("stats")) return run_stats(args);

    const std::vector<net::Endpoint> endpoints =
        net::parse_endpoint_list(args.get("workers", ""));

    if (args.get_flag("ping")) {
      net::RemoteWorkerOptions options;
      options.endpoints = endpoints;
      const net::RemoteWorker remote(options);
      std::printf("ALIVE %zu/%zu\n", remote.ping_all(), endpoints.size());
      return 0;
    }

    const tools::WorkerConfig worker_config = tools::worker_config_from_args(args);
    const tools::WorkerBundle bundle = tools::make_worker(worker_config);
    const core::SearchRequest request = search_request_from_args(args);
    const core::CheckpointOptions checkpoint = checkpoint_options_from_args(args);

    std::unique_ptr<net::RemoteWorker> remote;
    const core::Worker* worker = make_backend(args, worker_config, bundle, endpoints, remote);

    core::Master master;
    evo::EvolutionResult result;
    if (args.get_flag("resume")) {
      // The request (seed, budget, space) comes from the checkpoint itself;
      // only the worker spec flags must match the original invocation.
      result = master.resume_search(*worker, checkpoint);
    } else if (checkpoint.enabled()) {
      result = master.search(*worker, request, checkpoint);
    } else {
      result = master.search(*worker, request);
    }

    tools::print_search_record(result.history, result.best, result.stats.models_evaluated,
                               result.stats.duplicates_skipped);

    util::Log(util::LogLevel::Info, "searchd")
        << "search finished in " << result.stats.wall_seconds << "s ("
        << (remote ? "remote: " + std::to_string(remote->remote_evaluations()) + " remote in " +
                         std::to_string(remote->batches_dispatched()) + " batch frames, " +
                         std::to_string(remote->streamed_items()) + " streamed item frames (" +
                         std::to_string(remote->out_of_order_items()) + " out-of-order), " +
                         std::to_string(remote->fallback_evaluations()) + " fallback, " +
                         std::to_string(remote->heartbeat_rejoins()) + " heartbeat rejoins"
                   : std::string("local evaluation"))
        << ")";

    if (remote && args.get_flag("shutdown-workers")) remote->shutdown_all();
    tools::maybe_write_metrics_json(args, "searchd");
    util::trace_close();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ecad_searchd: " << e.what() << '\n';
    return 1;
  }
}
