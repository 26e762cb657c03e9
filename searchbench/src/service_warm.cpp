// service_warm: three closed-loop SearchClients against an in-process
// SearchServer + SearchScheduler (default settings: 2 concurrent searches,
// 2 dispatch slots) over the fleet_cold fleet.  Set-up submits a fixed set
// of searches once to fill the fleet cache; the timed phase resubmits them,
// so every lookup hits and nothing is dispatched.
#include <algorithm>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "core/master.h"
#include "core/search_scheduler.h"
#include "fleet.h"
#include "hwmodel/device.h"
#include "layers.h"
#include "net/search_client.h"
#include "net/search_server.h"
#include "probes.h"
#include "spans.h"
#include "workloads.h"

namespace searchbench {

using namespace ecad;

namespace {

constexpr std::size_t kClients = 3;

struct Service {
  explicit Service(bool trace) : fleet(trace) {
    remote = connect_master(fleet, analytic_cache_config(1));
    const core::Worker* worker = remote.get();
    if (trace) {
      probe = std::make_unique<ProbeWorker>(*remote, /*local_fanout=*/false);
      worker = probe.get();
    }
    scheduler = std::make_unique<core::SearchScheduler>(*worker);
    server = std::make_unique<net::SearchServer>(*scheduler);
    server->start();
    for (std::size_t c = 0; c < kClients; ++c) {
      net::SearchClientOptions options;
      options.port = server->port();
      clients.push_back(std::make_unique<net::SearchClient>(options));
      clients.back()->connect();
    }
  }
  ~Service() {
    for (auto& client : clients) client->close();
    server->stop();
  }

  Fleet fleet;
  std::unique_ptr<net::RemoteWorker> remote;
  std::unique_ptr<ProbeWorker> probe;
  std::unique_ptr<core::SearchScheduler> scheduler;
  std::unique_ptr<net::SearchServer> server;
  std::vector<std::unique_ptr<net::SearchClient>> clients;
};

// What one client observed over its searches.
struct ClientLog {
  std::vector<double> search_ms;
  std::vector<Clock::time_point> finished_at;  // per completed search
  std::vector<double> models;                  // per completed search
  std::vector<double> queue_ms;     // SearchAccepted -> first SearchProgress
  std::vector<double> gap_ms;       // between SearchProgress frames
  std::vector<double> done_ms;      // last SearchProgress -> SearchDone decoded
  std::vector<double> record_kb;
  double evaluations = 0.0;
  double generations = 0.0;  // SearchProgress frames
  std::uint64_t attempted = 0;
  std::vector<std::pair<std::string, std::uint64_t>> failures;
};

// One closed-loop search: submit, stream to SearchDone, check the record.
void run_search(net::SearchClient& client, const core::SearchRequest& request,
                const evo::EvolutionResult& reference, bool trace, ClientLog& log) {
  const std::uint64_t budget = request.evolution.max_evaluations;
  log.attempted += budget;
  try {
    const Clock::time_point submitted = Clock::now();
    const std::uint64_t id = client.submit(request);
    const Clock::time_point accepted = Clock::now();
    std::vector<Clock::time_point> progress_at;
    std::vector<std::uint64_t> models_at;
    const net::SearchDone done = client.stream(id, [&](const net::SearchProgress& progress) {
      progress_at.push_back(Clock::now());
      models_at.push_back(progress.models_evaluated);
    });
    const Clock::time_point finished = Clock::now();
    if (done.status != net::SearchDone::Status::Completed) {
      log.failures.emplace_back("search " + std::to_string(id) + " ended " +
                                    (done.status == net::SearchDone::Status::Canceled ? "Canceled"
                                                                                      : "Failed") +
                                    ": " + done.message,
                                budget);
      return;
    }
    const std::string mismatch = record_mismatch(view_of(done.record), view_of(reference));
    if (!mismatch.empty()) {
      log.failures.emplace_back("search " + std::to_string(id) + " (seed " +
                                    std::to_string(request.seed) +
                                    ") differs from the standalone record: " + mismatch,
                                budget);
      return;
    }
    log.search_ms.push_back(seconds_between(submitted, finished) * 1e3);
    log.finished_at.push_back(finished);
    log.models.push_back(static_cast<double>(done.record.models_evaluated));
    log.evaluations += static_cast<double>(done.record.models_evaluated);
    log.generations += static_cast<double>(progress_at.size());
    if (!trace || progress_at.empty()) return;

    log.queue_ms.push_back(seconds_between(accepted, progress_at.front()) * 1e3);
    for (std::size_t g = 1; g < progress_at.size(); ++g) {
      log.gap_ms.push_back(seconds_between(progress_at[g - 1], progress_at[g]) * 1e3);
    }
    log.done_ms.push_back(seconds_between(progress_at.back(), finished) * 1e3);
    net::WireWriter writer;
    net::write_search_done(writer, done);
    log.record_kb.push_back(static_cast<double>(writer.bytes().size()) / 1024.0);

    // Client-side spans: the search, its admission (accepted -> progress 0,
    // which holds the initial population's pipeline), one generation per
    // later progress frame, and the done tail.  Each carries the keys its
    // candidates were evaluated under, so the scheduler runners' pipeline
    // spans can be joined to them.
    const auto keys_between = [&](std::uint64_t from, std::uint64_t to) {
      std::vector<std::uint64_t> keys;
      for (std::uint64_t k = from; k < to && k < done.record.history.size(); ++k) {
        keys.push_back(key_hash(done.record.history[k].genome));
      }
      return keys;
    };
    Span search;
    search.name = "search";
    search.id = tracer().new_id();
    search.search = id;
    search.start = submitted;
    search.end = finished;
    for (std::size_t g = 0; g < progress_at.size(); ++g) {
      Span span;
      span.name = g == 0 ? "admission" : "generation";
      span.id = tracer().new_id();
      span.parent = search.id;
      span.search = id;
      span.generation = g;
      span.start = g == 0 ? accepted : progress_at[g - 1];
      span.end = progress_at[g];
      span.batch_keys = keys_between(g == 0 ? 0 : models_at[g - 1], models_at[g]);
      tracer().record(std::move(span));
    }
    Span tail;
    tail.name = "done";
    tail.id = tracer().new_id();
    tail.parent = search.id;
    tail.search = id;
    tail.start = progress_at.back();
    tail.end = finished;
    tracer().record(std::move(tail));
    tracer().record(std::move(search));
  } catch (const std::exception& e) {
    log.failures.emplace_back(std::string("search failed: ") + e.what(), budget);
  }
}

template <typename Fn>
void on_clients(Fn&& fn) {
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) threads.emplace_back([&fn, c] { fn(c); });
  for (std::thread& thread : threads) thread.join();
}

}  // namespace

Report run_service_warm(const Options& options) {
  Report report;
  const std::size_t budget = options.tiny ? 100 : 1000;
  const std::size_t set_size = options.tiny ? kClients : 4 * kClients;

  // The fixed search set and each search's standalone record.  Client c
  // owns searches c, c + 3, ... so no two in-flight searches share a seed.
  const core::Master master;
  tools::AnalyticWorker bare;
  std::vector<core::SearchRequest> requests;
  std::vector<evo::EvolutionResult> references;
  std::set<std::uint64_t> distinct_keys;
  for (std::size_t j = 0; j < set_size; ++j) {
    requests.push_back(search_request(derive_seed(options.seed, 3, j), budget));
    references.push_back(master.search(bare, requests.back()));
    for (const evo::Candidate& candidate : references.back().history) {
      distinct_keys.insert(key_hash(candidate.genome));
    }
  }
  if (options.sabotage) sabotage(references.front());

  const auto merge = [&report](ClientLog& log) {
    report.attempted += log.attempted;
    for (const auto& [what, count] : log.failures) report.fail(what, count);
    log.failures.clear();
    log.attempted = 0;
  };

  // Set up three times: fleet, service and clients up, then the
  // cache-filling pass (its records are checked too), until both daemons
  // hold every distinct candidate.
  EndToEnd figures;
  std::unique_ptr<Service> service;
  for (int k = 0; k < 3; ++k) {
    service.reset();
    const Clock::time_point start = Clock::now();
    service = std::make_unique<Service>(options.trace);
    std::vector<ClientLog> fill(kClients);
    on_clients([&](std::size_t c) {
      for (std::size_t j = c; j < set_size; j += kClients) {
        run_search(*service->clients[c], requests[j], references[j], false, fill[c]);
      }
    });
    for (ClientLog& log : fill) merge(log);
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
    for (;;) {
      const std::vector<std::size_t> entries = service->fleet.cache_entries();
      if (std::all_of(entries.begin(), entries.end(),
                      [&](std::size_t n) { return n >= distinct_keys.size(); })) {
        break;
      }
      if (Clock::now() > give_up) {
        report.fail("cache-filling pass left a daemon short of " +
                        std::to_string(distinct_keys.size()) + " entries",
                    1);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    figures.setup_seconds.push_back(seconds_between(start, Clock::now()));
  }

  const MachineSample machine_before = sample_machine();
  std::vector<ClientLog> plain_logs(kClients);
  std::vector<ClientLog> traced_logs(kClients);
  WindowTotals plain;
  WindowTotals traced;
  if (!options.trace) {
    // Closed loop: each client submits its next search as soon as the
    // previous one is done, until the deadline.  The phase is cut into
    // slices of kSliceSeconds; each slice is one round of the figures.
    constexpr double kSliceSeconds = 3.0;
    plain.begin();
    const Clock::time_point start = Clock::now();
    const auto at = [start](double seconds) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
    };
    const Clock::time_point deadline = at(options.seconds);
    std::thread load([&] {
      on_clients([&](std::size_t c) {
        for (std::size_t j = c; Clock::now() < deadline || j == c; j += kClients) {
          const std::size_t which = j % set_size;
          run_search(*service->clients[c], requests[which], references[which], false,
                     plain_logs[c]);
        }
      });
    });
    std::vector<Clock::time_point> marks = {start};
    std::vector<double> cpu_marks = {sample_process().cpu_seconds};
    for (int k = 1; k * kSliceSeconds <= options.seconds + 1e-9; ++k) {
      std::this_thread::sleep_until(at(k * kSliceSeconds));
      marks.push_back(Clock::now());
      cpu_marks.push_back(sample_process().cpu_seconds);
    }
    load.join();
    plain.end();
    for (std::size_t k = 1; k < marks.size(); ++k) {
      Round round;
      round.wall_seconds = seconds_between(marks[k - 1], marks[k]);
      round.cpu_seconds = cpu_marks[k] - cpu_marks[k - 1];
      for (const ClientLog& log : plain_logs) {
        for (std::size_t i = 0; i < log.finished_at.size(); ++i) {
          if (log.finished_at[i] < marks[k - 1] || log.finished_at[i] >= marks[k]) continue;
          round.evaluations += log.models[i];
          round.latency_ms.push_back(log.search_ms[i]);
        }
      }
      figures.rounds.push_back(std::move(round));
    }
    figures.by_round = figures.rounds.size() > 1;
  } else {
    // Alternate untraced and traced blocks; in a block every client runs
    // its share of the set once.
    for (std::size_t block = 0;
         block < 2 || plain.wall_seconds() + traced.wall_seconds() < options.seconds; ++block) {
      const bool trace = block % 2 == 1;
      WindowTotals& window = trace ? traced : plain;
      std::vector<ClientLog>& logs = trace ? traced_logs : plain_logs;
      tracer().set_enabled(trace);
      window.begin();
      on_clients([&](std::size_t c) {
        for (std::size_t j = c; j < set_size; j += kClients) {
          run_search(*service->clients[c], requests[j], references[j], trace, logs[c]);
        }
      });
      window.end();
      tracer().set_enabled(false);
    }
  }
  const MachineSample machine_after = sample_machine();

  ClientLog plain_all;
  ClientLog traced_all;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (auto* pair : {&plain_logs[c], &traced_logs[c]}) merge(*pair);
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    for (auto [to, from] : {std::pair{&plain_all, &plain_logs[c]}, {&traced_all, &traced_logs[c]}}) {
      append(to->search_ms, from->search_ms);
      append(to->queue_ms, from->queue_ms);
      append(to->gap_ms, from->gap_ms);
      append(to->done_ms, from->done_ms);
      append(to->record_kb, from->record_kb);
      to->evaluations += from->evaluations;
      to->generations += from->generations;
    }
  }

  if (figures.rounds.empty()) {
    figures.rounds.push_back(
        Round{plain_all.evaluations, plain.wall_seconds(), plain.cpu_seconds(), plain_all.search_ms});
  }
  figures.latency_note = "search_ms: submit -> SearchDone, admission queueing included";
  add_end_to_end(report, figures);
  add_machine_diagnostics(report, machine_before, machine_after);
  report.extra.push_back({"count.tcp_connects_per_gen",
                          plain_all.generations > 0
                              ? static_cast<double>(plain.tcp_active_opens()) / plain_all.generations
                              : 0.0,
                          "count", static_cast<std::size_t>(plain_all.generations),
                          "ActiveOpens delta over the untraced phase / SearchProgress frames"});
  report.extra.push_back({"count.fleet_cache_hits", plain.counter("net.fleet_cache_hits_total"),
                          "count", 0, "untraced phase"});
  report.extra.push_back({"count.fleet_cache_misses", plain.counter("net.fleet_cache_misses_total"),
                          "count", 0, "untraced phase"});
  if (!options.trace) return report;

  service->probe->flush();
  TracedRun run;
  run.spans = tracer().take();
  const std::size_t unjoined = join_by_key(run.spans, "pipeline", {"admission", "generation"});
  if (unjoined > 0) {
    report.extra.push_back({"spans.unjoined_pipeline", static_cast<double>(unjoined), "count", 0,
                            "runner-side pipelines with no client generation holding their key"});
  }
  run.window = traced;
  run.evaluations = traced_all.evaluations;
  run.generations = traced_all.generations;
  run.untraced_evals_per_s = plain_all.evaluations / plain.wall_seconds();
  run.pool_idle_share = 1.0;  // every evaluation is served from the cache
  std::size_t infeasible = 0;
  std::size_t candidates = 0;
  for (const evo::EvolutionResult& reference : references) {
    for (const evo::Candidate& candidate : reference.history) {
      ++candidates;
      if (!candidate.genome.grid.fits(hw::arria10_gx1150())) ++infeasible;
    }
  }
  run.infeasible_ratio = candidates > 0 ? static_cast<double>(infeasible) / candidates : 0.0;

  const std::vector<double> lookup_ms = durations_ms(run.spans, "cache.lookup");
  const std::vector<std::uint64_t> gate = traced.buckets("scheduler.gate_wait_seconds");
  report.extra.push_back({"scheduler.gate_wait_ms_p90", util::quantile_from_buckets(gate, 0.9) * 1e3,
                          "ms", static_cast<std::size_t>(traced.counter("scheduler.gate_wait_seconds")),
                          "registry histogram scheduler.gate_wait_seconds (log2 buckets)"});
  report.extra.push_back({"scheduler.queue_ms_p50", quantile(traced_all.queue_ms, 0.5), "ms",
                          traced_all.queue_ms.size(), "SearchAccepted -> first SearchProgress"});
  report.extra.push_back({"net.cache_lookup_ms_p50", quantile(lookup_ms, 0.5), "ms",
                          lookup_ms.size(), "FleetEvalCache::fleet_lookup (all hits)"});
  report.extra.push_back({"service.progress_gap_ms_p50", quantile(traced_all.gap_ms, 0.5), "ms",
                          traced_all.gap_ms.size(), "between SearchProgress frames"});
  report.extra.push_back({"service.done_ms_p50", quantile(traced_all.done_ms, 0.5), "ms",
                          traced_all.done_ms.size(), "last SearchProgress -> SearchDone decoded"});
  report.extra.push_back({"service.record_kb", median(traced_all.record_kb), "KB",
                          traced_all.record_kb.size(), "write_search_done size of the record"});
  add_per_layer(report, run, options.out_dir + "/service_warm.spans.jsonl");
  return report;
}

}  // namespace searchbench
