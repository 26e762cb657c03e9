// The loopback evaluation fleet of fleet_cold and service_warm: two
// in-process WorkerServer daemons serving tools::AnalyticWorker with one
// evaluation thread each and the fleet cache tier on, and the masters'
// RemoteWorker clients with the cache client on (the ecad_searchd
// --workers default).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "daemon_common.h"
#include "net/remote_worker.h"
#include "net/worker_server.h"
#include "probes.h"

namespace searchbench {

class Fleet {
 public:
  /// `trace_evals`: wrap the daemons' worker in an EvalSpanWorker so traced
  /// searches record worker.eval spans on the daemon threads.
  explicit Fleet(bool trace_evals);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::vector<ecad::net::Endpoint> endpoints() const;
  /// Entries each daemon's cache tier holds.
  std::vector<std::size_t> cache_entries() const;

 private:
  ecad::tools::AnalyticWorker analytic_;
  std::unique_ptr<EvalSpanWorker> eval_spans_;
  std::vector<std::unique_ptr<ecad::net::WorkerServer>> servers_;
};

/// Eval-config identity of the analytic worker.  `eval_seed` only names a
/// cache namespace: the analytic worker's results do not depend on it.
std::string analytic_cache_config(std::uint64_t eval_seed);

/// A master's client of `fleet` with the fleet cache client on, its pooled
/// connections opened and handshaken by dispatching small batches until the
/// pool stops growing (outside any timed window).
std::unique_ptr<ecad::net::RemoteWorker> connect_master(const Fleet& fleet,
                                                        const std::string& cache_config);

/// Time the public wire codecs on a search's own traffic: for every batch
/// of 8 candidates, the EvalBatchRequest, its EvalItemResult frames, the
/// CacheLookup and the CacheStore.  Microseconds per evaluation.
struct CodecTimes {
  double encode_us_per_eval = 0.0;
  double decode_us_per_eval = 0.0;
  std::size_t evaluations = 0;
};
CodecTimes time_codecs(const std::vector<ecad::evo::Candidate>& history,
                       const std::string& cache_config);

}  // namespace searchbench
