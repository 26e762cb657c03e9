// The three workloads.  Each runs its timed phase for Options::seconds,
// checks every output against the determinism contract, and fills a Report;
// with Options::trace it instead alternates untraced and traced searches of
// the same inputs and reports the per-layer figures.
#pragma once

#include "harness.h"

namespace searchbench {

Report run_codesign_har(const Options& options);
Report run_fleet_cold(const Options& options);
Report run_service_warm(const Options& options);

}  // namespace searchbench
