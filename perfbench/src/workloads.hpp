#pragma once

// The three planner workloads (see perfbench/README.md for why each exists
// and which layer metrics each one exercises or bypasses):
//
//  * replan_sync   -- closed-loop mutation -> plan -> schedule on a sync
//                     service over the n=120 reference platform, plus
//                     cached reads;
//  * cold_tiers    -- a fresh service per platform of a fixed Tiers corpus
//                     (4 clients), first plan and schedule of source 0;
//  * async_readers -- async re-planning service: 2 closed-loop readers, an
//                     open-loop mutator and a schedule subscriber (runnable,
//                     not in BENCHMARK.json: its figures were not steady).
//
// An untraced run reports the end-to-end metrics.  A traced run replays a
// fixed number of the same seeded requests twice -- through the service,
// then through the layers' public functions wrapped in benchmark-side
// spans -- and reports the per-layer metrics.

#include <cstdint>
#include <string>

#include "bench_util.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (JSON lines); empty: not written.
  std::string trace_path;
};

/// Run one workload.  Throws std::invalid_argument on an unknown workload.
Report run_workload(const RunConfig& config);

}  // namespace perfbench
