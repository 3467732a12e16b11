#pragma once

// Shared result type of the steady-state broadcast (SSB) optimum solvers.
//
// Both solvers compute, for a platform under the bidirectional one-port
// model, the optimal MTP throughput TP* of program (2) of the paper and the
// per-arc message loads n_{u,v} at an optimal solution.  TP* is the absolute
// reference all STP heuristics are compared against, and the loads feed the
// LP-based heuristics (Algorithms 6 and 7).

#include <cstddef>
#include <vector>

#include "graph/digraph.hpp"
#include "lp/engine_stats.hpp"

namespace bt {

/// Port model of the steady-state broadcast program.  The paper works under
/// the bidirectional one-port model (a node's send port and receive port
/// serialize independently, so out- and in-occupation each get their own
/// <= 1 row); the unidirectional variant serializes sends and receives
/// through a single port (one combined row per node), which models
/// half-duplex NICs.  All three solvers accept either model and agree on
/// the optimum within it.
enum class PortModel { kBidirectional, kUnidirectional };

/// Quality tier of an answer on the planner's degradation ladder (see
/// ssb/planner_session.hpp).  Every answer the service hands out carries
/// one, so callers can always tell an exact optimum from a degraded stand-in
/// produced under a deadline or after a solver fault.
enum class PlanTier {
  /// The LP optimum from the ordinary warm/cold solve.
  kExact = 0,
  /// The LP optimum, but only after an error rollback dropped the standing
  /// masters and the retry rebuilt them from the cut/column pools.
  kRebuild = 1,
  /// A single LP-load-priced arborescence rated by its port occupation --
  /// a feasible broadcast plan, not an optimum (budget exhausted, or both
  /// LP rungs failed).  quality_gap bounds the loss from above.
  kHeuristic = 2,
};

inline const char* to_string(PlanTier tier) {
  switch (tier) {
    case PlanTier::kExact: return "exact";
    case PlanTier::kRebuild: return "rebuild";
    case PlanTier::kHeuristic: return "heuristic";
  }
  return "?";
}

/// One spanning broadcast tree of a fractional multi-tree packing: the
/// tree's arcs and its rate lambda_T (slices per time-unit routed along it).
struct PackedTree {
  std::vector<EdgeId> edges;  ///< spanning arborescence arcs
  double rate = 0.0;          ///< lambda_T: slices per time-unit along it
};

struct SsbSolution {
  bool solved = false;
  /// Optimal steady-state throughput TP* (slices per time-unit).
  double throughput = 0.0;
  /// n_{u,v}: fractional slices crossing each arc per time-unit at optimum,
  /// indexed by arc id.
  std::vector<double> edge_load;
  /// Weighted tree columns certifying the throughput, when the solver holds
  /// them natively: the column-generation master prices spanning
  /// arborescences, so at optimality its positive-rate columns are an exact
  /// decomposition of edge_load (rates sum to TP*).  The cutting-plane and
  /// direct solvers leave this empty; sched/tree_decomposition.hpp then
  /// reconstructs a decomposition from edge_load instead.
  std::vector<PackedTree> tree_columns;
  /// Where on the degradation ladder this answer was produced.  Batch
  /// solves always report kExact (they fail instead of degrading); the
  /// session/service ladder fills the lower tiers.
  PlanTier tier = PlanTier::kExact;
  /// Relative distance to the optimum, never understated: 0 for the exact
  /// tiers; for kHeuristic, (UB - TP) / UB against an upper bound UB >= TP*
  /// of the current platform -- the lowest value-master TP of the aborted
  /// solve (the master is a relaxation), or, when no separation round
  /// finished, the receive-port bound min over destinations w of
  /// 1 / (w's fastest live in-arc time).
  double quality_gap = 0.0;
  /// Diagnostics.
  std::size_t lp_iterations = 0;
  std::size_t separation_rounds = 0;  ///< cutting-plane solver only
  std::size_t cuts_generated = 0;     ///< cutting-plane solver only
  /// Degenerate-stall escape hatches that keep n >= ~500 platforms
  /// solvable (cutting-plane solver only; both 0 at the sizes the paper
  /// reports).  cold_polish_stalls: times a *cold* polish re-derivation
  /// (value or stable master) stalled through its pivot budget and the
  /// remaining polish flipped to the warm standing masters -- the result
  /// is then warm-polished rather than pool-determined-bitwise.
  /// stable_stalls: times the lexicographic (stable) master stalled cold
  /// with no warm fallback and the solve downgraded to the value master's
  /// loads.
  std::size_t cold_polish_stalls = 0;
  std::size_t stable_stalls = 0;
  /// Wall-clock spent inside master LP solves (excludes separation /
  /// pricing oracles), for the incremental-vs-rebuild ablations.
  double master_wall_ms = 0.0;
  /// Hypersparsity / pricing diagnostics of the master LP engine(s):
  /// FTRAN/BTRAN reach fractions, pivot and refactorization counts, the
  /// pricing mode the masters ran under (see lp/engine_stats.hpp).
  LpEngineStats lp_stats;
  /// Wall-clock of the parallel oracle phases (per-destination max-flow
  /// separation, arborescence pricing) and the pool width they ran at.
  ParallelPhaseStats phase_stats;
};

}  // namespace bt
