#pragma once

// Hypersparsity / pricing diagnostics of the sparse LP engine.
//
// BasisLu fills the factorize/FTRAN/BTRAN counters (calls, elimination
// steps actually visited by the reach-set traversal vs the factor
// dimension, and optional wall-clock when timing collection is on);
// SparseSimplexCore adds pivot and refactorization counts plus the pricing
// mode it ran under.  The struct is
// additive: accumulate() merges the stats of several solves or several
// standing masters, which is how the SSB solvers aggregate their value +
// stable masters into one SsbSolution::lp_stats record for BENCH_lp.json.

#include <cstdint>
#include <string>

namespace bt {

struct LpEngineStats {
  // ---- BasisLu kernels ----
  /// factorize() calls, including ones that found the basis singular.
  std::uint64_t factorize_calls = 0;
  std::uint64_t ftran_calls = 0;
  std::uint64_t btran_calls = 0;
  /// Elimination steps processed across all FTRAN/BTRAN calls.  Under the
  /// reach-set mode this is the Gilbert-Peierls reach (the structural
  /// nonzero closure of the right-hand side); under the full sweep it is the
  /// factor dimension per call.
  std::uint64_t ftran_reach_steps = 0;
  std::uint64_t btran_reach_steps = 0;
  /// Factor dimension summed over calls (the full-sweep step count), i.e.
  /// the denominator of the reach fractions.
  std::uint64_t ftran_dim_steps = 0;
  std::uint64_t btran_dim_steps = 0;
  /// Wall-clock inside the kernels; stays 0 unless timing collection was
  /// requested (SimplexOptions::collect_kernel_timing).
  std::uint64_t ftran_ns = 0;
  std::uint64_t btran_ns = 0;
  std::uint64_t factorize_ns = 0;

  // ---- simplex layer ----
  std::uint64_t primal_pivots = 0;
  std::uint64_t dual_pivots = 0;
  std::uint64_t refactorizations = 0;
  std::uint64_t pricing_weight_resets = 0;  ///< Devex / steepest-edge resets

  // ---- incremental (standing-master) layer ----
  // Model-delta traffic of an IncrementalSimplex over its lifetime: how a
  // standing master was grown and re-ranged between re-solves.  Planner
  // sessions surface these so a service operator can see whether re-plans
  // ride warm deltas (rows/columns appended, rhs updates) or cold rebuilds.
  std::uint64_t rows_appended = 0;
  std::uint64_t columns_appended = 0;
  std::uint64_t rhs_updates = 0;
  /// Pricing configuration the solves ran under ("dantzig", "devex", ...;
  /// set by the owning engine, last writer wins on accumulate).
  std::string pricing_mode;

  /// Mean fraction of the factor dimension actually visited per FTRAN
  /// (1.0 = dense-equivalent work, small = hypersparse).
  double ftran_reach_fraction() const {
    return ftran_dim_steps == 0
               ? 0.0
               : static_cast<double>(ftran_reach_steps) / static_cast<double>(ftran_dim_steps);
  }
  double btran_reach_fraction() const {
    return btran_dim_steps == 0
               ? 0.0
               : static_cast<double>(btran_reach_steps) / static_cast<double>(btran_dim_steps);
  }
  double ftran_ns_per_call() const {
    return ftran_calls == 0 ? 0.0
                            : static_cast<double>(ftran_ns) / static_cast<double>(ftran_calls);
  }
  double btran_ns_per_call() const {
    return btran_calls == 0 ? 0.0
                            : static_cast<double>(btran_ns) / static_cast<double>(btran_calls);
  }
  double factorize_ns_per_call() const {
    return factorize_calls == 0
               ? 0.0
               : static_cast<double>(factorize_ns) / static_cast<double>(factorize_calls);
  }

  void accumulate(const LpEngineStats& other) {
    factorize_calls += other.factorize_calls;
    ftran_calls += other.ftran_calls;
    btran_calls += other.btran_calls;
    ftran_reach_steps += other.ftran_reach_steps;
    btran_reach_steps += other.btran_reach_steps;
    ftran_dim_steps += other.ftran_dim_steps;
    btran_dim_steps += other.btran_dim_steps;
    ftran_ns += other.ftran_ns;
    btran_ns += other.btran_ns;
    factorize_ns += other.factorize_ns;
    primal_pivots += other.primal_pivots;
    dual_pivots += other.dual_pivots;
    refactorizations += other.refactorizations;
    pricing_weight_resets += other.pricing_weight_resets;
    rows_appended += other.rows_appended;
    columns_appended += other.columns_appended;
    rhs_updates += other.rhs_updates;
    if (!other.pricing_mode.empty()) pricing_mode = other.pricing_mode;
  }
};

/// Wall-clock of the solver phases that fan out over the worker pool, next
/// to the serial master time they complement (SsbSolution::master_wall_ms).
/// The SSB solvers fill the phases they own -- the cutting plane its
/// per-destination max-flow separation, the packing solver its arborescence
/// pricing -- and record the pool width they ran at, so BENCH_lp.json's
/// in-solver scaling block can report where the threads actually went.
/// Additive like LpEngineStats: accumulate() merges several solves.
struct ParallelPhaseStats {
  /// Wall-clock inside the parallel separation oracle (all rounds).
  double separation_wall_ms = 0.0;
  /// Wall-clock inside the pricing oracle / column rebuild (all rounds).
  double pricing_wall_ms = 0.0;
  /// Worker threads the oracle pool exposed (1 = serial; max over merges).
  std::size_t oracle_threads = 0;

  void accumulate(const ParallelPhaseStats& other) {
    separation_wall_ms += other.separation_wall_ms;
    pricing_wall_ms += other.pricing_wall_ms;
    if (other.oracle_threads > oracle_threads) oracle_threads = other.oracle_threads;
  }
};

}  // namespace bt
