#pragma once

// Sparse LU factorization of a simplex basis with Forrest-Tomlin updates.
//
// The revised simplex needs two kernels per iteration: FTRAN (solve
// B w = a for the entering column's direction) and BTRAN (solve
// B^T y = c_B for the duals used in pricing).  This module keeps B in
// factored form
//
//     B = P^T L U Q^T,   updated in place as basis columns are replaced
//
// where L/U come from a Markowitz-ordered sparse Gaussian elimination
// (pivots chosen to minimize (row_count-1)*(col_count-1) fill, subject to a
// threshold |a_ij| >= tau * max|column|).  The working matrix is held by
// column with a row index that records each entry's position in its
// column, so an elimination step detaches its pivot-row entry from every
// crossing column in O(1).  A step whose L column is empty (a singleton
// pivot column, e.g. a slack) changes no other value and does nothing
// more; each column caches its max |value| with the number of entries
// reaching it and rescans only when the last of them leaves.  A
// cutting-plane master's basis is mostly slack singletons on cut rows that
// cross the long TP and arc columns, so its refactorization stays linear in
// the basis nonzeros instead of quadratic in the dimension.  Solves walk
// only the stored nonzeros; right-hand sides and results are carried as
// ScatteredVector (dense values + the list of touched positions) so that
// clearing between solves is O(nnz), not O(m).
//
// Two update strategies are available (UpdateMode):
//
//  * Forrest-Tomlin (default): replace the leaving column of U with the
//    spike L^{-1} a, rotate the pivot to the end of the elimination order,
//    and eliminate the leaving row's entries with row operations that are
//    recorded as a short "row eta".  U stays genuinely triangular (in the
//    permuted order), so FTRAN/BTRAN cost stays proportional to the factor
//    fill plus the (small) row-eta file -- it does not grow with one dense
//    eta vector per pivot.  Both the row-wise U and the transposed factors
//    used by the push-style BTRAN are updated in place.
//
//  * Product form: each pivot appends an eta matrix holding the full FTRAN
//    direction, and solves replay the whole file.  Retained for
//    differential testing and benchmarking against Forrest-Tomlin.
//
// Two solve strategies are available (SolveMode):
//
//  * Reach set (default): before each triangular solve, a Gilbert-Peierls
//    flood fill over the static factor dependency structure computes the
//    exact structural closure of the right-hand side's nonzeros; only the
//    reached elimination steps are visited, so a hypersparse solve (unit
//    rho rows, entering columns, rhs deltas) costs O(reach log reach)
//    instead of O(m).  The reached steps are processed in the *same*
//    elimination order the full sweep uses (sorted, not DFS postorder), so
//    both modes perform bit-identical floating-point arithmetic.
//
//  * Full sweep: walk all m elimination steps, skipping zero positions --
//    the pre-hypersparse behavior, retained for differential testing and
//    A/B benchmarking.
//
// The owning solver refactorizes periodically
// (SimplexOptions::refactor_period) or when update() reports a numerically
// unsafe pivot, which restores a fresh L U and empties the update files.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lp/engine_stats.hpp"

namespace bt {

/// Dense-storage sparse vector: `value` has size m, `nonzero` lists the
/// positions that may hold non-zeros (a superset is fine).  Clearing touches
/// only the listed positions.
struct ScatteredVector {
  std::vector<double> value;
  std::vector<std::uint32_t> nonzero;

  void reset(std::size_t m) {
    for (const std::uint32_t i : nonzero) value[i] = 0.0;
    nonzero.clear();
    if (value.size() != m) value.assign(m, 0.0);
  }
  void push(std::uint32_t i, double v) {
    value[i] = v;
    nonzero.push_back(i);
  }
};

/// Read-only view of one sparse basis column: (row, value) pairs.
struct SparseColumnView {
  const std::uint32_t* rows = nullptr;
  const double* vals = nullptr;
  std::size_t nnz = 0;
};

/// LU-factored simplex basis with in-place (Forrest-Tomlin) or product-form
/// eta updates between refactorizations.
///
/// Position space: basis position k holds the k-th basic variable, i.e.
/// column k of B; row space: the constraint rows.  ftran maps a row-space
/// right-hand side to a position-space result, btran the reverse.
class BasisLu {
 public:
  /// Basis-change strategy applied by update() between refactorizations.
  enum class UpdateMode {
    kForrestTomlin,  ///< rotate U in place + short row etas (production)
    kProductForm,    ///< append one full eta per pivot (reference)
  };

  /// Triangular-solve strategy of ftran()/btran().
  enum class SolveMode {
    kReachSet,   ///< Gilbert-Peierls reach traversal (production)
    kFullSweep,  ///< visit all m elimination steps (reference)
  };

  /// Caller-side density class of one solve (reach-set mode only).  kAuto
  /// (bulk solves: basic values, cost BTRANs, entering columns) and
  /// kSparse (unit rho rows, rhs deltas, tau solves) adapt independently:
  /// each class attempts the budgeted reach traversal until a streak of
  /// abandoned floods shows its closures are dense here, then skips the
  /// flood and re-probes periodically.  A right-hand side whose support
  /// already exceeds the budget skips for free without biasing the
  /// streak.  kDense always takes the full sweep.
  enum class SolveHint { kAuto, kSparse, kDense };

  /// Select the update strategy.  Must be called while no updates are
  /// pending (i.e. right after construction or a factorize()).
  void set_update_mode(UpdateMode mode);
  UpdateMode update_mode() const { return mode_; }

  /// Select the solve strategy; both modes compute bit-identical results
  /// (the reach set is processed in full-sweep elimination order), so this
  /// may be switched at any time.
  void set_solve_mode(SolveMode mode);
  SolveMode solve_mode() const { return solve_mode_; }

  /// Collect per-call wall-clock in the stats (counters are always on).
  void set_collect_timing(bool collect) { collect_timing_ = collect; }

  /// Factorize/FTRAN/BTRAN call, reach and (optional) timing counters
  /// accumulated since the last reset_stats(); only the kernel fields are
  /// filled.
  const LpEngineStats& stats() const { return stats_; }
  void reset_stats() { stats_ = LpEngineStats{}; }

  /// Factorize the m x m basis whose k-th column is `columns[k]` (rows
  /// within a column distinct).  Discards any pending updates.  Returns false if the basis is numerically
  /// singular (the previous factorization is then invalid).
  bool factorize(std::size_t m, const std::vector<SparseColumnView>& columns);

  /// Solve B x = a in place: on entry `x` holds a row-space right-hand side,
  /// on exit the position-space solution (nonzero list maintained).
  void ftran(ScatteredVector& x, SolveHint hint = SolveHint::kAuto);

  /// Solve B^T y = c in place: on entry `x` holds a position-space cost
  /// vector, on exit the row-space duals (nonzero list maintained).
  void btran(ScatteredVector& x, SolveHint hint = SolveHint::kAuto);

  /// Update the factorization for a pivot that replaces the basic variable
  /// at position `leave_pos`, where `w` = ftran(entering column).  Returns
  /// false when the update pivot is too small (or, under Forrest-Tomlin,
  /// the elimination is unstable); the factorization is then invalid and
  /// the caller must refactorize with the new basis.
  bool update(std::size_t leave_pos, const ScatteredVector& w);

  /// Number of update() pivots applied since the last factorization.
  std::size_t update_count() const { return updates_; }
  std::size_t dimension() const { return m_; }

  /// Total nonzeros in L + U of the current factors plus the update files
  /// (diagnostic; under product form this grows by one eta per pivot, under
  /// Forrest-Tomlin only by the eliminated row stubs).
  std::size_t factor_nonzeros() const;

 private:
  struct Eta {
    std::uint32_t pivot_pos;
    double pivot_value;                  ///< w[pivot_pos]
    std::vector<std::uint32_t> idx;      ///< other positions with w != 0
    std::vector<double> val;             ///< w at those positions
  };
  /// Forrest-Tomlin row eta: the row operations that eliminated the leaving
  /// row, i.e. z[step] -= sum_i mult[i] * z[src[i]] applied between the L
  /// and U solves (transposed in BTRAN).
  struct RowEta {
    std::uint32_t step;
    std::vector<std::uint32_t> src;
    std::vector<double> mult;
  };

  UpdateMode mode_ = UpdateMode::kForrestTomlin;
  SolveMode solve_mode_ = SolveMode::kReachSet;
  bool collect_timing_ = false;
  LpEngineStats stats_;
  std::size_t m_ = 0;
  std::size_t updates_ = 0;
  // Elimination step k pivoted on (row pivot_row_[k], column pivot_col_[k]).
  std::vector<std::uint32_t> pivot_row_;
  std::vector<std::uint32_t> pivot_col_;
  std::vector<double> diag_;  ///< U diagonal per step
  // L column per step: multipliers at still-active original rows.
  std::vector<std::vector<std::uint32_t>> lrows_;
  std::vector<std::vector<double>> lvals_;
  // U row per step: entries at still-active original columns (excl. diag).
  std::vector<std::vector<std::uint32_t>> ucols_;
  std::vector<std::vector<double>> uvals_;
  std::vector<std::uint32_t> step_of_row_;  ///< inverse of pivot_row_
  std::vector<std::uint32_t> step_of_col_;  ///< inverse of pivot_col_
  // Transposed factors, indexed by step: U by column and L^T by row.  The
  // backward substitutions run push-style over these so that a sparse
  // right-hand side only touches the steps it actually reaches (the forward
  // substitutions already skip zero positions on the row-wise factors).
  std::vector<std::vector<std::uint32_t>> utrans_step_;
  std::vector<std::vector<double>> utrans_val_;
  std::vector<std::vector<std::uint32_t>> ltrans_step_;
  std::vector<std::vector<double>> ltrans_val_;

  // Elimination order of the steps.  A fresh factorization uses the
  // identity; Forrest-Tomlin updates rotate the updated step to the end.
  // U is upper triangular with respect to this order, so the triangular
  // solves iterate order_ instead of the raw step index.
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> order_pos_;  ///< inverse of order_

  std::vector<Eta> etas_;       ///< product-form file (kProductForm)
  std::vector<RowEta> ft_etas_; ///< row-eta file (kForrestTomlin)

  bool forrest_tomlin_update(std::uint32_t leave_pos, const ScatteredVector& w);
  /// factorize() without the call counter and timing.
  bool factorize_basis(std::size_t m, const std::vector<SparseColumnView>& columns);

  /// Deduplicate a nonzero list and drop exact zeros, so callers can treat
  /// it as an exact support set (e.g. for delta updates of xb).
  void compact_nonzeros(ScatteredVector& x);

  // Solve workspaces (sized m_), reused across calls.  Under the reach-set
  // mode `work_` is all-zero between solves (each solve clears exactly the
  // steps it reached); the full sweep overwrites every entry anyway.
  std::vector<double> work_;
  std::vector<char> flag_;
  // Reach-set traversal state: flags + the reached step list (segments per
  // solve phase) and the flood-fill stack.
  std::vector<char> reach_flag_;
  std::vector<std::uint32_t> reach_;
  std::vector<std::uint32_t> reach_stack_;
  // Adaptive solve behavior, per kernel x hint class (0 = kAuto,
  // 1 = kSparse): after kDenseStreakLimit consecutive abandoned floods the
  // flood is skipped, re-probing every kSparseProbePeriod calls.
  std::uint32_t ftran_dense_streak_[2] = {0, 0};
  std::uint32_t btran_dense_streak_[2] = {0, 0};
  std::uint32_t ftran_probe_countdown_[2] = {0, 0};
  std::uint32_t btran_probe_countdown_[2] = {0, 0};

  /// Flood-fill the structural closure of the steps already in
  /// reach_[first..] over the step adjacency `adj` (L rows mapped through
  /// step_of_row_, or the transposed-factor step lists), appending newly
  /// reached steps to reach_.  Returns false -- leaving the partial
  /// closure flagged for the caller to abandon -- as soon as the list
  /// grows past `budget`.
  template <typename Adjacency>
  bool extend_reach(std::size_t first, std::size_t budget, const Adjacency& adj);

  /// Unflag and drop the current reach list (abandoned traversal).
  void abandon_reach();
  /// Reach budget for this factor dimension (kReachBudgetFraction * m).
  std::size_t reach_budget() const;

  void ftran_dispatch(ScatteredVector& x, SolveHint hint);
  void btran_dispatch(ScatteredVector& x, SolveHint hint);
  // Triangular solves without the product-form eta pass (the dispatchers
  // own it); the reach variants run the budgeted structural closure first
  // and return false -- with no numeric state touched -- when it exceeds
  // the budget, upon which the dispatcher falls back to the full sweep.
  void ftran_full(ScatteredVector& x);
  void btran_full(ScatteredVector& x);
  bool ftran_reach(ScatteredVector& x);
  bool btran_reach(ScatteredVector& x);
  // Forrest-Tomlin update workspaces (sized m_).
  std::vector<double> spike_;
  std::vector<char> spike_flag_;
  std::vector<std::uint32_t> spike_nz_;
  std::vector<double> elim_;
  std::vector<char> elim_flag_;
  std::vector<std::uint32_t> elim_heap_;

  // Factorization workspace, reused across refactorizations so a periodic
  // refactor costs no per-column allocations (the inner vectors keep their
  // capacity between calls).
  struct FactorWorkspace {
    // Active submatrix by column; cslot[j][t] is the slot of entry
    // (crows[j][t], j) in row_cols[crows[j][t]].
    std::vector<std::vector<std::uint32_t>> crows;
    std::vector<std::vector<double>> cvals;
    std::vector<std::vector<std::uint32_t>> cslot;
    // Row occupancy: row_cols[i][s] is a column holding row i (stale once
    // that column is pivoted) and row_pos[i][s] the entry's position in it.
    std::vector<std::vector<std::uint32_t>> row_cols;
    std::vector<std::vector<std::uint32_t>> row_pos;
    std::vector<std::uint32_t> row_count;
    // Per column: max |value| and the number of entries reaching it.
    std::vector<double> colmax;
    std::vector<std::uint32_t> colmax_count;
    std::vector<char> row_active, col_active;
    std::vector<std::int64_t> epos;
    std::vector<std::size_t> bucket_head, bnext, bprev, bkey;
  };
  FactorWorkspace fw_;
};

}  // namespace bt
