#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "lp/basis_lu.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace bt {

std::string to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

std::string to_string(PricingRule rule) {
  switch (rule) {
    case PricingRule::kDantzig: return "dantzig";
    case PricingRule::kDevex: return "devex";
  }
  return "unknown";
}

std::string to_string(DualRowRule rule) {
  switch (rule) {
    case DualRowRule::kMostInfeasible: return "most-infeasible";
    case DualRowRule::kDevex: return "dual-devex";
    case DualRowRule::kSteepestEdge: return "steepest-edge";
  }
  return "unknown";
}

namespace detail {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Candidate-list (partial) pricing: a pricing pass stops collecting after
/// this many violating columns and enters the best of them, resuming the
/// cyclic scan where it left off on the next iteration.  Optimality is only
/// declared after a full scan finds no violating column.
constexpr std::size_t kPricingWindow = 64;

/// Devex reference weights above this trigger a framework reset (weights
/// back to 1): growth of the max-form recurrence signals the reference
/// frame has drifted too far to steer pricing usefully.
constexpr double kDevexResetThreshold = 1e7;

/// Floor of the Forrest-Goldfarb dual steepest-edge recurrence: the exact
/// update can go non-positive under rounding, so weights are clamped here.
constexpr double kDseWeightFloor = 1e-4;

/// Sparse column: (row index, value) pairs.
struct SparseCol {
  std::vector<std::uint32_t> rows;
  std::vector<double> vals;

  void push(std::uint32_t row, double value) {
    if (value == 0.0) return;
    rows.push_back(row);
    vals.push_back(value);
  }
  std::size_t nnz() const { return rows.size(); }
};

/// Append-only compressed-sparse-column arena: all columns live in two
/// contiguous arrays, so the pricing scan streams through memory instead of
/// chasing one heap allocation per column.
struct ColumnStore {
  std::vector<std::uint32_t> rows;
  std::vector<double> vals;
  std::vector<std::size_t> start{0};  ///< per-column offsets; size = ncols+1

  std::size_t num_cols() const { return start.size() - 1; }
  std::size_t nnz(std::size_t j) const { return start[j + 1] - start[j]; }
  const std::uint32_t* col_rows(std::size_t j) const { return rows.data() + start[j]; }
  const double* col_vals(std::size_t j) const { return vals.data() + start[j]; }

  /// Append an entry to the column under construction (zeros are dropped).
  void push(std::uint32_t row, double value) {
    if (value == 0.0) return;
    rows.push_back(row);
    vals.push_back(value);
  }
  /// Seal the column under construction and start the next one.
  void end_column() { start.push_back(rows.size()); }
};

/// Role of an internal column in the standard form.
enum class ColKind : unsigned char { kStructural, kSlack, kSurplus, kArtificial };

// ---------------------------------------------------------------------------
// Sparse engine: LU-factored basis (basis_lu.hpp) with product-form eta
// updates between periodic refactorizations, candidate-list pricing, and an
// append-column path for incremental (column-generation) use.
//
// Internal standard form: minimize c.z subject to A z = b, z >= 0.  Rows
// whose right-hand side starts non-negative with a +1 slack begin basic;
// only >= and = rows require phase-1 artificials.
// ---------------------------------------------------------------------------
class SparseSimplexCore {
 public:
  SparseSimplexCore(const LpProblem& problem, const SimplexOptions& options)
      : options_(options) {
    lu_.set_update_mode(options.update_mode);
    lu_.set_solve_mode(options.solve_mode);
    lu_.set_collect_timing(options.collect_kernel_timing);
    stats_.pricing_mode =
        to_string(options.pricing) + "/" + to_string(options.dual_row_rule) + "/" +
        (options.solve_mode == BasisLu::SolveMode::kReachSet ? "reach" : "sweep");
    build(problem);
  }

  std::size_t num_structural() const { return num_structural_; }
  std::size_t num_rows_total() const { return num_rows_ + pending_rows_.size(); }

  /// Engine-lifetime diagnostics: simplex-layer counters plus the LU
  /// kernel's reach/timing counters.
  LpEngineStats engine_stats() const {
    LpEngineStats s = stats_;
    s.accumulate(lu_.stats());
    return s;
  }

  /// Basis-label extraction only serves cross-solve warm starts; a standing
  /// IncrementalSimplex keeps its basis in place and can skip it.
  void set_emit_basis_labels(bool emit) { emit_basis_labels_ = emit; }

  /// Sum `terms` into the rhs_work_ scratch (dimension `size`, indices
  /// bound-checked).  The nonzero list may carry duplicates when a
  /// coefficient passes through exactly zero mid-accumulation; consumers
  /// must either read densely or clear slots as they emit.
  ScatteredVector& accumulate_terms(const std::vector<LpTerm>& terms, std::size_t size,
                                    const char* bound_message) {
    ScatteredVector& acc = rhs_work_;
    acc.reset(size);
    for (const LpTerm& t : terms) {
      BT_REQUIRE(t.var < size, bound_message);
      if (acc.value[t.var] == 0.0 && t.coeff != 0.0) {
        acc.nonzero.push_back(static_cast<std::uint32_t>(t.var));
      }
      acc.value[t.var] += t.coeff;
    }
    return acc;
  }

  /// Append a structural column; the standing basis/factorization stay
  /// valid (the new column enters non-basic at zero).
  std::size_t add_column(double objective_coeff, const std::vector<LpTerm>& terms) {
    BT_REQUIRE(!rows_dropped_,
               "IncrementalSimplex::add_column: a redundant row was dropped; "
               "appended columns can no longer be aligned with the rows");
    merge_pending_rows();
    {
      ScatteredVector& acc = accumulate_terms(
          terms, num_rows_, "IncrementalSimplex::add_column: row index out of range");
      const std::size_t j = cols_.num_cols();
      for (std::size_t i = 0; i < num_rows_; ++i) {
        if (acc.value[i] != 0.0) {
          const double v = row_flip_[i] * acc.value[i];
          cols_.push(static_cast<std::uint32_t>(i), v);
          if (v != 0.0) row_entries_[i].push_back({j, v});
        }
      }
      cols_.end_column();
      acc.reset(num_rows_);
    }
    const double sense = maximize_ ? -1.0 : 1.0;
    kind_.push_back(ColKind::kStructural);
    structural_id_.push_back(num_structural_);
    orig_obj_.push_back(objective_coeff);
    cost_.push_back(sense * objective_coeff);
    phase1_cost_.push_back(0.0);
    col_of_structural_.push_back(cols_.num_cols() - 1);
    ++stats_.columns_appended;
    return num_structural_++;
  }

  bool is_basic(std::size_t var) const {
    BT_REQUIRE(var < num_structural_, "IncrementalSimplex::is_basic: variable out of range");
    return std::find(basis_.begin(), basis_.end(), col_of_structural_[var]) != basis_.end();
  }

  /// Overwrite a non-basic structural column's objective and existing
  /// coefficients in place.  The variable sits at zero, so the basis, its
  /// factorization and the primal point stay valid; only its reduced cost
  /// moves, which the next solve prices like an appended column's.
  void update_nonbasic_column(std::size_t var, double objective_coeff,
                              const std::vector<LpTerm>& terms) {
    BT_REQUIRE(!is_basic(var), "IncrementalSimplex::update_nonbasic_column: variable is basic");
    const std::size_t j = col_of_structural_[var];
    std::uint32_t* rows = cols_.rows.data() + cols_.start[j];
    double* vals = cols_.vals.data() + cols_.start[j];
    for (const LpTerm& t : terms) {
      std::uint32_t* entry = std::find(rows, rows + cols_.nnz(j), t.var);
      BT_REQUIRE(entry != rows + cols_.nnz(j) && t.coeff != 0.0,
                 "IncrementalSimplex::update_nonbasic_column: coefficient outside the "
                 "column's nonzero pattern");
      const double v = row_flip_[t.var] * t.coeff;
      vals[entry - rows] = v;
      for (LpTerm& mirror : row_entries_[t.var]) {
        if (mirror.var == j) mirror.coeff = v;
      }
    }
    orig_obj_[var] = objective_coeff;
    cost_[j] = (maximize_ ? -1.0 : 1.0) * objective_coeff;
    if (j < devex_w_.size()) devex_w_[j] = 1.0;  // re-enters the framework like an appended column
  }

  /// Buffer a <= or >= row over the structural variables; rows are merged
  /// into the model lazily at the next solve / reoptimize / add_column.
  /// Returns the new row's external index.
  std::size_t append_row(const std::vector<LpTerm>& terms, RowSense sense, double rhs) {
    BT_REQUIRE(!rows_dropped_,
               "IncrementalSimplex::append_row: a redundant row was dropped; "
               "appended rows can no longer be aligned with the duals");
    BT_REQUIRE(sense != RowSense::kEqual,
               "IncrementalSimplex::append_row: equality rows are not supported; "
               "append the two inequalities instead");
    PendingRow row;
    row.rhs = rhs;
    row.sense = sense;
    // Sum duplicate variable entries, mirroring add_constraint semantics;
    // emission clears each slot so duplicate nonzero entries are no-ops.
    ScatteredVector& acc = accumulate_terms(
        terms, num_structural_, "IncrementalSimplex::append_row: variable index out of range");
    for (const std::uint32_t v : acc.nonzero) {
      if (acc.value[v] != 0.0) row.terms.push_back({v, acc.value[v]});
      acc.value[v] = 0.0;
    }
    acc.nonzero.clear();
    pending_rows_.push_back(std::move(row));
    ++stats_.rows_appended;
    return num_rows_ + pending_rows_.size() - 1;
  }

  /// Change the right-hand side of an existing row.  Reduced costs are
  /// untouched, so a dual-feasible basis stays dual feasible; only the
  /// basic values move (recomputed here), which reoptimize_dual repairs.
  void set_row_rhs(std::size_t row, double rhs) {
    merge_pending_rows();
    BT_REQUIRE(!rows_dropped_,
               "IncrementalSimplex::set_row_rhs: a redundant row was dropped");
    BT_REQUIRE(row < num_rows_, "IncrementalSimplex::set_row_rhs: row out of range");
    const double internal = row_flip_[row] * rhs;
    // Before the first solve, rows without a slack carry a basic artificial
    // whose phase-1 treatment assumes b >= 0; a sign-changing rhs there
    // would silently corrupt phase 1 (solve first -- the dual repair then
    // handles any sign).  Slack rows are safe pre-solve: the dual phase
    // runs for them right after phase 1.
    BT_REQUIRE(phase1_done_ || internal >= 0.0 || slack_col_of_row_[row] != kNpos,
               "IncrementalSimplex::set_row_rhs: cannot turn this row's internal rhs "
               "negative before the first solve");
    const double delta = internal - b_[row];
    b_[row] = internal;
    ++stats_.rhs_updates;
    if (delta == 0.0) return;
    // Sparse delta: xb += delta * B^{-1} e_row -- one hypersparse unit FTRAN
    // instead of re-solving B xb = b from scratch.  The standing cutting
    // plane re-ranges one rhs every separation round, so this is a hot path.
    rhs_work_.reset(num_rows_);
    rhs_work_.push(static_cast<std::uint32_t>(row), delta);
    lu_.ftran(rhs_work_, BasisLu::SolveHint::kSparse);
    for (const std::uint32_t i : rhs_work_.nonzero) xb_[i] += rhs_work_.value[i];
  }

  /// Full two-phase solve on the first call; re-optimization from the
  /// standing basis on subsequent calls (a dual phase first when appended
  /// rows left the standing point primal infeasible).
  LpSolution solve() { return optimize(); }

  /// Dual-first re-optimization after append_row / set_row_rhs (see
  /// header).  Equivalent to solve(); the name documents intent.
  LpSolution reoptimize_dual() { return optimize(); }

 private:
  LpSolution optimize() {
    merge_pending_rows();
    LpSolution solution;
    // A phase that aborts on numerical breakdown (reverted-pivot bans, an
    // unrepairable drifted basis) gets ONE full retry from the pristine
    // unit start basis -- trading the warm start for survival; 190+-node
    // cutting-plane masters genuinely hit this.  A genuine iteration-limit
    // exhaustion (no breakdown observed) is returned as-is: retrying would
    // silently double the caller's requested budget.
    for (int attempt = 0;; ++attempt) {
      numerical_breakdown_ = false;
      solution.status = run_phases(solution);
      if (solution.status != LpStatus::kIterationLimit || !numerical_breakdown_ ||
          attempt > 0 || !reset_to_initial_basis()) {
        break;
      }
    }
    if (solution.status == LpStatus::kOptimal) extract_solution(solution);
    return solution;
  }

  LpStatus run_phases(LpSolution& solution) {
    // phase1_done_ is only latched on success: a re-solve after an
    // infeasible (or iteration-limited) phase 1 runs phase 1 again from the
    // current basis rather than silently optimizing with artificials basic.
    if (!phase1_done_) {
      if (num_artificials_ > 0) {
        active_cost_ = &phase1_cost_;
        allow_artificial_entering_ = true;
        const LpStatus st = iterate(&solution.iterations);
        // Phase 1 is bounded below by 0, so anything else is a limit.
        if (st != LpStatus::kOptimal) return LpStatus::kIterationLimit;
        if (phase_objective() > 1e-7) return LpStatus::kInfeasible;
        purge_artificials();
      }
      phase1_done_ = true;
    }
    if (primal_infeasible()) {
      // Appended rows / changed rhs broke primal feasibility; the dual
      // simplex restores it from the standing basis (dual feasible when
      // the previous solve ended optimal; mild dual infeasibility is
      // tolerated -- reduced costs are clamped in the ratio test and the
      // primal cleanup below restores optimality).  This also covers
      // set_row_rhs turning a right-hand side negative *before* the first
      // solve, which phase 1 cannot see (the row's slack is basic, not an
      // artificial).
      active_cost_ = &cost_;
      allow_artificial_entering_ = false;
      const LpStatus st = dual_iterate(&solution.iterations);
      if (st != LpStatus::kOptimal) return st;
    }
    active_cost_ = &cost_;
    allow_artificial_entering_ = false;
    return iterate(&solution.iterations);
  }

  void extract_solution(LpSolution& solution) {
    // Structural primal values and the objective in the caller's sense.
    solution.x.assign(num_structural_, 0.0);
    for (std::size_t r = 0; r < num_rows_; ++r) {
      const std::size_t j = basis_[r];
      if (kind_[j] == ColKind::kStructural) {
        solution.x[structural_id_[j]] = std::max(0.0, xb_[r]);
      }
    }
    solution.objective = 0.0;
    for (std::size_t i = 0; i < num_structural_; ++i) {
      solution.objective += orig_obj_[i] * solution.x[i];
    }

    // Duals: y = c_B^T B^{-1}, mapped back through row flips / objective
    // sense (rows dropped as redundant keep dual 0).
    btran_costs(y_work_);
    solution.duals.assign(num_orig_rows_, 0.0);
    for (std::size_t i = 0; i < num_rows_; ++i) {
      double v = row_flip_[i] * y_work_.value[i];
      if (maximize_) v = -v;
      solution.duals[row_origin_[i]] = v;
    }

    // Basis labels for warm starts (only when every basic variable has a
    // stable label and no rows were dropped).
    if (emit_basis_labels_ && num_rows_ == num_orig_rows_) {
      solution.basis.resize(num_rows_);
      bool labelable = true;
      for (std::size_t r = 0; r < num_rows_ && labelable; ++r) {
        const std::size_t j = basis_[r];
        if (kind_[j] == ColKind::kStructural) {
          solution.basis[r] = structural_id_[j];
        } else if (kind_[j] == ColKind::kSlack) {
          const std::size_t row = cols_.col_rows(j)[0];
          solution.basis[r] = kSlackLabelBase - row;
        } else {
          labelable = false;  // surplus or artificial stuck in the basis
        }
      }
      if (!labelable) solution.basis.clear();
    }
  }

  // ---------- model construction ----------
  void build(const LpProblem& problem) {
    maximize_ = problem.objective() == Objective::kMaximize;
    const std::size_t m = problem.num_constraints();
    num_orig_rows_ = m;
    num_structural_ = problem.num_variables();
    num_rows_ = m;
    row_flip_.assign(m, 1.0);
    row_origin_.resize(m);
    b_.resize(m);

    kind_.assign(num_structural_, ColKind::kStructural);
    structural_id_.resize(num_structural_);
    col_of_structural_.resize(num_structural_);
    orig_obj_.resize(num_structural_);
    cost_.assign(num_structural_, 0.0);
    const double sense = maximize_ ? -1.0 : 1.0;
    for (std::size_t j = 0; j < num_structural_; ++j) {
      structural_id_[j] = j;
      col_of_structural_[j] = j;  // structural columns come first at build
      orig_obj_[j] = problem.objective_coeff(j);
      cost_[j] = sense * orig_obj_[j];
    }
    std::vector<RowSense> senses(m);
    for (std::size_t i = 0; i < m; ++i) {
      row_origin_[i] = i;
      const auto& row = problem.row(i);
      double flip = 1.0;
      RowSense s = row.sense;
      if (row.rhs < 0.0) {
        flip = -1.0;
        if (s == RowSense::kLessEqual) s = RowSense::kGreaterEqual;
        else if (s == RowSense::kGreaterEqual) s = RowSense::kLessEqual;
      }
      row_flip_[i] = flip;
      b_[i] = flip * row.rhs;
      senses[i] = s;
    }
    // Structural columns, transposed from the row-wise LpProblem into the
    // contiguous column arena (count, prefix-sum, fill).
    {
      std::vector<std::size_t> count(num_structural_, 0);
      for (std::size_t i = 0; i < m; ++i) {
        for (const LpTerm& t : problem.row(i).terms) {
          if (t.coeff != 0.0) ++count[t.var];
        }
      }
      cols_.start.assign(num_structural_ + 1, 0);
      for (std::size_t j = 0; j < num_structural_; ++j) {
        cols_.start[j + 1] = cols_.start[j] + count[j];
      }
      const std::size_t total = cols_.start[num_structural_];
      cols_.rows.assign(total, 0);
      cols_.vals.assign(total, 0.0);
      std::vector<std::size_t> cursor(cols_.start.begin(), cols_.start.end() - 1);
      for (std::size_t i = 0; i < m; ++i) {
        for (const LpTerm& t : problem.row(i).terms) {
          if (t.coeff == 0.0) continue;
          cols_.rows[cursor[t.var]] = static_cast<std::uint32_t>(i);
          cols_.vals[cursor[t.var]] = row_flip_[i] * t.coeff;
          ++cursor[t.var];
        }
      }
    }

    // Slack / surplus columns, then artificials.
    basis_.assign(m, kNpos);
    slack_col_of_row_.assign(m, kNpos);
    for (std::size_t i = 0; i < m; ++i) {
      if (senses[i] == RowSense::kLessEqual) {
        const std::size_t j = add_unit_column(i, +1.0, ColKind::kSlack);
        slack_col_of_row_[i] = j;
        basis_[i] = j;  // slack starts basic (b >= 0)
      } else if (senses[i] == RowSense::kGreaterEqual) {
        add_unit_column(i, -1.0, ColKind::kSurplus);  // cannot start basic
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (basis_[i] == kNpos) {
        basis_[i] = add_unit_column(i, +1.0, ColKind::kArtificial);
        ++num_artificials_;
      }
    }
    initial_basis_col_ = basis_;  // the unit (slack/artificial) start basis
    phase1_cost_.assign(cols_.num_cols(), 0.0);
    for (std::size_t j = 0; j < cols_.num_cols(); ++j) {
      if (kind_[j] == ColKind::kArtificial) phase1_cost_[j] = 1.0;
    }

    rebuild_row_entries();

    // try_warm_start() leaves an accepted warm basis already factorized;
    // only the slack basis (or a rejected warm start) still needs one.
    if (num_artificials_ > 0 || !try_warm_start()) {
      BT_ASSERT(try_refactor(), "simplex: singular basis during refactor [build]");
    }
  }

  /// Replace the default slack basis with the caller-provided labels when
  /// they decode to a primal-feasible basis of this problem.  Returns true
  /// when the warm basis was adopted (and is then already factorized).
  bool try_warm_start() {
    const std::vector<std::size_t>* warm = options_.warm_basis;
    if (warm == nullptr || warm->size() != num_rows_) return false;
    std::vector<std::size_t> candidate(num_rows_);
    std::vector<char> used(cols_.num_cols(), 0);
    for (std::size_t r = 0; r < num_rows_; ++r) {
      std::size_t col;
      const std::size_t label = (*warm)[r];
      if (label < num_structural_) {
        col = label;  // structural columns come first at build time
      } else if (kSlackLabelBase - label < num_rows_) {
        col = slack_col_of_row_[kSlackLabelBase - label];
        if (col == kNpos) return false;  // row has no slack
      } else {
        return false;  // undecodable label
      }
      if (used[col]) return false;  // duplicate basic variable
      used[col] = 1;
      candidate[r] = col;
    }
    const std::vector<std::size_t> saved = basis_;
    basis_ = candidate;
    try {
      refactor();
    } catch (const Error&) {
      basis_ = saved;  // singular warm basis: fall back to the slack basis
      return false;
    }
    for (double v : xb_) {
      if (v < -1e-7) {  // warm basis not primal feasible here
        basis_ = saved;
        return false;
      }
    }
    return true;
  }

  std::size_t add_unit_column(std::size_t row, double value, ColKind kind) {
    cols_.push(static_cast<std::uint32_t>(row), value);
    cols_.end_column();
    kind_.push_back(kind);
    structural_id_.push_back(kNpos);
    cost_.push_back(0.0);
    return cols_.num_cols() - 1;
  }

  // ---------- linear algebra (all through the LU factorization) ----------
  /// Refactorize the current basis; returns false (factorization invalid)
  /// when it is numerically singular, which pivot() uses to revert a basis
  /// change gone bad instead of dying.
  bool try_refactor() {
    const std::size_t m = num_rows_;
    std::vector<SparseColumnView> views(m);
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t j = basis_[r];
      views[r] = SparseColumnView{cols_.col_rows(j), cols_.col_vals(j), cols_.nnz(j)};
    }
    if (!lu_.factorize(m, views)) return false;
    recompute_xb();
    ++stats_.refactorizations;
    // Pricing weights attach to the *basis*, which a refactorization does
    // not change, so the reference frameworks survive it; the safeguard
    // against drift is the per-pivot exact anchor of the dual weights
    // (update_dual_weights) and the overflow / Bland-exit resets of the
    // primal ones.
    return true;
  }

  void refactor() {
    BT_ASSERT(try_refactor(), "simplex: singular basis during refactor");
  }

  /// Last-resort recovery for a numerically singular standing basis: fall
  /// back to the all-slack basis, which is an identity and always
  /// factorizes.  Only possible when every row carries a slack (pure-<=
  /// models -- all the SSB masters); the solve then continues cold from
  /// the slack basis, trading the warm start for survival.  Returns false
  /// for models without full slack cover.
  bool reset_to_slack_basis() {
    for (std::size_t i = 0; i < num_rows_; ++i) {
      if (slack_col_of_row_[i] == kNpos) return false;
    }
    for (std::size_t i = 0; i < num_rows_; ++i) basis_[i] = slack_col_of_row_[i];
    BT_ASSERT(try_refactor(), "simplex: singular basis during refactor [slack-reset]");
    primal_weight_reset_pending_ = true;
    dual_weight_reset_pending_ = true;
    return true;
  }

  /// Ensure some valid factorized basis exists: the current one, else the
  /// all-slack fallback.  `basis_reset` tells the caller to rebuild its
  /// phase-local state; false means nothing factorizes (mixed-sense model
  /// whose drifted basis cannot be repaired) and the phase must abort.
  bool ensure_factorizable_basis(bool& basis_reset) {
    if (try_refactor()) return true;
    basis_reset = true;
    return reset_to_slack_basis();
  }

  /// Full cold restart from the pristine unit start basis (slacks +
  /// artificials as built): the optimize() retry after a phase aborted on
  /// numerical breakdown.  Re-arms phase 1 when artificials come back
  /// basic, so the whole two-phase method reruns from scratch.
  bool reset_to_initial_basis() {
    if (initial_basis_col_.size() != num_rows_) return false;  // rows dropped
    bool artificial_basic = false;
    for (std::size_t i = 0; i < num_rows_; ++i) {
      basis_[i] = initial_basis_col_[i];
      if (kind_[basis_[i]] == ColKind::kArtificial) artificial_basic = true;
    }
    if (artificial_basic) phase1_done_ = false;
    if (!try_refactor()) return false;  // unit basis: cannot happen
    primal_weight_reset_pending_ = true;
    dual_weight_reset_pending_ = true;
    return true;
  }

  /// Rebuild the row-wise mirror of the column arena (internal column id,
  /// internal coefficient, in column order per row).  The mirror lets the
  /// dual ratio test and the Devex pivot-row pass accumulate rho^T A over
  /// only the rows a hypersparse rho touches instead of one dot product per
  /// column.
  void rebuild_row_entries() {
    row_entries_.assign(num_rows_, {});
    for (std::size_t j = 0; j < cols_.num_cols(); ++j) {
      const std::uint32_t* rows = cols_.col_rows(j);
      const double* vals = cols_.col_vals(j);
      for (std::size_t k = 0; k < cols_.nnz(j); ++k) {
        row_entries_[rows[k]].push_back({j, vals[k]});
      }
    }
  }

  /// Scatter the pivot row alpha = rho^T A (rho in rho_work_) over the
  /// internal columns into alpha_work_.  The nonzero list may carry
  /// duplicates when an entry cancels through zero; consumers read each
  /// slot once and clear it.
  void accumulate_pivot_row() {
    alpha_work_.reset(cols_.num_cols());
    for (const std::uint32_t i : rho_work_.nonzero) {
      const double r = rho_work_.value[i];
      if (r == 0.0) continue;
      for (const LpTerm& t : row_entries_[i]) {
        if (alpha_work_.value[t.var] == 0.0) {
          alpha_work_.nonzero.push_back(static_cast<std::uint32_t>(t.var));
        }
        alpha_work_.value[t.var] += r * t.coeff;
      }
    }
  }

  void reset_primal_weights(std::size_t n) {
    devex_w_.assign(n, 1.0);
    primal_weight_reset_pending_ = false;
    ++stats_.pricing_weight_resets;
  }

  /// Carry the standing Devex framework across re-solves: appended columns
  /// enter at the reference weight 1, everything else keeps its weight
  /// (the framework attaches to the basis trajectory, not to one solve).
  void ensure_primal_weights(std::size_t n) {
    if (primal_weight_reset_pending_ || devex_w_.empty()) reset_primal_weights(n);
    else if (devex_w_.size() < n) devex_w_.resize(n, 1.0);
  }

  void reset_dual_weights() {
    dual_w_.assign(num_rows_, 1.0);
    dual_weight_reset_pending_ = false;
    ++stats_.pricing_weight_resets;
  }

  /// Devex (max-form) primal weight update for the pivot (entering,
  /// leave_row): one hypersparse unit BTRAN recovers the pivot row, one
  /// row-mirror pass updates the weights of the nonbasic columns it
  /// touches.  Must run before pivot() swaps the basis.
  void update_primal_weights(std::size_t entering, std::size_t leave_row) {
    rho_work_.reset(num_rows_);
    rho_work_.push(static_cast<std::uint32_t>(leave_row), 1.0);
    lu_.btran(rho_work_, BasisLu::SolveHint::kSparse);
    const double alpha_q = w_work_.value[leave_row];
    if (alpha_q == 0.0) return;
    accumulate_pivot_row();
    alpha_cols_.clear();
    alpha_vals_.clear();
    for (const std::uint32_t j : alpha_work_.nonzero) {
      const double alpha = alpha_work_.value[j];
      alpha_work_.value[j] = 0.0;
      if (alpha == 0.0) continue;
      alpha_cols_.push_back(j);
      alpha_vals_.push_back(alpha);
    }
    alpha_work_.nonzero.clear();
    apply_devex_update(entering, leave_row, alpha_q);
  }

  /// Devex max-form recurrence over the cached pivot row
  /// (alpha_cols_/alpha_vals_): nonbasic weights lift to
  /// (alpha_j/alpha_q)^2 * w_q, the leaving variable re-enters the
  /// framework at max(w_q/alpha_q^2, 1).  Shared by the primal pivots
  /// (which compute the pivot row for exactly this) and the dual pivots
  /// (where the ratio test already computed it) -- maintaining the primal
  /// framework through dual phases keeps it valid across the
  /// dual-then-primal re-optimizations of the standing masters.
  void apply_devex_update(std::size_t entering, std::size_t leave_row, double alpha_q) {
    const double wq = std::max(devex_w_[entering], 1.0);
    double max_w = 0.0;
    for (std::size_t t = 0; t < alpha_cols_.size(); ++t) {
      const std::uint32_t j = alpha_cols_[t];
      if (in_basis_[j] || j == entering) continue;
      const double ratio = alpha_vals_[t] / alpha_q;
      const double candidate = ratio * ratio * wq;
      if (candidate > devex_w_[j]) devex_w_[j] = candidate;
      max_w = std::max(max_w, devex_w_[j]);
    }
    devex_w_[basis_[leave_row]] = std::max(wq / (alpha_q * alpha_q), 1.0);
    max_w = std::max(max_w, devex_w_[basis_[leave_row]]);
    if (max_w > kDevexResetThreshold) primal_weight_reset_pending_ = true;
  }

  /// Dual row-weight update for the pivot on `leave_row` with FTRAN
  /// direction w_work_ (pivot element `wr`).  Steepest edge runs the exact
  /// Forrest-Goldfarb recurrence (one extra hypersparse FTRAN for tau =
  /// B^{-1} rho); Devex runs the max-form recurrence.  Both anchor the
  /// leaving row's weight at its exact value ||rho||^2, which is free here
  /// -- the ratio test already BTRAN'd rho -- and double as the drift
  /// safeguard: a stored weight far off the exact one restarts the frame.
  void update_dual_weights(std::size_t leave_row, double wr) {
    double gamma_exact = 0.0;
    for (const std::uint32_t i : rho_work_.nonzero) {
      gamma_exact += rho_work_.value[i] * rho_work_.value[i];
    }
    const double stored = dual_w_[leave_row];
    if (stored > 16.0 * gamma_exact || gamma_exact > 16.0 * stored) {
      dual_weight_reset_pending_ = true;
    }
    if (options_.dual_row_rule == DualRowRule::kSteepestEdge) {
      tau_work_.reset(num_rows_);
      for (const std::uint32_t i : rho_work_.nonzero) {
        if (rho_work_.value[i] != 0.0) tau_work_.push(i, rho_work_.value[i]);
      }
      lu_.ftran(tau_work_, BasisLu::SolveHint::kSparse);
      for (const std::uint32_t r : w_work_.nonzero) {
        if (r == leave_row) continue;
        const double ratio = w_work_.value[r] / wr;
        if (ratio == 0.0) continue;
        const double updated =
            dual_w_[r] - 2.0 * ratio * tau_work_.value[r] + ratio * ratio * gamma_exact;
        dual_w_[r] = std::max(updated, kDseWeightFloor);
      }
      dual_w_[leave_row] = std::max(gamma_exact / (wr * wr), kDseWeightFloor);
    } else {
      const double gamma_r = std::max(gamma_exact, 1.0);
      double max_w = 0.0;
      for (const std::uint32_t r : w_work_.nonzero) {
        if (r == leave_row) continue;
        const double ratio = w_work_.value[r] / wr;
        const double candidate = ratio * ratio * gamma_r;
        if (candidate > dual_w_[r]) dual_w_[r] = candidate;
        max_w = std::max(max_w, dual_w_[r]);
      }
      dual_w_[leave_row] = std::max(gamma_r / (wr * wr), 1.0);
      if (std::max(max_w, dual_w_[leave_row]) > kDevexResetThreshold) {
        dual_weight_reset_pending_ = true;
      }
    }
  }

  void recompute_xb() {
    rhs_work_.reset(num_rows_);
    for (std::size_t i = 0; i < num_rows_; ++i) {
      if (b_[i] != 0.0) rhs_work_.push(static_cast<std::uint32_t>(i), b_[i]);
    }
    lu_.ftran(rhs_work_);
    xb_.assign(num_rows_, 0.0);
    for (const std::uint32_t i : rhs_work_.nonzero) xb_[i] = rhs_work_.value[i];
  }

  /// w = B^{-1} * column j, sparse.
  void ftran_col(std::size_t j, ScatteredVector& w) {
    w.reset(num_rows_);
    const std::uint32_t* rows = cols_.col_rows(j);
    const double* vals = cols_.col_vals(j);
    for (std::size_t k = 0; k < cols_.nnz(j); ++k) w.push(rows[k], vals[k]);
    lu_.ftran(w);
  }

  /// y = (active cost of basis)^T * B^{-1}.  Only rows with non-zero basic
  /// cost feed the solve, which keeps this cheap in both phases.
  void btran_costs(ScatteredVector& y) {
    y.reset(num_rows_);
    for (std::size_t r = 0; r < num_rows_; ++r) {
      const double cb = (*active_cost_)[basis_[r]];
      if (cb != 0.0) y.push(static_cast<std::uint32_t>(r), cb);
    }
    lu_.btran(y);
  }

  double reduced_cost(std::size_t j, const double* y) const {
    double d = (*active_cost_)[j];
    const std::uint32_t* rows = cols_.col_rows(j);
    const double* vals = cols_.col_vals(j);
    const std::size_t nnz = cols_.nnz(j);
    for (std::size_t k = 0; k < nnz; ++k) d -= y[rows[k]] * vals[k];
    return d;
  }

  double phase_objective() const {
    double v = 0.0;
    for (std::size_t r = 0; r < num_rows_; ++r) v += (*active_cost_)[basis_[r]] * xb_[r];
    return v;
  }

  bool column_may_enter(std::size_t j) const {
    if (in_basis_[j] || banned_[j]) return false;
    if (!allow_artificial_entering_ && kind_[j] == ColKind::kArtificial) return false;
    return true;
  }

  // ---------- simplex iterations ----------
  LpStatus iterate(std::size_t* iteration_counter) {
    if (fault_fire(FaultSite::kSimplexStall)) return LpStatus::kIterationLimit;
    const std::size_t n = cols_.num_cols();
    const double tol = options_.tolerance;
    const std::size_t max_iter = options_.max_iterations > 0
                                     ? options_.max_iterations
                                     : std::max<std::size_t>(2000, 60 * (num_rows_ + n));
    in_basis_.assign(n, 0);
    for (std::size_t r = 0; r < num_rows_; ++r) in_basis_[basis_[r]] = 1;
    banned_.assign(n, 0);
    bool banned_any = false;
    bool ban_retry_used = false;
    std::size_t reverted_col = kNpos;  // one clean retry before banning

    // Devex reference framework: carried across re-solves of a standing
    // master (short warm re-optimizations would otherwise reset to plain
    // Dantzig before the weights learn anything); appended columns join at
    // the reference weight.
    const bool use_devex = options_.pricing == PricingRule::kDevex;
    if (use_devex) ensure_primal_weights(n);

    bool bland = false;
    double last_objective = phase_objective();
    std::size_t stalled = 0;

    for (std::size_t iter = 0; iter < max_iter; ++iter) {
      if (iteration_counter != nullptr) ++(*iteration_counter);
      if (use_devex && primal_weight_reset_pending_) reset_primal_weights(n);
      btran_costs(y_work_);
      const double* y = y_work_.value.data();

      // Pricing.  Bland mode scans in index order and takes the first
      // violating column (termination guarantee); otherwise a cyclic
      // candidate-list scan picks the best of a bounded window -- most
      // negative reduced cost under Dantzig, largest d^2 / w under Devex
      // reference weights.
      std::size_t entering = kNpos;
      if (bland) {
        for (std::size_t j = 0; j < n; ++j) {
          if (!column_may_enter(j)) continue;
          if (reduced_cost(j, y) < -tol) {
            entering = j;
            break;
          }
        }
      } else {
        double best_reduced = -tol;
        double best_score = 0.0;
        std::size_t candidates = 0;
        std::size_t j = pricing_cursor_ < n ? pricing_cursor_ : 0;
        for (std::size_t examined = 0; examined < n; ++examined, j = (j + 1 < n ? j + 1 : 0)) {
          if (!column_may_enter(j)) continue;
          const double d = reduced_cost(j, y);
          if (d < -tol) {
            ++candidates;
            if (use_devex) {
              const double score = d * d / devex_w_[j];
              if (score > best_score) {
                best_score = score;
                entering = j;
              }
            } else if (d < best_reduced) {
              best_reduced = d;
              entering = j;
            }
            if (candidates >= kPricingWindow) {
              j = (j + 1 < n ? j + 1 : 0);
              break;
            }
          }
        }
        pricing_cursor_ = j;
      }
      // Optimality holds only if no column was banned by a reverted pivot
      // this phase (a banned column could still price favorably).  Before
      // giving up, retry once under Bland's rule: its different pivot
      // trajectory routinely sidesteps the numerically singular corner
      // that provoked the bans.
      if (entering == kNpos) {
        if (banned_any && !ban_retry_used) {
          ban_retry_used = true;
          banned_.assign(n, 0);
          banned_any = false;
          bland = true;
          continue;
        }
        return banned_any ? LpStatus::kIterationLimit : LpStatus::kOptimal;
      }

      // Ratio test over the nonzeros of w = B^{-1} A_entering.  Bland mode
      // breaks ratio ties *solely* by the smallest basic-variable index --
      // mixing in the pivot-magnitude preference would void the
      // anti-cycling guarantee.
      ftran_col(entering, w_work_);
      std::size_t leave_row = kNpos;
      double best_ratio = kInf;
      double best_pivot = 0.0;
      for (const std::uint32_t r : w_work_.nonzero) {
        const double wv = w_work_.value[r];
        if (wv > tol) {
          const double ratio = std::max(0.0, xb_[r]) / wv;
          const bool better =
              ratio < best_ratio - tol ||
              (ratio < best_ratio + tol &&
               (bland ? (leave_row == kNpos || basis_[r] < basis_[leave_row])
                      : wv > best_pivot));
          if (better) {
            best_ratio = ratio;
            best_pivot = wv;
            leave_row = r;
          }
        }
      }
      if (leave_row == kNpos) return LpStatus::kUnbounded;

      if (use_devex && !bland) update_primal_weights(entering, leave_row);
      const PivotOutcome outcome = pivot(leave_row, entering, w_work_);
      if (outcome != PivotOutcome::kOk) {
        numerical_breakdown_ = true;
        if (outcome == PivotOutcome::kFailed) return LpStatus::kIterationLimit;
        // The new basis was numerically singular.  The revert installed a
        // fresh factorization, so grant the column one clean retry (its
        // direction -- and with it the leaving row -- may have been
        // garbage off the drifted factors); a second failure excludes it
        // for the rest of the phase.  On a slack-basis reset the
        // phase-local state is stale -- rebuild it.
        if (outcome == PivotOutcome::kReset) {
          in_basis_.assign(n, 0);
          for (std::size_t r = 0; r < num_rows_; ++r) in_basis_[basis_[r]] = 1;
          banned_.assign(n, 0);
          banned_any = false;
          bland = false;
          stalled = 0;
          last_objective = phase_objective();
        }
        if (entering == reverted_col || outcome == PivotOutcome::kReset) {
          banned_[entering] = 1;
          banned_any = true;
        }
        reverted_col = entering;
        if (use_devex) primal_weight_reset_pending_ = true;
        continue;
      }
      reverted_col = kNpos;
      ++stats_.primal_pivots;

      // Cycling guard: persistent stalling switches to Bland's rule.
      const double objective_now = phase_objective();
      if (objective_now < last_objective - tol) {
        stalled = 0;
        if (bland) {
          bland = false;
          // Weights went stale while Bland pivoted without updating them.
          if (use_devex) primal_weight_reset_pending_ = true;
        }
      } else if (++stalled > 2 * num_rows_ + 50) {
        bland = true;
      }
      last_objective = objective_now;
    }
    return LpStatus::kIterationLimit;
  }

  enum class PivotOutcome {
    kOk,        ///< basis changed, factorization valid
    kReverted,  ///< new basis singular; swap undone, old basis re-factorized
    kReset,     ///< basis replaced by the all-slack fallback (rebuild state)
    kFailed,    ///< nothing factorizes; abort the phase
  };

  /// Basis change on `leave_row` with direction `w` (= B^{-1} A_entering,
  /// with `entering` already chosen): delta-update xb over the nonzeros of
  /// w, swap the basic variable, and update the factors in place --
  /// refactorizing when the update file is full or the update pivot is
  /// numerically unsafe.  When the *new* basis turns out numerically
  /// singular the swap is reverted (the caller bans the entering column
  /// for the rest of the phase and picks another pivot); when even the old
  /// basis has drifted singular, fall back to the all-slack basis.
  /// Pre-PR-5 both cases crashed the solve, which 190+-node cutting-plane
  /// masters actually hit.
  PivotOutcome pivot(std::size_t leave_row, std::size_t entering, const ScatteredVector& w) {
    const double step = xb_[leave_row] / w.value[leave_row];
    for (const std::uint32_t r : w.nonzero) {
      if (r != leave_row) xb_[r] -= step * w.value[r];
    }
    xb_[leave_row] = step;
    const std::size_t leaving = basis_[leave_row];
    in_basis_[leaving] = 0;
    in_basis_[entering] = 1;
    basis_[leave_row] = entering;
    if (!lu_.update(leave_row, w) || lu_.update_count() >= options_.refactor_period) {
      if (!try_refactor()) {
        in_basis_[entering] = 0;
        in_basis_[leaving] = 1;
        basis_[leave_row] = leaving;
        if (try_refactor()) return PivotOutcome::kReverted;
        return reset_to_slack_basis() ? PivotOutcome::kReset : PivotOutcome::kFailed;
      }
    }
    return PivotOutcome::kOk;
  }

  // ---------- dual simplex ----------
  bool primal_infeasible() const {
    const double tol = options_.tolerance;
    for (std::size_t r = 0; r < num_rows_; ++r) {
      if (xb_[r] < -tol) return true;
    }
    return false;
  }

  /// Dual simplex phase: from a dual-feasible basis, drive negative basic
  /// values out with dual pivots.  The leaving row is chosen by
  /// DualRowRule (steepest-edge / Devex weighted infeasibility, or the
  /// plain most negative xb); the entering column by a two-pass
  /// Harris-style ratio test over the pivot row, which is accumulated
  /// hypersparsely from the rows rho touches (row-wise mirror) instead of
  /// one dot product per column.  Terminates kOptimal when primal
  /// feasible, kInfeasible when a violated row admits no entering column
  /// (dual unbounded = primal empty).
  LpStatus dual_iterate(std::size_t* iteration_counter) {
    if (fault_fire(FaultSite::kSimplexStall)) return LpStatus::kIterationLimit;
    const std::size_t n = cols_.num_cols();
    const double tol = options_.tolerance;
    const std::size_t max_iter = options_.max_iterations > 0
                                     ? options_.max_iterations
                                     : std::max<std::size_t>(2000, 60 * (num_rows_ + n));
    in_basis_.assign(n, 0);
    for (std::size_t r = 0; r < num_rows_; ++r) in_basis_[basis_[r]] = 1;
    banned_.assign(n, 0);
    bool banned_any = false;
    bool ban_retry_used = false;
    std::size_t reverted_col = kNpos;  // one clean retry before banning

    // Weighted row selection frameworks start fresh each dual phase (the
    // phases are short re-optimizations after appended rows / rhs changes).
    const bool use_weights = options_.dual_row_rule != DualRowRule::kMostInfeasible;
    if (use_weights) reset_dual_weights();

    bool bland = false;
    std::size_t stalled = 0;
    std::size_t bad_pivots = 0;
    double last_infeasibility = kInf;

    for (std::size_t iter = 0; iter < max_iter; ++iter) {
      if (use_weights && dual_weight_reset_pending_) reset_dual_weights();
      // Leaving row: largest weighted infeasibility xb^2 / gamma under
      // steepest-edge / Devex, the most negative basic value otherwise
      // (Bland: the smallest *basic-variable index* among the infeasible
      // rows).
      std::size_t leave_row = kNpos;
      double most_negative = -tol;
      double best_score = 0.0;
      double infeasibility = 0.0;
      for (std::size_t r = 0; r < num_rows_; ++r) {
        if (xb_[r] < -tol) {
          infeasibility -= xb_[r];
          if (bland) {
            if (leave_row == kNpos || basis_[r] < basis_[leave_row]) leave_row = r;
          } else if (use_weights) {
            const double score = xb_[r] * xb_[r] / dual_w_[r];
            if (score > best_score) {
              best_score = score;
              leave_row = r;
            }
          } else if (xb_[r] < most_negative) {
            most_negative = xb_[r];
            leave_row = r;
          }
        }
      }
      if (leave_row == kNpos) return LpStatus::kOptimal;
      if (iteration_counter != nullptr) ++(*iteration_counter);

      // rho = row `leave_row` of B^{-1} (row space); the pivot row
      // alpha = rho^T A is accumulated over the rows rho touches.
      rho_work_.reset(num_rows_);
      rho_work_.push(static_cast<std::uint32_t>(leave_row), 1.0);
      lu_.btran(rho_work_, BasisLu::SolveHint::kSparse);
      btran_costs(y_work_);
      const double* y = y_work_.value.data();
      accumulate_pivot_row();

      // Pass 1 (Harris): relaxed minimum dual ratio over the eligible
      // columns (alpha < 0 so that entering increases xb[leave_row]).
      // Bland mode instead needs the *strict* minimum ratio -- admitting
      // tolerance-expanded ties would void the anti-cycling guarantee.
      dual_cand_col_.clear();
      dual_cand_alpha_.clear();
      dual_cand_d_.clear();
      alpha_cols_.clear();
      alpha_vals_.clear();
      double theta_relaxed = kInf;
      double theta_strict = kInf;
      for (const std::uint32_t j : alpha_work_.nonzero) {
        const double alpha = alpha_work_.value[j];
        alpha_work_.value[j] = 0.0;  // consume the slot (duplicates read 0)
        if (alpha == 0.0) continue;
        alpha_cols_.push_back(j);  // full pivot row, cached for the Devex
        alpha_vals_.push_back(alpha);  // framework update after the pivot
        if (!column_may_enter(j)) continue;
        if (alpha >= -tol) continue;
        const double d = std::max(0.0, reduced_cost(j, y));
        dual_cand_col_.push_back(j);
        dual_cand_alpha_.push_back(alpha);
        dual_cand_d_.push_back(d);
        theta_relaxed = std::min(theta_relaxed, (d + tol) / (-alpha));
        theta_strict = std::min(theta_strict, d / (-alpha));
      }
      alpha_work_.nonzero.clear();
      // Dual unboundedness (= primal infeasibility) can only be declared
      // when no column was banned by a reverted pivot this phase.  As in
      // the primal phase, retry once under Bland's rule before giving up.
      if (dual_cand_col_.empty()) {
        if (banned_any && !ban_retry_used) {
          ban_retry_used = true;
          banned_.assign(n, 0);
          banned_any = false;
          bland = true;
          continue;
        }
        return banned_any ? LpStatus::kIterationLimit : LpStatus::kInfeasible;
      }

      // Pass 2: among candidates within the ratio bound, take the largest
      // pivot magnitude (Bland: the smallest column index among the strict
      // minimizers).
      const double theta_bound = bland ? theta_strict : theta_relaxed;
      std::size_t entering = kNpos;
      double entering_alpha = 0.0;
      double best_pivot = 0.0;
      for (std::size_t k = 0; k < dual_cand_col_.size(); ++k) {
        const double alpha = dual_cand_alpha_[k];
        if (dual_cand_d_[k] / (-alpha) > theta_bound) continue;
        if (bland) {
          if (entering == kNpos || dual_cand_col_[k] < entering) {
            entering = dual_cand_col_[k];
            entering_alpha = alpha;
          }
        } else if (-alpha > best_pivot) {
          best_pivot = -alpha;
          entering = dual_cand_col_[k];
          entering_alpha = alpha;
        }
      }
      BT_ASSERT(entering != kNpos, "dual simplex: empty ratio-test pass-2");

      // FTRAN the entering column and cross-check the pivot against the
      // row-wise alpha: serious *relative* disagreement (or an unusable
      // sign) means the factorization has drifted -- refactorize and retry
      // the iteration.  A genuinely tiny pivot that both solves agree on
      // is accepted: the ratio test already bounded it by the tolerance.
      ftran_col(entering, w_work_);
      const double wr = w_work_.value[leave_row];
      if (wr >= -tol || std::abs(wr - entering_alpha) > 0.5 * std::abs(entering_alpha)) {
        if (++bad_pivots > 2) {
          numerical_breakdown_ = true;
          return LpStatus::kIterationLimit;
        }
        bool basis_reset = false;
        if (!ensure_factorizable_basis(basis_reset)) return LpStatus::kIterationLimit;
        if (basis_reset) {
          in_basis_.assign(n, 0);
          for (std::size_t r = 0; r < num_rows_; ++r) in_basis_[basis_[r]] = 1;
          banned_.assign(n, 0);
          banned_any = false;
          bland = false;
          stalled = 0;
          last_infeasibility = kInf;
        }
        continue;
      }
      bad_pivots = 0;
      if (use_weights && !bland) update_dual_weights(leave_row, wr);
      if (options_.pricing == PricingRule::kDevex && !bland) {
        // Keep the standing primal Devex framework current through the
        // dual phase -- the pivot row is already in alpha_cols_/vals_.
        ensure_primal_weights(n);
        apply_devex_update(entering, leave_row, entering_alpha);
      }
      const PivotOutcome outcome = pivot(leave_row, entering, w_work_);
      if (outcome != PivotOutcome::kOk) {
        numerical_breakdown_ = true;
        if (outcome == PivotOutcome::kFailed) return LpStatus::kIterationLimit;
        if (outcome == PivotOutcome::kReset) {
          in_basis_.assign(n, 0);
          for (std::size_t r = 0; r < num_rows_; ++r) in_basis_[basis_[r]] = 1;
          banned_.assign(n, 0);
          banned_any = false;
          bland = false;
          stalled = 0;
          last_infeasibility = kInf;
        }
        // The weight updates above encoded a basis change that never
        // happened: restart both frameworks.
        dual_weight_reset_pending_ = true;
        primal_weight_reset_pending_ = true;
        // One clean retry off the freshly reverted factorization, then ban
        // (see the primal phase).
        if (entering == reverted_col || outcome == PivotOutcome::kReset) {
          banned_[entering] = 1;
          banned_any = true;
        }
        reverted_col = entering;
        continue;
      }
      reverted_col = kNpos;
      ++stats_.dual_pivots;

      // Cycling guard: persistent stalling switches to Bland's rule.
      if (infeasibility < last_infeasibility - tol) {
        stalled = 0;
        if (bland) {
          bland = false;
          // Row weights went stale while Bland pivoted without updates.
          if (use_weights) dual_weight_reset_pending_ = true;
        }
      } else if (++stalled > 2 * num_rows_ + 50) {
        bland = true;
      }
      last_infeasibility = infeasibility;
    }
    return LpStatus::kIterationLimit;
  }

  // ---------- row append ----------
  /// Fold the buffered append_row rows into the model: extend the touched
  /// columns in place, give each new row a basic slack (so an optimal
  /// standing basis stays dual feasible), and refactorize once at the new
  /// dimension.  Rows appended before the first solve behave like built
  /// rows (negative right-hand sides get the usual flip + artificial).
  void merge_pending_rows() {
    if (pending_rows_.empty()) return;
    const std::size_t k = pending_rows_.size();
    const std::size_t old_m = num_rows_;

    // Internal orientation per pending row.  After the first solve every
    // row must start with a *basic slack* (nothing else keeps the standing
    // basis intact), so >= rows are negated into <= form: flip = -1, which
    // also maps the reported dual back to the caller's sense, exactly like
    // rows flipped at build time.  Before the first solve the rules mirror
    // build(): flip on negative rhs, give slack-less rows an artificial.
    for (std::size_t i = 0; i < k; ++i) {
      PendingRow& row = pending_rows_[i];
      if (phase1_done_) {
        row.flip = row.sense == RowSense::kGreaterEqual ? -1.0 : 1.0;
      } else {
        row.flip = row.rhs < 0.0 ? -1.0 : 1.0;
      }
    }

    // Grow the column arena in place: every column keeps its entries
    // contiguous, old entries first and then the new rows' in append order.
    // Columns shift back to front by the number of new entries before them,
    // so the arena is moved once and nothing is reallocated per column.
    {
      const std::size_t ncols = cols_.num_cols();
      std::vector<std::size_t> grow(ncols, 0);
      for (const PendingRow& row : pending_rows_) {
        for (const LpTerm& t : row.terms) ++grow[col_of_structural_[t.var]];
      }
      std::size_t shift = 0;
      for (std::size_t j = 0; j < ncols; ++j) shift += grow[j];
      cols_.rows.resize(cols_.rows.size() + shift);
      cols_.vals.resize(cols_.vals.size() + shift);
      // `shift` is the count of new entries in columns 0..j, `end` column
      // j's old end.
      std::size_t end = cols_.start[ncols];
      for (std::size_t j = ncols; j-- > 0;) {
        const std::size_t begin = cols_.start[j];
        cols_.start[j + 1] = end + shift;
        shift -= grow[j];
        if (shift == 0) break;  // columns 0..j stay where they are
        std::copy_backward(cols_.rows.begin() + begin, cols_.rows.begin() + end,
                           cols_.rows.begin() + end + shift);
        std::copy_backward(cols_.vals.begin() + begin, cols_.vals.begin() + end,
                           cols_.vals.begin() + end + shift);
        end = begin;
      }
      // Append slot of each grown column, then the entries in row order.
      for (std::size_t j = 0; j < ncols; ++j) grow[j] = cols_.start[j + 1] - grow[j];
      row_entries_.resize(old_m + k);
      for (std::size_t i = 0; i < k; ++i) {
        const PendingRow& row = pending_rows_[i];
        const std::uint32_t ri = static_cast<std::uint32_t>(old_m + i);
        std::vector<LpTerm>& mirror = row_entries_[ri];
        for (const LpTerm& t : row.terms) {
          const std::size_t j = col_of_structural_[t.var];
          const double v = row.flip * t.coeff;
          cols_.rows[grow[j]] = ri;
          cols_.vals[grow[j]] = v;
          ++grow[j];
          mirror.push_back({j, v});
        }
        // The row mirror lists a row's entries in column order.
        std::sort(mirror.begin(), mirror.end(),
                  [](const LpTerm& a, const LpTerm& b) { return a.var < b.var; });
      }
    }

    for (std::size_t i = 0; i < k; ++i) {
      const PendingRow& row = pending_rows_[i];
      const std::size_t ri = old_m + i;
      // Sense in internal orientation (after the flip).
      RowSense sense = row.sense;
      if (row.flip < 0.0) {
        sense = sense == RowSense::kLessEqual ? RowSense::kGreaterEqual : RowSense::kLessEqual;
      }
      row_flip_.push_back(row.flip);
      row_origin_.push_back(num_orig_rows_ + i);
      b_.push_back(row.flip * row.rhs);
      if (phase1_done_ || sense == RowSense::kLessEqual) {
        // Post-solve rows are always oriented <= (see above); a basic
        // slack keeps the standing basis and its duals valid.
        BT_ASSERT(sense == RowSense::kLessEqual, "merge_pending_rows: bad orientation");
        const std::size_t slack = add_unit_column(ri, +1.0, ColKind::kSlack);
        row_entries_[ri].push_back({slack, +1.0});
        slack_col_of_row_.push_back(slack);
        basis_.push_back(slack);
        initial_basis_col_.push_back(slack);
      } else {
        // Pre-solve >= row with non-negative rhs: surplus non-basic,
        // artificial basic; the coming phase 1 clears it.
        const std::size_t surplus = add_unit_column(ri, -1.0, ColKind::kSurplus);
        const std::size_t art = add_unit_column(ri, +1.0, ColKind::kArtificial);
        row_entries_[ri].push_back({surplus, -1.0});
        row_entries_[ri].push_back({art, +1.0});
        slack_col_of_row_.push_back(kNpos);
        basis_.push_back(art);
        initial_basis_col_.push_back(art);
        ++num_artificials_;
      }
    }
    phase1_cost_.resize(cols_.num_cols(), 0.0);
    for (std::size_t j = 0; j < cols_.num_cols(); ++j) {
      if (kind_[j] == ColKind::kArtificial) phase1_cost_[j] = 1.0;
    }
    num_rows_ += k;
    num_orig_rows_ += k;
    pending_rows_.clear();
    // Dimension change: the weight frameworks no longer match the model.
    primal_weight_reset_pending_ = true;
    dual_weight_reset_pending_ = true;
    // New dimension: fresh factorization + xb.  A standing basis that
    // drifted numerically singular falls back to the slack basis.
    if (!try_refactor()) {
      BT_ASSERT(reset_to_slack_basis(),
                "simplex: singular basis after row merge and no slack fallback");
    }
  }

  /// After phase 1: pivot zero-valued artificials out of the basis; rows
  /// whose artificial cannot be replaced are redundant and dropped.
  void purge_artificials() {
    std::vector<std::size_t> redundant_rows;
    in_basis_.assign(cols_.num_cols(), 0);
    for (std::size_t r = 0; r < num_rows_; ++r) in_basis_[basis_[r]] = 1;
    for (std::size_t r = 0; r < num_rows_; ++r) {
      if (kind_[basis_[r]] != ColKind::kArtificial) continue;
      bool replaced = false;
      for (std::size_t j = 0; j < cols_.num_cols() && !replaced; ++j) {
        if (kind_[j] == ColKind::kArtificial || in_basis_[j]) continue;
        ftran_col(j, w_work_);
        if (std::abs(w_work_.value[r]) > 1e-7) {
          // Degenerate pivot (xb_[r] ~ 0): basis changes, solution does not.
          if (pivot(r, j, w_work_) == PivotOutcome::kOk) {
            recompute_xb();
            replaced = true;
          }
        }
      }
      if (!replaced) redundant_rows.push_back(r);
    }
    if (!redundant_rows.empty()) drop_rows(redundant_rows);
    // The purge pivots bypass the weight-updating pivot paths.
    primal_weight_reset_pending_ = true;
  }

  void drop_rows(const std::vector<std::size_t>& rows) {
    rows_dropped_ = true;
    std::vector<char> dead(num_rows_, 0);
    for (std::size_t r : rows) dead[r] = 1;
    std::vector<std::uint32_t> remap(num_rows_, 0);
    std::vector<std::size_t> keep;
    for (std::size_t r = 0; r < num_rows_; ++r) {
      if (!dead[r]) {
        remap[r] = static_cast<std::uint32_t>(keep.size());
        keep.push_back(r);
      }
    }
    const std::size_t new_m = keep.size();
    {
      // Compact the column arena in place, dropping dead-row entries.
      ColumnStore nc;
      for (std::size_t j = 0; j < cols_.num_cols(); ++j) {
        const std::uint32_t* rows = cols_.col_rows(j);
        const double* vals = cols_.col_vals(j);
        for (std::size_t k = 0; k < cols_.nnz(j); ++k) {
          if (!dead[rows[k]]) nc.push(remap[rows[k]], vals[k]);
        }
        nc.end_column();
      }
      cols_ = std::move(nc);
    }
    std::vector<double> nb(new_m), nflip(new_m);
    std::vector<std::size_t> norigin(new_m), nbasis(new_m), nslack(new_m), ninit(new_m);
    for (std::size_t k = 0; k < new_m; ++k) {
      nb[k] = b_[keep[k]];
      nflip[k] = row_flip_[keep[k]];
      norigin[k] = row_origin_[keep[k]];
      nbasis[k] = basis_[keep[k]];
      nslack[k] = slack_col_of_row_[keep[k]];
      ninit[k] = initial_basis_col_[keep[k]];
    }
    b_ = std::move(nb);
    row_flip_ = std::move(nflip);
    row_origin_ = std::move(norigin);
    basis_ = std::move(nbasis);
    slack_col_of_row_ = std::move(nslack);
    initial_basis_col_ = std::move(ninit);
    num_rows_ = new_m;
    rebuild_row_entries();
    primal_weight_reset_pending_ = true;
    dual_weight_reset_pending_ = true;
    BT_ASSERT(try_refactor(), "simplex: singular basis during refactor [drop-rows]");
  }

  // ---------- state ----------
  SimplexOptions options_;
  bool maximize_ = false;
  bool phase1_done_ = false;
  bool rows_dropped_ = false;
  bool emit_basis_labels_ = true;

  std::size_t num_structural_ = 0;
  std::size_t num_rows_ = 0;
  std::size_t num_orig_rows_ = 0;
  std::size_t num_artificials_ = 0;

  ColumnStore cols_;                       // constraint matrix, CSC arena
  std::vector<ColKind> kind_;              // role of each internal column
  std::vector<std::size_t> structural_id_; // index into x for structural cols
  std::vector<std::size_t> col_of_structural_;  // inverse of structural_id_
  std::vector<double> orig_obj_;           // objective in the caller's sense
  std::vector<double> cost_;               // phase-2 cost (min sense)
  std::vector<double> phase1_cost_;
  std::vector<double> b_;
  std::vector<double> row_flip_;
  std::vector<std::size_t> row_origin_;
  std::vector<std::size_t> slack_col_of_row_;
  /// The unit (slack or artificial) column each row started basic with --
  /// the pristine restart basis of reset_to_initial_basis().
  std::vector<std::size_t> initial_basis_col_;

  /// Rows buffered by append_row until the next merge, in the caller's
  /// orientation; `flip` (internal orientation) is decided at merge time.
  struct PendingRow {
    std::vector<LpTerm> terms;  // structural variable id, coefficient
    double rhs = 0.0;
    RowSense sense = RowSense::kLessEqual;
    double flip = 1.0;
  };
  std::vector<PendingRow> pending_rows_;

  std::vector<std::size_t> basis_;  // basic variable per row
  std::vector<double> xb_;          // basic variable values
  BasisLu lu_;                      // factorized basis + update files

  ScatteredVector y_work_, w_work_, rhs_work_, rho_work_;
  // Pivot row scattered over the internal columns; tau = B^{-1} rho for the
  // dual steepest-edge recurrence.
  ScatteredVector alpha_work_, tau_work_;
  std::vector<char> in_basis_;
  /// Columns excluded for the rest of the current phase after a reverted
  /// (numerically singular) pivot; re-assigned at each phase start.
  std::vector<char> banned_;
  std::size_t pricing_cursor_ = 0;
  // Dual ratio-test candidate cache (column, pivot-row entry, reduced cost).
  std::vector<std::size_t> dual_cand_col_;
  std::vector<double> dual_cand_alpha_;
  std::vector<double> dual_cand_d_;

  /// Row-wise mirror of cols_ (see rebuild_row_entries).
  std::vector<std::vector<LpTerm>> row_entries_;
  /// Pivot row cache (column, alpha) consumed by apply_devex_update.
  std::vector<std::uint32_t> alpha_cols_;
  std::vector<double> alpha_vals_;
  /// Devex reference weights (primal, per internal column) and dual row
  /// weights (steepest-edge / Devex, per row); reset pending flags are the
  /// refactorization / overflow safeguards.
  std::vector<double> devex_w_;
  std::vector<double> dual_w_;
  bool primal_weight_reset_pending_ = false;
  bool dual_weight_reset_pending_ = false;
  /// Set by the phases whenever a limit / ban stems from numerical
  /// breakdown (reverted or failed pivots, drift retries) rather than a
  /// genuine iteration budget; gates optimize()'s cold-restart retry.
  bool numerical_breakdown_ = false;
  LpEngineStats stats_;

  const std::vector<double>* active_cost_ = nullptr;
  bool allow_artificial_entering_ = true;
};

// ---------------------------------------------------------------------------
// Dense reference engine (the pre-LU implementation): explicit dense basis
// inverse with O(m^2) pivots and O(m^3) Gauss-Jordan refactorization.  Kept
// for differential testing and as the benchmark baseline; select it with
// SimplexOptions::engine = LpEngine::kDenseReference.
// ---------------------------------------------------------------------------
class DenseSimplexCore {
 public:
  DenseSimplexCore(const LpProblem& problem, const SimplexOptions& options)
      : options_(options), problem_(problem) {
    build(problem);
  }

  LpSolution run() {
    LpSolution solution;
    // ---- Phase 1: minimize the sum of artificials (when any exist). ----
    if (num_artificials_ > 0) {
      active_cost_ = &phase1_cost_;
      allow_artificial_entering_ = true;
      const LpStatus st = iterate(&solution.iterations);
      if (st != LpStatus::kOptimal) {
        // Phase 1 is bounded below by 0, so anything else is a limit.
        solution.status = LpStatus::kIterationLimit;
        return solution;
      }
      if (phase_objective() > 1e-7) {
        solution.status = LpStatus::kInfeasible;
        return solution;
      }
      purge_artificials();
    }
    // ---- Phase 2: minimize the real cost. ----
    active_cost_ = &cost_;
    allow_artificial_entering_ = false;
    const LpStatus st = iterate(&solution.iterations);
    solution.status = st;
    if (st != LpStatus::kOptimal) return solution;

    // Extract structural primal values.
    solution.x.assign(num_structural_, 0.0);
    for (std::size_t r = 0; r < num_rows_; ++r) {
      if (basis_[r] < num_structural_) solution.x[basis_[r]] = std::max(0.0, xb_[r]);
    }
    solution.objective = problem_.objective_value(solution.x);

    // Duals: y = c_B^T B^{-1}, mapped back through row flips / objective
    // sense (rows dropped as redundant keep dual 0).
    std::vector<double> y(num_rows_, 0.0);
    for (std::size_t r = 0; r < num_rows_; ++r) {
      const double cb = cost_[basis_[r]];
      if (cb == 0.0) continue;
      const double* binv_row = &binv_[r * num_rows_];
      for (std::size_t i = 0; i < num_rows_; ++i) y[i] += cb * binv_row[i];
    }
    solution.duals.assign(problem_.num_constraints(), 0.0);
    for (std::size_t i = 0; i < num_rows_; ++i) {
      const std::size_t orig = row_origin_[i];
      double v = row_flip_[i] * y[i];
      if (problem_.objective() == Objective::kMaximize) v = -v;
      solution.duals[orig] = v;
    }

    // Basis labels for warm starts (only when every basic variable has a
    // stable label and no rows were dropped).
    if (num_rows_ == problem_.num_constraints()) {
      solution.basis.resize(num_rows_);
      bool labelable = true;
      for (std::size_t r = 0; r < num_rows_ && labelable; ++r) {
        const std::size_t j = basis_[r];
        if (j < num_structural_) {
          solution.basis[r] = j;
        } else if (j < first_artificial_) {
          // Slack or surplus: label by its row; surplus columns are not
          // representable (they never arise in warm-started problems here).
          const std::size_t row = cols_[j].rows.front();
          if (slack_col_of_row_[row] == j) {
            solution.basis[r] = kSlackLabelBase - row;
          } else {
            labelable = false;
          }
        } else {
          labelable = false;  // artificial stuck in the basis
        }
      }
      if (!labelable) solution.basis.clear();
    }
    return solution;
  }

 private:
  // ---------- model construction ----------
  void build(const LpProblem& problem) {
    const std::size_t m = problem.num_constraints();
    num_structural_ = problem.num_variables();
    num_rows_ = m;
    row_flip_.assign(m, 1.0);
    row_origin_.resize(m);
    b_.resize(m);

    cols_.assign(num_structural_, SparseCol{});
    cost_.assign(num_structural_, 0.0);
    const double sense = problem.objective() == Objective::kMaximize ? -1.0 : 1.0;
    for (std::size_t j = 0; j < num_structural_; ++j) {
      cost_[j] = sense * problem.objective_coeff(j);
    }
    std::vector<RowSense> senses(m);
    for (std::size_t i = 0; i < m; ++i) {
      row_origin_[i] = i;
      const auto& row = problem.row(i);
      double flip = 1.0;
      RowSense s = row.sense;
      if (row.rhs < 0.0) {
        flip = -1.0;
        if (s == RowSense::kLessEqual) s = RowSense::kGreaterEqual;
        else if (s == RowSense::kGreaterEqual) s = RowSense::kLessEqual;
      }
      row_flip_[i] = flip;
      b_[i] = flip * row.rhs;
      senses[i] = s;
      for (const LpTerm& t : row.terms) {
        cols_[t.var].push(static_cast<std::uint32_t>(i), flip * t.coeff);
      }
    }

    // Slack / surplus columns, then artificials.
    basis_.assign(m, kNpos);
    slack_col_of_row_.assign(m, kNpos);
    for (std::size_t i = 0; i < m; ++i) {
      if (senses[i] == RowSense::kLessEqual) {
        const std::size_t j = add_unit_column(i, +1.0);
        slack_col_of_row_[i] = j;
        basis_[i] = j;  // slack starts basic (b >= 0)
      } else if (senses[i] == RowSense::kGreaterEqual) {
        add_unit_column(i, -1.0);  // surplus, cannot start basic
      }
    }
    first_artificial_ = cols_.size();
    for (std::size_t i = 0; i < m; ++i) {
      if (basis_[i] == kNpos) {
        basis_[i] = add_unit_column(i, +1.0);
        ++num_artificials_;
      }
    }
    phase1_cost_.assign(cols_.size(), 0.0);
    for (std::size_t j = first_artificial_; j < cols_.size(); ++j) phase1_cost_[j] = 1.0;

    if (num_artificials_ == 0) try_warm_start();
    refactor();
  }

  /// Replace the default slack basis with the caller-provided labels when
  /// they decode to a primal-feasible basis of this problem.
  void try_warm_start() {
    const std::vector<std::size_t>* warm = options_.warm_basis;
    if (warm == nullptr || warm->size() != num_rows_) return;
    std::vector<std::size_t> candidate(num_rows_);
    std::vector<char> used(cols_.size(), 0);
    for (std::size_t r = 0; r < num_rows_; ++r) {
      std::size_t col;
      const std::size_t label = (*warm)[r];
      if (label < num_structural_) {
        col = label;
      } else if (kSlackLabelBase - label < num_rows_) {
        col = slack_col_of_row_[kSlackLabelBase - label];
        if (col == kNpos) return;  // row has no slack
      } else {
        return;  // undecodable label
      }
      if (used[col]) return;  // duplicate basic variable
      used[col] = 1;
      candidate[r] = col;
    }
    const std::vector<std::size_t> saved = basis_;
    basis_ = candidate;
    try {
      refactor();
    } catch (const Error&) {
      basis_ = saved;  // singular warm basis: fall back to the slack basis
      return;
    }
    for (double v : xb_) {
      if (v < -1e-7) {  // warm basis not primal feasible here
        basis_ = saved;
        return;
      }
    }
  }

  std::size_t add_unit_column(std::size_t row, double value) {
    cols_.emplace_back();
    cols_.back().push(static_cast<std::uint32_t>(row), value);
    cost_.push_back(0.0);
    return cols_.size() - 1;
  }

  // ---------- linear algebra ----------
  /// Rebuild binv_ by Gauss-Jordan inversion of the basis matrix, then
  /// recompute xb_.  O(m^3); called rarely.
  void refactor() {
    const std::size_t m = num_rows_;
    std::vector<double> mat(m * m, 0.0);  // basis matrix, row-major
    for (std::size_t r = 0; r < m; ++r) {
      const SparseCol& col = cols_[basis_[r]];
      for (std::size_t k = 0; k < col.nnz(); ++k) mat[col.rows[k] * m + r] = col.vals[k];
    }
    binv_.assign(m * m, 0.0);
    for (std::size_t i = 0; i < m; ++i) binv_[i * m + i] = 1.0;
    for (std::size_t col = 0; col < m; ++col) {
      std::size_t piv = col;
      double best = std::abs(mat[col * m + col]);
      for (std::size_t r = col + 1; r < m; ++r) {
        const double v = std::abs(mat[r * m + col]);
        if (v > best) {
          best = v;
          piv = r;
        }
      }
      BT_ASSERT(best > 1e-12, "simplex: singular basis during refactor");
      if (piv != col) {
        for (std::size_t k = 0; k < m; ++k) {
          std::swap(mat[piv * m + k], mat[col * m + k]);
          std::swap(binv_[piv * m + k], binv_[col * m + k]);
        }
      }
      const double inv = 1.0 / mat[col * m + col];
      for (std::size_t k = 0; k < m; ++k) {
        mat[col * m + k] *= inv;
        binv_[col * m + k] *= inv;
      }
      for (std::size_t r = 0; r < m; ++r) {
        if (r == col) continue;
        const double f = mat[r * m + col];
        if (f == 0.0) continue;
        for (std::size_t k = 0; k < m; ++k) {
          mat[r * m + k] -= f * mat[col * m + k];
          binv_[r * m + k] -= f * binv_[col * m + k];
        }
      }
    }
    recompute_xb();
  }

  void recompute_xb() {
    const std::size_t m = num_rows_;
    xb_.assign(m, 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      double v = 0.0;
      const double* binv_row = &binv_[r * m];
      for (std::size_t i = 0; i < m; ++i) v += binv_row[i] * b_[i];
      xb_[r] = v;
    }
  }

  /// w = B^{-1} * column j.  O(m * nnz(col)).
  void ftran(std::size_t j, std::vector<double>& w) const {
    const std::size_t m = num_rows_;
    const SparseCol& col = cols_[j];
    w.assign(m, 0.0);
    for (std::size_t k = 0; k < col.nnz(); ++k) {
      const std::size_t i = col.rows[k];
      const double v = col.vals[k];
      for (std::size_t r = 0; r < m; ++r) w[r] += binv_[r * m + i] * v;
    }
  }

  /// y = (active cost of basis)^T * B^{-1}.  Only rows with non-zero basic
  /// cost contribute, which keeps this cheap in both phases.
  void btran(std::vector<double>& y) const {
    const std::size_t m = num_rows_;
    y.assign(m, 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      const double cb = (*active_cost_)[basis_[r]];
      if (cb == 0.0) continue;
      const double* binv_row = &binv_[r * m];
      for (std::size_t i = 0; i < m; ++i) y[i] += cb * binv_row[i];
    }
  }

  double phase_objective() const {
    double v = 0.0;
    for (std::size_t r = 0; r < num_rows_; ++r) v += (*active_cost_)[basis_[r]] * xb_[r];
    return v;
  }

  // ---------- simplex iterations ----------
  LpStatus iterate(std::size_t* iteration_counter) {
    const std::size_t m = num_rows_;
    const std::size_t n = cols_.size();
    const double tol = options_.tolerance;
    const std::size_t max_iter = options_.max_iterations > 0
                                     ? options_.max_iterations
                                     : std::max<std::size_t>(2000, 60 * (m + n));
    std::vector<char> in_basis(n, 0);
    for (std::size_t r = 0; r < m; ++r) in_basis[basis_[r]] = 1;

    std::vector<double> y, w;
    bool bland = false;
    double last_objective = phase_objective();
    std::size_t stalled = 0;
    std::size_t since_refactor = 0;

    for (std::size_t iter = 0; iter < max_iter; ++iter) {
      if (iteration_counter != nullptr) ++(*iteration_counter);
      btran(y);

      // Pricing: pick the entering column (sparse dot products).
      std::size_t entering = kNpos;
      double best_reduced = -tol;
      for (std::size_t j = 0; j < n; ++j) {
        if (in_basis[j]) continue;
        if (!allow_artificial_entering_ && j >= first_artificial_) continue;
        const SparseCol& col = cols_[j];
        double d = (*active_cost_)[j];
        for (std::size_t k = 0; k < col.nnz(); ++k) d -= y[col.rows[k]] * col.vals[k];
        if (bland) {
          if (d < -tol) {
            entering = j;
            break;
          }
        } else if (d < best_reduced) {
          best_reduced = d;
          entering = j;
        }
      }
      if (entering == kNpos) return LpStatus::kOptimal;

      // Ratio test (Bland mode: ties broken solely by the smallest
      // basic-variable index, see the sparse core).
      ftran(entering, w);
      std::size_t leave_row = kNpos;
      double best_ratio = kInf;
      double best_pivot = 0.0;
      for (std::size_t r = 0; r < m; ++r) {
        if (w[r] > tol) {
          const double ratio = std::max(0.0, xb_[r]) / w[r];
          const bool better =
              ratio < best_ratio - tol ||
              (ratio < best_ratio + tol &&
               (bland ? (leave_row == kNpos || basis_[r] < basis_[leave_row])
                      : w[r] > best_pivot));
          if (better) {
            best_ratio = ratio;
            best_pivot = w[r];
            leave_row = r;
          }
        }
      }
      if (leave_row == kNpos) return LpStatus::kUnbounded;

      pivot(leave_row, w);
      in_basis[basis_[leave_row]] = 0;
      in_basis[entering] = 1;
      basis_[leave_row] = entering;

      if (++since_refactor >= options_.refactor_period) {
        refactor();
        since_refactor = 0;
      }

      // Cycling guard: persistent stalling switches to Bland's rule.
      const double objective_now = phase_objective();
      if (objective_now < last_objective - tol) {
        stalled = 0;
        bland = false;
      } else if (++stalled > 2 * m + 50) {
        bland = true;
      }
      last_objective = objective_now;
    }
    return LpStatus::kIterationLimit;
  }

  /// Rank-1 update of the basis inverse and basic solution for a pivot on
  /// `leave_row` with direction `w` (= B^{-1} A_entering).
  void pivot(std::size_t leave_row, const std::vector<double>& w) {
    const std::size_t m = num_rows_;
    const double step = xb_[leave_row] / w[leave_row];
    for (std::size_t r = 0; r < m; ++r) {
      if (r != leave_row) xb_[r] -= step * w[r];
    }
    xb_[leave_row] = step;
    const double piv = w[leave_row];
    double* pivot_row = &binv_[leave_row * m];
    for (std::size_t k = 0; k < m; ++k) pivot_row[k] /= piv;
    for (std::size_t r = 0; r < m; ++r) {
      if (r == leave_row) continue;
      const double f = w[r];
      if (f == 0.0) continue;
      double* row = &binv_[r * m];
      for (std::size_t k = 0; k < m; ++k) row[k] -= f * pivot_row[k];
    }
  }

  /// After phase 1: pivot zero-valued artificials out of the basis; rows
  /// whose artificial cannot be replaced are redundant and dropped.
  void purge_artificials() {
    std::vector<double> w;
    std::vector<std::size_t> redundant_rows;
    std::vector<char> is_basic(cols_.size(), 0);
    for (std::size_t r = 0; r < num_rows_; ++r) is_basic[basis_[r]] = 1;
    for (std::size_t r = 0; r < num_rows_; ++r) {
      if (basis_[r] < first_artificial_) continue;
      bool replaced = false;
      for (std::size_t j = 0; j < first_artificial_ && !replaced; ++j) {
        if (is_basic[j]) continue;
        ftran(j, w);
        if (std::abs(w[r]) > 1e-7) {
          // Degenerate pivot (xb_[r] ~ 0): basis changes, solution does not.
          is_basic[basis_[r]] = 0;
          pivot(r, w);
          basis_[r] = j;
          is_basic[j] = 1;
          recompute_xb();
          replaced = true;
        }
      }
      if (!replaced) redundant_rows.push_back(r);
    }
    if (!redundant_rows.empty()) drop_rows(redundant_rows);
  }

  void drop_rows(const std::vector<std::size_t>& rows) {
    std::vector<char> dead(num_rows_, 0);
    for (std::size_t r : rows) dead[r] = 1;
    std::vector<std::uint32_t> remap(num_rows_, 0);
    std::vector<std::size_t> keep;
    for (std::size_t r = 0; r < num_rows_; ++r) {
      if (!dead[r]) {
        remap[r] = static_cast<std::uint32_t>(keep.size());
        keep.push_back(r);
      }
    }
    const std::size_t new_m = keep.size();
    for (SparseCol& col : cols_) {
      SparseCol nc;
      for (std::size_t k = 0; k < col.nnz(); ++k) {
        if (!dead[col.rows[k]]) nc.push(remap[col.rows[k]], col.vals[k]);
      }
      col = std::move(nc);
    }
    std::vector<double> nb(new_m), nflip(new_m);
    std::vector<std::size_t> norigin(new_m), nbasis(new_m);
    for (std::size_t k = 0; k < new_m; ++k) {
      nb[k] = b_[keep[k]];
      nflip[k] = row_flip_[keep[k]];
      norigin[k] = row_origin_[keep[k]];
      nbasis[k] = basis_[keep[k]];
    }
    b_ = std::move(nb);
    row_flip_ = std::move(nflip);
    row_origin_ = std::move(norigin);
    basis_ = std::move(nbasis);
    num_rows_ = new_m;
    refactor();
  }

  // ---------- state ----------
  SimplexOptions options_;
  const LpProblem& problem_;

  std::size_t num_structural_ = 0;
  std::size_t num_rows_ = 0;
  std::size_t first_artificial_ = 0;
  std::size_t num_artificials_ = 0;

  std::vector<SparseCol> cols_;  // constraint matrix, sparse columns
  std::vector<double> cost_;     // phase-2 cost (min sense)
  std::vector<double> phase1_cost_;
  std::vector<double> b_;
  std::vector<double> row_flip_;
  std::vector<std::size_t> row_origin_;
  std::vector<std::size_t> slack_col_of_row_;

  std::vector<std::size_t> basis_;  // basic variable per row
  std::vector<double> binv_;        // dense basis inverse, row-major
  std::vector<double> xb_;          // basic variable values

  const std::vector<double>* active_cost_ = nullptr;
  bool allow_artificial_entering_ = true;
};

}  // namespace detail

LpSolution solve_lp(const LpProblem& problem, const SimplexOptions& options) {
  BT_REQUIRE(problem.num_variables() > 0, "solve_lp: no variables");
  if (problem.num_constraints() == 0) {
    // Unconstrained: optimum is 0 unless some coefficient improves without
    // bound (x >= 0 only).
    LpSolution solution;
    solution.x.assign(problem.num_variables(), 0.0);
    const double sense = problem.objective() == Objective::kMaximize ? 1.0 : -1.0;
    for (std::size_t j = 0; j < problem.num_variables(); ++j) {
      if (sense * problem.objective_coeff(j) > 0.0) {
        solution.status = LpStatus::kUnbounded;
        return solution;
      }
    }
    solution.status = LpStatus::kOptimal;
    solution.objective = 0.0;
    return solution;
  }
  if (options.engine == LpEngine::kDenseReference) {
    detail::DenseSimplexCore core(problem, options);
    return core.run();
  }
  detail::SparseSimplexCore core(problem, options);
  const LpSolution solution = core.solve();
  if (options.stats != nullptr) options.stats->accumulate(core.engine_stats());
  return solution;
}

IncrementalSimplex::IncrementalSimplex(const LpProblem& problem, const SimplexOptions& options) {
  BT_REQUIRE(problem.num_variables() > 0, "IncrementalSimplex: no variables");
  BT_REQUIRE(problem.num_constraints() > 0, "IncrementalSimplex: no constraints");
  core_ = std::make_unique<detail::SparseSimplexCore>(problem, options);
  core_->set_emit_basis_labels(false);
}

IncrementalSimplex::~IncrementalSimplex() = default;
IncrementalSimplex::IncrementalSimplex(IncrementalSimplex&&) noexcept = default;
IncrementalSimplex& IncrementalSimplex::operator=(IncrementalSimplex&&) noexcept = default;

std::size_t IncrementalSimplex::add_column(double objective_coeff,
                                           const std::vector<LpTerm>& terms) {
  return core_->add_column(objective_coeff, terms);
}

std::size_t IncrementalSimplex::append_row(const std::vector<LpTerm>& terms, RowSense sense,
                                           double rhs) {
  return core_->append_row(terms, sense, rhs);
}

void IncrementalSimplex::set_row_rhs(std::size_t row, double rhs) {
  core_->set_row_rhs(row, rhs);
}

bool IncrementalSimplex::is_basic(std::size_t var) const { return core_->is_basic(var); }

void IncrementalSimplex::update_nonbasic_column(std::size_t var, double objective_coeff,
                                                const std::vector<LpTerm>& terms) {
  core_->update_nonbasic_column(var, objective_coeff, terms);
}

std::size_t IncrementalSimplex::num_variables() const { return core_->num_structural(); }

std::size_t IncrementalSimplex::num_rows() const { return core_->num_rows_total(); }

LpSolution IncrementalSimplex::solve() { return core_->solve(); }

LpSolution IncrementalSimplex::reoptimize_dual() { return core_->reoptimize_dual(); }

LpEngineStats IncrementalSimplex::engine_stats() const { return core_->engine_stats(); }

}  // namespace bt
