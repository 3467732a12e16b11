#pragma once

// Two-phase revised simplex over a sparse LU-factored basis.
//
// Solves LpProblem instances (non-negative variables, <=/>=/= rows).  The
// production engine keeps the basis in sparse LU form (basis_lu.hpp) with
// Forrest-Tomlin updates between periodic refactorizations (product-form
// etas remain selectable for differential testing), solves its triangular
// systems with hypersparse reach-set traversal (BasisLu::SolveMode), prices
// with Devex reference weights over a cyclic candidate-list window (primal)
// and dual steepest-edge row selection (dual) -- Dantzig / most-infeasible
// remain selectable for A/B runs -- plus a Bland's-rule fallback against
// cycling, and uses a two-phase start (artificial variables minimized
// first).  The previous dense-inverse engine is retained as
// LpEngine::kDenseReference for benchmarking and differential testing.
//
// Besides the primal method the sparse engine carries a dual simplex phase
// (two-pass Harris-style ratio test): starting from a dual-feasible basis
// it drives negative basic values out of the solution, which is how a
// re-optimization after appended rows proceeds.
//
// IncrementalSimplex exposes the engine statefully for column and row
// generation: columns can be appended to a standing model (column
// generation) and constraint rows can be appended to it (cutting planes);
// each re-solve continues from the current basis, factorization and duals
// instead of rebuilding.  Appended rows keep the standing basis dual
// feasible (the new slack is basic, the old duals still price every
// column), so reoptimize_dual() needs only a handful of dual pivots where
// a cold solve would redo the whole optimization.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "lp/basis_lu.hpp"
#include "lp/engine_stats.hpp"
#include "lp/lp_problem.hpp"

namespace bt {

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

/// Human-readable status name.
std::string to_string(LpStatus status);

/// Which simplex core services a solve.
enum class LpEngine {
  kSparse,          ///< sparse LU basis + Forrest-Tomlin updates (production)
  kDenseReference,  ///< dense basis inverse (reference / benchmarking)
};

/// Entering-column rule of the primal simplex (sparse engine).
enum class PricingRule {
  kDantzig,  ///< most negative reduced cost within the candidate window
  kDevex,    ///< best d_j^2 / w_j under Devex reference weights (production)
};

/// Leaving-row rule of the dual simplex (sparse engine).
enum class DualRowRule {
  kMostInfeasible,  ///< most negative basic value (pre-PR-5 behavior)
  kDevex,           ///< best xb_r^2 / gamma_r, Devex max-form weight updates
  kSteepestEdge,    ///< exact Forrest-Goldfarb weights via an extra FTRAN
                    ///< per pivot (production)
};

std::string to_string(PricingRule rule);
std::string to_string(DualRowRule rule);

struct SimplexOptions {
  double tolerance = 1e-9;        ///< feasibility / optimality tolerance
  std::size_t max_iterations = 0; ///< 0 = automatic (scales with problem size)
  /// Refactorize the basis from scratch every this many pivots (between
  /// refactorizations the sparse engine updates the factors in place).
  std::size_t refactor_period = 64;
  /// Optional warm-start basis (labels from a previous LpSolution::basis on
  /// a problem with the same rows; extra columns may have been added since).
  /// Honored only when the labeled basis is primal feasible and the problem
  /// needs no artificials; silently ignored otherwise.
  const std::vector<std::size_t>* warm_basis = nullptr;
  LpEngine engine = LpEngine::kSparse;
  /// Basis-update strategy of the sparse engine between refactorizations.
  /// Forrest-Tomlin keeps the factors short; the product-form eta file is
  /// retained for differential testing (see BasisLu::UpdateMode).
  BasisLu::UpdateMode update_mode = BasisLu::UpdateMode::kForrestTomlin;
  /// Triangular-solve strategy: hypersparse reach-set traversal (default)
  /// or the all-m full sweep (reference; see BasisLu::SolveMode).
  BasisLu::SolveMode solve_mode = BasisLu::SolveMode::kReachSet;
  /// Pricing rules of the sparse engine.  The Devex / steepest-edge weight
  /// maintenance rides the hypersparse kernels (one extra unit BTRAN per
  /// primal pivot, one extra FTRAN per dual steepest-edge pivot) and resets
  /// its reference framework on every refactorization as a drift safeguard.
  PricingRule pricing = PricingRule::kDevex;
  DualRowRule dual_row_rule = DualRowRule::kSteepestEdge;
  /// Collect per-call factorize/FTRAN/BTRAN wall-clock into the engine
  /// stats (call and structural reach counters are always collected).
  bool collect_kernel_timing = false;
  /// When set, solve_lp() accumulates the solve's LpEngineStats here
  /// (sparse engine only; the dense reference engine records nothing).
  LpEngineStats* stats = nullptr;
};

/// Basis label encoding for warm starts: structural variable j is labeled j;
/// the slack of row i is labeled kSlackLabelBase - i.
inline constexpr std::size_t kSlackLabelBase = static_cast<std::size_t>(-2);

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  /// Objective value in the problem's own sense (max or min).
  double objective = 0.0;
  /// Primal values of the structural variables.
  std::vector<double> x;
  /// Dual values (one per constraint row); sign convention: for a maximize
  /// problem duals of binding <= rows are >= 0.
  std::vector<double> duals;
  /// Basis labels (one per row) for warm-starting a related problem; empty
  /// when a row's basic variable has no stable label (e.g. an artificial).
  std::vector<std::size_t> basis;
  std::size_t iterations = 0;
};

/// Solve `problem` with the revised simplex method.
LpSolution solve_lp(const LpProblem& problem, const SimplexOptions& options = {});

namespace detail {
class SparseSimplexCore;
}  // namespace detail

/// Stateful sparse simplex for column and row generation: the model, basis
/// and factorization persist across solves; columns and constraint rows can
/// be appended without rebuilding.  Usage pattern:
///
///   IncrementalSimplex master(lp);
///   auto sol = master.solve();                // full two-phase solve
///   master.add_column(coeff, {{row, a}, ...});
///   sol = master.solve();                     // re-optimizes from the
///                                             // standing basis and duals
///   master.append_row({{var, a}, ...}, RowSense::kLessEqual, rhs);
///   sol = master.reoptimize_dual();           // dual pivots from the
///                                             // standing (dual-feasible)
///                                             // basis restore feasibility
///
/// add_column and append_row require that no rows were dropped as redundant
/// during a prior solve (never the case for pure <= programs such as the
/// packing and cutting-plane masters).
class IncrementalSimplex {
 public:
  explicit IncrementalSimplex(const LpProblem& problem, const SimplexOptions& options = {});
  ~IncrementalSimplex();
  IncrementalSimplex(IncrementalSimplex&&) noexcept;
  IncrementalSimplex& operator=(IncrementalSimplex&&) noexcept;

  /// Append a structural variable x >= 0 with objective coefficient
  /// `objective_coeff` (in the problem's own sense) and coefficients `terms`
  /// on the existing constraint rows ({row index, coefficient}; duplicate
  /// rows are summed).  Returns the variable's index in LpSolution::x.  The
  /// current basis stays valid (the new column enters non-basic at zero).
  std::size_t add_column(double objective_coeff, const std::vector<LpTerm>& terms);

  /// Append a constraint row over the existing structural variables
  /// ({variable index, coefficient}; duplicates are summed).  Supports <=
  /// and >= rows (a >= row is negated into a <= row internally); equality
  /// rows are rejected -- append the two inequalities instead.  Returns the
  /// row's index in LpSolution::duals.  The row is merged lazily at the
  /// next solve / reoptimize_dual / add_column call; its slack enters the
  /// basis, so an optimal standing basis stays dual feasible and only
  /// primal feasibility needs repair (see reoptimize_dual).
  std::size_t append_row(const std::vector<LpTerm>& terms, RowSense sense, double rhs);

  /// Change the right-hand side of an existing row (in the sense the row
  /// was stated: a >= row keeps >= semantics).  The standing basis keeps
  /// its reduced costs, so dual feasibility is preserved and
  /// reoptimize_dual() re-optimizes with a handful of dual pivots -- the
  /// textbook use of the dual simplex for rhs ranging.
  void set_row_rhs(std::size_t row, double rhs);

  /// Whether structural variable `var` is in the current basis.
  bool is_basic(std::size_t var) const;

  /// Overwrite the objective coefficient and existing constraint
  /// coefficients ({row index, coefficient}) of a *non-basic* structural
  /// variable in place; every row must already hold a nonzero of the
  /// column.  The variable sits at zero, so the basis, its factorization and
  /// the primal point stay valid -- only its reduced cost moves, and the
  /// next solve prices it like an appended column.  This is a link-cost
  /// delta that leaves no dead column or row behind.  Throws if the
  /// variable is basic or a row falls outside the column's pattern.
  void update_nonbasic_column(std::size_t var, double objective_coeff,
                              const std::vector<LpTerm>& terms);

  /// Number of structural variables currently in the model.
  std::size_t num_variables() const;
  /// Number of constraint rows currently in the model (appended included).
  std::size_t num_rows() const;

  /// Solve or re-optimize.  The first call runs the full two-phase method;
  /// subsequent calls continue from the current basis.  If appended rows
  /// made the standing point primal infeasible, a dual simplex phase runs
  /// first (the basis is dual feasible when the previous solve was optimal),
  /// then the primal cleans up.
  LpSolution solve();

  /// Re-optimize after append_row / set_row_rhs calls via the dual
  /// simplex: restore primal feasibility with dual pivots from the
  /// standing basis, then finish with primal pivots.  The dual phase is
  /// cheap when the previous solve ended kOptimal (the basis is then dual
  /// feasible); otherwise it still terminates and the primal phase
  /// restores optimality.  Equivalent to solve(); the name documents the
  /// intended usage pattern.
  LpSolution reoptimize_dual();

  /// Hypersparsity / pricing diagnostics accumulated over the engine's
  /// lifetime (FTRAN/BTRAN reach fractions, pivot and refactorization
  /// counts, pricing mode; see engine_stats.hpp).
  LpEngineStats engine_stats() const;

 private:
  std::unique_ptr<detail::SparseSimplexCore> core_;
};

}  // namespace bt
