// Tests for the sparse LU simplex engine (basis_lu.hpp + simplex.cpp):
// randomized cross-validation against the exact rational simplex and the
// dense reference engine, warm-start invariance, a degenerate/cycling
// regression that exercises the eta-update + refactorization path, a
// cutting-plane-shaped basis solved against dense references through
// Forrest-Tomlin updates, and the incremental (append-column and batched
// append-row) API used by the column-generation and cutting-plane masters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "lp/exact_simplex.hpp"
#include "lp/lp_problem.hpp"
#include "lp/rational.hpp"
#include "lp/simplex.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bt {
namespace {

/// Random integer-coefficient maximization program with <= rows and
/// non-negative rhs, mirrored into both representations.
struct PairedLp {
  ExactLp exact;
  LpProblem approx{Objective::kMaximize};
};

PairedLp random_paired_lp(Rng& rng, std::size_t min_vars = 2, std::size_t max_extra = 6) {
  PairedLp lp;
  const std::size_t vars = min_vars + rng.index(max_extra);
  const std::size_t rows = 2 + rng.index(max_extra);
  lp.exact.c.resize(vars);
  for (std::size_t j = 0; j < vars; ++j) {
    const auto cj = rng.uniform_int(0, 9);
    lp.exact.c[j] = Rational(cj);
    lp.approx.add_variable(static_cast<double>(cj));
  }
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<Rational> row(vars);
    std::vector<LpTerm> terms;
    for (std::size_t j = 0; j < vars; ++j) {
      const auto aij = rng.uniform_int(0, 6);
      row[j] = Rational(aij);
      if (aij != 0) terms.push_back({j, static_cast<double>(aij)});
    }
    const auto bi = rng.uniform_int(1, 20);
    lp.exact.a.push_back(std::move(row));
    lp.exact.b.push_back(Rational(bi));
    lp.approx.add_constraint(terms, RowSense::kLessEqual, static_cast<double>(bi));
  }
  return lp;
}

// ------------------------------------------- exact-rational cross-check ----

TEST(SparseEngine, PropertyMatchesExactSimplexObjectiveAndDuals) {
  Rng rng(0x5EED);
  int optimal = 0;
  for (int trial = 0; trial < 80; ++trial) {
    PairedLp lp = random_paired_lp(rng);
    const auto exact = solve_exact_lp(lp.exact);
    const auto s = solve_lp(lp.approx);  // default engine: sparse LU
    if (exact.status == ExactStatus::kUnbounded) {
      EXPECT_EQ(s.status, LpStatus::kUnbounded) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(s.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(s.objective, exact.objective.to_double(), 1e-7) << "trial " << trial;
    EXPECT_LE(lp.approx.max_violation(s.x), 1e-7) << "trial " << trial;
    // Strong duality: b^T y = c^T x, with y >= 0 on <= rows of a max program.
    double dual_objective = 0.0;
    for (std::size_t i = 0; i < lp.approx.num_constraints(); ++i) {
      EXPECT_GE(s.duals[i], -1e-7) << "trial " << trial << " row " << i;
      dual_objective += s.duals[i] * lp.approx.row(i).rhs;
    }
    EXPECT_NEAR(dual_objective, s.objective, 1e-6) << "trial " << trial;
    ++optimal;
  }
  EXPECT_GT(optimal, 40);
}

TEST(SparseEngine, AgreesWithDenseReferenceOnMixedSenseRows) {
  // >= and = rows force the phase-1 + artificial-purge path through the
  // factorization (including redundant-row drops).
  Rng rng(0xD1FF);
  for (int trial = 0; trial < 60; ++trial) {
    LpProblem sparse_lp(Objective::kMinimize);
    const std::size_t vars = 2 + rng.index(4);
    for (std::size_t j = 0; j < vars; ++j) {
      sparse_lp.add_variable(rng.uniform_real(0.5, 4.0));
    }
    const std::size_t rows = 2 + rng.index(4);
    for (std::size_t i = 0; i < rows; ++i) {
      std::vector<LpTerm> terms;
      for (std::size_t j = 0; j < vars; ++j) {
        const auto aij = rng.uniform_int(0, 3);
        if (aij != 0) terms.push_back({j, static_cast<double>(aij)});
      }
      const RowSense sense = i % 3 == 0   ? RowSense::kGreaterEqual
                             : i % 3 == 1 ? RowSense::kLessEqual
                                          : RowSense::kEqual;
      sparse_lp.add_constraint(terms, sense, static_cast<double>(rng.uniform_int(0, 8)));
    }
    SimplexOptions dense_options;
    dense_options.engine = LpEngine::kDenseReference;
    const LpSolution dense = solve_lp(sparse_lp, dense_options);
    const LpSolution sparse = solve_lp(sparse_lp);
    ASSERT_EQ(sparse.status, dense.status) << "trial " << trial;
    if (sparse.status == LpStatus::kOptimal) {
      EXPECT_NEAR(sparse.objective, dense.objective, 1e-6) << "trial " << trial;
    }
  }
}

// ------------------------------------------------------------ warm start ----

TEST(SparseEngine, WarmStartInvariance) {
  // solve(lp) == solve(lp, warm) objectives across random programs, and the
  // warm re-solve converges in at most one full pricing pass.
  Rng rng(0x3A2B);
  for (int trial = 0; trial < 40; ++trial) {
    PairedLp lp = random_paired_lp(rng);
    const LpSolution cold = solve_lp(lp.approx);
    if (cold.status != LpStatus::kOptimal || cold.basis.empty()) continue;
    SimplexOptions options;
    options.warm_basis = &cold.basis;
    const LpSolution warm = solve_lp(lp.approx, options);
    ASSERT_EQ(warm.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-8) << "trial " << trial;
    EXPECT_LE(warm.iterations, 2u) << "trial " << trial;
  }
}

// ---------------------------------------- eta-update / refactorization -----

TEST(SparseEngine, RefactorPeriodDoesNotChangeTheOptimum) {
  // The same degenerate program solved with refactorization after every
  // pivot, every third pivot, and only on the eta-file default must agree:
  // the eta file and a fresh LU are interchangeable representations.
  Rng rng(0xE7A);
  for (int trial = 0; trial < 25; ++trial) {
    PairedLp lp = random_paired_lp(rng, 4, 5);
    const auto exact = solve_exact_lp(lp.exact);
    if (exact.status != ExactStatus::kOptimal) continue;
    for (const std::size_t period : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
      SimplexOptions options;
      options.refactor_period = period;
      const LpSolution s = solve_lp(lp.approx, options);
      ASSERT_EQ(s.status, LpStatus::kOptimal) << "trial " << trial << " period " << period;
      EXPECT_NEAR(s.objective, exact.objective.to_double(), 1e-7)
          << "trial " << trial << " period " << period;
    }
  }
}

TEST(SparseEngine, DegenerateCyclingRegression) {
  // Classic degeneracy: many constraints active at the origin.  The engine
  // must terminate (Bland fallback) and find the exact optimum while its
  // pivots run through the eta-update path.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  const auto y = lp.add_variable(1.0);
  const auto z = lp.add_variable(1.0);
  for (int k = 1; k <= 12; ++k) {
    lp.add_constraint({{x, static_cast<double>(k)}, {y, 1.0}, {z, 0.5 * k}},
                      RowSense::kLessEqual, 0.0);
  }
  lp.add_constraint({{x, 1.0}, {y, 1.0}, {z, 1.0}}, RowSense::kLessEqual, 1.0);
  SimplexOptions options;
  options.refactor_period = 2;  // force the refactor path under degeneracy
  const LpSolution s = solve_lp(lp, options);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-9);  // y enters only at 0: all rows bind
}

// ------------------------------------------------- incremental simplex -----

TEST(IncrementalSimplex, MatchesRebuildAfterEachAppendedColumn) {
  // Column-generation pattern: fixed <= rows, one column appended per round.
  // After every append, the incremental re-solve must match a from-scratch
  // solve of the equivalent full problem (objective and duals).
  Rng rng(0x17C5);
  const std::size_t rows = 6;
  std::vector<double> rhs(rows);
  for (std::size_t i = 0; i < rows; ++i) rhs[i] = rng.uniform_real(1.0, 5.0);

  auto random_column = [&]() {
    std::vector<LpTerm> terms;
    for (std::size_t i = 0; i < rows; ++i) {
      if (rng.bernoulli(0.6)) terms.push_back({i, rng.uniform_real(0.1, 2.0)});
    }
    return terms;
  };

  std::vector<std::vector<LpTerm>> columns{random_column()};
  std::vector<double> objective{rng.uniform_real(0.5, 2.0)};

  auto build_full = [&]() {
    LpProblem lp(Objective::kMaximize);
    for (double c : objective) lp.add_variable(c);
    for (std::size_t i = 0; i < rows; ++i) {
      std::vector<LpTerm> row_terms;  // transpose the column list
      for (std::size_t j = 0; j < columns.size(); ++j) {
        for (const LpTerm& t : columns[j]) {
          if (t.var == i) row_terms.push_back({j, t.coeff});
        }
      }
      lp.add_constraint(row_terms, RowSense::kLessEqual, rhs[i]);
    }
    return lp;
  };

  LpProblem initial = build_full();
  IncrementalSimplex engine(initial);
  for (int round = 0; round < 12; ++round) {
    const LpSolution incremental = engine.solve();
    ASSERT_EQ(incremental.status, LpStatus::kOptimal) << "round " << round;
    const LpSolution reference = solve_lp(build_full());
    ASSERT_EQ(reference.status, LpStatus::kOptimal) << "round " << round;
    EXPECT_NEAR(incremental.objective, reference.objective, 1e-7) << "round " << round;
    ASSERT_EQ(incremental.x.size(), columns.size()) << "round " << round;
    // Duals of both solves price every column to within tolerance: reduced
    // costs of an optimal dual vector are <= 0 for a max program.
    for (std::size_t j = 0; j < columns.size(); ++j) {
      double reduced = objective[j];
      for (const LpTerm& t : columns[j]) reduced -= incremental.duals[t.var] * t.coeff;
      EXPECT_LE(reduced, 1e-6) << "round " << round << " column " << j;
    }
    columns.push_back(random_column());
    objective.push_back(rng.uniform_real(0.5, 2.0));
    engine.add_column(objective.back(), columns.back());
    EXPECT_EQ(engine.num_variables(), columns.size());
  }
}

TEST(IncrementalSimplex, RepeatedSolveIsIdempotent) {
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(3.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  IncrementalSimplex engine(lp);
  const LpSolution first = engine.solve();
  const LpSolution second = engine.solve();
  ASSERT_EQ(first.status, LpStatus::kOptimal);
  ASSERT_EQ(second.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(first.objective, second.objective);
  EXPECT_LE(second.iterations, 1u);  // nothing to do from an optimal basis
}

TEST(IncrementalSimplex, AddColumnMergesDuplicateRowTerms) {
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 6.0);
  IncrementalSimplex engine(lp);
  ASSERT_EQ(engine.solve().status, LpStatus::kOptimal);
  // {row 0: 1.0} + {row 0: 2.0} must act as a single coefficient 3.0.
  engine.add_column(9.0, {{0, 1.0}, {0, 2.0}});
  const LpSolution s = engine.solve();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 18.0, 1e-9);  // new column: 6/3 * 9 = 18 beats 6
}

TEST(IncrementalSimplex, InfeasibleModelStaysInfeasibleUntilAColumnFixesIt) {
  // x >= 2 and x <= 1 is infeasible.  Re-solving must not skip phase 1 and
  // "succeed" with artificials still basic; appending a column that makes
  // the model feasible must then solve for real.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kGreaterEqual, 2.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 1.0);
  IncrementalSimplex engine(lp);
  EXPECT_EQ(engine.solve().status, LpStatus::kInfeasible);
  EXPECT_EQ(engine.solve().status, LpStatus::kInfeasible);
  engine.add_column(-0.5, {{0, 1.0}});  // row 0 becomes x + y >= 2
  const LpSolution fixed = engine.solve();
  ASSERT_EQ(fixed.status, LpStatus::kOptimal);
  EXPECT_NEAR(fixed.objective, 0.5, 1e-9);  // x = 1, y = 1
}

// ------------------------------------------- dual simplex / row appends ----

TEST(IncrementalSimplex, AppendRowReoptimizesWithDualPivots) {
  // max 3x + 2y, x + y <= 4, x <= 3: optimum (3, 1) -> 11.  Appending
  // y <= 1 keeps it; appending x + 2y <= 3 cuts it to (3, 0) -> 9.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(3.0);
  const auto y = lp.add_variable(2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 4.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 3.0);
  IncrementalSimplex engine(lp);
  ASSERT_EQ(engine.solve().status, LpStatus::kOptimal);

  engine.append_row({{y, 1.0}}, RowSense::kLessEqual, 1.0);
  LpSolution s = engine.reoptimize_dual();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 11.0, 1e-9);
  EXPECT_EQ(engine.num_rows(), 3u);

  engine.append_row({{x, 1.0}, {y, 2.0}}, RowSense::kLessEqual, 3.0);
  s = engine.reoptimize_dual();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 9.0, 1e-9);
  ASSERT_EQ(s.duals.size(), 4u);  // appended rows price like built rows
  double dual_objective = 4.0 * s.duals[0] + 3.0 * s.duals[1] + 1.0 * s.duals[2] +
                          3.0 * s.duals[3];
  EXPECT_NEAR(dual_objective, s.objective, 1e-8);
}

TEST(IncrementalSimplex, AppendRowMergesDuplicateTermsEvenThroughZero) {
  // {x: 1} + {x: -1} + {x: 2} must act as a single coefficient 2, even
  // though the running sum passes through exactly zero (regression: the
  // accumulator once emitted such a variable twice, doubling it to 4).
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 10.0);
  IncrementalSimplex engine(lp);
  ASSERT_EQ(engine.solve().status, LpStatus::kOptimal);
  engine.append_row({{x, 1.0}, {x, -1.0}, {x, 2.0}}, RowSense::kLessEqual, 4.0);
  const LpSolution s = engine.reoptimize_dual();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);  // 2x <= 4, not 4x <= 4
}

TEST(IncrementalSimplex, AppendRowCanMakeTheModelInfeasible) {
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  IncrementalSimplex engine(lp);
  ASSERT_EQ(engine.solve().status, LpStatus::kOptimal);
  engine.append_row({{x, 1.0}}, RowSense::kGreaterEqual, 5.0);  // x >= 5 vs x <= 4
  EXPECT_EQ(engine.reoptimize_dual().status, LpStatus::kInfeasible);
}

TEST(IncrementalSimplex, SetRowRhsRangesWithTheDualSimplex) {
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(2.0);
  const auto y = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 10.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 6.0);
  IncrementalSimplex engine(lp);
  ASSERT_EQ(engine.solve().status, LpStatus::kOptimal);  // (6, 4) -> 16
  engine.set_row_rhs(1, 2.0);                            // tighten x <= 2
  LpSolution s = engine.reoptimize_dual();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-9);  // (2, 8)
  engine.set_row_rhs(1, 6.0);            // relax back
  s = engine.reoptimize_dual();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 16.0, 1e-9);
}

TEST(IncrementalSimplex, SetRowRhsBeforeFirstSolveIsHonored) {
  // Regression: a pre-solve rhs change to a negative value leaves the
  // row's slack basic at a negative level, which phase 1 cannot see; the
  // first solve must still run the dual repair and report infeasibility.
  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  IncrementalSimplex engine(lp);
  engine.set_row_rhs(0, -2.0);  // x <= -2 with x >= 0: infeasible
  EXPECT_EQ(engine.solve().status, LpStatus::kInfeasible);

  IncrementalSimplex relaxed(lp);
  relaxed.set_row_rhs(0, 9.0);
  const LpSolution s = relaxed.solve();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 9.0, 1e-9);

  // Rows without a slack (here: built from a flipped negative-rhs row, so
  // phase 1 sees a basic artificial) reject a pre-solve sign change; after
  // the first solve the same change goes through the dual repair.
  LpProblem flipped(Objective::kMinimize);
  const auto z = flipped.add_variable(1.0);
  flipped.add_constraint({{z, -2.0}}, RowSense::kLessEqual, -2.0);  // z >= 1
  IncrementalSimplex guarded(flipped);
  EXPECT_THROW(guarded.set_row_rhs(0, 4.0), Error);  // internal rhs would flip sign
  ASSERT_EQ(guarded.solve().status, LpStatus::kOptimal);
  guarded.set_row_rhs(0, -4.0);  // z >= 2 now; fine post-solve
  const LpSolution tightened = guarded.reoptimize_dual();
  ASSERT_EQ(tightened.status, LpStatus::kOptimal);
  EXPECT_NEAR(tightened.objective, 2.0, 1e-9);
}

TEST(SparseEngine, UpdateModesAgreeOnRandomPrograms) {
  Rng rng(0xF71);
  for (int trial = 0; trial < 30; ++trial) {
    PairedLp lp = random_paired_lp(rng, 3, 5);
    SimplexOptions ft;
    ft.update_mode = BasisLu::UpdateMode::kForrestTomlin;
    ft.refactor_period = 1 + rng.index(8);
    SimplexOptions pf;
    pf.update_mode = BasisLu::UpdateMode::kProductForm;
    pf.refactor_period = ft.refactor_period;
    const LpSolution a = solve_lp(lp.approx, ft);
    const LpSolution b = solve_lp(lp.approx, pf);
    ASSERT_EQ(a.status, b.status) << "trial " << trial;
    if (a.status == LpStatus::kOptimal) {
      EXPECT_NEAR(a.objective, b.objective, 1e-8) << "trial " << trial;
    }
  }
}

// ------------------------------------ Devex / steepest-edge pricing (PR 5) --

TEST(SparseEngine, DevexWeightResetsAreCorrectAcrossRefactorPeriods) {
  // The Devex reference framework persists across re-solves and is reset by
  // the drift safeguards (overflow, Bland exits, structure changes); a
  // refactorization itself must not change where the solve lands.  Solving
  // the same programs with refactorization after every pivot, every other
  // pivot, and on the default period must agree with the exact optimum --
  // under both pricing rules and both dual row selections.
  Rng rng(0xDE5E);
  for (int trial = 0; trial < 30; ++trial) {
    PairedLp lp = random_paired_lp(rng, 4, 5);
    const auto exact = solve_exact_lp(lp.exact);
    if (exact.status != ExactStatus::kOptimal) continue;
    for (const std::size_t period : {std::size_t{1}, std::size_t{2}, std::size_t{64}}) {
      SimplexOptions options;
      options.pricing = PricingRule::kDevex;
      options.dual_row_rule = DualRowRule::kSteepestEdge;
      options.refactor_period = period;
      const LpSolution s = solve_lp(lp.approx, options);
      ASSERT_EQ(s.status, LpStatus::kOptimal) << "trial " << trial << " period " << period;
      EXPECT_NEAR(s.objective, exact.objective.to_double(), 1e-7)
          << "trial " << trial << " period " << period;
    }
  }
}

TEST(IncrementalSimplex, DevexWeightsSurviveRefactorizationDuringRowRanging) {
  // Standing-master usage under the production pricing: appended rows and
  // rhs ranging interleave dual and primal pivots across many
  // refactorizations (period 1 = refactor on every pivot); the weighted
  // frameworks must keep landing on the same optimum as the default-period
  // engine.
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t vars = 3 + rng.index(4);
    const std::size_t nrows = 3 + rng.index(3);
    LpProblem lp(Objective::kMaximize);
    std::vector<double> c(vars);
    for (std::size_t j = 0; j < vars; ++j) {
      c[j] = rng.uniform_int(1, 9);
      lp.add_variable(c[j]);
    }
    std::vector<std::vector<LpTerm>> rows(nrows);
    std::vector<double> rhs(nrows);
    for (std::size_t i = 0; i < nrows; ++i) {
      for (std::size_t j = 0; j < vars; ++j) {
        const int aij = rng.uniform_int(0, 5);
        if (aij != 0) rows[i].push_back({j, static_cast<double>(aij)});
      }
      rhs[i] = rng.uniform_int(1, 12);
      lp.add_constraint(rows[i], RowSense::kLessEqual, rhs[i]);
    }
    SimplexOptions every_pivot;
    every_pivot.pricing = PricingRule::kDevex;
    every_pivot.dual_row_rule = DualRowRule::kSteepestEdge;
    every_pivot.refactor_period = 1;
    IncrementalSimplex frequent(lp, every_pivot);
    IncrementalSimplex standard(lp);
    if (frequent.solve().status != LpStatus::kOptimal) continue;
    ASSERT_EQ(standard.solve().status, LpStatus::kOptimal) << "trial " << trial;
    for (int change = 0; change < 5; ++change) {
      const std::size_t row = rng.index(nrows);
      const double new_rhs = rng.uniform_int(0, 12);
      frequent.set_row_rhs(row, new_rhs);
      standard.set_row_rhs(row, new_rhs);
      const LpSolution a = frequent.reoptimize_dual();
      const LpSolution b = standard.reoptimize_dual();
      ASSERT_EQ(a.status, b.status) << "trial " << trial << " change " << change;
      if (a.status == LpStatus::kOptimal) {
        EXPECT_NEAR(a.objective, b.objective, 1e-7) << "trial " << trial << " change " << change;
      }
    }
  }
}

// ------------------------------------------- reach-set FTRAN/BTRAN (PR 5) --

namespace reach_test {

/// Owning sparse column set with view access for BasisLu::factorize.
struct Columns {
  std::vector<std::vector<std::uint32_t>> rows;
  std::vector<std::vector<double>> vals;

  void add(std::vector<std::uint32_t> r, std::vector<double> v) {
    rows.push_back(std::move(r));
    vals.push_back(std::move(v));
  }
  std::vector<SparseColumnView> views() const {
    std::vector<SparseColumnView> out(rows.size());
    for (std::size_t k = 0; k < rows.size(); ++k) {
      out[k] = SparseColumnView{rows[k].data(), vals[k].data(), rows[k].size()};
    }
    return out;
  }
};

/// Unit-vector FTRAN/BTRAN through `lu`, returning the number of
/// elimination steps the solve visited (reach under kReachSet, m under
/// kFullSweep) via the stats delta.
std::uint64_t probe_steps(BasisLu& lu, std::size_t m, std::size_t position, bool do_btran,
                          ScatteredVector& x) {
  x.reset(m);
  x.push(static_cast<std::uint32_t>(position), 1.0);
  const LpEngineStats before = lu.stats();
  if (do_btran) {
    lu.btran(x, BasisLu::SolveHint::kSparse);
    return lu.stats().btran_reach_steps - before.btran_reach_steps;
  }
  lu.ftran(x, BasisLu::SolveHint::kSparse);
  return lu.stats().ftran_reach_steps - before.ftran_reach_steps;
}

}  // namespace reach_test

TEST(BasisLuReach, IdentityBasisSolvesTouchOneStep) {
  using reach_test::Columns;
  const std::size_t m = 32;
  Columns cols;
  for (std::size_t k = 0; k < m; ++k) cols.add({static_cast<std::uint32_t>(k)}, {2.0});
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(m, cols.views()));
  ASSERT_EQ(lu.solve_mode(), BasisLu::SolveMode::kReachSet);  // production default
  ScatteredVector x;
  for (const std::size_t pos : {std::size_t{0}, std::size_t{7}, std::size_t{31}}) {
    EXPECT_EQ(reach_test::probe_steps(lu, m, pos, /*do_btran=*/false, x), 1u) << pos;
    EXPECT_DOUBLE_EQ(x.value[pos], 0.5);
    ASSERT_EQ(x.nonzero.size(), 1u);
    EXPECT_EQ(reach_test::probe_steps(lu, m, pos, /*do_btran=*/true, x), 1u) << pos;
    EXPECT_DOUBLE_EQ(x.value[pos], 0.5);
  }
}

TEST(BasisLuReach, BlockDiagonalBasisConfinesTheReachToOneBlock) {
  // Two decoupled lower-bidiagonal blocks: a right-hand side supported in
  // one block must never visit elimination steps of the other, and a unit
  // rhs at a block's *last* position reaches exactly one step.
  using reach_test::Columns;
  const std::size_t block = 6;
  const std::size_t m = 2 * block;
  Columns cols;
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t k = 0; k < block; ++k) {
      const std::uint32_t col = static_cast<std::uint32_t>(b * block + k);
      if (k + 1 < block) {
        cols.add({col, col + 1}, {1.0, -0.5});
      } else {
        cols.add({col}, {1.0});
      }
    }
  }
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(m, cols.views()));
  ScatteredVector x;

  // Head of block 0: the full chain of that block (and only it).
  EXPECT_EQ(reach_test::probe_steps(lu, m, 0, /*do_btran=*/false, x), block);
  for (std::size_t k = 0; k < block; ++k) {
    EXPECT_NEAR(x.value[k], std::pow(0.5, static_cast<double>(k)), 1e-12) << k;
  }
  for (std::size_t k = block; k < m; ++k) EXPECT_EQ(x.value[k], 0.0) << k;

  // Head of block 1: same shape, confined to the second block.
  EXPECT_EQ(reach_test::probe_steps(lu, m, block, /*do_btran=*/false, x), block);
  for (std::size_t k = 0; k < block; ++k) EXPECT_EQ(x.value[k], 0.0) << k;

  // Tail positions depend on no other column: exactly one step each.
  EXPECT_EQ(reach_test::probe_steps(lu, m, block - 1, /*do_btran=*/false, x), 1u);
  EXPECT_EQ(reach_test::probe_steps(lu, m, m - 1, /*do_btran=*/false, x), 1u);

  // BTRAN transposes the dependency: the tail of a block reaches the whole
  // block, its head exactly one step.
  EXPECT_EQ(reach_test::probe_steps(lu, m, block - 1, /*do_btran=*/true, x), block);
  EXPECT_EQ(reach_test::probe_steps(lu, m, 0, /*do_btran=*/true, x), 1u);
}

TEST(BasisLuReach, FullSweepCountsTheWholeDimensionAndMatchesReachValues) {
  // Differential: the same factorization solved in both modes returns
  // bit-identical values, while the stats separate reach from dimension.
  using reach_test::Columns;
  Rng rng(0x2EAC);
  const std::size_t m = 24;
  Columns cols;
  for (std::size_t k = 0; k < m; ++k) {
    std::vector<std::uint32_t> r{static_cast<std::uint32_t>(k)};
    std::vector<double> v{3.0 + rng.uniform_real(0.0, 2.0)};
    for (std::size_t i = 0; i < m; ++i) {
      if (i != k && rng.bernoulli(0.15)) {
        r.push_back(static_cast<std::uint32_t>(i));
        v.push_back(rng.uniform_real(-1.0, 1.0));
      }
    }
    cols.add(std::move(r), std::move(v));
  }
  BasisLu reach, sweep;
  sweep.set_solve_mode(BasisLu::SolveMode::kFullSweep);
  ASSERT_TRUE(reach.factorize(m, cols.views()));
  ASSERT_TRUE(sweep.factorize(m, cols.views()));
  ScatteredVector a, b;
  for (int probe = 0; probe < 12; ++probe) {
    a.reset(m);
    b.reset(m);
    for (std::size_t i = 0; i < m; ++i) {
      if (rng.bernoulli(0.2)) {
        const double value = rng.uniform_real(-2.0, 2.0);
        a.push(static_cast<std::uint32_t>(i), value);
        b.push(static_cast<std::uint32_t>(i), value);
      }
    }
    if (probe % 2 == 0) {
      reach.ftran(a, BasisLu::SolveHint::kSparse);
      sweep.ftran(b);
    } else {
      reach.btran(a, BasisLu::SolveHint::kSparse);
      sweep.btran(b);
    }
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(a.value[i], b.value[i]) << "probe " << probe << " pos " << i;
    }
  }
  // Full sweep always pays the whole dimension; the reach mode reports at
  // most that (and its budgeted fallbacks count m too, so the fraction is
  // an honest average).
  EXPECT_EQ(sweep.stats().ftran_reach_steps, sweep.stats().ftran_calls * m);
  EXPECT_EQ(sweep.stats().btran_reach_steps, sweep.stats().btran_calls * m);
  EXPECT_LE(reach.stats().ftran_reach_steps, sweep.stats().ftran_reach_steps);
  EXPECT_LE(reach.stats().btran_reach_steps, sweep.stats().btran_reach_steps);
}

namespace cut_basis_test {

/// Dense m x m matrix, column-major: a[k][i] is row i of column k.
using Dense = std::vector<std::vector<double>>;

/// Solve M z = rhs by Gaussian elimination with partial pivoting, where
/// M = B (transpose = false) or B^T (transpose = true).
std::vector<double> dense_solve(const Dense& b, std::vector<double> rhs, bool transpose) {
  const std::size_t m = b.size();
  std::vector<std::vector<double>> a(m, std::vector<double>(m));
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t i = 0; i < m; ++i) {
      if (transpose) a[k][i] = b[k][i];  // row k of B^T is column k of B
      else a[i][k] = b[k][i];
    }
  }
  for (std::size_t c = 0; c < m; ++c) {
    std::size_t p = c;
    for (std::size_t r = c + 1; r < m; ++r) {
      if (std::abs(a[r][c]) > std::abs(a[p][c])) p = r;
    }
    std::swap(a[p], a[c]);
    std::swap(rhs[p], rhs[c]);
    for (std::size_t r = c + 1; r < m; ++r) {
      const double f = a[r][c] / a[c][c];
      if (f == 0.0) continue;
      for (std::size_t k = c; k < m; ++k) a[r][k] -= f * a[c][k];
      rhs[r] -= f * rhs[c];
    }
  }
  for (std::size_t c = m; c-- > 0;) {
    for (std::size_t k = c + 1; k < m; ++k) rhs[c] -= a[c][k] * rhs[k];
    rhs[c] /= a[c][c];
  }
  return rhs;
}

/// Random FTRAN (row-space rhs) and BTRAN (position-space rhs) probes of
/// `lu` against dense solves of the basis `b`.
void expect_solves_match_dense(BasisLu& lu, const Dense& b, Rng& rng, const std::string& when) {
  const std::size_t m = b.size();
  ScatteredVector x;
  for (int probe = 0; probe < 8; ++probe) {
    const bool do_btran = probe % 2 == 1;
    std::vector<double> rhs(m, 0.0);
    x.reset(m);
    for (std::size_t i = 0; i < m; ++i) {
      if (probe < 4 ? rng.bernoulli(0.1) : true) {
        rhs[i] = rng.uniform_real(-2.0, 2.0);
        x.push(static_cast<std::uint32_t>(i), rhs[i]);
      }
    }
    const std::vector<double> ref = dense_solve(b, rhs, do_btran);
    if (do_btran) lu.btran(x);
    else lu.ftran(x);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(x.value[i], ref[i], 1e-12 * std::max(1.0, std::abs(ref[i])))
          << when << ", probe " << probe << ", index " << i;
    }
  }
}

}  // namespace cut_basis_test

TEST(BasisLuReach, CutStructuredBasisMatchesDenseSolvesThroughUpdates) {
  // The shape of a cutting-plane master's basis: a TP-like column crossing
  // every row, arc columns with +-1 cut coefficients, and slack singletons
  // on most rows -- so most elimination steps detach a pivot-row entry
  // from crossing columns without touching the rest of them.  Special
  // columns pin the cached column maxima: one whose unique max sits on a
  // slack row (detached first), one whose max 2 is shared by several
  // entries, and two that agree on two kernel rows, so eliminating one
  // from the other cancels an entry to exactly 0.
  using cut_basis_test::Dense;
  const std::size_t m = 48;
  const std::size_t kernel = 12;  // rows [0, kernel) carry no slack
  Rng rng(0xC075);
  Dense b;
  auto add = [&](const std::vector<std::pair<std::uint32_t, double>>& entries) {
    b.emplace_back(m, 0.0);
    for (const auto& [row, value] : entries) b.back()[row] = value;
  };
  {
    std::vector<std::pair<std::uint32_t, double>> tp;
    for (std::uint32_t i = 0; i < m; ++i) tp.push_back({i, i == 0 ? 0.5 : 1.0});
    add(tp);
  }
  add({{1, 1.0}, {2, 1.0}, {m - 1, -1.0}});                       // cancels with the next
  add({{1, 1.0}, {2, 1.0}, {3, -1.0}, {m - 2, 1.0}});
  add({{2, -1.0}, {3, 1.0}, {4, -1.0}, {kernel + 2, 4.0}, {kernel + 5, -1.0}});  // unique max
  add({{4, 2.0}, {5, -2.0}, {kernel + 3, 2.0}, {kernel + 7, 2.0}, {kernel + 9, -1.0}});  // shared max
  for (std::uint32_t k = 5; k < kernel; ++k) {
    std::vector<std::pair<std::uint32_t, double>> arc{{k, -1.0}};
    if (k + 1 < kernel) arc.push_back({k + 1, 1.0});
    for (std::uint32_t i = kernel; i < m; ++i) {
      if (rng.bernoulli(0.3)) arc.push_back({i, -1.0});
    }
    add(arc);
  }
  for (std::uint32_t i = kernel; i < m; ++i) add({{i, 1.0}});
  ASSERT_EQ(b.size(), m);

  // Views over the dense columns' nonzeros, TP-like column last in the
  // arena so positions and columns do not coincide trivially.
  std::vector<std::vector<std::uint32_t>> rows(m);
  std::vector<std::vector<double>> vals(m);
  auto load = [&](std::size_t k) {
    rows[k].clear();
    vals[k].clear();
    for (std::uint32_t i = 0; i < m; ++i) {
      if (b[k][i] != 0.0) {
        rows[k].push_back(i);
        vals[k].push_back(b[k][i]);
      }
    }
  };
  auto views = [&]() {
    std::vector<SparseColumnView> out(m);
    for (std::size_t k = 0; k < m; ++k) {
      out[k] = SparseColumnView{rows[k].data(), vals[k].data(), rows[k].size()};
    }
    return out;
  };
  for (std::size_t k = 0; k < m; ++k) load(k);

  BasisLu lu;
  ASSERT_TRUE(lu.factorize(m, views()));
  cut_basis_test::expect_solves_match_dense(lu, b, rng, "fresh factorization");

  // 64 Forrest-Tomlin updates with cut-shaped entering columns, each
  // leaving at its largest pivot (which keeps the basis well conditioned).
  ScatteredVector w;
  std::size_t updates = 0;
  for (int attempt = 0; attempt < 512 && updates < 64; ++attempt) {
    std::vector<double> column(m, 0.0);
    column[rng.index(m)] = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (rng.bernoulli(0.15)) column[i] = rng.bernoulli(0.5) ? 1.0 : -1.0;
    }
    w.reset(m);
    for (std::uint32_t i = 0; i < m; ++i) {
      if (column[i] != 0.0) w.push(i, column[i]);
    }
    lu.ftran(w);
    std::size_t leave = 0;
    for (std::size_t k = 1; k < m; ++k) {
      if (std::abs(w.value[k]) > std::abs(w.value[leave])) leave = k;
    }
    if (std::abs(w.value[leave]) < 1.0) continue;
    ASSERT_TRUE(lu.update(leave, w)) << "update " << updates;
    b[leave] = column;
    ++updates;
  }
  ASSERT_EQ(updates, 64u);
  ASSERT_EQ(lu.update_count(), 64u);
  cut_basis_test::expect_solves_match_dense(lu, b, rng, "after 64 updates");

  // And a refactorization of the updated basis agrees again.
  for (std::size_t k = 0; k < m; ++k) load(k);
  ASSERT_TRUE(lu.factorize(m, views()));
  cut_basis_test::expect_solves_match_dense(lu, b, rng, "refactorized");
}

TEST(IncrementalSimplex, RowBatchesWithRhsChangesMatchTheFullSolve) {
  // The cutting-plane pattern: rows appended in batches (cut rows
  // TP - sum n_e <= 0 and their >= mirror images), a right-hand side
  // re-ranged between batches, and one column added midway so appended
  // rows also reach a structural column that sits after slack columns.
  // After every batch the warm re-solve must match a cold solve of the
  // full problem.
  Rng rng(0xBA7C);
  const std::size_t arcs = 14;
  struct Row {
    std::vector<LpTerm> terms;
    RowSense sense;
    double rhs;
  };
  std::vector<double> objective(arcs + 1, 0.0);
  objective[0] = 1.0;  // maximize TP (variable 0)
  std::vector<Row> model;
  {
    std::vector<LpTerm> capacity;
    for (std::size_t e = 1; e <= arcs; ++e) capacity.push_back({e, rng.uniform_real(0.5, 2.0)});
    model.push_back({capacity, RowSense::kLessEqual, 4.0});
  }
  auto cut_row = [&](std::size_t vars) {
    std::vector<LpTerm> terms;
    for (std::size_t e = vars; e-- > 1;) {  // descending variable order
      if (rng.bernoulli(0.3)) terms.push_back({e, -1.0});
    }
    terms.push_back({0, 1.0});
    return terms;
  };
  for (int i = 0; i < 3; ++i) model.push_back({cut_row(objective.size()), RowSense::kLessEqual, 0.0});

  auto build_full = [&]() {
    LpProblem lp(Objective::kMaximize);
    for (const double c : objective) lp.add_variable(c);
    for (const Row& row : model) lp.add_constraint(row.terms, row.sense, row.rhs);
    return lp;
  };
  IncrementalSimplex engine(build_full());
  ASSERT_EQ(engine.solve().status, LpStatus::kOptimal);

  for (int batch = 0; batch < 10; ++batch) {
    if (batch == 5) {
      // A new arc column on the capacity row, as column generation adds.
      objective.push_back(0.0);
      const double weight = rng.uniform_real(0.5, 2.0);
      engine.add_column(0.0, {{0, weight}});
      model[0].terms.push_back({objective.size() - 1, weight});
    }
    const int rows_in_batch = 1 + batch % 4;
    for (int r = 0; r < rows_in_batch; ++r) {
      std::vector<LpTerm> terms = cut_row(objective.size());
      RowSense sense = RowSense::kLessEqual;
      if (r % 2 == 1) {  // the same cut written as -TP + sum n_e >= 0
        for (LpTerm& t : terms) t.coeff = -t.coeff;
        sense = RowSense::kGreaterEqual;
      }
      engine.append_row(terms, sense, 0.0);
      model.push_back({terms, sense, 0.0});
    }
    model[0].rhs = rng.uniform_real(2.0, 6.0);
    engine.set_row_rhs(0, model[0].rhs);
    const LpSolution warm = engine.reoptimize_dual();
    const LpSolution cold = solve_lp(build_full());
    ASSERT_EQ(warm.status, LpStatus::kOptimal) << "batch " << batch;
    ASSERT_EQ(cold.status, LpStatus::kOptimal) << "batch " << batch;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-9 * std::max(1.0, std::abs(cold.objective)))
        << "batch " << batch;
    EXPECT_EQ(engine.num_rows(), model.size());
  }
}

TEST(IncrementalSimplex, RejectsBadInput) {
  LpProblem empty_rows(Objective::kMaximize);
  empty_rows.add_variable(1.0);
  EXPECT_THROW(IncrementalSimplex bad(empty_rows), Error);

  LpProblem lp(Objective::kMaximize);
  const auto x = lp.add_variable(1.0);
  lp.add_constraint({{x, 1.0}}, RowSense::kLessEqual, 1.0);
  IncrementalSimplex engine(lp);
  EXPECT_THROW(engine.add_column(1.0, {{7, 1.0}}), Error);  // row out of range
  EXPECT_THROW(engine.append_row({{x, 1.0}}, RowSense::kEqual, 1.0), Error);
  EXPECT_THROW(engine.append_row({{9, 1.0}}, RowSense::kLessEqual, 1.0), Error);
  EXPECT_THROW(engine.set_row_rhs(5, 1.0), Error);  // row out of range
}

}  // namespace
}  // namespace bt
