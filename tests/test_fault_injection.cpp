// Tests for the deterministic fault-injection harness
// (util/fault_injection.hpp) and the survival chains it exercises: every
// instrumented fault kind must be absorbed by the degradation ladder
// (ssb/planner_session.hpp solve_laddered, service/planner_service.hpp)
// with the recovered answer agreeing with a fault-free solve, the session
// usable afterwards, and faulted recovery bitwise-identical across worker
// pool widths.  Runs in the ThreadSanitizer CI lane alongside the service
// suites.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "platform/random_generator.hpp"
#include "service/planner_service.hpp"
#include "ssb/planner_session.hpp"
#include "ssb/ssb_cutting_plane.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bt {
namespace {

Platform random_platform(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RandomPlatformConfig config;
  config.num_nodes = n;
  config.density = n <= 12 ? 0.3 : 0.18;
  return generate_random_platform(config, rng);
}

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max({1.0, std::abs(a), std::abs(b)});
}

bool bits_equal(double a, double b) {
  std::uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

// ---- the plan / injector / scope primitives ---------------------------------

TEST(FaultPlan, ParseDescribeRoundTrip) {
  const FaultPlan plan = FaultPlan::parse("refactor@3,stall@5x2,evict@0");
  ASSERT_EQ(plan.events().size(), 3u);
  EXPECT_EQ(plan.describe(), "refactor@3,stall@5x2,evict@0");

  EXPECT_TRUE(plan.should_fire(FaultSite::kSingularRefactor, 3));
  EXPECT_FALSE(plan.should_fire(FaultSite::kSingularRefactor, 2));
  EXPECT_FALSE(plan.should_fire(FaultSite::kSingularRefactor, 4));
  // stall@5x2 covers invocations [5, 7).
  EXPECT_FALSE(plan.should_fire(FaultSite::kSimplexStall, 4));
  EXPECT_TRUE(plan.should_fire(FaultSite::kSimplexStall, 5));
  EXPECT_TRUE(plan.should_fire(FaultSite::kSimplexStall, 6));
  EXPECT_FALSE(plan.should_fire(FaultSite::kSimplexStall, 7));
  EXPECT_TRUE(plan.should_fire(FaultSite::kSessionEviction, 0));
  // A site without a trigger never fires.
  EXPECT_FALSE(plan.should_fire(FaultSite::kSeparationOracle, 0));
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("bogus@1"), Error);
  EXPECT_THROW(FaultPlan::parse("refactor"), Error);
  EXPECT_THROW(FaultPlan::parse("refactor@"), Error);
  EXPECT_THROW(FaultPlan::parse("refactor@1x"), Error);
  EXPECT_THROW(FaultPlan::parse("random:1:2"), Error);
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlan, RandomPlansAreSeeded) {
  const FaultPlan a = FaultPlan::random(7, 6, 100);
  const FaultPlan b = FaultPlan::random(7, 6, 100);
  ASSERT_EQ(a.events().size(), 6u);
  EXPECT_EQ(a.describe(), b.describe());
  for (const FaultEvent& event : a.events()) {
    EXPECT_LT(static_cast<std::size_t>(event.site),
              static_cast<std::size_t>(FaultSite::kNumSites));
    EXPECT_LT(event.at, 100u);
    EXPECT_EQ(event.count, 1u);
  }
}

TEST(FaultInjector, CountsInvocationsAndFiresTriggers) {
  FaultPlan plan;
  plan.add(FaultSite::kSingularRefactor, 1);
  FaultInjector injector(plan);
  FaultScope scope(&injector);
  EXPECT_FALSE(fault_fire(FaultSite::kSingularRefactor));  // invocation 0
  EXPECT_TRUE(fault_fire(FaultSite::kSingularRefactor));   // invocation 1 fires
  EXPECT_FALSE(fault_fire(FaultSite::kSingularRefactor));  // invocation 2
  EXPECT_EQ(injector.invocations(FaultSite::kSingularRefactor), 3u);
  EXPECT_EQ(injector.fired(FaultSite::kSingularRefactor), 1u);
  EXPECT_EQ(injector.total_fired(), 1u);

  injector.reset();
  EXPECT_EQ(injector.invocations(FaultSite::kSingularRefactor), 0u);
  EXPECT_FALSE(fault_fire(FaultSite::kSingularRefactor));
  EXPECT_TRUE(fault_fire(FaultSite::kSingularRefactor));  // plan replays after reset
}

TEST(FaultInjector, UnarmedHooksNeitherCountNorFire) {
  FaultPlan plan;
  plan.add(FaultSite::kSeparationOracle, 0);
  FaultInjector injector(plan);
  // No scope armed: the hook is inert and consumes nothing.
  EXPECT_FALSE(fault_fire(FaultSite::kSeparationOracle));
  EXPECT_EQ(injector.invocations(FaultSite::kSeparationOracle), 0u);
  EXPECT_EQ(armed_fault_injector(), nullptr);

  FaultInjector other;
  {
    FaultScope scope(&injector);
    EXPECT_EQ(armed_fault_injector(), &injector);
    {
      // A nullptr scope is a no-op (call sites arm unconditionally): the
      // outer injector stays armed.  A real nested scope shadows it.
      FaultScope noop(nullptr);
      EXPECT_EQ(armed_fault_injector(), &injector);
      FaultScope inner(&other);
      EXPECT_EQ(armed_fault_injector(), &other);
      EXPECT_FALSE(fault_fire(FaultSite::kSeparationOracle));  // counts on `other`
    }
    EXPECT_EQ(armed_fault_injector(), &injector);  // restored
    EXPECT_TRUE(fault_fire(FaultSite::kSeparationOracle));
  }
  EXPECT_EQ(armed_fault_injector(), nullptr);
  EXPECT_EQ(injector.invocations(FaultSite::kSeparationOracle), 1u);
  EXPECT_EQ(other.invocations(FaultSite::kSeparationOracle), 1u);
  EXPECT_EQ(other.total_fired(), 0u);
}

// ---- survival chains: one per fault kind ------------------------------------

TEST(FaultSurvival, SeparationFaultRecoversOnTheRebuildRung) {
  const Platform p = random_platform(12, 314);
  PlannerSession reference(p);
  const double exact_tp = reference.solve().throughput;

  PlannerSession session(p);
  FaultPlan plan;
  plan.add(FaultSite::kSeparationOracle, 0);  // first separation round throws
  FaultInjector injector(plan);
  FaultScope scope(&injector);

  const SsbSolution& recovered = session.solve_laddered();
  EXPECT_EQ(recovered.tier, PlanTier::kRebuild);
  EXPECT_LE(rel_diff(recovered.throughput, exact_tp), 1e-9);
  EXPECT_GE(session.stats().rollbacks, 1u);
  EXPECT_EQ(injector.fired(FaultSite::kSeparationOracle), 1u);

  // The session stays usable: a mutation later, the (consumed) plan is
  // silent and the warm re-plan is exact again.
  session.scale_link_time(0, 1.5);
  reference.scale_link_time(0, 1.5);
  const SsbSolution& after = session.solve_laddered();
  EXPECT_EQ(after.tier, PlanTier::kExact);
  EXPECT_LE(rel_diff(after.throughput, reference.solve().throughput), 1e-9);
}

TEST(FaultSurvival, PricingFaultRollsBackPackingAndRecovers) {
  const Platform p = random_platform(10, 1234);
  PlannerSession session(p);
  const double exact_tp = session.solve().throughput;

  FaultPlan plan;
  plan.add(FaultSite::kPricingOracle, 0);
  FaultInjector injector(plan);
  FaultScope scope(&injector);
  EXPECT_THROW(session.solve_packing(), Error);
  EXPECT_GE(session.stats().rollbacks, 1u);

  // Trigger consumed; the retry prices cleanly and agrees with the
  // cutting-plane optimum.
  const SsbPackingSolution& packing = session.solve_packing();
  EXPECT_LE(rel_diff(packing.throughput, exact_tp), 1e-9);
}

TEST(FaultSurvival, SingularRefactorIsAbsorbedInsideTheSimplex) {
  const Platform p = random_platform(12, 2020);
  const double exact_tp = solve_ssb_cutting_plane(p).throughput;

  PlannerSession session(p);
  FaultPlan plan;
  plan.add(FaultSite::kSingularRefactor, 0);
  plan.add(FaultSite::kSingularRefactor, 3);
  FaultInjector injector(plan);
  FaultScope scope(&injector);

  // The simplex survival chain (revert, slack-basis restart) absorbs a
  // singular refactorization below the ladder; worst case the session
  // rolls back and the rebuild rung answers.  Either way: no throw, exact
  // agreement.
  const SsbSolution& recovered = session.solve_laddered();
  EXPECT_TRUE(recovered.solved);
  EXPECT_NE(recovered.tier, PlanTier::kHeuristic);
  EXPECT_LE(rel_diff(recovered.throughput, exact_tp), 1e-9);
  EXPECT_GE(injector.fired(FaultSite::kSingularRefactor), 1u);
}

TEST(FaultSurvival, SimplexStallIsAbsorbedOrDegradesGracefully) {
  const Platform p = random_platform(12, 555);
  const double exact_tp = solve_ssb_cutting_plane(p).throughput;

  PlannerSession session(p);
  FaultPlan plan;
  plan.add(FaultSite::kSimplexStall, 0, 2);
  FaultInjector injector(plan);
  FaultScope scope(&injector);

  const SsbSolution& recovered = session.solve_laddered();
  EXPECT_TRUE(recovered.solved);
  EXPECT_GE(injector.fired(FaultSite::kSimplexStall), 1u);
  if (recovered.tier != PlanTier::kHeuristic) {
    EXPECT_LE(rel_diff(recovered.throughput, exact_tp), 1e-9);
  } else {
    // The heuristic rung is a feasible single tree: positive rate, never
    // above the optimum (up to rounding).
    EXPECT_GT(recovered.throughput, 0.0);
    EXPECT_LE(recovered.throughput, exact_tp * (1.0 + 1e-9));
  }
}

TEST(FaultSurvival, SessionEvictionFaultStillAnswersExactly) {
  const Platform p = random_platform(12, 777);
  const double exact_tp = solve_ssb_cutting_plane(p).throughput;

  FaultPlan plan;
  plan.add(FaultSite::kSessionEviction, 1);  // evict before the second solve
  FaultInjector injector(plan);
  PlannerServiceOptions options;
  options.faults = &injector;
  PlannerService service(p, options);

  EXPECT_LE(rel_diff(service.throughput(0), exact_tp), 1e-9);
  service.scale_link_time(0, 1.0);  // version bump forces a re-solve
  EXPECT_LE(rel_diff(service.throughput(0), exact_tp), 1e-9);
  EXPECT_EQ(injector.fired(FaultSite::kSessionEviction), 1u);
  EXPECT_GE(service.stats().sessions_evicted, 1u);
  EXPECT_EQ(service.stats().plans_heuristic, 0u);
}

// ---- deadline budgets -------------------------------------------------------

TEST(LadderBudget, PivotBudgetDropsToHeuristicAndRecoversWhenLifted) {
  const Platform p = random_platform(16, 4242);
  PlannerSession session(p);
  const double exact_tp = session.solve().throughput;

  // Starve a re-plan: one pivot of budget ends the solve at the first
  // round boundary, and the ladder skips the (equally doomed) rebuild rung.
  session.scale_link_time(1, 1.8);
  LadderOptions starved;
  starved.pivot_budget = 1;
  const SsbSolution& degraded = session.solve_laddered(starved);
  EXPECT_EQ(degraded.tier, PlanTier::kHeuristic);
  EXPECT_TRUE(degraded.solved);
  EXPECT_GT(degraded.throughput, 0.0);
  ASSERT_EQ(degraded.tree_columns.size(), 1u);
  EXPECT_GE(degraded.quality_gap, 0.0);
  EXPECT_LE(degraded.quality_gap, 1.0);
  EXPECT_GE(session.stats().budget_exhausts, 1u);
  EXPECT_GE(session.stats().heuristic_plans, 1u);

  // A heuristic answer caches like any other; the next *mutation* clears it
  // and an unbudgeted ladder is exact again.
  session.set_link_cost(1, p.link_cost(1));
  const SsbSolution& restored = session.solve_laddered();
  EXPECT_EQ(restored.tier, PlanTier::kExact);
  EXPECT_LE(rel_diff(restored.throughput, exact_tp), 1e-9);
}

TEST(LadderBudget, HeuristicWithoutHistoryStillBroadcasts) {
  // Budget exhausted on the very first solve: no last-good loads exist, so
  // the heuristic prices on raw arc times; its gap is still measured, not
  // reported as 0 (which would read as optimal).
  const Platform p = random_platform(12, 99);
  PlannerSession session(p);
  LadderOptions starved;
  starved.pivot_budget = 1;
  const SsbSolution& degraded = session.solve_laddered(starved);
  EXPECT_EQ(degraded.tier, PlanTier::kHeuristic);
  EXPECT_GT(degraded.throughput, 0.0);
  const double tp_star = session.solve_cold().throughput;
  EXPECT_GE(degraded.quality_gap, (tp_star - degraded.throughput) / tp_star - 1e-9);
  EXPECT_LE(degraded.quality_gap, 1.0);
  // And the schedule path synthesizes the single tree without LP work.
  EXPECT_GT(session.schedule()->throughput(), 0.0);
}

// quality_gap is measured against an upper bound on TP* -- the aborted
// solve's value-master TP, else the receive-port bound -- so it never
// understates the true gap, with or without a last-good plan, and after
// mutations that moved TP* away from the last optimum.
TEST(LadderBudget, HeuristicGapBoundsTheTrueGap) {
  for (std::uint64_t seed : {99u, 4242u, 8080u}) {
    const Platform p = random_platform(16, seed);
    PlannerSession session(p);
    LadderOptions starved;
    starved.pivot_budget = 1;
    for (int step = 0; step < 4; ++step) {
      if (step > 0) session.scale_link_time(static_cast<EdgeId>(3 * step), step % 2 ? 1.9 : 0.6);
      const SsbSolution degraded = session.solve_laddered(starved);
      ASSERT_EQ(degraded.tier, PlanTier::kHeuristic);
      const double tp_star = session.solve_cold().throughput;
      const double true_gap = (tp_star - degraded.throughput) / tp_star;
      EXPECT_GE(degraded.quality_gap, true_gap - 1e-9) << "seed " << seed << " step " << step;
      EXPECT_LT(degraded.quality_gap, 1.0);
      if (step == 1) session.solve();  // a last-good plan for the later steps
    }
  }
}

TEST(LadderBudget, DisallowedHeuristicRethrows) {
  const Platform p = random_platform(12, 321);
  PlannerSession session(p);
  LadderOptions strict;
  strict.pivot_budget = 1;
  strict.allow_heuristic = false;
  EXPECT_THROW(session.solve_laddered(strict), Error);
  // The failure left the session dirty but intact: an unbudgeted solve works.
  EXPECT_GT(session.solve_laddered().throughput, 0.0);
}

// ---- determinism across pool widths -----------------------------------------

TEST(FaultDeterminism, FaultedRecoveryIsBitwiseAcrossPoolWidths) {
  const Platform p = random_platform(20, 31337);
  SsbSolution reference;
  bool have_reference = false;
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    PlannerSessionOptions options;
    options.cutting.pool = &pool;
    options.colgen.pool = &pool;
    PlannerSession session(p, options);

    FaultPlan plan;
    plan.add(FaultSite::kSeparationOracle, 0);
    plan.add(FaultSite::kSingularRefactor, 2);
    FaultInjector injector(plan);
    FaultScope scope(&injector);
    const SsbSolution recovered = session.solve_laddered();

    if (!have_reference) {
      reference = recovered;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(recovered.tier, reference.tier) << "pool width " << threads;
    EXPECT_TRUE(bits_equal(recovered.throughput, reference.throughput))
        << "pool width " << threads;
    ASSERT_EQ(recovered.edge_load.size(), reference.edge_load.size());
    for (EdgeId e = 0; e < reference.edge_load.size(); ++e) {
      EXPECT_TRUE(bits_equal(recovered.edge_load[e], reference.edge_load[e]))
          << "pool width " << threads << ", arc " << e;
    }
  }
}

}  // namespace
}  // namespace bt
