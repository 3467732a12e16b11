// Tests for the long-lived PlannerSession (ssb/planner_session.hpp): the
// load -> solve -> query -> mutate -> re-solve lifecycle, the differential
// guarantee that warm delta re-plans agree with cold solves to <= 1e-9
// relative throughput, the error-rollback contract, the schedule /
// packing-pool caching, the separation and decomposition memos (re-plans
// answer bitwise what the layers' free functions answer), the bound on the
// standing masters' growth under long mutation streams, and the pivot count
// of a solve whose standing master broke down and was rebuilt.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "platform/random_generator.hpp"
#include "scenario/event_stream.hpp"
#include "sched/orchestrate.hpp"
#include "sched/tree_decomposition.hpp"
#include "ssb/planner_session.hpp"
#include "ssb/ssb_column_generation.hpp"
#include "ssb/ssb_cutting_plane.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

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

TEST(PlannerSession, MatchesBatchSolverOnFirstSolve) {
  // The batch entry points are wrappers over a throwaway session, so this
  // pins the wrapper plumbing: an explicit session with default (batch)
  // options reports the identical solution.
  const Platform p = random_platform(14, 42);
  const SsbSolution batch = solve_ssb_cutting_plane(p);
  PlannerSession session(p);
  const SsbSolution& s = session.solve();
  EXPECT_EQ(s.throughput, batch.throughput);  // bitwise: same code path
  ASSERT_EQ(s.edge_load.size(), batch.edge_load.size());
  for (std::size_t e = 0; e < s.edge_load.size(); ++e) {
    EXPECT_EQ(s.edge_load[e], batch.edge_load[e]) << "arc " << e;
  }
  EXPECT_EQ(session.stats().cutting_solves, 1u);
  // Cached: a second solve does no LP work.
  session.solve();
  EXPECT_EQ(session.stats().cutting_solves, 1u);
}

TEST(PlannerSession, RequiresTwoNodes) {
  Digraph g;
  g.add_node();
  EXPECT_THROW(PlannerSession(Platform(g, {}, 1.0, 0), PlannerSessionOptions{}), Error);
}

// The differential guarantee of the mutation layer: a mutation sequence
// absorbed warmly by the standing masters ends at the same optimum a cold
// solve of the final platform computes, to <= 1e-9 relative throughput.
void run_differential(PortModel port_model, std::uint64_t seed) {
  const Platform p = random_platform(18, seed);
  PlannerSessionOptions options;
  options.cutting.port_model = port_model;
  options.colgen.port_model = port_model;
  options.cold_polish = false;  // the service path: warm polish only
  PlannerSession session(p, options);
  session.solve();

  Rng rng(seed * 31 + 7);
  std::vector<EdgeId> removed;
  for (int step = 0; step < 12; ++step) {
    const int kind = static_cast<int>(rng.uniform_int(0, 3));
    const EdgeId e = static_cast<EdgeId>(rng.index(p.num_edges()));
    switch (kind) {
      case 0:
        session.scale_link_time(e, rng.uniform_real(1.1, 2.5));
        break;
      case 1:
        session.scale_link_time(e, rng.uniform_real(0.4, 0.95));
        break;
      case 2:
        session.set_link_cost(e, p.link_cost(e));  // restore pristine
        break;
      default:
        // Removing risks disconnecting the platform; keep at most two
        // outstanding and restore the oldest first when over.
        if (removed.size() >= 2) {
          const EdgeId back = removed.front();
          removed.erase(removed.begin());
          session.set_link_cost(back, p.link_cost(back));
        }
        session.remove_link(e);
        removed.push_back(e);
        break;
    }
    double warm = 0.0;
    bool disconnected = false;
    try {
      warm = session.solve().throughput;
    } catch (const Error&) {
      // Removals cut the source off: restore them and continue; the
      // rollback contract (masters reset, pools kept) is what lets this
      // session keep going.
      disconnected = true;
      for (EdgeId r : removed) session.set_link_cost(r, p.link_cost(r));
      removed.clear();
      warm = session.solve().throughput;
    }
    const double cold = session.solve_cold().throughput;
    EXPECT_LE(rel_diff(warm, cold), 1e-9)
        << "step " << step << " kind " << kind << " warm " << warm << " cold " << cold
        << (disconnected ? " (after reconnect)" : "");
  }
  EXPECT_GT(session.stats().warm_resolves, 0u);
  EXPECT_GT(session.stats().mutations, 0u);
}

TEST(PlannerSession, DifferentialWarmEqualsColdBidirectional) {
  run_differential(PortModel::kBidirectional, 1234);
  run_differential(PortModel::kBidirectional, 98765);
}

TEST(PlannerSession, DifferentialWarmEqualsColdUnidirectional) {
  run_differential(PortModel::kUnidirectional, 555);
  run_differential(PortModel::kUnidirectional, 31337);
}

TEST(PlannerSession, FailedSolveRollsBackAndSessionStaysUsable) {
  // Regression for the indeterminate-master bug: a solve that throws used
  // to leave the standing masters mid-append; subsequent re-solves
  // continued from that corrupt state.  Now the session rolls back to the
  // pools and the next solve rebuilds.
  const Platform p = random_platform(12, 77);
  PlannerSessionOptions options;
  options.cold_polish = false;
  PlannerSession session(p, options);
  const double tp0 = session.solve().throughput;

  // Cut node w (!= source) off: remove every arc into it.
  const NodeId w = (p.source() + 1) % p.num_nodes();
  for (EdgeId e : p.graph().in_edges(w)) session.remove_link(e);
  EXPECT_THROW(session.solve(), Error);
  EXPECT_GE(session.stats().rollbacks, 1u);

  // The session must remain usable: restore the arcs and re-solve.
  for (EdgeId e : p.graph().in_edges(w)) session.set_link_cost(e, p.link_cost(e));
  const double tp1 = session.solve().throughput;
  EXPECT_LE(rel_diff(tp1, tp0), 1e-9);
  const double cold = session.solve_cold().throughput;
  EXPECT_LE(rel_diff(tp1, cold), 1e-9);
}

TEST(PlannerSession, AddNodeMatchesBatchOnGrownPlatform) {
  const Platform p = random_platform(10, 2024);
  PlannerSession session(p);
  session.solve();

  std::vector<SessionLink> in_links, out_links;
  in_links.push_back({p.source(), LinkCost{0.0, 2e-8}});
  in_links.push_back({(p.source() + 2) % p.num_nodes(), LinkCost{0.0, 4e-8}});
  out_links.push_back({(p.source() + 1) % p.num_nodes(), LinkCost{0.0, 3e-8}});
  const NodeId added = session.add_node(in_links, out_links);
  EXPECT_EQ(added, p.num_nodes());
  EXPECT_EQ(session.platform().num_nodes(), p.num_nodes() + 1);

  const double warm = session.solve().throughput;
  const Platform grown = grow_platform(p, in_links, out_links);
  const SsbSolution batch = solve_ssb_cutting_plane(grown);
  EXPECT_LE(rel_diff(warm, batch.throughput), 1e-9);
}

TEST(PlannerSession, GrowPlatformValidates) {
  const Platform p = random_platform(8, 5);
  EXPECT_THROW(grow_platform(p, {}, {{0, LinkCost{0.0, 1e-8}}}), Error);  // unreachable node
  EXPECT_THROW(grow_platform(p, {{p.num_nodes() + 3, LinkCost{0.0, 1e-8}}}, {}), Error);
  const Platform grown = grow_platform(p, {{0, LinkCost{0.0, 1e-8}}}, {});
  EXPECT_EQ(grown.num_nodes(), p.num_nodes() + 1);
  EXPECT_EQ(grown.num_edges(), p.num_edges() + 1);
  EXPECT_EQ(grown.graph().to(p.num_edges()), p.num_nodes());
}

TEST(PlannerSession, ScheduleIsCachedPerVersionAndTracksThroughput) {
  const Platform p = random_platform(12, 99);
  PlannerSession session(p);
  const std::shared_ptr<const PeriodicSchedule> sched0 = session.schedule();
  const double tp = session.throughput();
  // The realized schedule never beats the LP optimum and stays within the
  // synthesis guarantees (see test_sched.cpp for the tight dyadic cases).
  EXPECT_LE(sched0->throughput(), tp * (1.0 + 1e-9));
  EXPECT_GE(sched0->throughput(), tp * 0.45);
  EXPECT_EQ(session.schedule(), sched0);  // the cached object, shared
  EXPECT_EQ(session.stats().schedules_built, 1u);

  const EdgeId e = 0;
  session.scale_link_time(e, 1.8);
  const std::shared_ptr<const PeriodicSchedule> sched1 = session.schedule();
  EXPECT_EQ(session.stats().schedules_built, 2u);
  const double tp1 = session.throughput();
  EXPECT_LE(sched1->throughput(), tp1 * (1.0 + 1e-9));
  EXPECT_GE(sched1->throughput(), tp1 * 0.45);
}

TEST(PlannerSession, PackingPoolSeededResolveMatchesBatch) {
  const Platform p = random_platform(14, 314);
  PlannerSession session(p);
  const SsbPackingSolution& pack0 = session.solve_packing();
  EXPECT_TRUE(pack0.solved);
  EXPECT_EQ(session.stats().packing_solves, 1u);
  session.solve_packing();  // cached
  EXPECT_EQ(session.stats().packing_solves, 1u);

  // Mutate and pool-seeded re-solve; a fresh batch colgen on the mutated
  // platform is the reference.
  Platform mutated = p;
  const EdgeId e = 1;
  LinkCost cost = p.link_cost(e);
  cost.alpha *= 1.6;
  cost.beta *= 1.6;
  mutated.set_link_cost(e, cost);
  session.scale_link_time(e, 1.6);
  const double warm = session.solve_packing().throughput;
  const double batch = solve_ssb_column_generation(mutated).throughput;
  EXPECT_LE(rel_diff(warm, batch), 1e-9);

  // Removing an arc drops pooled trees over it; the re-solve must not
  // route anything across the removed arc.
  session.remove_link(e);
  const SsbPackingSolution& pack2 = session.solve_packing();
  EXPECT_NEAR(pack2.edge_load[e], 0.0, 1e-12);
  for (const PackedTree& tree : pack2.tree_columns) {
    for (EdgeId arc : tree.edges) EXPECT_NE(arc, e);
  }
}

/// The service's session configuration: warm polish only.
PlannerSessionOptions service_options() {
  PlannerSessionOptions options;
  options.cold_polish = false;
  return options;
}

/// The most loaded arc of a plan (its column is basic: positive value).
EdgeId most_loaded_arc(const SsbSolution& plan) {
  return static_cast<EdgeId>(std::max_element(plan.edge_load.begin(), plan.edge_load.end()) -
                             plan.edge_load.begin());
}

TEST(PlannerSession, StatsCountMutationMachinery) {
  const Platform p = random_platform(10, 404);
  PlannerSession session(p, service_options());
  session.solve();
  // Arc 0 is unloaded, so its column is non-basic and rewritten in place.
  session.scale_link_time(0, 1.5);
  const EdgeId loaded = most_loaded_arc(session.solve());
  EXPECT_EQ(session.stats().columns_updated, 1u);
  EXPECT_EQ(session.stats().kill_rows, 0u);
  // A loaded arc's column is basic: kill-and-replace.
  session.scale_link_time(loaded, 1.5);
  session.solve();
  const PlannerSessionStats& stats = session.stats();
  EXPECT_EQ(stats.mutations, 2u);
  EXPECT_EQ(stats.columns_updated, 1u);
  EXPECT_EQ(stats.kill_rows, 1u);
  EXPECT_EQ(stats.replacement_columns, 1u);
  EXPECT_GE(stats.warm_resolves, 2u);
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_LE(rel_diff(session.solve().throughput, session.solve_cold().throughput), 1e-9);
}

void expect_same_schedule(const PeriodicSchedule& a, const PeriodicSchedule& b,
                          const std::string& where) {
  EXPECT_EQ(a.period, b.period) << where;
  EXPECT_EQ(a.slices_per_period, b.slices_per_period) << where;
  ASSERT_EQ(a.trees.size(), b.trees.size()) << where;
  for (std::size_t t = 0; t < a.trees.size(); ++t) {
    EXPECT_EQ(a.trees[t].edges, b.trees[t].edges) << where << " tree " << t;
    EXPECT_EQ(a.trees[t].slices_per_period, b.trees[t].slices_per_period) << where;
  }
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << where;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].duration, b.rounds[r].duration) << where << " round " << r;
    ASSERT_EQ(a.rounds[r].transfers.size(), b.rounds[r].transfers.size()) << where;
    for (std::size_t k = 0; k < a.rounds[r].transfers.size(); ++k) {
      const ScheduleTransfer& x = a.rounds[r].transfers[k];
      const ScheduleTransfer& y = b.rounds[r].transfers[k];
      EXPECT_TRUE(x.arc == y.arc && x.tree == y.tree && x.amount == y.amount)
          << where << " round " << r << " transfer " << k;
    }
  }
}

// The session's schedule, memo or not, is bitwise what the layers' free
// functions build from the session's own plan -- the agreement the traced
// benchmark run checks between its spans and the service.
TEST(PlannerSession, ScheduleEqualsLayerFunctionsAlongMutationStream) {
  const Platform p = random_platform(30, 8080);
  PlannerSession session(p, service_options());
  Rng rng(17);
  LinkChurnSampler sampler(p, LinkChurnSampler::Config{});
  for (int step = 0; step < 40; ++step) {
    if (step > 0) {
      if (sampler.has_outstanding() && rng.bernoulli(0.5)) {
        const auto restore = sampler.pop_restore();
        session.set_link_cost(restore.edge, restore.cost);
      } else {
        const auto degrade = sampler.sample_degrade(rng);
        session.scale_link_time(degrade.edge, degrade.factor);
      }
    }
    const SsbSolution plan = session.solve();
    const std::shared_ptr<const PeriodicSchedule> schedule = session.schedule();
    const TreeDecomposition trees = decompose_edge_load(session.platform(), plan);
    const PeriodicSchedule expected = orchestrate_one_port(session.platform(), trees.trees);
    expect_same_schedule(*schedule, expected, "step " + std::to_string(step));
    EXPECT_LE(rel_diff(plan.throughput, session.solve_cold().throughput), 1e-9)
        << "step " << step;
  }
  // The stream hits unloaded arcs often enough for both memos to answer.
  EXPECT_GT(session.stats().separations_reused, 0u);
  EXPECT_GT(session.stats().decompositions_reused, 0u);
}

// A re-plan whose loads come back bitwise equal runs no max-flow and no
// decomposition; one whose loads change re-runs both.
TEST(PlannerSession, MemosAnswerExactlyWhenLoadsAreUnchanged) {
  const Platform p = random_platform(30, 8080);
  PlannerSession session(p, service_options());
  const SsbSolution first = session.solve();
  session.schedule();
  const PlannerSessionStats before = session.stats();

  EdgeId unloaded = 0;
  while (first.edge_load[unloaded] != 0.0) ++unloaded;
  session.scale_link_time(unloaded, 1.5);
  const SsbSolution same = session.solve();
  session.schedule();
  EXPECT_EQ(same.edge_load, first.edge_load);
  EXPECT_EQ(same.throughput, first.throughput);
  EXPECT_EQ(session.stats().separations_reused - before.separations_reused,
            same.separation_rounds);  // every round answered by the memo
  EXPECT_EQ(session.stats().decompositions_reused, before.decompositions_reused + 1);

  const PlannerSessionStats middle = session.stats();
  session.scale_link_time(most_loaded_arc(same), 2.0);
  const SsbSolution changed = session.solve();
  session.schedule();
  EXPECT_NE(changed.edge_load, same.edge_load);
  EXPECT_LT(session.stats().separations_reused - middle.separations_reused,
            changed.separation_rounds);  // the new loads ran max-flows
  EXPECT_EQ(session.stats().decompositions_reused, middle.decompositions_reused);
  EXPECT_LE(rel_diff(changed.throughput, session.solve_cold().throughput), 1e-9);
}

// Killed columns leave dead rows behind; the session drops the standing
// pair once they outnumber the live rows, so a long degrade/restore stream
// keeps each master within twice its pool-built row count.  Solves every
// 20th mutation re-load columns (a solve makes some replacement columns
// basic again, so later deltas on them kill); the bound holds after every
// mutation either way.
TEST(PlannerSession, StandingMastersStayBoundedUnderLongMutationStreams) {
  const Platform p = random_platform(30, 2718);
  PlannerSession session(p, service_options());
  session.solve();
  Rng rng(29);
  LinkChurnSampler sampler(p, LinkChurnSampler::Config{});
  for (int step = 0; step < 2000; ++step) {
    if (sampler.has_outstanding() && rng.bernoulli(0.5)) {
      const auto restore = sampler.pop_restore();
      session.set_link_cost(restore.edge, restore.cost);
    } else {
      const auto degrade = sampler.sample_degrade(rng);
      session.scale_link_time(degrade.edge, degrade.factor);
    }
    if (step % 20 == 0) session.solve();
    const StandingMasterRows rows = session.standing_master_rows();
    ASSERT_LE(rows.value, 2 * rows.pool_built) << "step " << step;
    ASSERT_LE(rows.stable, 2 * (rows.pool_built + 1)) << "step " << step;
  }
  EXPECT_GT(session.stats().compactions, 0u);
  EXPECT_GT(session.stats().columns_updated, session.stats().kill_rows);
  EXPECT_LE(rel_diff(session.solve().throughput, session.solve_cold().throughput), 1e-9);
}

/// First solve of a fresh session with one simplex phase forced to stall
/// at its `stall_at`-th phase entry (a standing-master breakdown).
struct StalledSolve {
  std::uint64_t rebuilds = 0;
  std::size_t lp_iterations = 0;
  std::uint64_t primal_pivots = 0;
  std::uint64_t dual_pivots = 0;
};

StalledSolve solve_with_stall(const Platform& p, std::uint64_t stall_at) {
  FaultPlan plan;
  plan.add(FaultSite::kSimplexStall, stall_at);
  FaultInjector faults(plan);
  PlannerSession session(p);
  const FaultScope scope(&faults);
  const SsbSolution& s = session.solve();
  return {session.stats().master_rebuilds, s.lp_iterations, s.lp_stats.primal_pivots,
          s.lp_stats.dual_pivots};
}

TEST(PlannerSession, RebuiltMasterSolveCountsTheFailedSolvesPivots) {
  // Stalling the primal phase that follows a master's dual phase breaks
  // that solve down after its dual pivots; stalling the dual phase itself
  // breaks the same solve down before any pivot.  Either way the masters
  // are rebuilt from the same pool, so the two runs do identical work from
  // there on and differ only by the failed solve's dual pivots -- which
  // lp_iterations (what the ladder's pivot budget reads) must count.
  const Platform p = random_platform(12, 7);
  bool found = false;
  for (std::uint64_t k = 1; k < 24 && !found; ++k) {
    const StalledSolve after_dual = solve_with_stall(p, k);
    const StalledSolve before_dual = solve_with_stall(p, k - 1);
    if (after_dual.rebuilds != 1 || before_dual.rebuilds != 1 ||
        after_dual.primal_pivots != before_dual.primal_pivots ||
        after_dual.dual_pivots <= before_dual.dual_pivots) {
      continue;
    }
    found = true;
    const std::uint64_t failed_pivots = after_dual.dual_pivots - before_dual.dual_pivots;
    EXPECT_GE(after_dual.lp_iterations, before_dual.lp_iterations + failed_pivots)
        << "stall at phase entry " << k;
  }
  EXPECT_TRUE(found) << "no stall point broke a master down after a partial solve";
}

}  // namespace
}  // namespace bt
