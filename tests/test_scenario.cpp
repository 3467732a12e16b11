// The live-churn scenario subsystem: seeded timelines, the interruptible
// replayer, the service subscription hook, and the engine's bitwise
// determinism contract (ISSUE 9).
//
// The determinism matrix is the headline: a full scenario -- timeline
// generation, service re-plans, offline reference solves, period replay --
// must produce field-wise memcmp-identical payloads at pool widths 1, 2
// and 4 and across repeated same-seed runs.  Everything the solver stack
// promised in test_parallel_determinism.cpp has to survive being composed
// behind a PlannerService and a replay loop.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "experiments/churn_eval.hpp"
#include "platform/random_generator.hpp"
#include "scenario/churn_timeline.hpp"
#include "scenario/event_stream.hpp"
#include "scenario/scenario_engine.hpp"
#include "sched/validate.hpp"
#include "service/planner_service.hpp"
#include "sim/replay_session.hpp"
#include "ssb/ssb_cutting_plane.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bt {
namespace {

Platform test_platform(std::size_t nodes, std::uint64_t seed, double density = 0.3) {
  RandomPlatformConfig config;
  config.num_nodes = nodes;
  config.density = density;
  Rng rng(seed);
  return generate_random_platform(config, rng);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

ChurnTimelineConfig small_timeline() {
  ChurnTimelineConfig config;
  config.num_periods = 12;
  config.events_per_period = 0.75;
  config.seed = 2026;
  return config;
}

// ---- LinkChurnSampler ------------------------------------------------------

TEST(LinkChurnSampler, LifoRestoresCarryPristineCosts) {
  const Platform platform = test_platform(10, 5);
  LinkChurnSampler sampler(platform, {});
  Rng rng(7);
  const auto d1 = sampler.sample_degrade(rng);
  const auto d2 = sampler.sample_degrade(rng);
  ASSERT_TRUE(sampler.has_outstanding());
  EXPECT_EQ(sampler.num_outstanding(), 2u);
  EXPECT_GE(d1.factor, 1.2);
  EXPECT_LE(d1.factor, 2.0);

  const auto r2 = sampler.pop_restore();
  EXPECT_EQ(r2.edge, d2.edge);
  EXPECT_EQ(r2.cost.alpha, platform.link_cost(d2.edge).alpha);
  EXPECT_EQ(r2.cost.beta, platform.link_cost(d2.edge).beta);
  const auto r1 = sampler.pop_restore();
  EXPECT_EQ(r1.edge, d1.edge);
  EXPECT_FALSE(sampler.has_outstanding());
}

TEST(LinkChurnSampler, RemovedArcsAreNeverProposedNorRestored) {
  const Platform platform = test_platform(10, 5);
  LinkChurnSampler sampler(platform, {});
  Rng rng(11);
  const auto d = sampler.sample_degrade(rng);
  sampler.mark_removed(d.edge);
  EXPECT_FALSE(sampler.has_outstanding());  // its only degradation is dead
  for (int i = 0; i < 64; ++i) {
    EXPECT_NE(sampler.sample_degrade(rng).edge, d.edge);
  }
}

// ---- timeline generation ---------------------------------------------------

TEST(ChurnTimeline, SameSeedPinsTheTimeline) {
  const Platform platform = test_platform(16, 21);
  const ChurnTimelineConfig config = small_timeline();
  const ChurnTimeline a = make_churn_timeline(platform, config);
  const ChurnTimeline b = make_churn_timeline(platform, config);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_FALSE(a.events.empty());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].period, b.events[i].period);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].edge, b.events[i].edge);
    EXPECT_TRUE(same_bits(a.events[i].factor, b.events[i].factor));
    EXPECT_EQ(a.events[i].in_links.size(), b.events[i].in_links.size());
  }
  EXPECT_EQ(a.final_platform.num_nodes(), b.final_platform.num_nodes());
  EXPECT_EQ(a.final_platform.num_edges(), b.final_platform.num_edges());
}

TEST(ChurnTimeline, FailuresKeepTheBroadcastFeasible) {
  const Platform platform = test_platform(16, 21);
  ChurnTimelineConfig config = small_timeline();
  config.failure_fraction = 0.5;  // force plenty of failures
  config.num_periods = 24;
  const ChurnTimeline timeline = make_churn_timeline(platform, config);

  // Replay the removals in order; each must have been connectivity-safe at
  // the moment it was generated, so the *final* removed set still reaches
  // every node of the final platform.
  std::size_t failures = 0;
  for (const ChurnEvent& event : timeline.events) {
    if (event.kind == ChurnEventKind::kLinkFailure) ++failures;
  }
  ASSERT_GT(failures, 0u);
  std::vector<char> all_but_final = timeline.final_removed;
  EdgeId last_failure = 0;
  for (auto it = timeline.events.rbegin(); it != timeline.events.rend(); ++it) {
    if (it->kind == ChurnEventKind::kLinkFailure) {
      last_failure = it->edge;
      break;
    }
  }
  all_but_final[last_failure] = 0;
  EXPECT_TRUE(removal_keeps_broadcast(timeline.final_platform, timeline.final_platform.source(),
                                      all_but_final, last_failure));
}

TEST(ChurnTimeline, JoinsGrowThePlatformAndKeepArcIdsStable) {
  const Platform platform = test_platform(16, 33);
  ChurnTimelineConfig config = small_timeline();
  config.join_fraction = 0.6;
  config.failure_fraction = 0.0;
  const ChurnTimeline timeline = make_churn_timeline(platform, config);
  std::size_t joins = 0;
  for (const ChurnEvent& event : timeline.events) {
    if (event.kind == ChurnEventKind::kNodeJoin) {
      ++joins;
      EXPECT_FALSE(event.in_links.empty());
      EXPECT_EQ(event.in_links.size(), event.out_links.size());
    }
  }
  ASSERT_GT(joins, 0u);
  EXPECT_EQ(timeline.final_platform.num_nodes(), platform.num_nodes() + joins);
  // Old arcs kept their ids (grow_platform appends).
  for (EdgeId e = 0; e < platform.num_edges(); ++e) {
    EXPECT_EQ(timeline.final_platform.graph().from(e), platform.graph().from(e));
    EXPECT_EQ(timeline.final_platform.graph().to(e), platform.graph().to(e));
  }
}

TEST(ChurnTimeline, LeavesShrinkThePlatformAndStayReproducible) {
  const Platform platform = test_platform(16, 44);
  ChurnTimelineConfig config = small_timeline();
  config.num_periods = 24;
  config.leave_fraction = 0.4;
  config.failure_fraction = 0.05;
  config.recover_fraction = 0.2;
  const ChurnTimeline timeline = make_churn_timeline(platform, config);

  std::size_t joins = 0, leaves = 0;
  for (const ChurnEvent& event : timeline.events) {
    if (event.kind == ChurnEventKind::kNodeJoin) ++joins;
    if (event.kind == ChurnEventKind::kNodeLeave) ++leaves;
  }
  ASSERT_GT(leaves, 0u);
  // Node ids compact at each leave, so the count is the only stable check.
  EXPECT_EQ(timeline.final_platform.num_nodes(), platform.num_nodes() + joins - leaves);
  EXPECT_EQ(timeline.final_removed.size(), timeline.final_platform.num_edges());
  // The final platform still broadcasts from its (possibly remapped) source.
  EXPECT_GT(solve_ssb_cutting_plane(timeline.final_platform).throughput, 0.0);

  const ChurnTimeline again = make_churn_timeline(platform, config);
  ASSERT_EQ(again.events.size(), timeline.events.size());
  for (std::size_t i = 0; i < timeline.events.size(); ++i) {
    EXPECT_EQ(again.events[i].kind, timeline.events[i].kind);
    EXPECT_EQ(again.events[i].node, timeline.events[i].node);
  }
}

// ---- ReplaySession ---------------------------------------------------------

TEST(ReplaySession, WarmHandoffDeliversFullRateImmediately) {
  const Platform platform = test_platform(12, 9);
  PlannerService service(platform);
  service.plan(0);
  auto schedule = service.schedule(0);

  ReplaySession cold(platform, schedule);
  const PeriodDelivery first_cold = cold.run_period();
  ReplaySession warm(platform, schedule);
  warm.install(platform, schedule, /*warm_handoff=*/true);
  const PeriodDelivery first_warm = warm.run_period();

  EXPECT_NEAR(first_warm.min_delivered, schedule->slices_per_period,
              1e-9 * schedule->slices_per_period);
  EXPECT_NEAR(first_warm.lost_slices, 0.0, 1e-9);
  // The cold pipeline cannot beat the warm one in its first period.
  EXPECT_LE(first_cold.delivered_total, first_warm.delivered_total + 1e-12);
}

TEST(ReplaySession, StaleScheduleIsCappedByLiveArcTimes) {
  const Platform platform = test_platform(12, 9);
  PlannerService service(platform);
  service.plan(0);
  auto schedule = service.schedule(0);

  ReplaySession session(platform, schedule);
  session.install(platform, schedule, /*warm_handoff=*/true);
  // Consistent platform: the 1e-9 guard keeps planned amounts exact.
  const PeriodDelivery before = session.run_period();
  EXPECT_NEAR(before.lost_slices, 0.0, 1e-9);

  // Slow down an arc the schedule actually uses, without re-planning.
  ASSERT_FALSE(schedule->trees.empty());
  ASSERT_FALSE(schedule->trees[0].edges.empty());
  const EdgeId victim = schedule->trees[0].edges.front();
  Platform degraded = platform;
  LinkCost cost = degraded.link_cost(victim);
  cost.alpha *= 8.0;
  cost.beta *= 8.0;
  degraded.set_link_cost(victim, cost);
  session.set_platform(degraded);
  const PeriodDelivery capped = session.run_period();
  EXPECT_GT(capped.lost_slices, 0.0);
  EXPECT_LT(capped.min_delivered, before.min_delivered);

  // Remove it outright: the subtree behind it starves for that tree.
  std::vector<char> removed(platform.num_edges(), 0);
  removed[victim] = 1;
  session.set_platform(degraded, removed);
  const PeriodDelivery dead = session.run_period();
  EXPECT_GT(dead.lost_slices, capped.lost_slices * (1.0 - 1e-9));
}

// ---- service subscription hook ---------------------------------------------

TEST(PlannerServiceSubscription, PollNeverSolvesAndTracksBuilds) {
  const Platform platform = test_platform(12, 13);
  PlannerService service(platform);
  ScheduleSubscription sub;
  sub.source = 0;

  // Nothing built yet: poll stays empty (and must not trigger a solve).
  EXPECT_EQ(service.poll_schedule(sub), nullptr);
  EXPECT_EQ(service.stats().solves, 0u);

  auto built = service.schedule(0);
  auto polled = service.poll_schedule(sub);
  ASSERT_NE(polled, nullptr);
  EXPECT_EQ(polled.get(), built.get());
  // Cursor advanced: same build is not handed out twice.
  EXPECT_EQ(service.poll_schedule(sub), nullptr);

  // A mutation alone is not a new build.
  service.scale_link_time(0, 1.5);
  EXPECT_EQ(service.poll_schedule(sub), nullptr);

  auto rebuilt = service.schedule(0);
  auto repolled = service.poll_schedule(sub);
  ASSERT_NE(repolled, nullptr);
  EXPECT_EQ(repolled.get(), rebuilt.get());
  EXPECT_NE(repolled.get(), built.get());
}

TEST(PlannerServiceSubscription, NewestBuildSurvivesOtherSourcesBuilds) {
  // One snapshot per source: later builds for another source never push
  // source 0's newest schedule out, so a fresh cursor still gets it back
  // without a solve or a synthesis.
  const Platform platform = test_platform(10, 17);
  PlannerService service(platform);
  auto built = service.schedule(0);
  for (int i = 0; i < 16; ++i) {
    service.scale_link_time(static_cast<EdgeId>(i % platform.num_edges()), 1.1);
    service.schedule(1);
  }
  const PlannerServiceStats before = service.stats();
  ScheduleSubscription sub;
  sub.source = 0;
  auto polled = service.poll_schedule(sub);
  ASSERT_NE(polled, nullptr);
  EXPECT_EQ(polled.get(), built.get());
  EXPECT_EQ(sub.seen_version, 0u);
  EXPECT_EQ(service.stats().solves, before.solves);
  EXPECT_EQ(service.stats().schedules_built, before.schedules_built);
}

// ---- the engine ------------------------------------------------------------

TEST(ChurnScenario, QuietTimelineDeliversTheOfflineOptimum) {
  const Platform platform = test_platform(14, 17);
  ChurnScenarioOptions options;
  options.timeline = small_timeline();
  options.timeline.events_per_period = 0.0;  // no churn at all
  const ChurnScenarioResult result = run_churn_scenario(platform, options);
  ASSERT_EQ(result.periods.size(), options.timeline.num_periods);
  EXPECT_EQ(result.num_events, 0u);
  EXPECT_EQ(result.num_swaps, 0u);
  EXPECT_NEAR(result.lost_total, 0.0, 1e-9);
  // The installed schedule realizes TP* (schedule synthesis rounds the
  // certificate), so delivered work tracks the offline capacity tightly.
  EXPECT_GT(result.availability, 0.99);
  EXPECT_LT(result.availability, 1.05);
}

TEST(ChurnScenario, ChurnLosesBytesButRePlansRecover) {
  const Platform platform = test_platform(14, 17);
  ChurnScenarioOptions options;
  options.timeline = small_timeline();
  options.timeline.num_periods = 16;
  const ChurnScenarioResult result = run_churn_scenario(platform, options);
  EXPECT_GT(result.num_events, 0u);
  EXPECT_GT(result.num_swaps, 0u);
  EXPECT_GT(result.availability, 0.5);
  EXPECT_LT(result.availability, 1.05);
  ASSERT_EQ(result.replan_latency_ms.size(), result.num_events);
  // Every record's offline reference is a real solve.
  for (const ChurnPeriodRecord& record : result.periods) {
    EXPECT_GT(record.offline_throughput, 0.0);
    EXPECT_GT(record.period_seconds, 0.0);
  }
}

TEST(ChurnScenario, PayloadBitwiseIdenticalAcrossPoolWidthsAndRuns) {
  const Platform platform = test_platform(14, 17);
  ChurnScenarioOptions options;
  options.timeline = small_timeline();
  options.timeline.num_periods = 10;

  ThreadPool serial(1);
  options.pool = &serial;
  const ChurnScenarioResult reference = run_churn_scenario(platform, options);
  ASSERT_FALSE(reference.periods.empty());

  // Same seed, same width: the repeat run must agree bit for bit.
  const ChurnScenarioResult repeat = run_churn_scenario(platform, options);
  EXPECT_TRUE(payload_bitwise_equal(reference, repeat));

  for (std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    options.pool = &pool;
    const ChurnScenarioResult wide = run_churn_scenario(platform, options);
    EXPECT_TRUE(payload_bitwise_equal(reference, wide)) << threads << " threads";
  }
}

TEST(ChurnScenario, NodeLeavesAreSurvivedAndAccounted) {
  const Platform platform = test_platform(14, 29);
  ChurnScenarioOptions options;
  options.timeline = small_timeline();
  options.timeline.num_periods = 20;
  options.timeline.leave_fraction = 0.4;
  const ChurnScenarioResult result = run_churn_scenario(platform, options);
  ASSERT_GT(result.num_leaves, 0u);
  EXPECT_GT(result.availability, 0.5);
  EXPECT_LT(result.availability, 1.05);
  // Every period was answered by some rung of the ladder.
  EXPECT_EQ(result.periods_exact + result.periods_rebuild + result.periods_heuristic,
            result.periods.size());
  // Events apply after a boundary's poll, so a period with events runs the
  // pre-event build (stale by one at most); quiet periods are never stale.
  EXPECT_LE(result.stale_periods, result.num_events);
  std::uint64_t stale = 0;
  for (const ChurnPeriodRecord& record : result.periods) stale += record.stale;
  EXPECT_EQ(stale, result.stale_periods);
}

TEST(ChurnScenario, AsyncModeServesStaleSchedulesWithoutLosingWork) {
  const Platform platform = test_platform(14, 17);
  ChurnScenarioOptions options;
  options.timeline = small_timeline();
  options.timeline.num_periods = 16;
  options.service.async_replan = true;
  const ChurnScenarioResult result = run_churn_scenario(platform, options);
  EXPECT_GT(result.num_events, 0u);
  EXPECT_GT(result.num_swaps, 0u);
  EXPECT_GT(result.availability, 0.5);
  EXPECT_EQ(result.replans_failed, 0u);
  // Mutation batches coalesce into background jobs whose latencies the
  // engine collects at drain points.
  EXPECT_FALSE(result.replan_latency_ms.empty());
}

TEST(ChurnScenario, AsyncFaultedPayloadBitwiseAcrossPoolWidthsAndRuns) {
  const Platform platform = test_platform(14, 17);
  ChurnScenarioOptions options;
  options.timeline = small_timeline();
  options.timeline.num_periods = 12;
  options.timeline.leave_fraction = 0.2;
  options.service.async_replan = true;
  options.service.ladder.pivot_budget = 100000;
  const FaultPlan plan = FaultPlan::parse("separation@1,refactor@2,stall@4,evict@1");

  ThreadPool serial(1);
  options.pool = &serial;
  FaultInjector reference_faults(plan);
  options.service.faults = &reference_faults;
  const ChurnScenarioResult reference = run_churn_scenario(platform, options);
  ASSERT_FALSE(reference.periods.empty());
  EXPECT_GT(reference_faults.total_fired(), 0u);

  // A same-seed repeat with a fresh injector must agree bit for bit --
  // including the per-period tier and staleness columns.
  FaultInjector repeat_faults(plan);
  options.service.faults = &repeat_faults;
  const ChurnScenarioResult repeat = run_churn_scenario(platform, options);
  EXPECT_TRUE(payload_bitwise_equal(reference, repeat));
  EXPECT_EQ(repeat_faults.total_fired(), reference_faults.total_fired());

  for (std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    FaultInjector faults(plan);
    options.pool = &pool;
    options.service.faults = &faults;
    const ChurnScenarioResult wide = run_churn_scenario(platform, options);
    EXPECT_TRUE(payload_bitwise_equal(reference, wide)) << threads << " threads";
    EXPECT_EQ(faults.total_fired(), reference_faults.total_fired()) << threads << " threads";
  }
}

TEST(ChurnSweep, RunsEveryCellInDeterministicOrder) {
  ChurnSweepConfig config;
  config.sizes = {12};
  config.churn_rates = {0.0, 0.5};
  config.num_periods = 6;
  const auto records = run_churn_sweep(config);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].nodes, 12u);
  EXPECT_TRUE(same_bits(records[0].churn_rate, 0.0));
  EXPECT_TRUE(same_bits(records[1].churn_rate, 0.5));
  EXPECT_GT(records[0].result.availability, 0.99);
  EXPECT_FALSE(describe(records[1]).empty());
}

}  // namespace
}  // namespace bt
