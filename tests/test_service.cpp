// Tests for the broadcast-planning service (service/planner_service.hpp)
// and its building blocks: snapshot publication, session eviction,
// mutation invalidation, and concurrent readers against a mutating writer.
// The concurrency tests run under the ThreadSanitizer CI lane
// (BT_SANITIZE=thread).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "experiments/service_eval.hpp"
#include "graph/reachability.hpp"
#include "platform/random_generator.hpp"
#include "sched/validate.hpp"
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

TEST(PlannerService, PlanIsCachedByPointerIdentityUntilMutation) {
  PlannerService service(random_platform(12, 7));
  const auto plan0 = service.plan(0);
  const auto plan1 = service.plan(0);
  EXPECT_EQ(plan0.get(), plan1.get());  // cache hit: same snapshot
  EXPECT_EQ(service.stats().solves, 1u);
  EXPECT_GE(service.stats().plan_cache_hits, 1u);

  service.scale_link_time(0, 1.5);
  const auto plan2 = service.plan(0);
  EXPECT_NE(plan0.get(), plan2.get());  // version bumped -> re-solved
  EXPECT_EQ(service.stats().solves, 2u);
  // The old snapshot stays valid for its holder.
  EXPECT_GT(plan0->throughput, 0.0);
}

TEST(PlannerService, PlansMatchBatchSolverPerSource) {
  const Platform p = random_platform(12, 21);
  PlannerService service(p);
  for (NodeId s : {NodeId{0}, NodeId{3}, NodeId{5}}) {
    const double service_tp = service.throughput(s);
    const SsbSolution batch = solve_ssb_cutting_plane(p.with_source(s));
    EXPECT_LE(rel_diff(service_tp, batch.throughput), 1e-9) << "source " << s;
  }
  EXPECT_EQ(service.stats().sessions_created, 3u);
}

TEST(PlannerService, EvictsSessionsPastMaxAndRecreatesOnDemand) {
  PlannerServiceOptions options;
  options.max_sessions = 2;
  PlannerService service(random_platform(10, 33), options);
  service.throughput(0);
  service.throughput(1);
  service.throughput(2);  // evicts source 0's session
  EXPECT_EQ(service.stats().sessions_created, 3u);
  EXPECT_EQ(service.stats().sessions_evicted, 1u);
  // Source 0 is still served (plan cache may answer; after a mutation a
  // fresh session is built transparently).
  service.scale_link_time(0, 1.2);
  EXPECT_GT(service.throughput(0), 0.0);
  EXPECT_EQ(service.stats().sessions_evicted, 2u);
}

TEST(PlannerService, MutationsReachColdAndWarmSessionsAlike) {
  // A session evicted before a mutation must see the mutation when it is
  // recreated (the service replays platform state, not mutation history).
  const Platform p = random_platform(10, 55);
  PlannerServiceOptions options;
  options.max_sessions = 1;
  PlannerService service(p, options);
  service.throughput(0);
  service.throughput(1);  // evicts session 0

  const EdgeId e = 2;
  service.scale_link_time(e, 2.0);   // only session 1 is warm
  service.remove_link(3);

  // Recreated session 0 must solve the mutated platform.
  Platform mutated = p;
  LinkCost cost = p.link_cost(e);
  cost.alpha *= 2.0;
  cost.beta *= 2.0;
  mutated.set_link_cost(e, cost);
  PlannerSession reference(mutated);
  reference.remove_link(3);
  EXPECT_LE(rel_diff(service.throughput(0), reference.solve().throughput), 1e-9);
}

TEST(PlannerService, ScheduleIsCachedAndInvalidated) {
  PlannerService service(random_platform(10, 91));
  const auto sched0 = service.schedule(0);
  const auto sched1 = service.schedule(0);
  EXPECT_EQ(sched0.get(), sched1.get());
  const double tp = service.throughput(0);
  EXPECT_LE(sched0->throughput(), tp * (1.0 + 1e-9));
  EXPECT_GE(sched0->throughput(), tp * 0.45);

  service.scale_link_time(1, 1.7);
  const auto sched2 = service.schedule(0);
  EXPECT_NE(sched0.get(), sched2.get());
  EXPECT_GE(service.stats().schedules_built, 2u);
}

TEST(PlannerService, AddNodeGrowsEverySession) {
  const Platform p = random_platform(8, 123);
  PlannerService service(p);
  service.throughput(0);
  service.throughput(1);

  std::vector<SessionLink> in_links = {{0, LinkCost{0.0, 2e-8}}, {3, LinkCost{0.0, 5e-8}}};
  std::vector<SessionLink> out_links = {{2, LinkCost{0.0, 4e-8}}};
  const NodeId added = service.add_node(in_links, out_links);
  EXPECT_EQ(added, p.num_nodes());
  EXPECT_EQ(service.platform_snapshot().num_nodes(), p.num_nodes() + 1);

  const Platform grown = grow_platform(p, in_links, out_links);
  for (NodeId s : {NodeId{0}, NodeId{1}, added}) {
    const SsbSolution batch = solve_ssb_cutting_plane(grown.with_source(s));
    EXPECT_LE(rel_diff(service.throughput(s), batch.throughput), 1e-9) << "source " << s;
  }
}

TEST(PlannerService, ScheduleSnapshotSurvivesRemoveLink) {
  // A consumer holding a schedule taken *before* a failure must keep a
  // valid, executable schedule for the platform it was built on, while the
  // service moves on: the post-mutation call returns a new version built
  // around the dead arc.
  const Platform p = random_platform(12, 4242);
  PlannerService service(p);
  const std::uint64_t version_before = service.version();
  auto snapshot = service.schedule(0);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(check_schedule(p, *snapshot).ok);

  // Fail an arc the snapshot actually ships over.
  ASSERT_FALSE(snapshot->trees.empty());
  const EdgeId victim = snapshot->trees[0].edges.front();
  service.remove_link(victim);
  EXPECT_EQ(service.version(), version_before + 1);  // cache invalidation pin

  auto rebuilt = service.schedule(0);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt.get(), snapshot.get());
  for (const ScheduledTree& tree : rebuilt->trees) {
    for (const EdgeId e : tree.edges) EXPECT_NE(e, victim);
  }
  // The old snapshot is untouched by the mutation: still valid against the
  // platform it was planned for.
  EXPECT_TRUE(check_schedule(p, *snapshot).ok);
  EXPECT_TRUE(check_schedule(service.platform_snapshot(), *rebuilt).ok);
}

TEST(PlannerService, AddNodeColdFallbackMidStreamMatchesColdSolve) {
  // S2: joins arrive mid-stream, after degradations already re-planned the
  // warm sessions.  add_node is the structural cold fallback; the recreated
  // sessions must see the *current* platform (degradations included) and
  // match a from-scratch solve to 1e-9.
  const Platform p = random_platform(10, 909);
  PlannerService service(p);
  service.throughput(0);
  service.throughput(2);

  service.scale_link_time(1, 1.7);
  service.scale_link_time(4, 1.3);
  service.throughput(0);  // warm re-plan between mutations

  std::vector<SessionLink> in_links = {{0, LinkCost{0.0, 3e-8}}, {5, LinkCost{0.0, 6e-8}}};
  std::vector<SessionLink> out_links = {{1, LinkCost{0.0, 4e-8}}, {6, LinkCost{0.0, 7e-8}}};
  const NodeId added = service.add_node(in_links, out_links);
  EXPECT_EQ(added, p.num_nodes());

  const Platform current = service.platform_snapshot();
  EXPECT_EQ(current.num_nodes(), p.num_nodes() + 1);
  for (NodeId s : {NodeId{0}, NodeId{2}, added}) {
    const SsbSolution cold = solve_ssb_cutting_plane(current.with_source(s));
    EXPECT_LE(rel_diff(service.throughput(s), cold.throughput), 1e-9) << "source " << s;
  }
  // And the schedule synthesized on the grown platform is executable.
  EXPECT_TRUE(check_schedule(current, *service.schedule(0)).ok);
}

TEST(PlannerService, DisconnectedSourceThrowsButServiceStaysUp) {
  const Platform p = random_platform(10, 77);
  PlannerService service(p);
  const NodeId w = 4;
  ASSERT_NE(p.source(), w);
  service.throughput(0);
  for (EdgeId e : p.graph().in_edges(w)) service.remove_link(e);
  EXPECT_THROW(service.throughput(0), Error);
  // Restore and the same service recovers.
  for (EdgeId e : p.graph().in_edges(w)) service.set_link_cost(e, p.link_cost(e));
  EXPECT_LE(rel_diff(service.throughput(0), solve_ssb_cutting_plane(p).throughput), 1e-9);
}

TEST(PlannerService, RequestStreamIsReproducibleAndConsistent) {
  const Platform p = random_platform(12, 1001);
  ServiceStreamConfig config;
  config.num_requests = 60;
  config.mutation_fraction = 0.2;
  config.sources = {0, 2};
  config.seed = 42;
  const auto stream = make_request_stream(p, config);
  ASSERT_EQ(stream.size(), 60u);
  const auto stream2 = make_request_stream(p, config);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(static_cast<int>(stream[i].kind), static_cast<int>(stream2[i].kind));
    EXPECT_EQ(stream[i].source, stream2[i].source);
    EXPECT_EQ(stream[i].edge, stream2[i].edge);
  }

  PlannerService service(p);
  const ServiceStreamResult result = run_request_stream(service, stream);
  EXPECT_EQ(result.reads.count + result.replans.count, stream.size());
  EXPECT_GT(result.throughput_checksum, 0.0);

  // Replaying the same stream on a fresh service gives the same checksum:
  // the service is deterministic for a deterministic request sequence.
  PlannerService replay_service(p);
  const ServiceStreamResult replay = run_request_stream(replay_service, stream);
  EXPECT_LE(rel_diff(result.throughput_checksum, replay.throughput_checksum), 1e-9);
}

TEST(PlannerService, ConcurrentReadersAndWriterStayConsistent) {
  const Platform p = random_platform(10, 2718);
  PlannerService service(p);
  const std::vector<NodeId> sources = {0, 1, 2};
  for (NodeId s : sources) service.throughput(s);  // warm the sessions

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads_done{0};
  ThreadPool readers(4);
  for (std::size_t w = 0; w < 4; ++w) {
    readers.submit([&, w] {
      std::size_t i = w;
      while (!stop.load(std::memory_order_relaxed)) {
        const NodeId s = sources[i % sources.size()];
        if (i % 5 == 0) {
          auto sched = service.schedule(s);
          ASSERT_GT(sched->throughput(), 0.0);
        } else {
          ASSERT_GT(service.throughput(s), 0.0);
        }
        ++i;
        reads_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: degrade/restore cycles racing the readers.  Mutations are
  // cheap (no solve), so on a loaded machine all six cycles can finish
  // before any reader completes its first solve -- hold the stop flag
  // until at least one read landed, or reads_done == 0 flakes.
  std::thread writer([&] {
    for (int c = 0; c < 6; ++c) {
      const EdgeId e = static_cast<EdgeId>(c % p.num_edges());
      service.scale_link_time(e, 1.5);
      service.set_link_cost(e, p.link_cost(e));
    }
    while (reads_done.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
    stop.store(true);
  });
  writer.join();
  readers.wait();
  EXPECT_GT(reads_done.load(), 0u);

  // Final consistency: the writer's last restore left the pristine
  // platform, so every source must agree with the batch solver again.
  for (NodeId s : sources) {
    const SsbSolution batch = solve_ssb_cutting_plane(p.with_source(s));
    EXPECT_LE(rel_diff(service.throughput(s), batch.throughput), 1e-9) << "source " << s;
  }
}

TEST(PlannerService, StatsSnapshotIsCoherent) {
  PlannerService service(random_platform(10, 11));
  service.throughput(0);
  service.throughput(0);
  service.schedule(0);
  service.scale_link_time(0, 1.1);
  service.throughput(0);
  const PlannerServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.mutations, 1u);
  EXPECT_EQ(stats.solves, 2u);
  EXPECT_GE(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.sessions_created, 1u);
  EXPECT_EQ(service.version(), 1u);
}

// ---- the degradation ladder at the service boundary -------------------------

TEST(PlannerServiceLadder, TransientSolverFaultDegradesInsteadOfThrowing) {
  // Regression for the retry gap: a warm re-plan that throws used to
  // surface bt::Error to the caller even though a pool rebuild would have
  // answered.  With the ladder in the service path the fault is absorbed.
  const Platform p = random_platform(12, 314);
  const double exact_tp = solve_ssb_cutting_plane(p).throughput;

  FaultPlan plan;
  plan.add(FaultSite::kSeparationOracle, 0);
  FaultInjector faults(plan);
  PlannerServiceOptions options;
  options.faults = &faults;
  PlannerService service(p, options);

  std::shared_ptr<const SsbSolution> answer;
  EXPECT_NO_THROW(answer = service.plan(0));
  ASSERT_NE(answer, nullptr);
  EXPECT_EQ(answer->tier, PlanTier::kRebuild);
  EXPECT_LE(rel_diff(answer->throughput, exact_tp), 1e-9);
  EXPECT_EQ(faults.fired(FaultSite::kSeparationOracle), 1u);
  EXPECT_EQ(service.stats().plans_rebuild, 1u);

  // The fault was transient: the next re-plan is exact again.
  service.scale_link_time(0, 1.0);
  EXPECT_EQ(service.plan(0)->tier, PlanTier::kExact);
}

TEST(PlannerServiceLadder, BudgetExhaustedAnswerCarriesTierAndGap) {
  const Platform p = random_platform(14, 2718);
  PlannerServiceOptions options;
  options.ladder.pivot_budget = 1;
  PlannerService service(p, options);
  const auto answer = service.plan(0);
  EXPECT_EQ(answer->tier, PlanTier::kHeuristic);
  EXPECT_GT(answer->throughput, 0.0);
  EXPECT_GE(answer->quality_gap, 0.0);
  EXPECT_LE(answer->quality_gap, 1.0);
  EXPECT_EQ(service.stats().plans_heuristic, 1u);
  // Even the degraded plan synthesizes a runnable schedule.
  auto schedule = service.schedule(0);
  ASSERT_NE(schedule, nullptr);
  EXPECT_GT(schedule->throughput(), 0.0);
}

// ---- async re-planning ------------------------------------------------------

TEST(PlannerServiceAsync, MutationsEnqueueAndPollPicksUpTheNewBuild) {
  const Platform p = random_platform(12, 99);
  PlannerServiceOptions options;
  options.async_replan = true;
  PlannerService service(p, options);

  // First request per source still solves synchronously and publishes.
  service.plan(0);
  auto first_build = service.schedule(0);
  ScheduleSubscription sub;
  sub.source = 0;
  ASSERT_NE(service.poll_schedule(sub), nullptr);

  // A mutation enqueues a background re-plan instead of dirtying readers.
  service.scale_link_time(0, 2.0);
  service.drain_replans();
  const PlannerServiceStats stats = service.stats();
  EXPECT_GE(stats.replans_enqueued, 1u);
  EXPECT_GE(stats.replans_run, 1u);
  EXPECT_EQ(stats.replans_failed, 0u);
  EXPECT_FALSE(service.take_replan_latencies().empty());

  // The worker's build is newer; poll hands it over without a solve.
  auto rebuilt = service.poll_schedule(sub);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt.get(), first_build.get());

  // And the published plan matches a batch solve of the mutated platform.
  Platform mutated = service.platform_snapshot();
  EXPECT_LE(rel_diff(service.plan(0)->throughput,
                     solve_ssb_cutting_plane(mutated.with_source(0)).throughput),
            1e-9);
}

TEST(PlannerServiceAsync, PausedBatchesCoalesceIntoOneReplan) {
  const Platform p = random_platform(12, 7);
  PlannerServiceOptions options;
  options.async_replan = true;
  PlannerService service(p, options);
  service.plan(0);

  service.pause_replans();
  for (int i = 0; i < 4; ++i) service.scale_link_time(i, 1.25);
  service.resume_replans();
  service.drain_replans();

  // Coalescing happens at enqueue: the first mutation queues a job, the
  // next three lift its version instead of queueing stale re-solves.
  const PlannerServiceStats stats = service.stats();
  EXPECT_EQ(stats.replans_enqueued, 1u);
  EXPECT_EQ(stats.replans_coalesced, 3u);
  EXPECT_EQ(stats.replans_run, 1u);
  // The one re-plan that ran answered for the final state.
  const Platform mutated = service.platform_snapshot();
  EXPECT_LE(rel_diff(service.plan(0)->throughput,
                     solve_ssb_cutting_plane(mutated.with_source(0)).throughput),
            1e-9);
}

TEST(PlannerServiceAsync, ReplanLatencyIncludesQueueWait) {
  // Latency runs from the mutation's enqueue to publish: a job held back
  // by a paused worker must report the wait.
  PlannerServiceOptions options;
  options.async_replan = true;
  PlannerService service(random_platform(10, 5), options);
  service.plan(0);
  service.pause_replans();
  service.scale_link_time(0, 1.5);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.resume_replans();
  service.drain_replans();
  const std::vector<double> latencies = service.take_replan_latencies();
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_GE(latencies[0], 50.0);
}

// ---- seeded random-operation model check ------------------------------------

// Drives a service through a seeded mix of link mutations, node joins and
// reads, and after every step checks the contracts each answer must keep:
// a ladder tier; an exact-tier TP within 1e-9 of a cold solve of the
// current platform; a schedule that passes check_schedule and ships over
// no removed arc; poll versions that only grow; and the same pointer on
// repeat reads between mutations.  Async mode drains after each mutation,
// so the answers it checks are current.
void run_model_check(bool async, std::uint64_t seed) {
  Rng rng(seed);
  const Platform base = random_platform(static_cast<std::size_t>(rng.uniform_int(8, 12)), seed);
  PlannerServiceOptions options;
  options.async_replan = async;
  options.max_sessions = static_cast<std::size_t>(rng.uniform_int(1, 2));
  PlannerService service(base, options);

  const std::vector<NodeId> sources = {0, 1, 2};
  std::vector<char> removed(base.num_edges(), 0);
  std::size_t joins = 0;
  // Reads since the last mutation, per source.
  std::map<NodeId, std::shared_ptr<const SsbSolution>> plans;
  std::map<NodeId, std::shared_ptr<const PeriodicSchedule>> schedules;
  std::map<NodeId, ScheduleSubscription> cursors;
  for (NodeId s : sources) cursors[s].source = s;

  // Every queried source still reaches every node once `gone` is removed.
  const auto broadcasts = [&](const Platform& platform, const std::vector<char>& gone) {
    EdgeMask active(gone.size());
    for (EdgeId e = 0; e < gone.size(); ++e) active[e] = gone[e] ? 0 : 1;
    return std::all_of(sources.begin(), sources.end(), [&](NodeId s) {
      return all_reachable_from(platform.graph(), s, active);
    });
  };
  const auto mutated = [&] {
    plans.clear();
    schedules.clear();
    service.drain_replans();
  };
  const auto check_schedule_now = [&](const Platform& platform, const PeriodicSchedule& sched) {
    EXPECT_TRUE(check_schedule(platform, sched).ok);
    for (const ScheduledTree& tree : sched.trees) {
      for (const EdgeId e : tree.edges) EXPECT_FALSE(removed[e]) << "arc " << e;
    }
  };

  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE(testing::Message() << (async ? "async" : "sync") << " step " << step);
    const Platform platform = service.platform_snapshot();
    const NodeId s = sources[rng.index(sources.size())];
    const EdgeId e = static_cast<EdgeId>(rng.index(platform.num_edges()));
    switch (rng.uniform_int(0, 9)) {
      case 0:
        service.scale_link_time(e, rng.uniform_real(0.5, 2.0));
        removed[e] = 0;
        mutated();
        break;
      case 1:
        service.set_link_cost(e, e < base.num_edges() ? base.link_cost(e) : platform.link_cost(e));
        removed[e] = 0;
        mutated();
        break;
      case 2: {
        std::vector<char> gone = removed;
        gone[e] = 1;
        if (!broadcasts(platform, gone)) break;
        service.remove_link(e);
        removed = std::move(gone);
        mutated();
        break;
      }
      case 3: {
        if (joins == 3) break;
        const auto peer = [&] {
          return SessionLink{static_cast<NodeId>(rng.index(platform.num_nodes())),
                             LinkCost{0.0, rng.uniform_real(1e-8, 9e-8)}};
        };
        service.add_node({peer(), peer()}, {peer()});
        removed.resize(service.platform_snapshot().num_edges(), 0);
        ++joins;
        mutated();
        break;
      }
      case 4:
      case 5: {
        const auto plan = service.plan(s);
        ASSERT_NE(plan, nullptr);
        EXPECT_TRUE(plan->tier == PlanTier::kExact || plan->tier == PlanTier::kRebuild ||
                    plan->tier == PlanTier::kHeuristic);
        const auto seen = plans.find(s);
        if (seen != plans.end()) {
          EXPECT_EQ(plan.get(), seen->second.get());
          break;
        }
        plans[s] = plan;
        if (plan->tier == PlanTier::kExact) {
          PlannerSession reference(platform.with_source(s));
          for (EdgeId r = 0; r < removed.size(); ++r) {
            if (removed[r]) reference.remove_link(r);
          }
          EXPECT_LE(rel_diff(plan->throughput, reference.solve_cold().throughput), 1e-9);
        }
        break;
      }
      case 6:
      case 7: {
        const auto sched = service.schedule(s);
        ASSERT_NE(sched, nullptr);
        const auto seen = schedules.find(s);
        if (seen != schedules.end()) {
          EXPECT_EQ(sched.get(), seen->second.get());
          break;
        }
        schedules[s] = sched;
        check_schedule_now(platform, *sched);
        break;
      }
      default: {
        ScheduleSubscription& cursor = cursors[s];
        const std::uint64_t before = cursor.seen_version;
        const auto polled = service.poll_schedule(cursor);
        if (polled == nullptr) {
          EXPECT_EQ(cursor.seen_version, before);
          break;
        }
        if (before != ScheduleSubscription::kNone) {
          EXPECT_GT(cursor.seen_version, before);
        }
        EXPECT_LE(cursor.seen_version, service.version());
        if (cursor.seen_version == service.version()) check_schedule_now(platform, *polled);
        break;
      }
    }
  }
}

TEST(PlannerServiceModel, SeededRandomOperationsKeepEveryContractSync) {
  run_model_check(/*async=*/false, 2024);
}

TEST(PlannerServiceModel, SeededRandomOperationsKeepEveryContractAsync) {
  run_model_check(/*async=*/true, 2025);
}

// ---- node leaves ------------------------------------------------------------

TEST(PlannerService, RemoveNodeCompactsIdsAndMatchesBatchSolve) {
  const Platform p = random_platform(12, 55);
  PlannerService service(p);
  service.plan(0);

  const NodeId victim = static_cast<NodeId>(p.num_nodes() - 1);
  ShrinkRemap remap;
  service.remove_node(victim, &remap);

  ASSERT_EQ(remap.node_map.size(), p.num_nodes());
  EXPECT_EQ(remap.node_map[victim], Digraph::npos);
  for (NodeId v = 0; v < victim; ++v) EXPECT_EQ(remap.node_map[v], v);
  std::size_t dropped = 0;
  for (EdgeId e = 0; e < p.num_edges(); ++e) {
    const bool touches = p.graph().from(e) == victim || p.graph().to(e) == victim;
    EXPECT_EQ(remap.edge_map[e] == Digraph::npos, touches) << "arc " << e;
    dropped += touches;
  }
  ASSERT_GT(dropped, 0u);

  const Platform shrunk = service.platform_snapshot();
  EXPECT_EQ(shrunk.num_nodes(), p.num_nodes() - 1);
  EXPECT_EQ(shrunk.num_edges(), p.num_edges() - dropped);
  // Post-leave answers match a batch solve of the compacted platform.
  EXPECT_LE(rel_diff(service.throughput(0),
                     solve_ssb_cutting_plane(shrunk.with_source(0)).throughput),
            1e-9);
  // The reference helper agrees with the service's own compaction.
  const Platform direct = shrink_platform(p, victim);
  EXPECT_EQ(direct.num_nodes(), shrunk.num_nodes());
  EXPECT_EQ(direct.num_edges(), shrunk.num_edges());
}

}  // namespace
}  // namespace bt
