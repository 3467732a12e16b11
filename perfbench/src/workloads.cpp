#include "workloads.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "inputs.hpp"
#include "sched/orchestrate.hpp"
#include "sched/tree_decomposition.hpp"
#include "sched/validate.hpp"
#include "service/planner_service.hpp"
#include "sim/schedule_replay.hpp"
#include "ssb/planner_session.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using bt::NodeId;
using bt::PeriodicSchedule;
using bt::Platform;
using bt::ServiceRequest;
using bt::SsbSolution;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Each setup is run this many times per run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 3;
/// Cached reads after each plan/schedule pair (one schedule() in 8).
constexpr std::size_t kReadBatch = 64;
/// Requests per run never drop below what a p90 needs.
constexpr std::size_t kMinRequests = 100;
/// replan_sync's floor is higher: its plan_p90 varies with the stream, and
/// 100 requests left a run-to-run spread of 0.22.
constexpr std::size_t kReplanMinRequests = 120;
/// replan_sync replays one schedule in this many: a replay of its n=120
/// schedules runs ~70 warm-up periods (~110 ms, a third of the request
/// itself), and replaying all of them would not fit the benchmark's time
/// budget.  Every schedule is still checked.
constexpr std::size_t kReplanReplayOneIn = 3;
/// Traced runs replay this many requests (fixed, so counts repeat exactly).
constexpr std::size_t kTracedRequests = 32;
/// About one plan answer in this many gets the cold reference check.
constexpr std::size_t kReferenceOneIn = 16;
/// cold_tiers answers cost a whole cold solve to check: sample fewer.
constexpr std::size_t kColdReferenceOneIn = 32;
/// Answers must agree with their reference to this relative gap.
constexpr double kAgreement = 1e-9;

const std::vector<NodeId> kReplanSources = {0, 7, 23, 61};
const std::vector<NodeId> kAsyncSources = {0, 7};
/// async_readers: one mutation per this many ms, on a fixed schedule.  The
/// worker spends ~0.6 s per mutation re-planning both sources, so this
/// keeps it ~75% busy while a window still yields the p90s' 100 samples in
/// 40 s.
constexpr double kMutationPeriodMs = 800.0;
/// async_readers: one read in this many is timed individually.
constexpr std::size_t kReadSampleEvery = 1024;

double relative_gap(double a, double b) {
  return std::abs(a - b) / std::max(std::abs(b), std::numeric_limits<double>::min());
}

double median(std::vector<double> v) { return v.empty() ? 0.0 : percentile(std::move(v), 0.5); }

double median_of_few(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[(v.size() - 1) / 2];
}

/// cold_tiers' deadline: a cold solve still running after this long
/// degrades down the service's ladder (see cold_step).
constexpr double kColdWallBudgetMs = 15000.0;

/// Workers of the pool each workload runs the library's parallel phases on
/// (BT_THREADS does not apply).  A phase is split into one chunk per worker
/// and its caller helps run it, so a one-worker pool runs each phase as one
/// task and a client keeps one CPU busy.  With one CPU's worth of other load
/// beside replan_sync, plan_p50_ms rose by 65% on a three-worker pool and
/// not at all on one worker, while schedule_p50_ms was the same on both
/// without that load: wider pools measured the host's scheduler.
constexpr std::size_t kPoolWorkers = 1;

void describe_pool(Report& report, const bt::ThreadPool& pool) {
  report.environment.push_back({"pool_threads", std::to_string(pool.num_threads())});
}

bt::PlannerServiceOptions service_options(std::size_t sessions, bool async,
                                          bt::ThreadPool& pool) {
  bt::PlannerServiceOptions options;
  options.max_sessions = sessions;
  options.async_replan = async;
  options.session.cutting.pool = &pool;
  options.session.colgen.pool = &pool;
  return options;
}

bt::LadderOptions cold_ladder() {
  bt::LadderOptions ladder;
  ladder.wall_budget_ms = kColdWallBudgetMs;
  return ladder;
}

/// The service's per-source session configuration, plus master kernel
/// timing (the traced run's FTRAN/BTRAN ns per call).
bt::PlannerSessionOptions traced_session_options(bt::ThreadPool& pool) {
  bt::PlannerSessionOptions options = service_options(1, false, pool).session;
  options.cutting.master_kernel_timing = true;
  return options;
}

void mutate(bt::PlannerService& service, const ServiceRequest& request) {
  if (request.kind == bt::ServiceRequestKind::kDegrade) {
    service.scale_link_time(request.edge, request.factor);
  } else {
    service.set_link_cost(request.edge, request.cost);
  }
}

void mutate(bt::PlannerSession& session, const ServiceRequest& request) {
  if (request.kind == bt::ServiceRequestKind::kDegrade) {
    session.scale_link_time(request.edge, request.factor);
  } else {
    session.set_link_cost(request.edge, request.cost);
  }
}

std::string platform_shape(const Platform& p) {
  return "n=" + std::to_string(p.num_nodes()) + " m=" + std::to_string(p.num_edges());
}

/// Off-the-timed-path correctness gate: every schedule is checked on the
/// platform version it was built for, and every `replay_one_in`-th request's
/// schedule is replayed; a seeded sample of plan answers is compared with a
/// cold reference solve.
class Checker {
 public:
  Checker(Report& report, std::uint64_t seed, std::size_t reference_one_in,
          std::size_t replay_one_in = 1, Tracer* tracer = nullptr)
      : report_(report),
        seed_(seed),
        reference_one_in_(reference_one_in),
        replay_one_in_(replay_one_in),
        tracer_(tracer) {}

  /// Count an answer's tier; a degraded one is recorded as a finding.
  void answer(const SsbSolution& plan, const std::string& what) {
    ++answers_;
    if (plan.tier == bt::PlanTier::kExact) {
      ++exact_;
      return;
    }
    std::ostringstream note;
    note << what << ": " << bt::to_string(plan.tier) << "-tier answer, TP* " << plan.throughput
         << ", quality_gap " << plan.quality_gap;
    report_.notes.push_back(note.str());
  }

  /// Returns false (and records the failure) when the schedule is invalid.
  bool schedule(const Platform& platform, const PeriodicSchedule& schedule,
                const SsbSolution* plan, std::uint64_t request, const std::string& what) {
    try {
      bt::ScheduleCheckOptions options;
      options.reference = plan;
      std::int64_t start = now_ns();
      const std::int32_t check_span = tracer_ ? tracer_->begin("sched.check", request) : -1;
      const bt::ScheduleCheck check = bt::check_schedule(platform, schedule, options);
      if (tracer_) tracer_->end(check_span);
      check_ms.push_back(ns_to_ms(now_ns() - start));
      if (!check.ok) {
        report_.fail(what + ": check_schedule: " +
                     (check.violations.empty() ? "?" : check.violations.front()));
        return false;
      }
      if (request % replay_one_in_ != 0) return true;
      start = now_ns();
      const std::int32_t replay_span = tracer_ ? tracer_->begin("sim.replay", request) : -1;
      const bt::ReplayResult replay = bt::replay_schedule(platform, schedule);
      if (tracer_) tracer_->end(replay_span);
      replay_ms.push_back(ns_to_ms(now_ns() - start));
      const double tp = plan ? plan->throughput : schedule.throughput();
      replay_ratio_min = std::min(replay_ratio_min, replay.steady_throughput / tp);
      return true;
    } catch (const std::exception& e) {
      report_.fail(what + ": verification threw: " + e.what());
      return false;
    }
  }

  /// Cold reference check of request `index` when it is in the seeded
  /// sample.  Returns false on disagreement.
  bool reference(const Platform& platform, const SsbSolution& plan, std::size_t index,
                 const std::string& what) {
    if (!in_reference_sample(seed_, index, reference_one_in_)) return true;
    // A degraded answer claims no optimum (exact_fraction counts it).
    if (plan.tier != bt::PlanTier::kExact) return true;
    ++references;
    try {
      const bt::PlannerSession session(platform, bt::PlannerServiceOptions().session);
      const SsbSolution cold = session.solve_cold();
      if (relative_gap(plan.throughput, cold.throughput) <= kAgreement) return true;
      std::ostringstream why;
      why << what << ": TP* " << plan.throughput << " vs cold " << cold.throughput;
      report_.fail(why.str());
    } catch (const std::exception& e) {
      report_.fail(what + ": cold reference threw: " + e.what());
    }
    return false;
  }

  double exact_fraction() const {
    return answers_ ? static_cast<double>(exact_) / static_cast<double>(answers_) : 0.0;
  }

  std::vector<double> check_ms, replay_ms;
  double replay_ratio_min = kInf;
  std::size_t references = 0;

 private:
  Report& report_;
  std::uint64_t seed_;
  std::size_t reference_one_in_;
  std::size_t replay_one_in_;
  Tracer* tracer_;
  std::size_t answers_ = 0, exact_ = 0;
};

/// Latency and answer record of one closed-loop pass through a service.
struct ServicePass {
  std::vector<double> plan_ms, schedule_ms, read_us;
  std::vector<double> read_batch_s;  ///< wall time of each cached-read batch
  std::size_t reads = 0;
  std::size_t plan_reads = 0;      ///< throughput() calls among the reads
  std::size_t schedule_reads = 0;  ///< schedule() calls among the reads
  bt::PlannerServiceStats stats;

  void fail_request() {
    plan_ms.push_back(kInf);
    schedule_ms.push_back(kInf);
  }

  /// Cached reads per second of one client: a batch over its median wall
  /// time (a batch lasts microseconds, so one preemption would swamp a
  /// total).
  double read_qps() const { return static_cast<double>(kReadBatch) / median(read_batch_s); }
};

/// The cached-read batch after a plan/schedule pair: the answers must be
/// the ones just produced.  Returns the failed reads.
std::size_t cached_reads(bt::PlannerService& service, NodeId source, const SsbSolution& plan,
                         const PeriodicSchedule& schedule, ServicePass& pass) {
  std::size_t failed = 0;
  const std::int64_t batch_start = now_ns();
  for (std::size_t j = 0; j < kReadBatch; ++j) {
    const std::int64_t start = now_ns();
    bool ok = false;
    if (j % 8 == 0) {
      ok = service.schedule(source).get() == &schedule;
      ++pass.schedule_reads;
    } else {
      ok = service.throughput(source) == plan.throughput;
      ++pass.plan_reads;
    }
    pass.read_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
    if (!ok) ++failed;
  }
  pass.read_batch_s.push_back(static_cast<double>(now_ns() - batch_start) * 1e-9);
  pass.reads += kReadBatch;
  return failed;
}

void add_environment(Report& report) {
  report.environment.push_back({"nproc", std::to_string(std::thread::hardware_concurrency())});
  report.environment.push_back({"build_type", PERFBENCH_BUILD_TYPE});
}

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
void add_end_to_end(Report& report, double setup_s, std::size_t setup_repeats,
                    const std::vector<double>& plan_ms,
                    const std::vector<double>& schedule_ms, const std::vector<double>& read_us,
                    double read_qps, const Checker& checker) {
  report.add("setup_s", "s", setup_s, setup_repeats);
  report.add_percentile("plan_p50_ms", "ms", plan_ms, 0.50);
  report.add_percentile("schedule_p50_ms", "ms", schedule_ms, 0.50);
  report.add_percentile("schedule_p90_ms", "ms", schedule_ms, 0.90);
  report.add_percentile("read_p50_us", "us", read_us, 0.50);
  report.add_percentile("read_p99_us", "us", read_us, 0.99);
  report.add("read_qps", "1/s", read_qps, read_us.size());
  report.add("exact_fraction", "ratio", checker.exact_fraction());
  report.add("replay_ratio_min", "ratio", checker.replay_ratio_min, checker.replay_ms.size());
  report.add("peak_rss_mb", "MiB", peak_rss_mb());
  // The plan tail swings with host load (its separation phase fans out over
  // the pool): spreads of 0.22-0.28 across seeds, above any bound allowed.
  report.unbounded.push_back({"plan_p90_ms", "ms", percentile(plan_ms, 0.90), plan_ms.size()});
}

// ---- per-layer accounting of the traced pass --------------------------------

/// Per-solve and per-synthesis layer samples of a traced pass.
struct LayerSamples {
  std::vector<double> master_ms, separation_ms, other_ms, separation_rounds;
  std::vector<double> decompose_ms, pricing_rounds, greedy_trees, trees;
  std::vector<double> orchestrate_ms, rounds, transfers;
  bt::LpEngineStats lp;
  std::uint64_t cuts = 0;
  bt::PlannerSessionStats session;
};

/// Growth of lifetime LP counters between two solutions of one session (a
/// master rebuild resets them: then the later record is the growth).
bt::LpEngineStats lp_growth(const bt::LpEngineStats& now, const bt::LpEngineStats& before) {
  if (now.ftran_calls < before.ftran_calls || now.refactorizations < before.refactorizations)
    return now;
  bt::LpEngineStats d;
  d.ftran_calls = now.ftran_calls - before.ftran_calls;
  d.btran_calls = now.btran_calls - before.btran_calls;
  d.ftran_reach_steps = now.ftran_reach_steps - before.ftran_reach_steps;
  d.btran_reach_steps = now.btran_reach_steps - before.btran_reach_steps;
  d.ftran_dim_steps = now.ftran_dim_steps - before.ftran_dim_steps;
  d.btran_dim_steps = now.btran_dim_steps - before.btran_dim_steps;
  d.ftran_ns = now.ftran_ns - before.ftran_ns;
  d.btran_ns = now.btran_ns - before.btran_ns;
  d.primal_pivots = now.primal_pivots - before.primal_pivots;
  d.dual_pivots = now.dual_pivots - before.dual_pivots;
  d.refactorizations = now.refactorizations - before.refactorizations;
  d.rows_appended = now.rows_appended - before.rows_appended;
  d.columns_appended = now.columns_appended - before.columns_appended;
  return d;
}

void add_session_growth(bt::PlannerSessionStats& sum, const bt::PlannerSessionStats& now,
                        const bt::PlannerSessionStats& before) {
  sum.warm_resolves += now.warm_resolves - before.warm_resolves;
  sum.master_rebuilds += now.master_rebuilds - before.master_rebuilds;
  sum.rollbacks += now.rollbacks - before.rollbacks;
  sum.stable_stalls += now.stable_stalls - before.stable_stalls;
  sum.cold_polish_stalls += now.cold_polish_stalls - before.cold_polish_stalls;
}

/// One traced mutation/construction -> plan -> schedule request on a
/// session: layer spans under `root`, layer samples into `layers`.  `last`
/// holds the session's previous solution counters (zero for a fresh
/// session), so lifetime LP counters add up as growth.  Returns the plan
/// and schedule for the answer comparison.
std::pair<SsbSolution, PeriodicSchedule> traced_solve(bt::PlannerSession& session,
                                                      const bt::LadderOptions& ladder,
                                                      Tracer& tracer, std::uint64_t request,
                                                      std::int32_t root, LayerSamples& layers,
                                                      SsbSolution& last) {
  std::int64_t start = now_ns();
  const std::int32_t solve_span = tracer.begin("ssb.solve_laddered", request, root);
  SsbSolution plan = session.solve_laddered(ladder);
  tracer.end(solve_span);
  const double solve_ms = ns_to_ms(now_ns() - start);
  layers.master_ms.push_back(plan.master_wall_ms);
  layers.separation_ms.push_back(plan.phase_stats.separation_wall_ms);
  layers.other_ms.push_back(solve_ms - plan.master_wall_ms - plan.phase_stats.separation_wall_ms);
  layers.separation_rounds.push_back(static_cast<double>(plan.separation_rounds));
  layers.lp.accumulate(lp_growth(plan.lp_stats, last.lp_stats));
  layers.cuts += plan.cuts_generated >= last.cuts_generated
                     ? plan.cuts_generated - last.cuts_generated
                     : plan.cuts_generated;
  last.lp_stats = plan.lp_stats;
  last.cuts_generated = plan.cuts_generated;

  bt::TreeDecompositionOptions decomposition;
  decomposition.pool = session.options().cutting.pool;
  start = now_ns();
  const std::int32_t decompose_span = tracer.begin("sched.decompose", request, root);
  const bt::TreeDecomposition trees =
      bt::decompose_edge_load(session.platform(), plan, decomposition);
  tracer.end(decompose_span);
  layers.decompose_ms.push_back(ns_to_ms(now_ns() - start));
  layers.pricing_rounds.push_back(static_cast<double>(trees.pricing_rounds));
  layers.greedy_trees.push_back(static_cast<double>(trees.greedy_trees));
  layers.trees.push_back(static_cast<double>(trees.trees.size()));

  bt::OrchestrationOptions orchestration;
  orchestration.port_model = session.options().cutting.port_model;
  orchestration.pool = session.options().cutting.pool;
  start = now_ns();
  const std::int32_t orchestrate_span = tracer.begin("sched.orchestrate", request, root);
  PeriodicSchedule schedule =
      bt::orchestrate_one_port(session.platform(), trees.trees, orchestration);
  tracer.end(orchestrate_span);
  layers.orchestrate_ms.push_back(ns_to_ms(now_ns() - start));
  layers.rounds.push_back(static_cast<double>(schedule.rounds.size()));
  std::size_t transfers = 0;
  for (const bt::ScheduleRound& r : schedule.rounds) transfers += r.transfers.size();
  layers.transfers.push_back(static_cast<double>(transfers));
  return {std::move(plan), std::move(schedule)};
}

/// Compare a traced answer with the service's answer to the same request.
void compare_answers(Report& report, std::size_t index, double traced_tp, double service_tp,
                     double traced_schedule_tp, double service_schedule_tp) {
  if (relative_gap(traced_tp, service_tp) <= kAgreement &&
      relative_gap(traced_schedule_tp, service_schedule_tp) <= kAgreement)
    return;
  ++report.failed;
  std::ostringstream why;
  why << "request " << index << ": traced TP* " << traced_tp << " / schedule "
      << traced_schedule_tp << " vs service " << service_tp << " / " << service_schedule_tp;
  report.fail(why.str());
}

/// Service-side samples and counters of a pass.
struct ServiceLayer {
  std::vector<double> mutate_ms, replan_ms;
  double gen_late_ms_max = 0.0;
  bt::PlannerServiceStats stats;
  std::size_t plan_reads = 0, schedule_reads = 0;
};

/// The per-layer metrics, in BENCHMARK.json order.  Layers a workload
/// bypasses report 0.
void add_per_layer(Report& report, const LayerSamples& l, const ServiceLayer& s,
                   const Checker& checker, const std::vector<double>& generate_ms,
                   const bt::ThreadPool& pool, double coverage_min, double overhead) {
  auto p50 = [&](const std::string& name, const std::string& unit, const std::vector<double>& v) {
    if (v.empty()) {
      report.add(name, unit, 0.0);
    } else {
      report.add_percentile(name, unit, v, 0.5);
    }
  };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  p50("sched.decompose_ms_p50", "ms", l.decompose_ms);
  p50("sched.pricing_rounds_p50", "count", l.pricing_rounds);
  p50("sched.greedy_trees_p50", "count", l.greedy_trees);
  p50("sched.trees_p50", "count", l.trees);
  p50("sched.orchestrate_ms_p50", "ms", l.orchestrate_ms);
  p50("sched.rounds_p50", "count", l.rounds);
  p50("sched.transfers_p50", "count", l.transfers);
  p50("ssb.separation_ms_p50", "ms", l.separation_ms);
  p50("ssb.separation_rounds_p50", "count", l.separation_rounds);
  report.add("ssb.cuts_generated", "count", static_cast<double>(l.cuts));
  p50("ssb.master_ms_p50", "ms", l.master_ms);
  p50("ssb.other_ms_p50", "ms", l.other_ms);
  report.add("lp.pivots", "count", static_cast<double>(l.lp.primal_pivots + l.lp.dual_pivots));
  report.add("lp.refactorizations", "count", static_cast<double>(l.lp.refactorizations));
  report.add("lp.ftran_calls", "count", static_cast<double>(l.lp.ftran_calls));
  report.add("lp.btran_calls", "count", static_cast<double>(l.lp.btran_calls));
  report.add("lp.ftran_reach_fraction", "ratio", l.lp.ftran_reach_fraction());
  report.add("lp.btran_reach_fraction", "ratio", l.lp.btran_reach_fraction());
  report.add("lp.ftran_ns_per_call", "ns", l.lp.ftran_ns_per_call());
  report.add("lp.btran_ns_per_call", "ns", l.lp.btran_ns_per_call());
  report.add("lp.rows_appended", "count", static_cast<double>(l.lp.rows_appended));
  report.add("lp.columns_appended", "count", static_cast<double>(l.lp.columns_appended));
  report.add("ssb.warm_resolves", "count", static_cast<double>(l.session.warm_resolves));
  report.add("ssb.master_rebuilds", "count", static_cast<double>(l.session.master_rebuilds));
  report.add("ssb.rollbacks", "count", static_cast<double>(l.session.rollbacks));
  report.add("ssb.stable_stalls", "count", static_cast<double>(l.session.stable_stalls));
  report.add("ssb.cold_polish_stalls", "count", static_cast<double>(l.session.cold_polish_stalls));
  report.add("service.tier_heuristic", "count", static_cast<double>(s.stats.plans_heuristic));
  p50("service.mutate_ms_p50", "ms", s.mutate_ms);
  p50("service.replan_ms_p50", "ms", s.replan_ms);
  report.add("service.replans_coalesced", "count", static_cast<double>(s.stats.replans_coalesced));
  report.add("service.replans_dropped", "count", static_cast<double>(s.stats.replans_dropped));
  report.add("service.gen_late_ms_max", "ms", s.gen_late_ms_max);
  report.add("service.plan_cache_hit_ratio", "ratio",
             ratio(static_cast<double>(s.stats.plan_cache_hits),
                   static_cast<double>(s.plan_reads)));
  report.add("service.schedule_cache_hit_ratio", "ratio",
             ratio(static_cast<double>(s.stats.schedule_cache_hits),
                   static_cast<double>(s.schedule_reads)));
  report.add("service.solves_per_mutation", "ratio",
             ratio(static_cast<double>(s.stats.solves), static_cast<double>(s.stats.mutations)));
  p50("platform.generate_ms", "ms", generate_ms);
  report.add("pool.threads", "count", static_cast<double>(pool.num_threads()));
  p50("sched.check_ms_p50", "ms", checker.check_ms);
  p50("sim.replay_ms_p50", "ms", checker.replay_ms);
  report.add("trace.coverage_min", "ratio", coverage_min);
  report.add("trace.overhead", "ratio", overhead);
}

// ---- shared set-up ----------------------------------------------------------

/// A service over the reference platform with every source pre-warmed (plan
/// and schedule).  Set-up runs `repeats` times; the last service is kept.
struct WarmService {
  std::unique_ptr<bt::PlannerService> service;
  double setup_s = 0.0;  ///< median over the repeats
};

WarmService warm_service(const std::vector<NodeId>& sources, bool async, std::size_t repeats,
                         bt::ThreadPool& pool) {
  WarmService warm;
  std::vector<double> seconds;
  for (std::size_t r = 0; r < repeats; ++r) {
    warm.service.reset();
    const std::int64_t start = now_ns();
    warm.service = std::make_unique<bt::PlannerService>(
        reference_platform(), service_options(sources.size(), async, pool));
    for (NodeId s : sources) {
      warm.service->plan(s);
      warm.service->schedule(s);
    }
    seconds.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  warm.setup_s = median_of_few(seconds);
  return warm;
}

void describe_inputs(Report& report, const Platform& platform,
                     const std::vector<ServiceRequest>& stream) {
  report.environment.push_back({"platform", platform_shape(platform)});
  report.environment.push_back({"platform_digest", digest_platforms({platform})});
  report.environment.push_back({"stream_digest", digest_stream(stream)});
}

/// Generation time of the reference platform, repeated so the p50 has its
/// 20 samples (traced runs).
std::vector<double> reference_generate_ms() {
  std::vector<double> ms;
  for (std::size_t i = 0; i < min_samples_for(0.5); ++i) {
    const std::int64_t start = now_ns();
    reference_platform();
    ms.push_back(ns_to_ms(now_ns() - start));
  }
  return ms;
}

double traced_overhead(const std::vector<double>& traced_ms,
                       const std::vector<double>& untraced_ms) {
  return median(traced_ms) / median(untraced_ms) - 1.0;
}

void write_trace(const RunConfig& config, const std::vector<const Tracer*>& tracers) {
  if (config.trace_path.empty()) return;
  Tracer merged;
  for (const Tracer* t : tracers) merged.append(*t);
  merged.write_jsonl(config.trace_path);
}

// ---- closed-loop service steps ----------------------------------------------

/// One timed request through a service and its answers.
struct ServiceStep {
  std::shared_ptr<const SsbSolution> plan;
  std::shared_ptr<const PeriodicSchedule> schedule;
  double plan_ms = 0.0, schedule_ms = 0.0;
};

/// replan_sync's request: mutation -> plan -> schedule of its source.
ServiceStep sync_step(bt::PlannerService& service, const ServiceRequest& request) {
  ServiceStep step;
  const std::int64_t start = now_ns();
  mutate(service, request);
  step.plan = service.plan(request.source);
  const std::int64_t planned = now_ns();
  step.schedule = service.schedule(request.source);
  const std::int64_t scheduled = now_ns();
  step.plan_ms = ns_to_ms(planned - start);
  step.schedule_ms = ns_to_ms(scheduled - start);
  return step;
}

/// cold_tiers' request: construct a service -> first plan -> first
/// schedule of source 0.  The service is returned for the cached reads.
/// Its ladder carries a wall-clock deadline: some Tiers platforms send the
/// cold cutting-plane solve into a degenerate stall of minutes that no
/// pivot budget bounds, and the deadline turns such a stall into a
/// heuristic-tier answer (counted against exact_fraction) instead of a run
/// that never ends.
ServiceStep cold_step(const Platform& platform, std::unique_ptr<bt::PlannerService>& service,
                      bt::ThreadPool& pool) {
  ServiceStep step;
  bt::PlannerServiceOptions options = service_options(1, false, pool);
  options.ladder = cold_ladder();
  const std::int64_t start = now_ns();
  service = std::make_unique<bt::PlannerService>(platform, options);
  step.plan = service->plan(0);
  const std::int64_t planned = now_ns();
  step.schedule = service->schedule(0);
  const std::int64_t scheduled = now_ns();
  step.plan_ms = ns_to_ms(planned - start);
  step.schedule_ms = ns_to_ms(scheduled - start);
  return step;
}

void record(ServicePass& pass, const ServiceStep& step) {
  pass.plan_ms.push_back(step.plan_ms);
  pass.schedule_ms.push_back(step.schedule_ms);
}

/// Run the cached-read batch after `step` and book disagreements.
void read_batch(bt::PlannerService& service, NodeId source, const ServiceStep& step,
                ServicePass& pass, Report& report, const std::string& what) {
  report.attempted += kReadBatch;
  if (const std::size_t bad = cached_reads(service, source, *step.plan, *step.schedule, pass)) {
    report.failed += bad;
    report.fail(what + ": " + std::to_string(bad) + " cached reads disagreed");
  }
}

/// Book the verification outcome of the last recorded request: a failed
/// check turns its latencies into misses.
void verified(bool ok, ServicePass& pass, Report& report) {
  if (ok) return;
  ++report.failed;
  pass.plan_ms.back() = kInf;
  pass.schedule_ms.back() = kInf;
}

ServiceLayer service_layer(const ServicePass& pass) {
  ServiceLayer layer;
  layer.stats = pass.stats;
  layer.plan_reads = pass.plan_reads;
  layer.schedule_reads = pass.schedule_reads;
  return layer;
}

ServiceLayer traced_async_layer(const RunConfig& config, const Platform& platform,
                                Report& report, std::vector<Tracer>& tracers, Checker& checker,
                                bt::ThreadPool& pool);

// ---- replan_sync ------------------------------------------------------------

constexpr std::size_t kReplanStreamLength = 4000;

/// replan_sync's closed loop: one client, until `seconds` of timed work and
/// at least kReplanMinRequests requests.  Verification runs between requests,
/// off the timed path.
ServicePass replay_sync(bt::PlannerService& service, Platform expected,
                        const std::vector<ServiceRequest>& stream, double seconds,
                        Checker& checker, Report& report) {
  ServicePass pass;
  std::int64_t timed_ns = 0;
  for (std::size_t i = 0;
       i < kReplanMinRequests || static_cast<double>(timed_ns) < seconds * 1e9; ++i) {
    if (i >= stream.size()) throw std::runtime_error("replan_sync: request stream exhausted");
    const ServiceRequest& request = stream[i];
    const std::string what = "request " + std::to_string(i);
    apply_mutation(expected, request);
    ++report.attempted;
    const std::int64_t start = now_ns();
    ServiceStep step;
    try {
      step = sync_step(service, request);
    } catch (const std::exception& e) {
      timed_ns += now_ns() - start;
      ++report.failed;
      report.fail(what + " threw: " + e.what());
      pass.fail_request();
      continue;
    }
    record(pass, step);
    read_batch(service, request.source, step, pass, report, what);
    timed_ns += now_ns() - start;

    checker.answer(*step.plan, what);
    const Platform rebased = expected.with_source(request.source);
    bool ok = checker.schedule(rebased, *step.schedule, step.plan.get(), i, what);
    ok = checker.reference(rebased, *step.plan, i, what) && ok;
    verified(ok, pass, report);
  }
  pass.stats = service.stats();
  return pass;
}

Report run_replan_sync(const RunConfig& config, Report report) {
  bt::ThreadPool pool(kPoolWorkers);
  describe_pool(report, pool);
  const Platform platform = reference_platform();
  const std::vector<ServiceRequest> stream =
      mutation_stream(platform, kReplanSources, kReplanStreamLength, config.seed);
  describe_inputs(report, platform, stream);

  if (!config.trace) {
    WarmService warm = warm_service(kReplanSources, false, kSetupRepeats, pool);
    Checker checker(report, config.seed, kReferenceOneIn, kReplanReplayOneIn);
    const ServicePass pass =
        replay_sync(*warm.service, platform, stream, config.seconds, checker, report);
    add_end_to_end(report, warm.setup_s, kSetupRepeats, pass.plan_ms, pass.schedule_ms,
                   pass.read_us, pass.read_qps(), checker);
    report.environment.push_back({"reference_checks", std::to_string(checker.references)});
    return report;
  }

  // Each request runs twice, alternating: untraced through the service,
  // then through the layers' public functions under spans, on one session
  // per source kept exactly as the service keeps its own (every session
  // receives every mutation, only the queried source is solved).  The
  // answers must agree.
  WarmService warm = warm_service(kReplanSources, false, 1, pool);
  ServicePass pass;
  Tracer tracer;
  Checker checker(report, config.seed, kReferenceOneIn, 1, &tracer);
  LayerSamples layers;
  std::vector<std::unique_ptr<bt::PlannerSession>> sessions;
  std::vector<SsbSolution> last(kReplanSources.size());
  std::vector<bt::PlannerSessionStats> before;
  for (std::size_t k = 0; k < kReplanSources.size(); ++k) {
    sessions.push_back(std::make_unique<bt::PlannerSession>(
        platform.with_source(kReplanSources[k]), traced_session_options(pool)));
    const SsbSolution& warmed = sessions[k]->solve_laddered();
    last[k].lp_stats = warmed.lp_stats;
    last[k].cuts_generated = warmed.cuts_generated;
    sessions[k]->schedule();
    before.push_back(sessions[k]->stats());
  }
  Platform expected = platform;
  std::vector<double> traced_ms;
  for (std::size_t i = 0; i < kTracedRequests; ++i) {
    const ServiceRequest& request = stream[i];
    const std::string what = "request " + std::to_string(i);
    const std::size_t k = i % kReplanSources.size();
    apply_mutation(expected, request);
    report.attempted += 2;
    const ServiceStep step = sync_step(*warm.service, request);
    record(pass, step);
    read_batch(*warm.service, request.source, step, pass, report, what);

    const std::int64_t start = now_ns();
    const std::int32_t root = tracer.begin(kRequestSpan, i);
    {
      ScopedSpan span(tracer, "session.mutate", i, root);
      for (auto& session : sessions) mutate(*session, request);
    }
    auto [plan, schedule] = traced_solve(*sessions[k], bt::LadderOptions{}, tracer, i, root,
                                       layers, last[k]);
    tracer.end(root);
    traced_ms.push_back(ns_to_ms(now_ns() - start));
    checker.answer(plan, what);
    if (!checker.schedule(expected.with_source(request.source), schedule, &plan, i, what))
      ++report.failed;
    compare_answers(report, i, plan.throughput, step.plan->throughput, schedule.throughput(),
                    step.schedule->throughput());
  }
  pass.stats = warm.service->stats();
  warm.service.reset();
  for (std::size_t k = 0; k < sessions.size(); ++k)
    add_session_growth(layers.session, sessions[k]->stats(), before[k]);

  // The re-plan queue only runs in async mode: a traced async window on the
  // same platform and seed supplies the mutation-call and queue metrics.
  std::vector<Tracer> async_tracers(4);
  Checker async_checker(report, config.seed, kReferenceOneIn);
  const ServiceLayer async =
      traced_async_layer(config, platform, report, async_tracers, async_checker, pool);
  ServiceLayer layer = service_layer(pass);
  layer.mutate_ms = async.mutate_ms;
  layer.replan_ms = async.replan_ms;
  layer.gen_late_ms_max = async.gen_late_ms_max;
  layer.stats.replans_coalesced = async.stats.replans_coalesced;
  layer.stats.replans_dropped = async.stats.replans_dropped;
  write_trace(config, {&tracer, &async_tracers[0], &async_tracers[1], &async_tracers[2],
                       &async_tracers[3]});
  add_per_layer(report, layers, layer, checker, reference_generate_ms(), pool,
                tracer.coverage_min(), traced_overhead(traced_ms, pass.schedule_ms));
  return report;
}

// ---- cold_tiers -------------------------------------------------------------

/// The cold_tiers corpus: this many Tiers platforms from a fixed seed (the
/// service bench's), so every run solves the same platforms and the
/// workload seed only orders them.
constexpr std::size_t kCorpusSize = kMinRequests;
constexpr std::uint64_t kCorpusSeed = 104729;
/// A pass over the corpus takes 25-60 s on a 4-vCPU machine, as the shared
/// host speeds up and slows down.  A run makes one pass per this many
/// seconds of --seconds (at least one), so its work -- and with it the
/// sample count and peak RSS -- does not depend on host speed.
constexpr double kPassSeconds = 45.0;
/// Times the corpus generation is repeated in set-up: it takes ~8 ms, so
/// its median needs many repeats (9 left a spread of 0.31 over seeds, 25
/// still 0.45 over three seeds as host speed drifted between runs).
constexpr std::size_t kCorpusSetupRepeats = 101;
/// Closed-loop clients of cold_tiers, each on its own platforms.
constexpr std::size_t kColdClients = 4;
/// Platforms of a traced cold_tiers run.
constexpr std::size_t kTracedPlatforms = 24;

/// One cold_tiers answer, verified after the window.
struct ColdAnswer {
  std::size_t slot = 0;      ///< position in the run's order
  std::size_t platform = 0;  ///< corpus index
  ServiceStep step;
};

/// cold_tiers' closed loop: kColdClients clients take the corpus platforms
/// in `order` (whole passes, so every run covers the corpus equally).
/// Answers are verified after the window, in order.
ServicePass replay_cold(const std::vector<Platform>& corpus, const std::vector<std::size_t>& order,
                        bt::ThreadPool& pool, Checker& checker, Report& report) {
  std::mutex take_mutex;
  std::size_t next = 0;
  auto take = [&](std::size_t& slot) {
    std::lock_guard<std::mutex> lock(take_mutex);
    if (next == order.size()) return false;
    slot = next++;
    return true;
  };
  std::vector<ServicePass> passes(kColdClients);
  std::vector<std::vector<ColdAnswer>> answers(kColdClients);
  std::vector<std::vector<std::string>> failures(kColdClients);
  std::vector<std::uint64_t> attempted(kColdClients, 0);
  auto client = [&](std::size_t c) {
    std::size_t slot = 0;
    while (take(slot)) {
      const std::size_t i = order[slot];
      const std::string what = "platform " + std::to_string(i);
      ++attempted[c];
      std::unique_ptr<bt::PlannerService> service;
      ServiceStep step;
      try {
        step = cold_step(corpus[i], service, pool);
      } catch (const std::exception& e) {
        failures[c].push_back(what + " threw: " + e.what());
        passes[c].fail_request();
        continue;
      }
      attempted[c] += kReadBatch;
      if (const std::size_t bad = cached_reads(*service, 0, *step.plan, *step.schedule, passes[c]))
        failures[c].push_back(what + ": " + std::to_string(bad) + " cached reads disagreed");
      answers[c].push_back({slot, i, std::move(step)});
    }
  };
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kColdClients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();

  ServicePass pass;
  std::vector<ColdAnswer> all;
  for (std::size_t c = 0; c < kColdClients; ++c) {
    ServicePass& p = passes[c];
    pass.plan_ms.insert(pass.plan_ms.end(), p.plan_ms.begin(), p.plan_ms.end());  // failures
    pass.schedule_ms.insert(pass.schedule_ms.end(), p.schedule_ms.begin(), p.schedule_ms.end());
    pass.read_us.insert(pass.read_us.end(), p.read_us.begin(), p.read_us.end());
    pass.read_batch_s.insert(pass.read_batch_s.end(), p.read_batch_s.begin(),
                             p.read_batch_s.end());
    pass.reads += p.reads;
    report.attempted += attempted[c];
    report.failed += failures[c].size();
    for (const std::string& why : failures[c]) report.fail(why);
    for (ColdAnswer& a : answers[c]) all.push_back(std::move(a));
  }
  std::sort(all.begin(), all.end(),
            [](const ColdAnswer& a, const ColdAnswer& b) { return a.slot < b.slot; });
  for (const ColdAnswer& a : all) {
    const std::string what = "platform " + std::to_string(a.platform);
    checker.answer(*a.step.plan, what);
    bool ok = checker.schedule(corpus[a.platform], *a.step.schedule, a.step.plan.get(), a.slot,
                               what);
    ok = checker.reference(corpus[a.platform], *a.step.plan, a.slot, what) && ok;
    if (!ok) ++report.failed;
    // A failed answer misses every latency limit.
    pass.plan_ms.push_back(ok ? a.step.plan_ms : kInf);
    pass.schedule_ms.push_back(ok ? a.step.schedule_ms : kInf);
  }
  return pass;
}

Report run_cold_tiers(const RunConfig& config, Report report) {
  bt::ThreadPool pool(kPoolWorkers);
  describe_pool(report, pool);
  // Set-up is the generation of the corpus; it is repeated and must come
  // out identical each time.
  std::vector<Platform> corpus;
  std::vector<double> generate_ms, seconds;
  std::string digest;
  for (std::size_t r = 0; r < (config.trace ? 1 : kCorpusSetupRepeats); ++r) {
    generate_ms.clear();
    const std::int64_t start = now_ns();
    corpus = tiers_platforms(kCorpusSize, kCorpusSeed, &generate_ms);
    seconds.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    const std::string d = digest_platforms(corpus);
    if (!digest.empty() && d != digest) report.fail("corpus differs between set-ups");
    digest = d;
  }
  const auto passes =
      static_cast<std::size_t>(std::max(1.0, std::round(config.seconds / kPassSeconds)));
  const std::vector<std::size_t> order = corpus_order(kCorpusSize, passes, config.seed);
  std::size_t lo = corpus.front().num_edges(), hi = lo;
  for (const Platform& p : corpus) {
    lo = std::min(lo, p.num_edges());
    hi = std::max(hi, p.num_edges());
  }
  report.environment.push_back({"corpus", std::to_string(corpus.size()) +
                                              " Tiers platforms, n=120 m=" + std::to_string(lo) +
                                              ".." + std::to_string(hi)});
  report.environment.push_back({"corpus_digest", digest});
  report.environment.push_back({"order_digest", digest_order(order)});
  report.environment.push_back({"passes", std::to_string(passes)});

  if (!config.trace) {
    Checker checker(report, config.seed, kColdReferenceOneIn);
    report.environment.push_back({"clients", std::to_string(kColdClients)});
    const ServicePass pass = replay_cold(corpus, order, pool, checker, report);
    add_end_to_end(report, median_of_few(seconds), kCorpusSetupRepeats, pass.plan_ms,
                   pass.schedule_ms, pass.read_us, pass.read_qps(), checker);
    report.environment.push_back({"reference_checks", std::to_string(checker.references)});
    return report;
  }

  // One client; each platform runs untraced through a fresh service, then
  // traced through a fresh session with the service's options.
  ServicePass pass;
  Tracer tracer;
  Checker checker(report, config.seed, kColdReferenceOneIn, 1, &tracer);
  LayerSamples layers;
  std::vector<double> traced_ms;
  for (std::size_t i = 0; i < kTracedPlatforms; ++i) {
    const Platform& platform = corpus[order[i]];
    const std::string what = "platform " + std::to_string(order[i]);
    report.attempted += 2;
    std::unique_ptr<bt::PlannerService> service;
    const ServiceStep step = cold_step(platform, service, pool);
    record(pass, step);
    read_batch(*service, 0, step, pass, report, what);
    const bt::PlannerServiceStats stats = service->stats();
    pass.stats.plan_cache_hits += stats.plan_cache_hits;
    pass.stats.schedule_cache_hits += stats.schedule_cache_hits;
    pass.stats.solves += stats.solves;
    pass.stats.plans_heuristic += stats.plans_heuristic;
    service.reset();

    const std::int64_t start = now_ns();
    const std::int32_t root = tracer.begin(kRequestSpan, i);
    const std::int32_t construct = tracer.begin("session.construct", i, root);
    bt::PlannerSession session(platform, traced_session_options(pool));
    tracer.end(construct);
    SsbSolution fresh;
    auto [plan, schedule] = traced_solve(session, cold_ladder(), tracer, i, root, layers, fresh);
    tracer.end(root);
    traced_ms.push_back(ns_to_ms(now_ns() - start));
    add_session_growth(layers.session, session.stats(), {});
    checker.answer(plan, what);
    if (!checker.schedule(platform, schedule, &plan, i, what)) ++report.failed;
    compare_answers(report, i, plan.throughput, step.plan->throughput, schedule.throughput(),
                    step.schedule->throughput());
  }
  write_trace(config, {&tracer});
  add_per_layer(report, layers, service_layer(pass), checker, generate_ms, pool,
                tracer.coverage_min(), traced_overhead(traced_ms, pass.schedule_ms));
  return report;
}

// ---- async_readers ----------------------------------------------------------

/// async_readers splits the CPUs: each reader thread has one of its own,
/// and everything else -- the service's worker and the library's pool,
/// which inherit the affinity of the thread that starts them -- shares the
/// rest.  Left to the scheduler, a run landed in one of two regimes: the
/// worker sharing a reader's CPU (reads 0.12 us, schedules visible in
/// ~700 ms) or not (reads 0.33 us, ~370 ms).
constexpr int kReaderCpus[2] = {2, 3};
constexpr int kSolverCpus[2] = {0, 1};

/// Restrict the calling thread to `cpus` (no-op on a machine with fewer
/// than 4 CPUs).
void pin_to_cpus(std::initializer_list<int> cpus) {
  if (std::thread::hardware_concurrency() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// What one open-loop async pass measured.
struct AsyncPass {
  std::vector<double> plan_ms, schedule_ms;  ///< mutation due -> visible, per (mutation, source)
  std::vector<double> late_ms;               ///< generator lateness, per mutation
  std::vector<double> read_us;               ///< one read in kReadSampleEvery
  std::vector<double> replan_ms;             ///< service-side, take_replan_latencies
  std::size_t reads = 0;
  std::size_t plan_reads = 0, schedule_reads = 0;
  double read_window_s = 0.0;
  bt::PlannerServiceStats stats;
};

/// One open-loop window on a pre-warmed async service:
///  * 2 closed-loop reader threads, one per subscribed source, issue
///    throughput()/schedule() reads (one schedule() in 8);
///  * 1 mutator thread issues mutation k at its due time t0 + k * period;
///  * 1 subscriber thread polls poll_schedule() (and plan()) per source and
///    times each mutation from its due time until a snapshot covering it is
///    visible; it verifies each new snapshot off that timing.
/// When `tracers` is given (4 of them, one per thread) the service calls
/// get spans; reads are traced one in kReadSampleEvery.
AsyncPass run_async_window(bt::PlannerService& service, const std::vector<Platform>& versions,
                           const std::vector<ServiceRequest>& stream, double seconds,
                           Checker& checker, Report& report, std::vector<Tracer>* tracers) {
  const std::size_t mutations = stream.size();
  const std::uint64_t v0 = service.version();
  const std::int64_t period_ns = static_cast<std::int64_t>(kMutationPeriodMs * 1e6);
  const std::int64_t t0 = now_ns() + 20'000'000;
  const std::int64_t window_end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  auto due = [&](std::size_t k) { return t0 + static_cast<std::int64_t>(k) * period_ns; };
  auto sleep_until_ns = [](std::int64_t t) {
    const std::int64_t left = t - now_ns();
    if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
  };
  auto tracer = [&](std::size_t i) -> Tracer* { return tracers ? &(*tracers)[i] : nullptr; };

  AsyncPass pass;
  std::atomic<bool> stop_reads{false};
  std::atomic<std::uint64_t> failed_ops{0};
  std::vector<std::string> failures[4];

  std::thread mutator([&] {
    Tracer* t = tracer(0);
    for (std::size_t k = 0; k < mutations; ++k) {
      sleep_until_ns(due(k));
      const std::int64_t start = now_ns();
      const std::int32_t span = t ? t->begin("service.mutate", k) : -1;
      try {
        mutate(service, stream[k]);
      } catch (const std::exception& e) {
        failed_ops.fetch_add(1);
        failures[0].push_back("mutation " + std::to_string(k) + " threw: " + e.what());
      }
      if (t) t->end(span);
      pass.late_ms.push_back(ns_to_ms(start - due(k)));
    }
  });

  std::vector<double> reader_us[2];
  std::size_t reader_count[2] = {0, 0}, reader_plan[2] = {0, 0}, reader_schedule[2] = {0, 0};
  std::int64_t reader_ns[2] = {0, 0};
  auto reader = [&](std::size_t r) {
    Tracer* t = tracer(1 + r);
    pin_to_cpus({kReaderCpus[r]});
    sleep_until_ns(t0);
    const std::int64_t begin = now_ns();
    std::size_t i = 0;
    for (; !stop_reads.load(std::memory_order_relaxed); ++i) {
      const NodeId source = kAsyncSources[r % kAsyncSources.size()];
      const bool timed = i % kReadSampleEvery == 0;
      const std::int64_t start = timed ? now_ns() : 0;
      const std::int32_t span = timed && t ? t->begin("service.read", i) : -1;
      bool ok = false;
      if (i % 8 == 0) {
        ok = service.schedule(source) != nullptr;
        ++reader_schedule[r];
      } else {
        ok = service.throughput(source) > 0.0;
        ++reader_plan[r];
      }
      if (timed) {
        if (t) t->end(span);
        reader_us[r].push_back(static_cast<double>(now_ns() - start) * 1e-3);
      }
      if (!ok) {
        failed_ops.fetch_add(1);
        failures[1 + r].push_back("read " + std::to_string(i) + " returned no answer");
      }
    }
    reader_ns[r] = now_ns() - begin;
    reader_count[r] = i;
  };
  std::thread reader0(reader, 0), reader1(reader, 1);

  std::thread subscriber([&] {
    Tracer* t = tracer(3);
    const std::size_t sources = kAsyncSources.size();
    std::vector<bt::ScheduleSubscription> subs(sources);
    std::vector<std::shared_ptr<const SsbSolution>> last_plan(sources);
    std::vector<std::int64_t> plan_seen(sources, 0);
    std::vector<std::size_t> covered(sources, 0);
    for (std::size_t s = 0; s < sources; ++s) {
      subs[s].source = kAsyncSources[s];
      subs[s].seen_version = v0;
      last_plan[s] = service.plan(kAsyncSources[s]);
    }
    // Mutations still uncovered this long after the window are missing.
    const std::int64_t give_up = window_end + 60'000'000'000LL;
    std::uint64_t poll = 0;
    for (;;) {
      bool all = true;
      for (std::size_t s = 0; s < sources; ++s) {
        const NodeId source = kAsyncSources[s];
        const std::int32_t plan_span = t ? t->begin("service.plan", poll) : -1;
        auto plan = service.plan(source);
        if (t) t->end(plan_span);
        if (plan != last_plan[s] && plan_seen[s] == 0) plan_seen[s] = now_ns();
        const std::int32_t poll_span = t ? t->begin("service.poll_schedule", poll) : -1;
        auto schedule = service.poll_schedule(subs[s]);
        if (t) t->end(poll_span);
        if (schedule) {
          const std::int64_t seen = now_ns();
          const std::size_t upto = static_cast<std::size_t>(subs[s].seen_version - v0);
          const std::int64_t plan_at = plan_seen[s] ? plan_seen[s] : seen;
          for (; covered[s] < std::min(upto, mutations); ++covered[s]) {
            pass.schedule_ms.push_back(ns_to_ms(seen - due(covered[s])));
            pass.plan_ms.push_back(ns_to_ms(plan_at - due(covered[s])));
          }
          // Verify the snapshot off the timing: its plan is the one read
          // before and after the poll when both reads agree.
          auto after = service.plan(source);
          const bool paired = after == plan;
          const std::string what = "source " + std::to_string(source) + " version " +
                                   std::to_string(subs[s].seen_version);
          checker.answer(*after, what);
          if (upto >= versions.size() ||
              !checker.schedule(versions[upto].with_source(source), *schedule,
                                paired ? after.get() : nullptr, poll, what)) {
            failed_ops.fetch_add(1);
          }
          last_plan[s] = after;
          plan_seen[s] = 0;
        }
        if (covered[s] < mutations) all = false;
      }
      ++poll;
      const std::int64_t now = now_ns();
      if (all && now >= window_end) break;
      if (now >= give_up) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (std::size_t s = 0; s < sources; ++s) {
      if (covered[s] < mutations) {
        const std::size_t missing = mutations - covered[s];
        failed_ops.fetch_add(missing);
        failures[3].push_back(std::to_string(missing) +
                              " mutations never became visible for source " +
                              std::to_string(kAsyncSources[s]));
        for (std::size_t k = 0; k < missing; ++k) {
          pass.schedule_ms.push_back(kInf);
          pass.plan_ms.push_back(kInf);
        }
      }
    }
  });

  sleep_until_ns(window_end);
  stop_reads.store(true);
  reader0.join();
  reader1.join();
  mutator.join();
  subscriber.join();

  for (std::size_t r = 0; r < 2; ++r) {
    pass.read_us.insert(pass.read_us.end(), reader_us[r].begin(), reader_us[r].end());
    pass.reads += reader_count[r];
    pass.plan_reads += reader_plan[r];
    pass.schedule_reads += reader_schedule[r];
    pass.read_window_s = std::max(pass.read_window_s, static_cast<double>(reader_ns[r]) * 1e-9);
  }
  for (const auto& list : failures)
    for (const std::string& why : list) report.fail(why);
  report.attempted += mutations + pass.reads;
  report.failed += failed_ops.load();
  pass.replan_ms = service.take_replan_latencies();
  pass.stats = service.stats();
  return pass;
}

/// Mutations of one async window, and the platform after each prefix of
/// them (versions[k]: after k mutations), generated before timing.
struct AsyncInputs {
  std::vector<ServiceRequest> stream;
  std::vector<Platform> versions;
};

AsyncInputs async_inputs(const Platform& platform, double seconds, std::uint64_t seed) {
  AsyncInputs inputs;
  const auto count =
      static_cast<std::size_t>(std::max(1.0, std::floor(seconds * 1e3 / kMutationPeriodMs)));
  inputs.stream = mutation_stream(platform, kAsyncSources, count, seed);
  inputs.versions.push_back(platform);
  for (const ServiceRequest& request : inputs.stream) {
    inputs.versions.push_back(inputs.versions.back());
    apply_mutation(inputs.versions.back(), request);
  }
  return inputs;
}

Report run_async_readers(const RunConfig& config, Report report) {
  // Before the pool starts (see kSolverCpus).
  pin_to_cpus({kSolverCpus[0], kSolverCpus[1]});
  bt::ThreadPool pool(kPoolWorkers);
  describe_pool(report, pool);
  const Platform platform = reference_platform();
  report.environment.push_back({"threads", "2 readers + 1 mutator + 1 subscriber"});
  report.environment.push_back(
      {"mutation_period_ms", std::to_string(static_cast<long>(kMutationPeriodMs))});

  if (!config.trace) {
    // The window is long enough for the p90s' samples (kMinRequests
    // (mutation, source) visibilities) even when --seconds is shorter.
    const double window = std::max(
        config.seconds, static_cast<double>(kMinRequests / kAsyncSources.size()) *
                            kMutationPeriodMs * 1e-3);
    report.environment.push_back({"window_s", std::to_string(window)});
    const AsyncInputs inputs = async_inputs(platform, window, config.seed);
    describe_inputs(report, platform, inputs.stream);
    WarmService warm = warm_service(kAsyncSources, true, kSetupRepeats, pool);
    Checker checker(report, config.seed, kReferenceOneIn);
    const AsyncPass pass = run_async_window(*warm.service, inputs.versions, inputs.stream, window,
                                            checker, report, nullptr);
    add_end_to_end(report, warm.setup_s, kSetupRepeats, pass.plan_ms, pass.schedule_ms,
                   pass.read_us, static_cast<double>(pass.reads) / pass.read_window_s, checker);
    return report;
  }

  // A traced window, spans around the service calls only: the solver runs
  // on the service's own worker, out of reach (its layer split comes from
  // replan_sync).
  std::vector<Tracer> tracers(4);
  Checker checker(report, config.seed, kReferenceOneIn, 1, &tracers[3]);
  const ServiceLayer layer =
      traced_async_layer(config, platform, report, tracers, checker, pool);
  write_trace(config, {&tracers[0], &tracers[1], &tracers[2], &tracers[3]});
  add_per_layer(report, LayerSamples{}, layer, checker, reference_generate_ms(), pool, 0.0, 0.0);
  return report;
}

ServiceLayer traced_async_layer(const RunConfig& config, const Platform& platform,
                                Report& report, std::vector<Tracer>& tracers, Checker& checker,
                                bt::ThreadPool& pool) {
  // Enough mutations for the p50 of service.mutate_ms.
  const double window =
      static_cast<double>(min_samples_for(0.5)) * kMutationPeriodMs * 1e-3;
  const AsyncInputs inputs = async_inputs(platform, window, config.seed);
  WarmService warm = warm_service(kAsyncSources, true, 1, pool);
  const AsyncPass pass = run_async_window(*warm.service, inputs.versions, inputs.stream, window,
                                          checker, report, &tracers);
  ServiceLayer layer;
  layer.mutate_ms = tracers[0].durations_ms("service.mutate");
  layer.replan_ms = pass.replan_ms;
  layer.gen_late_ms_max = *std::max_element(pass.late_ms.begin(), pass.late_ms.end());
  layer.stats = pass.stats;
  layer.plan_reads = pass.plan_reads;
  layer.schedule_reads = pass.schedule_reads;
  return layer;
}

}  // namespace

Report run_workload(const RunConfig& config) {
  Report report;
  report.workload = config.workload;
  report.seed = config.seed;
  report.traced = config.trace;
  add_environment(report);
  if (config.workload == "replan_sync") return run_replan_sync(config, std::move(report));
  if (config.workload == "cold_tiers") return run_cold_tiers(config, std::move(report));
  if (config.workload == "async_readers") return run_async_readers(config, std::move(report));
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench
