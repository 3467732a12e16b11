#pragma once

// The broadcast-planning service: a long-lived daemon over PlannerSession.
//
// A PlannerService loads one platform and then serves planning requests for
// the lifetime of the process:
//
//   "TP* for source s?"            -> throughput(s) / plan(s)
//   "give me the schedule"         -> schedule(s)
//   "link (u,v) degraded 30%"      -> scale_link_time(arc, 1/0.7), then
//                                     the next plan(s) is a warm re-plan
//   "link came back / re-measured" -> set_link_cost
//   "link died"                    -> remove_link
//   "node joined"                  -> add_node
//   "node left"                    -> remove_node
//
// Layering:
//
//  * One warm PlannerSession per requested source, LRU-bounded
//    (Options::max_sessions): each session keeps its standing cutting-plane
//    masters and pools, so repeated queries and post-mutation re-plans ride
//    the incremental machinery instead of cold solves.  Sessions default to
//    cold_polish = false -- the service trades the batch path's bitwise
//    pool-determinism for warm-re-plan latency; agreement with a cold solve
//    stays within 1e-9 relative (see planner_session.hpp).
//  * One published Snapshot per source: the newest plan and the newest
//    schedule, each stamped with the service version it was built at.
//    Reads copy a shared_ptr out of it under a leaf mutex and never touch
//    the sessions.  A read takes the published half when it is fresh
//    enough -- sync mode: built at the current version(); async mode: any
//    last-good answer -- and otherwise takes the writer mutex, re-checks,
//    solves or synthesizes, and publishes.  The halves keep their own
//    versions: a plan() publishes only its plan and leaves the older
//    schedule for poll_schedule to hand out; an async re-plan publishes
//    both together.
//  * One writer mutex: solves, synthesis and mutations serialize.  A
//    mutation applies its delta to the base platform and every warm
//    session and bumps the version, which makes every published half
//    stale for sync readers at once.
//
// Degradation ladder: every solve the service runs goes through
// PlannerSession::solve_laddered under Options::ladder, so a recoverable
// solver fault (or an exhausted deadline budget) degrades the answer --
// exact -> pool-rebuild -> heuristic tree, tagged in SsbSolution::tier /
// quality_gap -- instead of surfacing an exception.  Only a platform that
// genuinely cannot broadcast still throws.  Options::faults arms a
// deterministic FaultInjector around every service-run solve (and the
// pre-solve session-eviction hook); solves run elsewhere -- e.g. an offline
// reference session -- never consume its triggers.
//
// Async re-planning (Options::async_replan): mutations enqueue
// version-stamped re-plan jobs on a background worker instead of leaving
// the next reader to pay the solve.  Readers keep serving the last-good
// published snapshot -- never blocking on the worker's solves -- and
// poll_schedule hands the new build out at the consumer's next period
// boundary, so staleness overlaps solver latency.  The queue is bounded
// (oldest job dropped beyond capacity), jobs for the same source coalesce
// to the newest version, and a failed re-plan retries with linear backoff
// -- exact rungs only until the final attempt, which may degrade.
// pause/resume/drain give batch mutators (the churn engine) deterministic
// barriers: pause around an event batch so the worker solves only the
// batch's final state, drain before reading to make results reproducible.
//
// Read methods are const-free on purpose: a stale snapshot escalates to the
// writer mutex to run the solve, so "read" describes the request, not the
// implementation.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "platform/platform.hpp"
#include "ssb/planner_session.hpp"
#include "util/fault_injection.hpp"
#include "util/timer.hpp"

namespace bt {

struct PlannerServiceOptions {
  /// Per-source session configuration.  The constructor default turns cold
  /// polish off (warm re-plans stay on the standing masters).
  PlannerSessionOptions session;
  /// Warm sessions kept alive at once (LRU-evicted beyond this).
  std::size_t max_sessions = 8;
  /// Degradation policy of every solve the service runs (deadline budgets,
  /// permitted rungs); see planner_session.hpp.
  LadderOptions ladder;
  /// Run re-plans on a background worker (see header comment).  Off by
  /// default: mutations then stay cheap and the next reader pays the solve.
  bool async_replan = false;
  /// Queued re-plan jobs beyond this drop the oldest (the service degrades
  /// to reader-paid solves for the dropped source, it never blocks).
  std::size_t replan_queue_capacity = 64;
  /// Re-plan attempts after a failed one (transient faults), with linear
  /// backoff of replan_retry_backoff_ms between attempts.
  std::size_t replan_max_retries = 2;
  double replan_retry_backoff_ms = 1.0;
  /// When set, armed (thread-locally) around every service-run solve; see
  /// util/fault_injection.hpp.  Not owned.
  FaultInjector* faults = nullptr;

  PlannerServiceOptions() { session.cold_polish = false; }
};

/// Service counters (monotonic since construction).
struct PlannerServiceStats {
  std::uint64_t queries = 0;              ///< plan/throughput/schedule requests
  std::uint64_t plan_cache_hits = 0;      ///< reads answered by a published plan
  std::uint64_t schedule_cache_hits = 0;  ///< reads answered by a published schedule
  std::uint64_t solves = 0;               ///< session solves run on a miss
  std::uint64_t schedules_built = 0;
  std::uint64_t mutations = 0;
  std::uint64_t sessions_created = 0;
  std::uint64_t sessions_evicted = 0;
  // Ladder tiers of the answers produced by service-run solves.
  std::uint64_t plans_exact = 0;
  std::uint64_t plans_rebuild = 0;
  std::uint64_t plans_heuristic = 0;
  // Async re-plan worker.
  std::uint64_t replans_enqueued = 0;
  std::uint64_t replans_coalesced = 0;  ///< superseded jobs folded into newer ones
  std::uint64_t replans_dropped = 0;    ///< oldest jobs dropped at capacity
  std::uint64_t replans_run = 0;        ///< jobs that published a snapshot
  std::uint64_t replan_retries = 0;     ///< failed attempts that were retried
  std::uint64_t replans_failed = 0;     ///< jobs that exhausted their retries
};

/// Cursor of a schedule consumer (e.g. the churn scenario engine's replay
/// loop): remembers the service version of the last schedule it took, so
/// PlannerService::poll_schedule can hand over *newer* builds without ever
/// blocking on a solve.
struct ScheduleSubscription {
  static constexpr std::uint64_t kNone = static_cast<std::uint64_t>(-1);
  NodeId source = 0;
  /// Version of the last schedule taken through poll_schedule (kNone:
  /// nothing taken yet -- the first poll returns the newest build, if any).
  std::uint64_t seen_version = kNone;
};

class PlannerService {
 public:
  explicit PlannerService(Platform platform, PlannerServiceOptions options = {});
  ~PlannerService();

  // ---- read requests (concurrent) ----

  /// TP* of the current platform broadcasting from `source`.
  double throughput(NodeId source);

  /// The full plan (TP*, edge loads, tier, diagnostics) for `source`.  The
  /// returned snapshot stays valid after later mutations.  In async mode
  /// this is the last-good published snapshot (possibly one or more
  /// versions stale while a re-plan is in flight); the first request for a
  /// source still solves synchronously.
  std::shared_ptr<const SsbSolution> plan(NodeId source);

  /// The synthesized periodic schedule for `source` (async: last-good
  /// snapshot, as for plan()).
  std::shared_ptr<const PeriodicSchedule> schedule(NodeId source);

  /// Non-blocking epoch hook: the newest *built* schedule for `sub.source`
  /// whose service version is newer than sub.seen_version, advancing the
  /// cursor -- or nullptr when nothing newer has been built (call
  /// schedule() to force one).  Never solves or synthesizes, so an executor can poll at every period boundary and
  /// keep running its installed schedule while a re-plan is in flight.
  std::shared_ptr<const PeriodicSchedule> poll_schedule(ScheduleSubscription& sub);

  // ---- write requests (serialized) ----

  /// Replace arc e's affine cost (re-measured or restored link).
  void set_link_cost(EdgeId e, LinkCost cost);

  /// Scale arc e's cost: "bandwidth degraded 30%" is factor 1/0.7.
  void scale_link_time(EdgeId e, double factor);

  /// Remove arc e from service.  Sources whose broadcasts depended on it
  /// re-plan around it; if it disconnected them, their next query degrades
  /// down the ladder and ultimately throws.
  void remove_link(EdgeId e);

  /// Grow the platform by one node; returns its id.
  NodeId add_node(const std::vector<SessionLink>& in_links,
                  const std::vector<SessionLink>& out_links);

  /// Remove `node` and every arc touching it (the mirror of add_node; see
  /// shrink_platform).  Node and arc ids compact -- `remap` (optional)
  /// receives old-id -> new-id maps with Digraph::npos for the dropped ones
  /// -- so this is a structural fallback: all warm sessions, published
  /// snapshots, schedule cursors and queued re-plans for the old id space
  /// are dropped, and the next request per source solves cold.  Requires
  /// node != the base platform's source and >= 3 nodes.
  void remove_node(NodeId node, ShrinkRemap* remap = nullptr);

  // ---- async re-plan worker (no-ops when async_replan is off) ----

  /// Block until every queued job has run and the worker is idle.
  void drain_replans();

  /// Suspend job pickup (waiting out an in-flight job first), so a batch of
  /// mutations coalesces into one re-plan of the final state on resume.
  void pause_replans();
  void resume_replans();

  /// Wall-clock ms per published re-plan since the last take, mutation to
  /// snapshot (includes queue wait and retries).
  std::vector<double> take_replan_latencies();

  // ---- introspection ----

  /// Snapshot of the current platform (copy: safe under concurrency).
  Platform platform_snapshot();

  /// Mutation counter; published answers are stamped with it.  Lock-free,
  /// so staleness accounting never blocks on an in-flight re-plan.
  std::uint64_t version() const { return version_.load(std::memory_order_acquire); }

  PlannerServiceStats stats();

 private:
  /// One queued re-plan of `source`.  The worker solves whatever state is
  /// current when it picks the job up; `queued` runs from the first enqueue
  /// (coalescing keeps it), so latencies include the queue wait.
  struct ReplanJob {
    NodeId source = 0;
    Timer queued;
  };

  /// One half of a snapshot: the newest answer and the service version it
  /// was built at.
  template <typename T>
  struct Published {
    std::uint64_t version = 0;
    std::shared_ptr<const T> value;
  };

  /// Newest published answer per source.  Lives under snapshot_mutex_, not
  /// the writer mutex, so readers copy shared_ptrs in O(1) while a writer
  /// holds writer_mutex_ through a solve.
  struct Snapshot {
    Published<SsbSolution> plan;
    Published<PeriodicSchedule> schedule;
  };

  /// The `half` of `source`'s snapshot when it is fresh enough to answer a
  /// read (counting the hit in `hits`), else nullptr.
  template <typename T>
  std::shared_ptr<const T> fresh(NodeId source, Published<T> Snapshot::*half,
                                 std::uint64_t& hits);
  /// Publish the non-null halves at the current version, in one critical
  /// section: a re-plan's plan and schedule appear together.
  void publish_locked(NodeId source, std::shared_ptr<const SsbSolution> plan,
                      std::shared_ptr<const PeriodicSchedule> schedule);

  /// Warm session for `source`, creating (and LRU-evicting) as needed.
  /// Caller must hold writer_mutex_.
  PlannerSession& session_locked(NodeId source);
  void evict_session_locked(NodeId source);
  /// Solve / synthesize `source` at the current version.  Caller must hold
  /// writer_mutex_.
  std::shared_ptr<const SsbSolution> plan_locked(NodeId source, const LadderOptions& ladder);
  std::shared_ptr<const PeriodicSchedule> schedule_locked(NodeId source,
                                                          const LadderOptions& ladder);
  void note_tier_locked(PlanTier tier);
  void enqueue_replans();
  void worker_loop();
  void run_replan(const ReplanJob& job);

  // Lock order: writer_mutex_ before snapshot_mutex_ / queue_mutex_ (never
  // the other way; the two leaf mutexes are never held together).
  /// Serializes solves, synthesis and mutations; guards the platform, the
  /// sessions and the solve counters below.
  std::mutex writer_mutex_;
  Platform platform_;                 ///< base platform (source = as loaded)
  std::vector<char> removed_;         ///< arcs removed from service
  PlannerServiceOptions options_;
  /// Written under writer_mutex_; atomic so version() is lock-free.
  std::atomic<std::uint64_t> version_{0};

  /// Warm sessions, most recently used first.
  std::list<std::pair<NodeId, std::unique_ptr<PlannerSession>>> sessions_;

  // ---- async worker state ----
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;  ///< job available / stop / resume
  std::condition_variable idle_cv_;   ///< job finished (drain / pause)
  std::deque<ReplanJob> queue_;
  bool stopping_ = false;
  bool paused_ = false;
  bool worker_busy_ = false;
  std::vector<double> replan_latencies_;
  std::thread worker_;

  std::mutex snapshot_mutex_;
  std::map<NodeId, Snapshot> published_;
  std::uint64_t plan_hits_ = 0;      ///< under snapshot_mutex_
  std::uint64_t schedule_hits_ = 0;  ///< under snapshot_mutex_

  // Counter discipline: queries_ is bumped by every read and the replans_*
  // counters on the worker thread, so they're atomic; the hit counters
  // change under snapshot_mutex_ and everything else under writer_mutex_.
  std::atomic<std::uint64_t> queries_{0};
  std::uint64_t solves_ = 0;
  std::uint64_t schedules_built_ = 0;
  std::uint64_t mutations_ = 0;
  std::uint64_t sessions_created_ = 0;
  std::uint64_t sessions_evicted_ = 0;
  std::uint64_t plans_exact_ = 0;
  std::uint64_t plans_rebuild_ = 0;
  std::uint64_t plans_heuristic_ = 0;
  std::atomic<std::uint64_t> replans_enqueued_{0};
  std::atomic<std::uint64_t> replans_coalesced_{0};
  std::atomic<std::uint64_t> replans_dropped_{0};
  std::atomic<std::uint64_t> replans_run_{0};
  std::atomic<std::uint64_t> replan_retries_{0};
  std::atomic<std::uint64_t> replans_failed_{0};
};

}  // namespace bt
