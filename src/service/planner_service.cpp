#include "service/planner_service.hpp"

#include <chrono>
#include <utility>

#include "sched/orchestrate.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace bt {

PlannerService::PlannerService(Platform platform, PlannerServiceOptions options)
    : platform_(std::move(platform)),
      removed_(platform_.num_edges(), 0),
      options_(options),
      plan_cache_(options.plan_cache_capacity),
      schedule_cache_(options.schedule_cache_capacity) {
  BT_REQUIRE(options_.max_sessions > 0, "PlannerService: max_sessions must be positive");
  BT_REQUIRE(options_.replan_queue_capacity > 0,
             "PlannerService: replan_queue_capacity must be positive");
  if (options_.async_replan) {
    worker_ = std::thread([this] { worker_loop(); });
  }
}

PlannerService::~PlannerService() {
  if (worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      stopping_ = true;
    }
    queue_cv_.notify_all();
    worker_.join();
  }
}

PlannerSession& PlannerService::session_locked(NodeId source) {
  BT_REQUIRE(source < platform_.num_nodes(), "PlannerService: source out of range");
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->first == source) {
      sessions_.splice(sessions_.begin(), sessions_, it);
      return *sessions_.front().second;
    }
  }
  // Cold session: rebase the current platform on the requested source and
  // replay the removals so the session sees the service's live topology.
  auto session = std::make_unique<PlannerSession>(platform_.with_source(source),
                                                  options_.session);
  for (EdgeId e = 0; e < removed_.size(); ++e) {
    if (removed_[e]) session->remove_link(e);
  }
  sessions_.emplace_front(source, std::move(session));
  ++sessions_created_;
  if (sessions_.size() > options_.max_sessions) {
    sessions_.pop_back();
    ++sessions_evicted_;
  }
  return *sessions_.front().second;
}

void PlannerService::evict_session_locked(NodeId source) {
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->first == source) {
      sessions_.erase(it);
      ++sessions_evicted_;
      return;
    }
  }
}

void PlannerService::note_tier_locked(PlanTier tier) {
  switch (tier) {
    case PlanTier::kExact: ++plans_exact_; break;
    case PlanTier::kRebuild: ++plans_rebuild_; break;
    case PlanTier::kHeuristic: ++plans_heuristic_; break;
  }
}

std::shared_ptr<const SsbSolution> PlannerService::plan_locked(NodeId source,
                                                               const LadderOptions& ladder) {
  // Re-check under the exclusive lock: another writer may have solved this
  // (source, version) while we waited to escalate.
  if (auto hit = plan_cache_.get({source, version_})) return *hit;
  FaultScope scope(options_.faults);
  // Injected mid-stream eviction: the warm session vanishes just before the
  // solve, so the answer comes from a cold rebuild (still kExact -- the
  // ladder tiers describe *how* a solve concluded, not its warmth).
  if (fault_fire(FaultSite::kSessionEviction)) evict_session_locked(source);
  PlannerSession& session = session_locked(source);
  auto solution = std::make_shared<const SsbSolution>(session.solve_laddered(ladder));
  ++solves_;
  note_tier_locked(solution->tier);
  plan_cache_.put({source, version_}, solution);
  return solution;
}

std::shared_ptr<const PeriodicSchedule> PlannerService::schedule_locked(
    NodeId source, const LadderOptions& ladder) {
  const PortModel port_model = options_.session.cutting.port_model;
  if (auto hit = schedule_cache_.get({source, port_model, version_})) return *hit;
  FaultScope scope(options_.faults);
  PlannerSession& session = session_locked(source);
  std::shared_ptr<const PeriodicSchedule> schedule;
  try {
    schedule = session.schedule();
  } catch (const Error&) {
    // The synthesis path failed (e.g. an injected pricing-oracle fault in
    // the packing solve).  Route through the ladder: solve_laddered leaves
    // a fresh cutting-plane -- or heuristic single-tree -- solution for
    // schedule() to synthesize from instead.
    session.solve_laddered(ladder);
    schedule = session.schedule();
  }
  ++schedules_built_;
  schedule_cache_.put({source, port_model, version_}, schedule);
  schedule_built_[source] = version_;
  return schedule;
}

void PlannerService::publish_locked(NodeId source, std::shared_ptr<const SsbSolution> plan,
                                    std::shared_ptr<const PeriodicSchedule> schedule) {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  Snapshot& snap = published_[source];
  snap.version = version_;
  snap.plan = std::move(plan);
  snap.schedule = std::move(schedule);
}

double PlannerService::throughput(NodeId source) { return plan(source)->throughput; }

std::shared_ptr<const SsbSolution> PlannerService::plan(NodeId source) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (options_.async_replan) {
    {
      std::lock_guard<std::mutex> lock(snapshot_mutex_);
      const auto it = published_.find(source);
      if (it != published_.end()) return it->second.plan;
    }
    // First request for this source: solve synchronously (there is no
    // last-good yet) and publish, so later reads and polls are O(1).
    WriteGuard lock(guard_);
    auto plan = plan_locked(source, options_.ladder);
    auto schedule = schedule_locked(source, options_.ladder);
    publish_locked(source, plan, schedule);
    return plan;
  }
  {
    ReadGuard lock(guard_);
    if (auto hit = plan_cache_.get({source, version_})) return *hit;
  }
  WriteGuard lock(guard_);
  return plan_locked(source, options_.ladder);
}

std::shared_ptr<const PeriodicSchedule> PlannerService::schedule(NodeId source) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (options_.async_replan) {
    {
      std::lock_guard<std::mutex> lock(snapshot_mutex_);
      const auto it = published_.find(source);
      if (it != published_.end()) return it->second.schedule;
    }
    WriteGuard lock(guard_);
    auto plan = plan_locked(source, options_.ladder);
    auto schedule = schedule_locked(source, options_.ladder);
    publish_locked(source, plan, schedule);
    return schedule;
  }
  {
    ReadGuard lock(guard_);
    const PortModel port_model = options_.session.cutting.port_model;
    if (auto hit = schedule_cache_.get({source, port_model, version_})) return *hit;
  }
  WriteGuard lock(guard_);
  return schedule_locked(source, options_.ladder);
}

std::shared_ptr<const PeriodicSchedule> PlannerService::poll_schedule(ScheduleSubscription& sub) {
  if (options_.async_replan) {
    // Snapshot lock only: a poll at a period boundary must not block on the
    // worker's write-guarded solve -- that wait is exactly the staleness
    // the async mode exists to hide.
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    const auto it = published_.find(sub.source);
    if (it == published_.end()) return nullptr;
    if (sub.seen_version != ScheduleSubscription::kNone &&
        it->second.version <= sub.seen_version) {
      return nullptr;
    }
    sub.seen_version = it->second.version;
    return it->second.schedule;
  }
  ReadGuard lock(guard_);
  const auto it = schedule_built_.find(sub.source);
  if (it == schedule_built_.end()) return nullptr;
  const std::uint64_t built = it->second;
  if (sub.seen_version != ScheduleSubscription::kNone && built <= sub.seen_version)
    return nullptr;
  const PortModel port_model = options_.session.cutting.port_model;
  auto hit = schedule_cache_.get({sub.source, port_model, built});
  if (!hit) return nullptr;  // LRU-evicted since it was built
  sub.seen_version = built;
  return *hit;
}

// ---- async worker -----------------------------------------------------------

void PlannerService::enqueue_replans() {
  if (!options_.async_replan) return;
  // Re-plan every source a consumer is subscribed to (= has a published
  // snapshot).  Sources nobody asked about yet have nothing to refresh.
  std::vector<NodeId> targets;
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    targets.reserve(published_.size());
    for (const auto& entry : published_) targets.push_back(entry.first);
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (NodeId source : targets) {
      bool coalesced = false;
      for (ReplanJob& job : queue_) {
        if (job.source == source) {
          // A queued job for this source is superseded: lift it to the new
          // version instead of queueing a second solve of a stale state.
          job.version = version_;
          coalesced = true;
          replans_coalesced_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      if (coalesced) continue;
      if (queue_.size() >= options_.replan_queue_capacity) {
        queue_.pop_front();
        replans_dropped_.fetch_add(1, std::memory_order_relaxed);
      }
      queue_.push_back({source, version_});
      replans_enqueued_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  queue_cv_.notify_one();
}

void PlannerService::worker_loop() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  for (;;) {
    queue_cv_.wait(lock, [&] { return stopping_ || (!queue_.empty() && !paused_); });
    if (stopping_) return;
    const ReplanJob job = queue_.front();
    queue_.pop_front();
    worker_busy_ = true;
    lock.unlock();
    run_replan(job);
    lock.lock();
    worker_busy_ = false;
    idle_cv_.notify_all();
  }
}

void PlannerService::run_replan(ReplanJob job) {
  Timer latency;
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      WriteGuard lock(guard_);
      // The solve always runs against the *current* state -- job.version is
      // a floor, not a pin; coalescing means the newest mutation wins.
      LadderOptions ladder = options_.ladder;
      // Retries exist to recover the LP optimum from a transient fault;
      // only the final attempt is allowed to degrade to the heuristic.
      if (attempt < options_.replan_max_retries) ladder.allow_heuristic = false;
      auto plan = plan_locked(job.source, ladder);
      auto schedule = schedule_locked(job.source, ladder);
      publish_locked(job.source, std::move(plan), std::move(schedule));
      replans_run_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> latency_lock(queue_mutex_);
        replan_latencies_.push_back(latency.millis());
      }
      return;
    } catch (const Error&) {
      if (attempt >= options_.replan_max_retries) {
        // Out of retries: the last-good snapshot stays published (stale but
        // answerable); the next mutation or direct request tries again.
        // Never let an exception escape the worker thread.
        replans_failed_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      replan_retries_.fetch_add(1, std::memory_order_relaxed);
      if (options_.replan_retry_backoff_ms > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            options_.replan_retry_backoff_ms * static_cast<double>(attempt + 1)));
      }
    }
  }
}

void PlannerService::drain_replans() {
  if (!options_.async_replan) return;
  std::unique_lock<std::mutex> lock(queue_mutex_);
  idle_cv_.wait(lock, [&] { return (queue_.empty() || paused_) && !worker_busy_; });
}

void PlannerService::pause_replans() {
  if (!options_.async_replan) return;
  std::unique_lock<std::mutex> lock(queue_mutex_);
  paused_ = true;
  // Wait out an in-flight job so callers get a real barrier: after pause,
  // no solve is running and none will start until resume.
  idle_cv_.wait(lock, [&] { return !worker_busy_; });
}

void PlannerService::resume_replans() {
  if (!options_.async_replan) return;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    paused_ = false;
  }
  queue_cv_.notify_one();
}

std::vector<double> PlannerService::take_replan_latencies() {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return std::exchange(replan_latencies_, {});
}

// ---- write requests ---------------------------------------------------------

void PlannerService::set_link_cost(EdgeId e, LinkCost cost) {
  {
    WriteGuard lock(guard_);
    BT_REQUIRE(e < platform_.num_edges(), "PlannerService: edge out of range");
    platform_.set_link_cost(e, cost);
    removed_[e] = 0;
    for (auto& entry : sessions_) entry.second->set_link_cost(e, cost);
    ++mutations_;
    ++version_;
  }
  enqueue_replans();
}

void PlannerService::scale_link_time(EdgeId e, double factor) {
  {
    WriteGuard lock(guard_);
    BT_REQUIRE(e < platform_.num_edges(), "PlannerService: edge out of range");
    LinkCost cost = platform_.link_cost(e);
    cost.alpha *= factor;
    cost.beta *= factor;
    platform_.set_link_cost(e, cost);
    removed_[e] = 0;
    for (auto& entry : sessions_) entry.second->scale_link_time(e, factor);
    ++mutations_;
    ++version_;
  }
  enqueue_replans();
}

void PlannerService::remove_link(EdgeId e) {
  {
    WriteGuard lock(guard_);
    BT_REQUIRE(e < platform_.num_edges(), "PlannerService: edge out of range");
    removed_[e] = 1;
    for (auto& entry : sessions_) entry.second->remove_link(e);
    ++mutations_;
    ++version_;
  }
  enqueue_replans();
}

NodeId PlannerService::add_node(const std::vector<SessionLink>& in_links,
                                const std::vector<SessionLink>& out_links) {
  NodeId node;
  {
    WriteGuard lock(guard_);
    platform_ = grow_platform(platform_, in_links, out_links);
    removed_.resize(platform_.num_edges(), 0);
    for (auto& entry : sessions_) entry.second->add_node(in_links, out_links);
    ++mutations_;
    ++version_;
    node = static_cast<NodeId>(platform_.num_nodes() - 1);
  }
  enqueue_replans();
  return node;
}

void PlannerService::remove_node(NodeId node, ShrinkRemap* remap) {
  WriteGuard lock(guard_);
  ShrinkRemap local;
  // Validates node != source and >= 3 nodes; throws (via the Platform
  // constructor) if the leave disconnects the remaining platform.
  Platform shrunk = shrink_platform(platform_, node, &local);
  std::vector<char> compact_removed;
  compact_removed.reserve(shrunk.num_edges());
  for (EdgeId e = 0; e < removed_.size(); ++e) {
    if (local.edge_map[e] != Digraph::npos) compact_removed.push_back(removed_[e]);
  }
  platform_ = std::move(shrunk);
  removed_ = std::move(compact_removed);
  // Structural fallback, service-wide: every warm session, published
  // snapshot, poll cursor and queued job speaks the old id space.  Drop
  // them all; the next request per source solves cold against the compact
  // platform (consumers re-subscribe through the remap).
  sessions_evicted_ += sessions_.size();
  sessions_.clear();
  schedule_built_.clear();
  {
    std::lock_guard<std::mutex> snapshot_lock(snapshot_mutex_);
    published_.clear();
  }
  {
    std::lock_guard<std::mutex> queue_lock(queue_mutex_);
    queue_.clear();
  }
  ++mutations_;
  ++version_;
  if (remap != nullptr) *remap = std::move(local);
}

// ---- introspection ----------------------------------------------------------

Platform PlannerService::platform_snapshot() {
  ReadGuard lock(guard_);
  return platform_;
}

PlannerServiceStats PlannerService::stats() {
  WriteGuard lock(guard_);
  PlannerServiceStats out;
  out.queries = queries_.load(std::memory_order_relaxed);
  out.plan_cache_hits = plan_cache_.hits();
  out.schedule_cache_hits = schedule_cache_.hits();
  out.solves = solves_;
  out.schedules_built = schedules_built_;
  out.mutations = mutations_;
  out.sessions_created = sessions_created_;
  out.sessions_evicted = sessions_evicted_;
  out.plans_exact = plans_exact_;
  out.plans_rebuild = plans_rebuild_;
  out.plans_heuristic = plans_heuristic_;
  out.replans_enqueued = replans_enqueued_.load(std::memory_order_relaxed);
  out.replans_coalesced = replans_coalesced_.load(std::memory_order_relaxed);
  out.replans_dropped = replans_dropped_.load(std::memory_order_relaxed);
  out.replans_run = replans_run_.load(std::memory_order_relaxed);
  out.replan_retries = replan_retries_.load(std::memory_order_relaxed);
  out.replans_failed = replans_failed_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace bt
