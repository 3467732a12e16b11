#include "service/planner_service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "sched/orchestrate.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace bt {

PlannerService::PlannerService(Platform platform, PlannerServiceOptions options)
    : platform_(std::move(platform)),
      removed_(platform_.num_edges(), 0),
      options_(options) {
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

template <typename T>
std::shared_ptr<const T> PlannerService::fresh(NodeId source, Published<T> Snapshot::*half,
                                               std::uint64_t& hits) {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  const auto it = published_.find(source);
  if (it == published_.end()) return nullptr;
  const Published<T>& published = it->second.*half;
  // Async readers take any last-good answer; sync readers only one built
  // at the current version.
  if (!published.value || (!options_.async_replan && published.version != version())) {
    return nullptr;
  }
  ++hits;
  return published.value;
}

void PlannerService::publish_locked(NodeId source, std::shared_ptr<const SsbSolution> plan,
                                    std::shared_ptr<const PeriodicSchedule> schedule) {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  Snapshot& snap = published_[source];
  if (plan) snap.plan = {version_, std::move(plan)};
  if (schedule) snap.schedule = {version_, std::move(schedule)};
}

std::shared_ptr<const SsbSolution> PlannerService::plan_locked(NodeId source,
                                                               const LadderOptions& ladder) {
  FaultScope scope(options_.faults);
  // Injected mid-stream eviction: the warm session vanishes just before the
  // solve, so the answer comes from a cold rebuild (still kExact -- the
  // ladder tiers describe *how* a solve concluded, not its warmth).
  if (fault_fire(FaultSite::kSessionEviction)) evict_session_locked(source);
  PlannerSession& session = session_locked(source);
  auto solution = std::make_shared<const SsbSolution>(session.solve_laddered(ladder));
  ++solves_;
  note_tier_locked(solution->tier);
  return solution;
}

std::shared_ptr<const PeriodicSchedule> PlannerService::schedule_locked(
    NodeId source, const LadderOptions& ladder) {
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
  return schedule;
}

double PlannerService::throughput(NodeId source) { return plan(source)->throughput; }

std::shared_ptr<const SsbSolution> PlannerService::plan(NodeId source) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (auto hit = fresh(source, &Snapshot::plan, plan_hits_)) return hit;
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // Re-check: another writer may have published while this one waited.
  if (auto hit = fresh(source, &Snapshot::plan, plan_hits_)) return hit;
  auto plan = plan_locked(source, options_.ladder);
  publish_locked(source, plan, nullptr);
  return plan;
}

std::shared_ptr<const PeriodicSchedule> PlannerService::schedule(NodeId source) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (auto hit = fresh(source, &Snapshot::schedule, schedule_hits_)) return hit;
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (auto hit = fresh(source, &Snapshot::schedule, schedule_hits_)) return hit;
  auto schedule = schedule_locked(source, options_.ladder);
  publish_locked(source, nullptr, schedule);
  return schedule;
}

std::shared_ptr<const PeriodicSchedule> PlannerService::poll_schedule(ScheduleSubscription& sub) {
  // Snapshot lock only: a poll at a period boundary must not block on a
  // writer's solve -- that wait is exactly the staleness the async mode
  // exists to hide.
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  const auto it = published_.find(sub.source);
  if (it == published_.end()) return nullptr;
  const Published<PeriodicSchedule>& built = it->second.schedule;
  if (!built.value) return nullptr;
  if (sub.seen_version != ScheduleSubscription::kNone && built.version <= sub.seen_version) {
    return nullptr;
  }
  sub.seen_version = built.version;
  return built.value;
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
      // A job already queued for this source solves the new state too (the
      // worker reads the state at pickup): fold into it, keeping its stamp.
      const bool coalesced = std::any_of(queue_.begin(), queue_.end(),
                                         [&](const ReplanJob& job) { return job.source == source; });
      if (coalesced) {
        replans_coalesced_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (queue_.size() >= options_.replan_queue_capacity) {
        queue_.pop_front();
        replans_dropped_.fetch_add(1, std::memory_order_relaxed);
      }
      queue_.push_back({source, Timer{}});
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

void PlannerService::run_replan(const ReplanJob& job) {
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      std::lock_guard<std::mutex> lock(writer_mutex_);
      // The solve always runs against the *current* state: coalescing
      // means the newest mutation wins.
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
        replan_latencies_.push_back(job.queued.millis());
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
    std::lock_guard<std::mutex> lock(writer_mutex_);
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
    std::lock_guard<std::mutex> lock(writer_mutex_);
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
    std::lock_guard<std::mutex> lock(writer_mutex_);
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
    std::lock_guard<std::mutex> lock(writer_mutex_);
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
  std::lock_guard<std::mutex> lock(writer_mutex_);
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
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return platform_;
}

PlannerServiceStats PlannerService::stats() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  PlannerServiceStats out;
  out.queries = queries_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> snapshot_lock(snapshot_mutex_);
    out.plan_cache_hits = plan_hits_;
    out.schedule_cache_hits = schedule_hits_;
  }
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
