#pragma once

// PlannerSession: the long-lived, session-oriented core of the broadcast
// planner.
//
// The batch solvers (ssb_cutting_plane.hpp, ssb_column_generation.hpp)
// historically rebuilt the world per call; everything incremental built
// since -- standing IncrementalSimplex masters, Forrest-Tomlin updates,
// the cut and column pools, exported tree columns -- is exactly what an
// *online* planner needs.  A PlannerSession owns one platform together
// with all of that warm optimization state and exposes an explicit
// lifecycle:
//
//   load (construct) -> solve() -> query (throughput / edge loads /
//   schedule()) -> mutate (set_link_cost / scale_link_time / remove_link /
//   add_node) -> re-solve (the next solve() call is a warm delta re-plan)
//
// Solver state held across calls:
//
//  * Cutting plane: the deduplicated cut pool plus the standing value and
//    stable masters (see ssb_cutting_plane.hpp for the lexicographic
//    two-master scheme).  Platform deltas are translated into edits of the
//    standing masters.  A changed link time of an arc whose column is
//    non-basic in both masters -- the common case, the optimum leaves most
//    arcs unloaded -- rewrites the column's two port-row coefficients (and
//    the stable master's weight) in place.  A basic column is "killed" with
//    an appended  n_e <= 0  row instead, and a replacement column carrying
//    the new port-row coefficients is added (cut rows are time-free, so the
//    replacement only re-enters the pooled cuts that contain the arc); a
//    removed link just kills its column.  All three keep the standing basis
//    valid, so the next solve() re-converges with a handful of pivots plus
//    a short separation tail instead of a cold solve.  Killed columns and
//    their rows are dead weight: once they outnumber the masters' live rows
//    the pair is dropped and the next solve() rebuilds it from the pool, so
//    each standing master stays within twice its pool-built row count.  A
//    differential test pins warm == cold to <= 1e-9 relative throughput.
//
//  * Separation memo: the last separated load vector with each
//    destination's max-flow value.  Max-flow results depend only on
//    (graph, source, load), so a round whose loads are bitwise equal to the
//    memo's reuses the values -- within a solve (the polish round
//    re-separates the loads the main loop just certified) and across solves
//    (a mutation of an arc the plan leaves unloaded).  The cuts the memo's
//    round found are in the pool already; only destinations that a tighter
//    tolerance newly finds violated run their max-flow again.
//
//  * Column generation: the tree-column pool.  Mutations re-seed the
//    packing master from the pooled trees (minus any tree over a removed
//    arc, with occupation coefficients refreshed from the current link
//    times) and only the pricing gap is closed -- the pool-seeded re-solve
//    of the ROADMAP.
//
//  * Schedule synthesis: the current platform version's PeriodicSchedule,
//    re-synthesized lazily after mutations, plus the trees of the last
//    decomposition with the TP and loads they came from.  Tree
//    decomposition reads only the graph, the source, TP and the loads, so a
//    re-plan that returns bitwise-equal TP and loads re-uses the trees and
//    only re-orchestrates them under the new link times.
//
// add_node is the structural fallback: pooled cuts are no longer
// source->w cuts of the grown graph and pooled trees no longer span, so
// the session resets its solver state and both memos, and the next solve()
// is cold (by design -- the delta machinery covers the *numeric*
// mutations).
//
// Error rollback: if a solve fails (numerical breakdown that even the
// rebuild-from-pool retry cannot repair, a round/column cap, a platform
// disconnected by removals), the standing masters are discarded before
// the error propagates, the pools are kept, and the session stays usable:
// the next solve() rebuilds from the pools instead of continuing from an
// indeterminate master.
//
// A PlannerSession is NOT internally synchronized; the service layer
// (service/planner_service.hpp) wraps sessions in a many-readers /
// one-writer guard.

#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "platform/platform.hpp"
#include "sched/periodic_schedule.hpp"
#include "ssb/ssb_column_generation.hpp"
#include "ssb/ssb_cutting_plane.hpp"
#include "ssb/ssb_solution.hpp"
#include "util/timer.hpp"

namespace bt {

struct PlannerSessionOptions {
  /// Options of the standing cutting-plane masters (the TP* reference
  /// path; solve()).
  SsbCuttingPlaneOptions cutting;
  /// Options of the packing master (solve_packing()); its tree columns
  /// also feed schedule() when fresh.
  SsbColumnGenOptions colgen;
  /// Re-derive the reported value and loads with *cold* master solves over
  /// the converged pool, rounding to the certificate's resolution -- the
  /// batch behavior, which makes the warm and rebuild paths report
  /// bitwise-identical throughput (see ssb_cutting_plane.hpp).  The
  /// service turns this off: re-plans then stay entirely on the standing
  /// masters (the polish rounds tighten the certificate warmly to ~3e-10
  /// relative before rounding), trading bitwise reproducibility for
  /// latency while keeping warm-vs-cold agreement well under 1e-9.
  /// At degenerate scale (n >= ~500) a cold polish solve can stall through
  /// its pivot budget; the solve then flips its remaining polish to the
  /// warm path (SsbSolution::cold_polish_stalls) instead of failing.
  bool cold_polish = true;
};

/// Session diagnostics: how queries were answered and how mutations were
/// absorbed.  LP-engine-level detail (pivots, reach fractions, appended
/// rows/columns, rhs updates) rides SsbSolution::lp_stats of the solutions
/// returned by solve()/solve_packing().
struct PlannerSessionStats {
  std::uint64_t cutting_solves = 0;   ///< solve() runs that did LP work
  std::uint64_t warm_resolves = 0;    ///< ... continuing standing masters
  std::uint64_t packing_solves = 0;   ///< solve_packing() runs with LP work
  std::uint64_t schedules_built = 0;  ///< schedule() synthesis runs
  std::uint64_t mutations = 0;        ///< platform deltas applied
  std::uint64_t kill_rows = 0;        ///< arc columns retired by n_e <= 0 rows
  std::uint64_t replacement_columns = 0;  ///< arc columns re-entered
  std::uint64_t columns_updated = 0;  ///< non-basic arc columns rewritten in place
  std::uint64_t compactions = 0;      ///< standing pairs dropped for dead columns
  std::uint64_t separations_reused = 0;    ///< separation rounds answered by the memo
  std::uint64_t decompositions_reused = 0; ///< schedule() builds that re-used the last trees
  std::uint64_t master_rebuilds = 0;  ///< breakdown rebuilds from the pool
  std::uint64_t rollbacks = 0;        ///< failed solves that reset masters
  std::uint64_t stable_stalls = 0;    ///< lex-polish stalls downgraded to value loads
  std::uint64_t cold_polish_stalls = 0;  ///< cold polish stalls flipped to warm polish
  std::uint64_t heuristic_plans = 0;  ///< solve_laddered answers from the heuristic rung
  std::uint64_t budget_exhausts = 0;  ///< solves aborted by a ladder deadline
};

/// Deadline / degradation policy of solve_laddered().  The ladder runs
///
///   warm/cold LP solve (kExact) -> rollback + pool-rebuild LP solve
///   (kRebuild) -> LP-load-priced single arborescence (kHeuristic)
///
/// falling one rung per failure.  Budgets bound the LP rungs: a solve whose
/// cumulative master pivots reach `pivot_budget`, or whose wall clock passes
/// `wall_budget_ms`, aborts at the next separation-round boundary and the
/// ladder drops straight to the heuristic rung (a rebuild would only burn
/// the budget again).  Budgets are checked between rounds, so the first
/// round always completes -- the budget is a deadline, not a starvation
/// knob.  Pivot budgets are deterministic (pivot counts are bitwise
/// width-invariant); wall budgets are best-effort and should not be used
/// where reproducibility matters.
struct LadderOptions {
  std::size_t pivot_budget = 0;   ///< 0 = unlimited
  double wall_budget_ms = 0.0;    ///< 0 = unlimited (best-effort, non-deterministic)
  bool allow_rebuild = true;      ///< permit the kRebuild rung
  bool allow_heuristic = true;    ///< permit the kHeuristic rung (else rethrow)
};

/// One link of a node joining the platform (add_node).
struct SessionLink {
  NodeId peer = 0;
  LinkCost cost;
};

/// The grown platform of an add_node delta: `platform` plus one node wired
/// by the given incoming (peer -> new) and outgoing (new -> peer) links,
/// with per-node overheads preserved (0 for the new node).  Arc ids of the
/// old platform are stable; the new arcs follow, in-links first.  Shared by
/// PlannerSession::add_node and the service layer (which must grow its base
/// platform and every warm session consistently).
Platform grow_platform(const Platform& platform, const std::vector<SessionLink>& in_links,
                       const std::vector<SessionLink>& out_links);

/// Id remap of a shrink_platform call: old node/arc id -> new id, with
/// Digraph::npos for the removed node and its incident arcs.  Surviving ids
/// keep their relative order (they are compacted, not permuted).
struct ShrinkRemap {
  std::vector<NodeId> node_map;
  std::vector<EdgeId> edge_map;
};

/// The shrunk platform of a node-leave delta: `platform` minus `node` and
/// every arc touching it, per-node overheads preserved.  The mirror of
/// grow_platform, shared by the service layer's remove_node.  Requires node
/// != source and at least three nodes; throws (via the Platform
/// constructor) if the remaining platform cannot broadcast.
Platform shrink_platform(const Platform& platform, NodeId node, ShrinkRemap* remap = nullptr);

/// Row counts of the standing cutting-plane masters (0 where none stands)
/// and of a value master freshly built from the current pools (the stable
/// master's build has one row more, its TP floor).
struct StandingMasterRows {
  std::size_t value = 0;
  std::size_t stable = 0;
  std::size_t pool_built = 0;
};

class PlannerSession {
 public:
  /// Load: the session copies the platform and seeds its pools.  Throws
  /// bt::Error on platforms with fewer than two nodes.
  explicit PlannerSession(Platform platform, PlannerSessionOptions options = {});

  PlannerSession(PlannerSession&&) noexcept = default;
  PlannerSession& operator=(PlannerSession&&) noexcept = default;

  const Platform& platform() const { return platform_; }
  const PlannerSessionOptions& options() const { return options_; }
  /// Bumped by every mutation; schedule/solution caches key on it.
  std::uint64_t version() const { return version_; }
  bool link_removed(EdgeId e) const;
  const PlannerSessionStats& stats() const { return stats_; }
  StandingMasterRows standing_master_rows() const;

  /// Solve (or warm re-solve) the cutting-plane masters for TP* and the
  /// stable edge loads.  Cached until the next mutation.  On failure the
  /// standing masters roll back (see header comment) and the error
  /// propagates; the session remains usable.
  const SsbSolution& solve();

  /// solve() behind the degradation ladder (see LadderOptions): never fails
  /// on a recoverable solver fault or an exhausted budget as long as the
  /// platform can broadcast at all -- it degrades instead, and the answer's
  /// SsbSolution::tier / quality_gap say how far.  A heuristic-tier answer
  /// caches like any other solution (the next mutation clears it) and
  /// carries its tree in tree_columns, so schedule() synthesizes from it
  /// directly.
  const SsbSolution& solve_laddered(const LadderOptions& ladder = {});

  /// TP* of the current platform (solve() + one field).
  double throughput() { return solve().throughput; }

  /// Solve (or pool-seeded re-solve) the packing master: TP* plus the
  /// explicit multi-tree schedule columns.  Cached until the next mutation.
  const SsbPackingSolution& solve_packing();

  /// The synthesized periodic schedule of the current platform version,
  /// built lazily and cached; callers share the session's copy.  Uses the
  /// packing solution's exact tree columns when they are fresh, else
  /// decomposes the cutting-plane loads (re-using the last decomposition
  /// when TP and loads are bitwise unchanged).
  std::shared_ptr<const PeriodicSchedule> schedule();

  // ---- mutation layer -----------------------------------------------------

  /// Replace arc e's affine cost (degraded or re-measured link).  Also
  /// restores a removed link.  Standing masters absorb this as a warm
  /// delta: an in-place column update when the arc's column is non-basic,
  /// else kill-and-replace.
  void set_link_cost(EdgeId e, LinkCost cost);

  /// Scale arc e's cost (alpha and beta) by `factor` -- "link (u,v)
  /// degraded 30%" is factor 1/0.7 on its arcs.  Requires factor > 0.
  void scale_link_time(EdgeId e, double factor);

  /// Remove arc e: its column is killed in the standing masters and pooled
  /// trees over it are dropped.  Arc ids stay stable (the arc remains in
  /// the graph, pinned to zero load).  If removals disconnect the platform
  /// the next solve() throws; restore the link with set_link_cost.
  void remove_link(EdgeId e);

  /// Grow the platform by one node with the given incoming (peer -> new)
  /// and outgoing (new -> peer) links.  Structural fallback: resets all
  /// standing solver state; the next solve() is cold.  Returns the new
  /// node's id.  Throws if the grown platform cannot broadcast.
  NodeId add_node(const std::vector<SessionLink>& in_links,
                  const std::vector<SessionLink>& out_links);

  /// Reference cold solve of the *current* (mutated) platform through a
  /// fresh throwaway session -- what a batch caller would compute from
  /// scratch.  Differential tests and the service bench compare warm
  /// re-plans against it.
  SsbSolution solve_cold() const;

 private:
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  // cutting-plane internals
  double stabilization_weight(EdgeId e) const;
  SimplexOptions cutting_master_options(LpEngineStats* stats) const;
  SimplexOptions stable_master_options(LpEngineStats* stats) const;
  std::vector<LpTerm> cut_row(const std::vector<EdgeId>& cut, bool standing) const;
  const std::vector<EdgeId>* add_cut(std::vector<EdgeId> cut);
  LpProblem build_cutting_master(bool stable, double tp_floor, bool record);
  void reset_cutting_state();
  void run_cutting_solve();
  void kill_arc_column(EdgeId e);
  void replace_arc_column(EdgeId e);
  bool update_arc_column(EdgeId e);
  void drop_standing_masters();

  // packing internals
  void reset_packing_state();
  void run_packing_solve();
  void drop_pool_trees_containing(EdgeId e);

  // ladder internals
  void check_solve_budget(const SsbSolution& solution);
  double throughput_upper_bound() const;
  SsbSolution heuristic_solution() const;

  void note_mutation();

  Platform platform_;
  PlannerSessionOptions options_;
  std::vector<char> removed_;
  std::uint64_t version_ = 0;
  PlannerSessionStats stats_;

  // ---- cutting-plane state ----
  /// Cut pool, deduplicated by sorted arc-id list.  std::set iteration is
  /// content-sorted, so any master built from the pool depends only on the
  /// pool's *content*, not on the order cuts were discovered in.
  std::set<std::vector<EdgeId>> cut_pool_;
  std::unique_ptr<IncrementalSimplex> value_master_, stable_master_;
  bool value_cold_ = true, stable_cold_ = true;
  /// Arc -> live column index in the standing masters (identity until a
  /// kill-and-replace delta retires a column), and whether the arc still
  /// has a live column at all.
  std::vector<std::size_t> var_of_arc_;
  std::vector<char> var_alive_;
  /// Columns killed since the standing masters were last built (each left
  /// one dead column and one pin row behind).
  std::size_t killed_columns_ = 0;
  std::size_t tp_var_ = 0;
  /// Value-master port-row index of each node's out/in port (the stable
  /// master's rows sit at +1 past its TP-floor row).  Under the
  /// unidirectional model both arrays hold the node's combined row.
  std::vector<std::size_t> out_row_, in_row_;
  /// Pool cuts in standing-master row order, with their value-master row.
  struct CutEntry {
    const std::vector<EdgeId>* cut;
    std::size_t value_row;
  };
  std::vector<CutEntry> master_cuts_;
  bool cutting_dirty_ = true;
  SsbSolution cutting_solution_;
  /// Separation memo (see header comment): per destination, in node order
  /// without the source, the max-flow value under `load`; every
  /// destination whose value lies below `threshold` has its min cut in the
  /// pool.
  struct SeparationMemo {
    bool valid = false;
    std::vector<double> load;
    double threshold = 0.0;
    std::vector<double> value;
  };
  SeparationMemo separation_memo_;

  // ---- packing state ----
  std::set<std::vector<EdgeId>> tree_seen_;          ///< dedup keys (sorted)
  std::vector<std::vector<EdgeId>> tree_pool_;       ///< discovery order
  bool packing_dirty_ = true;
  SsbPackingSolution packing_solution_;

  // ---- schedule cache ----
  std::shared_ptr<const PeriodicSchedule> schedule_;
  std::uint64_t schedule_version_ = 0;
  /// The last decomposition of cutting-plane loads and its inputs.
  struct DecompositionMemo {
    bool valid = false;
    double throughput = 0.0;
    std::vector<double> edge_load;
    std::vector<PackedTree> trees;
  };
  DecompositionMemo decomposition_memo_;

  // ---- ladder state ----
  /// Budgets of the solve_laddered call in flight (0 = unlimited outside
  /// one); checked by run_cutting_solve at round boundaries.
  std::size_t pivot_budget_ = 0;
  double wall_budget_ms_ = 0.0;
  Timer budget_timer_;
  bool budget_hit_ = false;
  /// The most recent LP-optimal loads: price the heuristic rung's
  /// arborescence.
  std::vector<double> last_good_loads_;
  /// Lowest value-master TP seen since the last mutation.  The value master
  /// is a relaxation of the current platform, so this bounds TP* from
  /// above and anchors a heuristic answer's quality_gap (+inf: no round
  /// has finished).
  double master_tp_bound_ = std::numeric_limits<double>::infinity();
};

}  // namespace bt
