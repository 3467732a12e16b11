#include "ssb/planner_session.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "flow/maxflow.hpp"
#include "graph/min_arborescence.hpp"
#include "lp/simplex.hpp"
#include "sched/orchestrate.hpp"
#include "sched/tree_decomposition.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace bt {

namespace {

/// Relative spread of the per-arc stabilization weights.  Minimizing the
/// plain serialized load still leaves ties between load patterns; distinct
/// per-arc weights make the load-minimal vertex of each round generically
/// unique, so the separation trajectory (and with it the whole solver) is
/// independent of how the master happens to be re-optimized.
constexpr double kWeightTieBreak = 0.25;

/// Price of a removed arc in the packing pricing oracle: any arborescence
/// forced through one instantly fails the reduced-cost test (weight >= 1),
/// so removed arcs never enter the column pool and the oracle's "no
/// improving column" verdict stays an optimality certificate for the
/// surviving platform.
constexpr double kRemovedArcPrice = 1e30;

/// Bitwise equality: the memo keys.  A max-flow or a decomposition is a
/// function of the exact bits of its inputs, so only equal bits may reuse
/// an answer.
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ---- packing column helpers ------------------------------------------------

/// Column coefficients of a tree: its serialized occupation of every node's
/// out and in port per unit rate.
struct TreeColumn {
  std::vector<EdgeId> edges;
  std::vector<double> out_time;  ///< per node
  std::vector<double> in_time;   ///< per node
};

TreeColumn make_column(const Platform& platform, std::vector<EdgeId> edges) {
  TreeColumn column;
  column.out_time.assign(platform.num_nodes(), 0.0);
  column.in_time.assign(platform.num_nodes(), 0.0);
  for (EdgeId e : edges) {
    const double t = platform.edge_time(e);
    column.out_time[platform.graph().from(e)] += t;
    column.in_time[platform.graph().to(e)] += t;
  }
  column.edges = std::move(edges);
  return column;
}

// Packing master row layout (both solve paths): under the bidirectional
// one-port model, out-port of node u = row 2u, in-port = row 2u + 1; under
// the unidirectional model one combined row u per node.  Rows exist even for
// nodes without arcs so the indexing is stable as columns arrive.
std::vector<LpTerm> master_terms(const TreeColumn& column, std::size_t p, PortModel model) {
  std::vector<LpTerm> terms;
  if (model == PortModel::kBidirectional) {
    for (NodeId u = 0; u < p; ++u) {
      if (column.out_time[u] != 0.0) terms.push_back({2 * u, column.out_time[u]});
      if (column.in_time[u] != 0.0) terms.push_back({2 * u + 1, column.in_time[u]});
    }
  } else {
    for (NodeId u = 0; u < p; ++u) {
      const double occupation = column.out_time[u] + column.in_time[u];
      if (occupation != 0.0) terms.push_back({u, occupation});
    }
  }
  return terms;
}

}  // namespace

// ---- lifecycle --------------------------------------------------------------

PlannerSession::PlannerSession(Platform platform, PlannerSessionOptions options)
    : platform_(std::move(platform)), options_(std::move(options)) {
  BT_REQUIRE(platform_.num_nodes() >= 2, "PlannerSession: need at least two nodes");
  removed_.assign(platform_.num_edges(), 0);
  reset_cutting_state();
  reset_packing_state();
}

bool PlannerSession::link_removed(EdgeId e) const {
  BT_REQUIRE(e < removed_.size(), "PlannerSession::link_removed: arc out of range");
  return removed_[e] != 0;
}

StandingMasterRows PlannerSession::standing_master_rows() const {
  // A value master built from the pools holds one row per non-empty port
  // (see build_cutting_master), one per pooled cut and one pin per removed
  // arc.
  const Digraph& g = platform_.graph();
  std::size_t rows = cut_pool_.size();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const bool sends = !g.out_edges(u).empty(), receives = !g.in_edges(u).empty();
    if (options_.cutting.port_model == PortModel::kBidirectional) {
      rows += (sends ? 1 : 0) + (receives ? 1 : 0);
    } else if (sends || receives) {
      ++rows;
    }
  }
  rows += static_cast<std::size_t>(std::count(removed_.begin(), removed_.end(), 1));
  StandingMasterRows counts;
  counts.value = value_master_ != nullptr ? value_master_->num_rows() : 0;
  counts.stable = stable_master_ != nullptr ? stable_master_->num_rows() : 0;
  counts.pool_built = rows;
  return counts;
}

// ---- cutting-plane internals ------------------------------------------------

double PlannerSession::stabilization_weight(EdgeId e) const {
  // Uniformly spaced fractions maximize the minimum pairwise gap, keeping
  // every alternative-optimum gap far above the master tolerance.
  const double frac = static_cast<double>(e) / static_cast<double>(platform_.num_edges());
  return platform_.edge_time(e) * (1.0 + kWeightTieBreak * frac);
}

/// Master tolerance: tighter than the solver default so the tie-broken
/// stabilization weights resolve alternative optima (vertex gaps are
/// ~T_e * kWeightTieBreak / m, orders of magnitude above this).  Engine
/// knobs (pricing rules, solve mode, kernel timing) come from the options;
/// `stats` receives the LpEngineStats of cold solve_lp calls and must be
/// null for the standing masters (they outlive any per-solve stats record;
/// their lifetime stats are folded in via engine_stats() instead).
SimplexOptions PlannerSession::cutting_master_options(LpEngineStats* stats) const {
  SimplexOptions lp;
  lp.tolerance = 1e-10;
  lp.pricing = options_.cutting.master_pricing;
  lp.dual_row_rule = options_.cutting.master_dual_row_rule;
  lp.solve_mode = options_.cutting.master_solve_mode;
  lp.collect_kernel_timing = options_.cutting.master_kernel_timing;
  lp.stats = stats;
  return lp;
}

/// The stable (lexicographic) master gets a flat pivot budget instead of
/// the engine's auto cap (60 * (rows + cols)).  Converging stable solves
/// use a few thousand pivots at most -- warm rounds re-optimize in a
/// handful -- so 100k is >10x headroom; but on the degenerate optimal face
/// at n >= ~500 the auto cap grows to millions and a stall would grind for
/// minutes before run_cutting_solve's downgrade path can fire.
SimplexOptions PlannerSession::stable_master_options(LpEngineStats* stats) const {
  SimplexOptions lp = cutting_master_options(stats);
  lp.max_iterations = 100000;
  return lp;
}

std::vector<LpTerm> PlannerSession::cut_row(const std::vector<EdgeId>& cut, bool standing) const {
  // TP - sum_{e in C} n_e <= 0: cut rows keep non-negative rhs, so a cold
  // value-master solve starts from the feasible all-slack basis.  Standing
  // masters address arcs through var_of_arc_ (replacement columns after
  // kill-and-replace deltas); dead arcs keep their pinned-to-zero column in
  // the row, which leaves the inequality valid.
  std::vector<LpTerm> row;
  row.reserve(cut.size() + 1);
  row.push_back({tp_var_, 1.0});
  for (EdgeId e : cut) row.push_back({standing ? var_of_arc_[e] : e, -1.0});
  return row;
}

const std::vector<EdgeId>* PlannerSession::add_cut(std::vector<EdgeId> cut) {
  std::sort(cut.begin(), cut.end());
  const auto inserted = cut_pool_.insert(std::move(cut));
  return inserted.second ? &*inserted.first : nullptr;
}

LpProblem PlannerSession::build_cutting_master(bool stable, double tp_floor, bool record) {
  const Digraph& g = platform_.graph();
  const std::size_t m = g.num_edges();
  const PortModel model = options_.cutting.port_model;

  if (record) {
    // A recorded build resets the kill-and-replace mapping: the fresh
    // master is identity-mapped again (removed arcs stay dead -- their
    // pin rows are part of the build).  Only the value master records;
    // the stable master's rows sit one past it (TP-floor row 0).
    BT_ASSERT(!stable, "PlannerSession: only the value master records its layout");
    var_of_arc_.resize(m);
    var_alive_.resize(m);
    for (EdgeId e = 0; e < m; ++e) {
      var_of_arc_[e] = e;
      var_alive_[e] = removed_[e] ? 0 : 1;
    }
    killed_columns_ = 0;
    out_row_.assign(g.num_nodes(), kNoRow);
    in_row_.assign(g.num_nodes(), kNoRow);
    master_cuts_.clear();
  }

  // Both masters share the variable layout n_e = e, TP = m (the incremental
  // engines rely on it when appending cut rows), the port rows and the pool
  // cut rows.  They differ in objective and in one extra row:
  //
  //  * value master:  maximize TP -- the unpenalized master.  Its optimal
  //    *value* TP_b is what the solver reports; its vertex may wander the
  //    degenerate optimal face and is never used.
  //  * stable master: minimize sum_e w_e n_e subject to TP >= TP_b - eps
  //    (lexicographic second stage, row 0).  Its vertex is generically
  //    unique thanks to the tie-broken weights, so the loads fed to the
  //    separation oracle -- and hence the cut trajectory -- are stable.
  LpProblem lp(Objective::kMaximize);
  for (EdgeId e = 0; e < m; ++e) {
    const double weight = stable ? -stabilization_weight(e) : 0.0;
    lp.add_variable(weight, "n" + std::to_string(e));
  }
  lp.add_variable(stable ? 0.0 : 1.0, "TP");

  std::size_t row = 0;
  if (stable) {
    lp.add_constraint({{tp_var_, 1.0}}, RowSense::kGreaterEqual, tp_floor);
    ++row;
  }
  // Port rows: the same emission as ssb_port_rows.hpp (out row then in row
  // per node, skipping empty ports), inlined so the row indices can be
  // recorded for the replacement columns of later link-cost deltas.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (model == PortModel::kBidirectional) {
      std::vector<LpTerm> out_terms, in_terms;
      for (EdgeId e : g.out_edges(u)) out_terms.push_back({e, platform_.edge_time(e)});
      for (EdgeId e : g.in_edges(u)) in_terms.push_back({e, platform_.edge_time(e)});
      if (!out_terms.empty()) {
        lp.add_constraint(out_terms, RowSense::kLessEqual, 1.0);
        if (record) out_row_[u] = row;
        ++row;
      }
      if (!in_terms.empty()) {
        lp.add_constraint(in_terms, RowSense::kLessEqual, 1.0);
        if (record) in_row_[u] = row;
        ++row;
      }
    } else {
      std::vector<LpTerm> terms;
      for (EdgeId e : g.out_edges(u)) terms.push_back({e, platform_.edge_time(e)});
      for (EdgeId e : g.in_edges(u)) terms.push_back({e, platform_.edge_time(e)});
      if (!terms.empty()) {
        lp.add_constraint(terms, RowSense::kLessEqual, 1.0);
        if (record) {
          out_row_[u] = row;
          in_row_[u] = row;
        }
        ++row;
      }
    }
  }
  for (const auto& cut : cut_pool_) {
    lp.add_constraint(cut_row(cut, /*standing=*/false), RowSense::kLessEqual, 0.0);
    if (record) master_cuts_.push_back({&cut, row});
    ++row;
  }
  // Removed arcs keep their variable (the layout is arc-indexed) but are
  // pinned to zero load.
  for (EdgeId e = 0; e < m; ++e) {
    if (removed_[e]) lp.add_constraint({{e, 1.0}}, RowSense::kLessEqual, 0.0);
  }
  return lp;
}

void PlannerSession::reset_cutting_state() {
  const Digraph& g = platform_.graph();
  const std::size_t m = g.num_edges();
  cut_pool_.clear();
  value_master_.reset();
  stable_master_.reset();
  value_cold_ = stable_cold_ = true;
  var_of_arc_.resize(m);
  var_alive_.resize(m);
  for (EdgeId e = 0; e < m; ++e) {
    var_of_arc_[e] = e;
    var_alive_[e] = removed_[e] ? 0 : 1;
  }
  killed_columns_ = 0;
  tp_var_ = m;
  out_row_.assign(g.num_nodes(), kNoRow);
  in_row_.assign(g.num_nodes(), kNoRow);
  master_cuts_.clear();
  cutting_dirty_ = true;
  cutting_solution_ = SsbSolution{};
  // Both memos are keyed on the graph, which is about to change (add_node).
  separation_memo_ = SeparationMemo{};
  decomposition_memo_ = DecompositionMemo{};

  // Seed cuts: the singleton source cut and the singleton destination cuts.
  std::vector<EdgeId> source_cut(g.out_edges(platform_.source()));
  add_cut(std::move(source_cut));
  for (NodeId w = 0; w < g.num_nodes(); ++w) {
    if (w == platform_.source()) continue;
    std::vector<EdgeId> dest_cut(g.in_edges(w));
    add_cut(std::move(dest_cut));
  }
}

void PlannerSession::run_cutting_solve() {
  const Digraph& g = platform_.graph();
  const NodeId source = platform_.source();
  const std::size_t p = g.num_nodes();
  const std::size_t m = g.num_edges();
  const SsbCuttingPlaneOptions& options = options_.cutting;
  const bool stabilized = options.load_penalty > 0.0;
  // Degeneracy at scale (the 1000-node-ceiling item in ROADMAP.md): from a
  // few hundred nodes up the *cold* re-derivation solves can stall through
  // their whole pivot budget on the tie-broken optimal face.  Two sticky
  // downgrades keep the solve finite, each paid at most once per solve:
  //
  //  * A cold *polish* solve (value or stable) that exhausts its cap while
  //    standing masters exist flips the remaining polish rounds to the warm
  //    path (cold_polish_stalls) -- stabilization is kept, only the
  //    pool-determined-bitwise property of cold_polish is lost for that
  //    instance.
  //  * A cold *stable* solve that stalls with no warm fallback (the
  //    standing stable master's first factorization, or the rebuild
  //    ablation) drops stabilization and reports the value master's loads
  //    (stable_stalls).
  //
  // Each stall is a pure function of the pool content, so every pool width
  // downgrades at the same round and width-determinism is preserved.
  bool stabilize_active = stabilized;
  bool polish_cold_stalled = false;

  SsbSolution solution;

  // Separation: per-destination max-flow under capacities `load`; cuts of
  // destinations below `tp - tol` enter the pool (and `new_cuts`, for the
  // standing masters).  Returns whether any *new* cut was added.
  //
  // The oracle fans the destinations out over the worker pool in contiguous
  // chunks, one MaxFlowSolver per chunk (the solver's touched-arc restore
  // path mutates shared state, so instances are single-consumer -- see
  // flow/maxflow.hpp).  Each task writes only its destinations' slots of
  // `sep_results`; the min-flow reduction and the add_cut appends then run
  // serially in destination order.  solve() results depend only on
  // (source, sink, load), so the chunk layout -- and with it the pool
  // width -- changes scheduling only: the cut trajectory, and hence the
  // solution, is bitwise-identical to the serial oracle.  Solvers persist
  // across rounds so the same-capacity restore fast path still applies
  // within each round's chunk.
  //
  // The values land in the session's separation memo.  A round whose
  // loads are bitwise equal to the memo's reuses them without a max-flow.
  // Every destination below the memo's threshold already has its cut in
  // the (append-only) pool, where a recomputed cut would be a duplicate;
  // only a destination between that threshold and this round's -- a
  // tighter polish tolerance -- needs its cut, one max-flow away.  So reuse
  // changes no bit of the cut trajectory either, and the memo copies no
  // cut.
  ThreadPool& pool = options.pool != nullptr ? *options.pool : global_thread_pool();
  std::vector<NodeId> dests;
  dests.reserve(p - 1);
  for (NodeId w = 0; w < p; ++w) {
    if (w != source) dests.push_back(w);
  }
  const ChunkSplit split(dests.size(), pool.num_threads());
  std::vector<std::unique_ptr<MaxFlowSolver>> chunk_solver(split.chunks);
  std::vector<MaxFlowResult> chunk_scratch(split.chunks);
  std::vector<std::vector<EdgeId>> violated_cut(dests.size());
  SeparationMemo& memo = separation_memo_;

  std::vector<const std::vector<EdgeId>*> new_cuts;
  auto separate = [&](const std::vector<double>& load, double tp, double tol,
                      double& min_flow) {
    // Fault hook, counted once per round in this serial section (never
    // inside the parallel fan-out), so the trigger index is width-invariant.
    if (fault_fire(FaultSite::kSeparationOracle)) {
      throw Error("fault injection: separation oracle failure");
    }
    Timer separation_timer;
    const double threshold = tp - tol;
    const bool reuse = memo.valid && same_bits(load, memo.load);
    if (reuse) {
      ++stats_.separations_reused;
    } else {
      memo.valid = false;
      memo.value.resize(dests.size());
      parallel_for(pool, split.chunks, [&](std::size_t c) {
        if (chunk_solver[c] == nullptr) chunk_solver[c] = std::make_unique<MaxFlowSolver>(g);
        MaxFlowSolver& solver = *chunk_solver[c];
        MaxFlowResult& flow = chunk_scratch[c];
        for (std::size_t i = split.chunk_begin(c); i < split.chunk_begin(c + 1); ++i) {
          solver.solve(source, dests[i], load, flow);
          memo.value[i] = flow.value;
          if (flow.value < threshold) violated_cut[i] = flow.min_cut_edges;
        }
      });
      memo.load = load;
      memo.threshold = -std::numeric_limits<double>::infinity();  // nothing pooled yet
      memo.valid = true;
    }
    min_flow = std::numeric_limits<double>::infinity();
    new_cuts.clear();
    bool added = false;
    for (std::size_t i = 0; i < dests.size(); ++i) {
      min_flow = std::min(min_flow, memo.value[i]);
      if (memo.value[i] >= threshold || (reuse && memo.value[i] < memo.threshold)) continue;
      std::vector<EdgeId> cut;
      if (reuse) {
        if (chunk_solver[0] == nullptr) chunk_solver[0] = std::make_unique<MaxFlowSolver>(g);
        chunk_solver[0]->solve(source, dests[i], load, chunk_scratch[0]);
        cut = chunk_scratch[0].min_cut_edges;
      } else {
        cut = std::move(violated_cut[i]);
      }
      if (const std::vector<EdgeId>* pooled = add_cut(std::move(cut))) {
        new_cuts.push_back(pooled);
        added = true;
      }
    }
    memo.threshold = std::max(memo.threshold, threshold);
    solution.phase_stats.separation_wall_ms += separation_timer.millis();
    return added;
  };
  solution.phase_stats.oracle_threads = pool.num_threads();

  std::vector<double> load(m);
  double master_tp = 0.0;
  double min_flow = 0.0;

  // One separation round: value solve -> TP_b, stable solve -> loads,
  // max-flow separation at tolerance `tol`.  `warm` selects the standing
  // incremental masters; the cold path rebuilds both LPs from the pool, so
  // its result is a pure function of the pool content.  `count_master`
  // accumulates the LP time into master_wall_ms -- the polish rounds are
  // excluded there, since they are identical work on both ablation paths
  // and would dilute the incremental-vs-rebuild master metric.
  // Returns true when converged (no new cut and the certificate holds).
  auto round = [&](bool warm, double tol, bool count_master) {
    // Deadline ladder: between rounds is the only safe abort point (the
    // masters are consistent), and pivot counts are width-invariant, so a
    // pivot-budget abort fires at the same round on every pool width.
    check_solve_budget(solution);
    ++solution.separation_rounds;
    Timer master_timer;

    LpSolution value_sol;
    if (warm) {
      if (value_master_ == nullptr) {
        value_master_ = std::make_unique<IncrementalSimplex>(
            build_cutting_master(false, 0.0, /*record=*/true),
            cutting_master_options(nullptr));
        value_cold_ = true;
        // The stable master must share the (re-)recorded row layout; force
        // its rebuild from the same pool later this round.
        stable_master_.reset();
        stable_cold_ = true;
      }
      value_sol = value_cold_ ? value_master_->solve() : value_master_->reoptimize_dual();
      value_cold_ = false;
      if (value_sol.status != LpStatus::kOptimal) {
        // Numerical breakdown of the standing master (drifted basis the
        // engine could not repair): the pool fully determines the model,
        // so rebuild it cold and continue incrementally from there.  Fold
        // the replaced instance's lifetime stats and the failed solve's
        // pivots in first, so the pivot budget sees them.
        solution.lp_iterations += value_sol.iterations;
        solution.lp_stats.accumulate(value_master_->engine_stats());
        ++stats_.master_rebuilds;
        value_master_ = std::make_unique<IncrementalSimplex>(
            build_cutting_master(false, 0.0, /*record=*/true),
            cutting_master_options(nullptr));
        stable_master_.reset();
        stable_cold_ = true;
        value_sol = value_master_->solve();
      }
    } else {
      SimplexOptions cold_options = cutting_master_options(&solution.lp_stats);
      // Polish re-derivations get a flat pivot cap well above any
      // non-degenerate cold polish solve seen in the sweeps, so a
      // degenerate stall escapes to the warm fallback in bounded time
      // instead of grinding through the auto cap (~60*(rows+cols)).
      if (!count_master) cold_options.max_iterations = 250000;
      value_sol = solve_lp(build_cutting_master(false, 0.0, /*record=*/false), cold_options);
      if (!count_master && value_sol.status == LpStatus::kIterationLimit &&
          value_master_ != nullptr) {
        solution.lp_iterations += value_sol.iterations;
        ++solution.cold_polish_stalls;
        ++stats_.cold_polish_stalls;
        polish_cold_stalled = true;
        return false;
      }
    }
    BT_REQUIRE(value_sol.status == LpStatus::kOptimal,
               "solve_ssb_cutting_plane: value master " + to_string(value_sol.status));
    solution.lp_iterations += value_sol.iterations;
    master_tp = value_sol.x[tp_var_];
    master_tp_bound_ = std::min(master_tp_bound_, master_tp);

    const double eps_lex = 1e-10 * std::max(1.0, master_tp);
    const double tp_floor = master_tp - eps_lex;
    const LpSolution* load_sol = &value_sol;
    LpSolution stable_sol;
    if (stabilize_active) {
      bool was_cold = !warm;
      if (warm) {
        if (stable_master_ == nullptr) {
          stable_master_ = std::make_unique<IncrementalSimplex>(
              build_cutting_master(true, tp_floor, /*record=*/false),
              stable_master_options(nullptr));
          stable_cold_ = true;
        } else {
          stable_master_->set_row_rhs(0, tp_floor);
        }
        was_cold = stable_cold_;
        stable_sol = stable_cold_ ? stable_master_->solve() : stable_master_->reoptimize_dual();
        stable_cold_ = false;
        if (stable_sol.status != LpStatus::kOptimal && !was_cold) {
          // Numerical breakdown: rebuild BOTH standing masters from the
          // pool.  The stable master's rows must stay one past the value
          // master's for the kill-and-replace deltas, and the value master
          // may carry append-order cut rows a pool rebuild would not
          // reproduce -- so the pair is rebuilt together (stats and the
          // failed solve's pivots folded in first; the value master
          // re-solves cold next round).
          solution.lp_iterations += stable_sol.iterations;
          solution.lp_stats.accumulate(stable_master_->engine_stats());
          solution.lp_stats.accumulate(value_master_->engine_stats());
          ++stats_.master_rebuilds;
          value_master_ = std::make_unique<IncrementalSimplex>(
              build_cutting_master(false, 0.0, /*record=*/true),
              cutting_master_options(nullptr));
          value_cold_ = true;
          stable_master_ = std::make_unique<IncrementalSimplex>(
              build_cutting_master(true, tp_floor, /*record=*/false),
              stable_master_options(nullptr));
          stable_sol = stable_master_->solve();
          stable_cold_ = false;
          was_cold = true;
        }
      } else {
        stable_sol = solve_lp(build_cutting_master(true, tp_floor, /*record=*/false),
                              stable_master_options(&solution.lp_stats));
      }
      solution.lp_iterations += stable_sol.iterations;
      if (stable_sol.status == LpStatus::kIterationLimit && was_cold) {
        if (!warm && !count_master && value_master_ != nullptr) {
          // Degenerate stall of a cold polish re-derivation, but the
          // standing masters are available: flip the remaining polish to
          // the warm path (this round is redone there) and keep the
          // stabilization stage.
          ++solution.cold_polish_stalls;
          ++stats_.cold_polish_stalls;
          polish_cold_stalled = true;
          return false;
        }
        // Degenerate stall with no warm fallback: a cold solve exhausted
        // its pivot budget, so a rebuild cannot help.  Downgrade to the
        // value loads (load_sol already points there) and run the rest of
        // this solve unstabilized; the polish keeps the caller's tolerance
        // below.
        ++solution.stable_stalls;
        ++stats_.stable_stalls;
        stabilize_active = false;
        if (stable_master_ != nullptr) {
          solution.lp_stats.accumulate(stable_master_->engine_stats());
          stable_master_.reset();
          stable_cold_ = true;
        }
      } else {
        BT_REQUIRE(stable_sol.status == LpStatus::kOptimal,
                   "solve_ssb_cutting_plane: stable master " + to_string(stable_sol.status));
        load_sol = &stable_sol;
      }
    }
    for (EdgeId e = 0; e < m; ++e) {
      if (warm) {
        load[e] = var_alive_[e] ? std::max(0.0, load_sol->x[var_of_arc_[e]]) : 0.0;
      } else {
        load[e] = removed_[e] ? 0.0 : std::max(0.0, load_sol->x[e]);
      }
    }
    if (count_master) solution.master_wall_ms += master_timer.millis();

    const bool added = separate(load, master_tp, tol, min_flow);
    // New cuts go to the standing masters whenever they exist -- including
    // cold polish rounds, so a session's masters stay pool-complete for the
    // next warm re-plan (a batch solve never re-uses them, so this is
    // invisible there).
    if (value_master_ != nullptr && !new_cuts.empty()) {
      for (const std::vector<EdgeId>* cut : new_cuts) {
        const std::size_t value_row =
            value_master_->append_row(cut_row(*cut, /*standing=*/true), RowSense::kLessEqual, 0.0);
        master_cuts_.push_back({cut, value_row});
        if (stable_master_ != nullptr) {
          stable_master_->append_row(cut_row(*cut, /*standing=*/true), RowSense::kLessEqual, 0.0);
        }
      }
    }
    // Converged exactly when no *new* cut exists: every destination whose
    // min-cut value sits below master_tp - tol already has that cut in the
    // pool, so repeating the (deterministic) round cannot make progress
    // and the bracket [min_flow, master_tp] is as tight as this arithmetic
    // gets.  The exit is purely combinatorial -- comparing min_flow
    // against the tolerance here would make the stopping round flip on
    // last-ulp load differences between the warm and cold paths.
    return !added;
  };

  // ---- Separation loop at the caller's tolerance. ----
  bool converged = false;
  for (std::size_t r = 0; r < options.max_rounds && !converged; ++r) {
    converged = round(options.incremental_master, options.tolerance, /*count_master=*/true);
  }
  BT_REQUIRE(converged,
             "solve_ssb_cutting_plane: separation did not converge within round cap");
  // Removals can sever the source from part of the platform; the LP then
  // caps TP at 0 through an all-removed cut.  Fail with a diagnosis instead
  // of tripping the bad-throughput assert below.
  BT_REQUIRE(master_tp > 1e-12,
             "PlannerSession: platform cannot broadcast (removals cut the source off)");

  // ---- Polish rounds: tighten the certificate to ~1e-9 relative.  With
  // cold_polish the value/loads are re-derived with *cold* solves, so the
  // answer is a pure function of the converged pool (the incremental and
  // rebuild paths report bitwise-identical throughput once their pools
  // agree).  Without it (service re-plans) the standing masters polish
  // warmly at the same tolerance -- not bitwise pool-determined, but the
  // certificate still brackets TP* within the rounding grain.  A cold
  // polish solve that stalls through its pivot cap flips the remaining
  // rounds to the warm path (see the downgrade ladder above).  Without the
  // stabilization stage (load_penalty = 0, or a stable-master stall
  // downgraded the solve) the pure master's vertex
  // ping-pong cannot be expected to close a 3e-10 gap, so the polish keeps
  // the caller's tolerance there, as the old code did. ----
  bool polish_warm = !options_.cold_polish && options.incremental_master;
  converged = false;
  for (std::size_t r = 0; r < options.max_rounds && !converged; ++r) {
    const double polish_tol =
        stabilize_active ? 3e-10 * std::max(1.0, master_tp) : options.tolerance;
    converged = round(polish_warm, polish_tol, /*count_master=*/false);
    if (polish_cold_stalled) {
      polish_cold_stalled = false;
      polish_warm = true;
    }
  }
  BT_REQUIRE(converged, "solve_ssb_cutting_plane: polish separation did not converge");

  solution.solved = true;
  // The certificate brackets the optimum: min_flow <= TP* <= master_tp,
  // normally with master_tp - min_flow below the polish tolerance (the lex
  // floor keeps min_flow an eps_lex below the value optimum).  Report the
  // attainable end of the bracket, rounded to 2^-34 relative (~6e-11):
  // the certificate does not support finer digits, and discarding them
  // makes the reported value identical across solve strategies -- the
  // warm (incremental) and cold (rebuild) paths may legitimately pool
  // different-but-equivalent min cuts when the optimal face is degenerate,
  // which perturbs the last ulps of the solved value.
  const double raw = std::min(master_tp, min_flow);
  BT_ASSERT(raw > 0.0 && std::isfinite(raw), "solve_ssb_cutting_plane: bad throughput");
  const double grain = std::ldexp(1.0, std::ilogb(raw) - 34);
  solution.throughput = std::round(raw / grain) * grain;
  solution.edge_load = std::move(load);
  solution.cuts_generated = cut_pool_.size();
  // Cold solve_lp calls accumulated into lp_stats as they ran; fold in the
  // standing masters' lifetime stats (cumulative over the session -- for a
  // batch wrapper the session lives exactly one solve, so this matches the
  // historical per-call record).
  if (value_master_ != nullptr) solution.lp_stats.accumulate(value_master_->engine_stats());
  if (stable_master_ != nullptr) solution.lp_stats.accumulate(stable_master_->engine_stats());
  cutting_solution_ = std::move(solution);
}

const SsbSolution& PlannerSession::solve() {
  if (!cutting_dirty_) return cutting_solution_;
  ++stats_.cutting_solves;
  if (value_master_ != nullptr) ++stats_.warm_resolves;
  try {
    run_cutting_solve();
  } catch (...) {
    // Roll back: a partially re-optimized master is indeterminate, but the
    // pool is append-only and stays valid.  Dropping the masters makes the
    // next solve() rebuild them from the pool, so the session survives the
    // error.
    ++stats_.rollbacks;
    drop_standing_masters();
    throw;
  }
  cutting_dirty_ = false;
  // run_cutting_solve builds a fresh SsbSolution, so the tier is kExact
  // here; an optimum also re-prices the heuristic rung.
  last_good_loads_ = cutting_solution_.edge_load;
  return cutting_solution_;
}

void PlannerSession::check_solve_budget(const SsbSolution& solution) {
  const bool pivots_out = pivot_budget_ > 0 && solution.lp_iterations >= pivot_budget_;
  const bool wall_out = wall_budget_ms_ > 0.0 && budget_timer_.millis() >= wall_budget_ms_;
  if (!pivots_out && !wall_out) return;
  budget_hit_ = true;
  ++stats_.budget_exhausts;
  throw Error("PlannerSession: solve budget exhausted (ladder deadline)");
}

/// An upper bound on TP* of the current platform: the lowest value-master
/// TP since the last mutation (a relaxation), else -- no round finished --
/// the receive-port bound: destination w takes TP slices per time-unit
/// through its in-port, each at least its fastest live in-arc's time, so
/// TP* <= min_w 1 / min in-arc time.
double PlannerSession::throughput_upper_bound() const {
  if (std::isfinite(master_tp_bound_)) return master_tp_bound_;
  const Digraph& g = platform_.graph();
  double bound = std::numeric_limits<double>::infinity();
  for (NodeId w = 0; w < g.num_nodes(); ++w) {
    if (w == platform_.source()) continue;
    double fastest = std::numeric_limits<double>::infinity();
    for (EdgeId e : g.in_edges(w)) {
      if (!removed_[e]) fastest = std::min(fastest, platform_.edge_time(e));
    }
    bound = std::min(bound, 1.0 / fastest);
  }
  return bound;
}

/// The heuristic rung: one arborescence priced by the last LP optimum's
/// loads -- arcs the optimum leaned on are cheap, so the tree follows the
/// optimal flow pattern where it can -- rated by its own port occupation
/// (the tree streamed alone saturates its busiest port; rate = 1 / that
/// occupation).  Always a feasible broadcast plan; typically within a few
/// tens of percent of TP* (quality_gap bounds the loss from above).
SsbSolution PlannerSession::heuristic_solution() const {
  const Digraph& g = platform_.graph();
  const std::size_t m = g.num_edges();
  std::vector<double> price(m);
  for (EdgeId e = 0; e < m; ++e) {
    if (removed_[e]) {
      price[e] = kRemovedArcPrice;
      continue;
    }
    const double load = e < last_good_loads_.size() ? last_good_loads_[e] : 0.0;
    price[e] = platform_.edge_time(e) / (1.0 + load);
  }
  const auto tree = min_arborescence(g, platform_.source(), price);
  BT_REQUIRE(tree.found, "PlannerSession: heuristic rung found no spanning arborescence");
  for (EdgeId e : tree.edges) {
    BT_REQUIRE(!removed_[e],
               "PlannerSession: platform cannot broadcast (removals cut the source off)");
  }

  std::vector<double> out_time(g.num_nodes(), 0.0), in_time(g.num_nodes(), 0.0);
  for (EdgeId e : tree.edges) {
    const double t = platform_.edge_time(e);
    out_time[g.from(e)] += t;
    in_time[g.to(e)] += t;
  }
  double max_load = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (options_.cutting.port_model == PortModel::kBidirectional) {
      max_load = std::max({max_load, out_time[u], in_time[u]});
    } else {
      max_load = std::max(max_load, out_time[u] + in_time[u]);
    }
  }
  BT_ASSERT(max_load > 0.0, "PlannerSession: heuristic tree occupies no port");
  const double rate = 1.0 / max_load;

  SsbSolution solution;
  solution.solved = true;
  solution.throughput = rate;
  solution.edge_load.assign(m, 0.0);
  for (EdgeId e : tree.edges) solution.edge_load[e] = rate;
  PackedTree column;
  column.edges = tree.edges;
  column.rate = rate;
  solution.tree_columns.push_back(std::move(column));
  solution.tier = PlanTier::kHeuristic;
  const double bound = throughput_upper_bound();
  solution.quality_gap = std::max(0.0, (bound - rate) / bound);
  return solution;
}

const SsbSolution& PlannerSession::solve_laddered(const LadderOptions& ladder) {
  if (!cutting_dirty_) return cutting_solution_;
  pivot_budget_ = ladder.pivot_budget;
  wall_budget_ms_ = ladder.wall_budget_ms;
  budget_timer_.reset();
  budget_hit_ = false;
  struct BudgetReset {
    PlannerSession* session;
    ~BudgetReset() {
      session->pivot_budget_ = 0;
      session->wall_budget_ms_ = 0.0;
    }
  } reset{this};

  try {
    return solve();  // rung 0: tier kExact
  } catch (const Error&) {
    // An exhausted budget skips the rebuild rung -- a rebuild is the
    // *expensive* recovery, and would only burn the budget again.
    const bool try_rebuild = ladder.allow_rebuild && !budget_hit_;
    if (try_rebuild) {
      try {
        // Rung 1: the rollback above dropped the standing masters but kept
        // the pools, so this solve() rebuilds from pool content.
        solve();
        cutting_solution_.tier = PlanTier::kRebuild;
        return cutting_solution_;
      } catch (const Error&) {
        if (!ladder.allow_heuristic) throw;
      }
    } else if (!ladder.allow_heuristic) {
      throw;
    }
  }

  // Rung 2: heuristic stand-in.  Throws only when the platform genuinely
  // cannot broadcast; the session stays usable either way (a failure leaves
  // cutting_dirty_ set, success caches like any other solution).
  cutting_solution_ = heuristic_solution();
  cutting_dirty_ = false;
  ++stats_.heuristic_plans;
  return cutting_solution_;
}

// ---- mutation layer ---------------------------------------------------------

void PlannerSession::note_mutation() {
  ++version_;
  ++stats_.mutations;
  cutting_dirty_ = true;
  packing_dirty_ = true;
  master_tp_bound_ = std::numeric_limits<double>::infinity();
  // Killed columns and their pin rows are dead weight in the standing
  // masters.  Once they outnumber the live rows, drop the pair: the next
  // solve rebuilds it from the pool, as after a rollback.  This bounds
  // each master to twice its live (pool-built) row count.
  if (value_master_ != nullptr && killed_columns_ > value_master_->num_rows() - killed_columns_) {
    drop_standing_masters();
    ++stats_.compactions;
  }
}

void PlannerSession::drop_standing_masters() {
  value_master_.reset();
  stable_master_.reset();
  value_cold_ = stable_cold_ = true;
}

void PlannerSession::kill_arc_column(EdgeId e) {
  if (!var_alive_[e]) return;
  const std::vector<LpTerm> pin = {{var_of_arc_[e], 1.0}};
  value_master_->append_row(pin, RowSense::kLessEqual, 0.0);
  if (stable_master_ != nullptr) stable_master_->append_row(pin, RowSense::kLessEqual, 0.0);
  var_alive_[e] = 0;
  ++killed_columns_;
  ++stats_.kill_rows;
}

/// Rewrite arc e's live column under its new time in place -- the two
/// port-row coefficients, and the stable master's weight -- when it is
/// non-basic in both standing masters.  Returns false (nothing changed)
/// when the column is basic or pinned (a removed arc being restored).
bool PlannerSession::update_arc_column(EdgeId e) {
  if (!var_alive_[e]) return false;
  const std::size_t var = var_of_arc_[e];
  if (value_master_->is_basic(var) ||
      (stable_master_ != nullptr && stable_master_->is_basic(var))) {
    return false;
  }
  const Digraph& g = platform_.graph();
  const double t = platform_.edge_time(e);
  const std::size_t from_row = out_row_[g.from(e)];
  const std::size_t to_row = in_row_[g.to(e)];
  value_master_->update_nonbasic_column(var, 0.0, {{from_row, t}, {to_row, t}});
  if (stable_master_ != nullptr) {
    // The stable master's rows sit one past the value master's.
    stable_master_->update_nonbasic_column(var, -stabilization_weight(e),
                                           {{from_row + 1, t}, {to_row + 1, t}});
  }
  ++stats_.columns_updated;
  return true;
}

void PlannerSession::replace_arc_column(EdgeId e) {
  const Digraph& g = platform_.graph();
  const double t = platform_.edge_time(e);
  // Port rows carry the (new) arc time; cut rows are time-free, so the
  // replacement re-enters exactly the pooled cuts that contain the arc with
  // the same -1 coefficient the original column had.
  std::vector<LpTerm> terms;
  terms.reserve(master_cuts_.size() + 2);
  const std::size_t from_row = out_row_[g.from(e)];
  const std::size_t to_row = in_row_[g.to(e)];
  BT_ASSERT(from_row != kNoRow && to_row != kNoRow,
            "PlannerSession: arc endpoints lost their port rows");
  terms.push_back({from_row, t});
  terms.push_back({to_row, t});
  for (const CutEntry& entry : master_cuts_) {
    if (std::binary_search(entry.cut->begin(), entry.cut->end(), e)) {
      terms.push_back({entry.value_row, -1.0});
    }
  }
  const std::size_t var = value_master_->add_column(0.0, terms);
  if (stable_master_ != nullptr) {
    std::vector<LpTerm> stable_terms = terms;
    for (LpTerm& term : stable_terms) ++term.var;  // rows sit past the TP-floor row
    const std::size_t stable_var =
        stable_master_->add_column(-stabilization_weight(e), stable_terms);
    BT_ASSERT(stable_var == var, "PlannerSession: standing masters lost column sync");
  }
  var_of_arc_[e] = var;
  var_alive_[e] = 1;
  ++stats_.replacement_columns;
}

void PlannerSession::set_link_cost(EdgeId e, LinkCost cost) {
  platform_.set_link_cost(e, cost);  // validates arc id and cost
  removed_[e] = 0;
  const bool stabilized = options_.cutting.load_penalty > 0.0;
  if (value_master_ != nullptr && (!stabilized || stable_master_ != nullptr)) {
    if (!update_arc_column(e)) {
      kill_arc_column(e);
      replace_arc_column(e);
    }
  } else {
    // No consistent standing pair to delta (pre-first-solve, post-rollback,
    // or legacy rebuild mode): drop them and let the next solve rebuild
    // from the pool, which link-cost changes leave valid (cut rows are
    // time-free).
    drop_standing_masters();
  }
  note_mutation();
}

void PlannerSession::scale_link_time(EdgeId e, double factor) {
  BT_REQUIRE(factor > 0.0 && std::isfinite(factor),
             "PlannerSession::scale_link_time: factor must be positive and finite");
  const LinkCost& cost = platform_.link_cost(e);
  set_link_cost(e, LinkCost{cost.alpha * factor, cost.beta * factor});
}

void PlannerSession::remove_link(EdgeId e) {
  BT_REQUIRE(e < platform_.num_edges(), "PlannerSession::remove_link: arc out of range");
  if (removed_[e]) return;  // idempotent
  removed_[e] = 1;
  const bool stabilized = options_.cutting.load_penalty > 0.0;
  if (value_master_ != nullptr && (!stabilized || stable_master_ != nullptr)) {
    kill_arc_column(e);
  } else {
    drop_standing_masters();
  }
  drop_pool_trees_containing(e);
  note_mutation();
}

Platform grow_platform(const Platform& platform, const std::vector<SessionLink>& in_links,
                       const std::vector<SessionLink>& out_links) {
  BT_REQUIRE(!in_links.empty(),
             "grow_platform: the new node needs an incoming link to be reachable");
  const std::size_t old_nodes = platform.num_nodes();
  const std::size_t old_edges = platform.num_edges();
  for (const SessionLink& l : in_links) {
    BT_REQUIRE(l.peer < old_nodes, "grow_platform: peer out of range");
  }
  for (const SessionLink& l : out_links) {
    BT_REQUIRE(l.peer < old_nodes, "grow_platform: peer out of range");
  }

  Digraph g = platform.graph();
  const NodeId node = g.add_node();
  std::vector<LinkCost> costs;
  costs.reserve(old_edges + in_links.size() + out_links.size());
  for (EdgeId e = 0; e < old_edges; ++e) costs.push_back(platform.link_cost(e));
  for (const SessionLink& l : in_links) {
    g.add_edge(l.peer, node);
    costs.push_back(l.cost);
  }
  for (const SessionLink& l : out_links) {
    g.add_edge(node, l.peer);
    costs.push_back(l.cost);
  }
  // The Platform constructor re-validates costs and reachability.
  Platform grown(std::move(g), std::move(costs), platform.slice_size(), platform.source());
  std::vector<double> send, recv;
  send.reserve(old_nodes + 1);
  recv.reserve(old_nodes + 1);
  for (NodeId u = 0; u < old_nodes; ++u) {
    send.push_back(platform.send_overhead(u));
    recv.push_back(platform.recv_overhead(u));
  }
  send.push_back(0.0);
  recv.push_back(0.0);
  grown.set_send_overheads(std::move(send));
  grown.set_recv_overheads(std::move(recv));
  return grown;
}

Platform shrink_platform(const Platform& platform, NodeId node, ShrinkRemap* remap) {
  const std::size_t old_nodes = platform.num_nodes();
  const std::size_t old_edges = platform.num_edges();
  BT_REQUIRE(node < old_nodes, "shrink_platform: node out of range");
  BT_REQUIRE(node != platform.source(), "shrink_platform: cannot remove the source");
  BT_REQUIRE(old_nodes > 2, "shrink_platform: a platform needs at least two nodes");

  std::vector<NodeId> node_map(old_nodes);
  for (NodeId u = 0; u < old_nodes; ++u) {
    node_map[u] = u == node ? Digraph::npos : (u < node ? u : u - 1);
  }
  const Digraph& old_g = platform.graph();
  Digraph g(old_nodes - 1);
  std::vector<LinkCost> costs;
  std::vector<EdgeId> edge_map(old_edges, Digraph::npos);
  costs.reserve(old_edges);
  for (EdgeId e = 0; e < old_edges; ++e) {
    const NodeId u = old_g.from(e), v = old_g.to(e);
    if (u == node || v == node) continue;
    edge_map[e] = g.add_edge(node_map[u], node_map[v]);
    costs.push_back(platform.link_cost(e));
  }
  // The Platform constructor re-validates reachability: a leave that
  // disconnects the platform throws here.
  Platform shrunk(std::move(g), std::move(costs), platform.slice_size(),
                  node_map[platform.source()]);
  std::vector<double> send, recv;
  send.reserve(old_nodes - 1);
  recv.reserve(old_nodes - 1);
  for (NodeId u = 0; u < old_nodes; ++u) {
    if (u == node) continue;
    send.push_back(platform.send_overhead(u));
    recv.push_back(platform.recv_overhead(u));
  }
  shrunk.set_send_overheads(std::move(send));
  shrunk.set_recv_overheads(std::move(recv));
  if (remap != nullptr) {
    remap->node_map = std::move(node_map);
    remap->edge_map = std::move(edge_map);
  }
  return shrunk;
}

NodeId PlannerSession::add_node(const std::vector<SessionLink>& in_links,
                                const std::vector<SessionLink>& out_links) {
  platform_ = grow_platform(platform_, in_links, out_links);
  const NodeId node = platform_.num_nodes() - 1;
  removed_.resize(platform_.num_edges(), 0);

  // Structural fallback: pooled cuts are no longer source->w cuts of the
  // grown graph and pooled trees no longer span it.  Reset everything; the
  // next solve is cold.
  reset_cutting_state();
  reset_packing_state();
  note_mutation();
  return node;
}

SsbSolution PlannerSession::solve_cold() const {
  PlannerSessionOptions options = options_;
  options.cold_polish = true;
  PlannerSession fresh(platform_, options);
  for (EdgeId e = 0; e < platform_.num_edges(); ++e) {
    if (removed_[e]) fresh.remove_link(e);
  }
  return fresh.solve();
}

// ---- packing (column generation) --------------------------------------------

void PlannerSession::reset_packing_state() {
  tree_seen_.clear();
  tree_pool_.clear();
  packing_dirty_ = true;
  packing_solution_ = SsbPackingSolution{};
}

void PlannerSession::drop_pool_trees_containing(EdgeId e) {
  std::vector<std::vector<EdgeId>> kept;
  kept.reserve(tree_pool_.size());
  for (std::vector<EdgeId>& tree : tree_pool_) {
    if (std::find(tree.begin(), tree.end(), e) != tree.end()) {
      std::vector<EdgeId> key = tree;
      std::sort(key.begin(), key.end());
      tree_seen_.erase(key);
    } else {
      kept.push_back(std::move(tree));
    }
  }
  tree_pool_ = std::move(kept);
}

void PlannerSession::run_packing_solve() {
  const Digraph& g = platform_.graph();
  const std::size_t p = g.num_nodes();
  const NodeId source = platform_.source();
  const SsbColumnGenOptions& options = options_.colgen;

  // Arc times seen by the pricing oracle; removed arcs are priced out.
  std::vector<double> arc_time = platform_.edge_times();
  bool any_removed = false;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (removed_[e]) {
      arc_time[e] = kRemovedArcPrice;
      any_removed = true;
    }
  }

  SsbPackingSolution solution;
  ThreadPool& pool = options.pool != nullptr ? *options.pool : global_thread_pool();
  solution.phase_stats.oracle_threads = pool.num_threads();

  // Rebuild the columns from the pooled trees under the *current* link
  // times: mutations change occupation coefficients, but yesterday's
  // optimal trees remain the best warm basis for today's packing (the
  // pool-seeded re-solve).  Trees over removed arcs were dropped at
  // removal time, so the pool only holds valid spanning trees.  The
  // rebuild fans out over the pool in contiguous chunks -- each task
  // writes only its trees' pre-sized slots, so the chunk layout never
  // changes the column order the master sees.
  std::vector<TreeColumn> columns(tree_pool_.size());
  {
    Timer rebuild_timer;
    const ChunkSplit rebuild_split(tree_pool_.size(), pool.num_threads());
    parallel_for(pool, rebuild_split.chunks, [&](std::size_t c) {
      for (std::size_t i = rebuild_split.chunk_begin(c); i < rebuild_split.chunk_begin(c + 1);
           ++i) {
        columns[i] = make_column(platform_, tree_pool_[i]);
      }
    });
    solution.phase_stats.pricing_wall_ms += rebuild_timer.millis();
  }

  // Deduplicate generated trees by sorted arc list: the pricing oracle can
  // legitimately return an existing tree when the LP is already optimal.
  auto add_column = [&](std::vector<EdgeId> edges) {
    std::vector<EdgeId> key = edges;
    std::sort(key.begin(), key.end());
    if (!tree_seen_.insert(std::move(key)).second) return false;
    tree_pool_.push_back(edges);
    columns.push_back(make_column(platform_, std::move(edges)));
    return true;
  };

  // Seed with one arborescence (cheapest total time; any spanning tree
  // works) when the pool is empty -- first solve, or every pooled tree was
  // invalidated by removals.
  if (columns.empty()) {
    const auto seed = min_arborescence(g, source, arc_time);
    BT_REQUIRE(seed.found, "solve_ssb_column_generation: platform not spanning");
    if (any_removed) {
      for (EdgeId e : seed.edges) {
        BT_REQUIRE(!removed_[e],
                   "PlannerSession: platform cannot broadcast (removals cut the source off)");
      }
    }
    add_column(seed.edges);
  }

  std::vector<double> lambda;

  const PortModel model = options.port_model;
  const std::size_t num_master_rows = model == PortModel::kBidirectional ? 2 * p : p;
  // Master rows for the first `ncols` columns, transposed from the
  // canonical per-column layout of master_terms (rows exist even when
  // empty, so indexing is stable as columns arrive).
  auto build_master_rows = [&](std::size_t ncols) {
    std::vector<std::vector<LpTerm>> rows(num_master_rows);
    for (std::size_t j = 0; j < ncols; ++j) {
      for (const LpTerm& t : master_terms(columns[j], p, model)) {
        rows[t.var].push_back({j, t.coeff});
      }
    }
    return rows;
  };

  // Pricing step shared by both master paths: min-weight arborescence under
  // the port duals `y` (2p or p entries, row layout as above).  Returns
  // true when an improving column was appended.  The arc-price fill fans
  // out over the pool (price[e] is a function of e alone, so tasks write
  // disjoint slots and the vector is bitwise-independent of the chunking);
  // the Chu-Liu/Edmonds call itself keeps thread_local workspaces
  // (graph/min_arborescence.cpp), so concurrent packing solves -- e.g.
  // sweep cells fanned out over the same pool -- price safely in parallel.
  const ChunkSplit price_split(g.num_edges(), pool.num_threads());
  std::vector<double> price(g.num_edges());
  auto price_and_append = [&](const std::vector<double>& y) {
    // Fault hook, counted once per pricing round in this serial section.
    if (fault_fire(FaultSite::kPricingOracle)) {
      throw Error("fault injection: pricing oracle failure");
    }
    Timer pricing_timer;
    parallel_for(pool, price_split.chunks, [&](std::size_t c) {
      for (EdgeId e = price_split.chunk_begin(c); e < price_split.chunk_begin(c + 1); ++e) {
        if (removed_[e]) {
          price[e] = kRemovedArcPrice;
          continue;
        }
        const double y_out =
            std::max(0.0, model == PortModel::kBidirectional ? y[2 * g.from(e)] : y[g.from(e)]);
        const double y_in =
            std::max(0.0, model == PortModel::kBidirectional ? y[2 * g.to(e) + 1] : y[g.to(e)]);
        price[e] = platform_.edge_time(e) * (y_out + y_in);
      }
    });
    const auto priced = min_arborescence(g, source, price);
    solution.phase_stats.pricing_wall_ms += pricing_timer.millis();
    BT_ASSERT(priced.found, "solve_ssb_column_generation: pricing lost spanning property");

    // Reduced cost of the best tree: 1 - priced.weight.  Non-positive means
    // no improving column exists and (for exact duals) the master is optimal.
    // A removed arc drives the weight past 1, so trees over removed arcs
    // never qualify.
    if (priced.weight >= 1.0 - options.tolerance) return false;
    return add_column(priced.edges);  // duplicate: numerically converged
  };

  // Master engine knobs shared by both paths (the rebuild path adds its
  // engine selection and warm basis per round).
  SimplexOptions master_lp_options;
  master_lp_options.pricing = options.master_pricing;
  master_lp_options.dual_row_rule = options.master_dual_row_rule;
  master_lp_options.solve_mode = options.master_solve_mode;
  master_lp_options.collect_kernel_timing = options.master_kernel_timing;

  if (options.incremental_master) {
    // ---- Standing master: rows are fixed up front and the model starts
    // from every pooled column; each pricing round appends one column and
    // re-optimizes from the current basis. ----
    LpProblem lp(Objective::kMaximize);
    for (std::size_t j = 0; j < columns.size(); ++j) {
      lp.add_variable(1.0, "tree" + std::to_string(j));
    }
    for (const std::vector<LpTerm>& row : build_master_rows(columns.size())) {
      lp.add_constraint(row, RowSense::kLessEqual, 1.0);
    }
    IncrementalSimplex engine(lp, master_lp_options);
    std::vector<double> smoothed;  // Wentges stabilization center
    while (columns.size() < options.max_columns) {
      ++solution.separation_rounds;
      Timer master_timer;
      const LpSolution master = engine.solve();
      solution.master_wall_ms += master_timer.millis();
      BT_REQUIRE(master.status == LpStatus::kOptimal,
                 "solve_ssb_column_generation: master LP " + to_string(master.status));
      solution.lp_iterations += master.iterations;
      lambda = master.x;

      // Price under smoothed duals; on mis-pricing fall back to the exact
      // duals, which alone certify optimality.
      const double alpha = options.dual_smoothing;
      bool progressed;
      if (alpha > 0.0 && !smoothed.empty()) {
        for (std::size_t i = 0; i < smoothed.size(); ++i) {
          smoothed[i] = alpha * smoothed[i] + (1.0 - alpha) * master.duals[i];
        }
        progressed = price_and_append(smoothed);
        if (!progressed) {
          smoothed = master.duals;  // re-center the stabilization
          progressed = price_and_append(master.duals);
        }
      } else {
        smoothed = master.duals;
        progressed = price_and_append(master.duals);
      }
      if (!progressed) break;
      engine.add_column(1.0, master_terms(columns.back(), p, model));
    }
    solution.lp_stats.accumulate(engine.engine_stats());
  } else {
    // ---- Legacy path: rebuild the whole master LP every round and re-solve
    // it from the previous optimal basis (kept for benchmarking). ----
    std::vector<std::size_t> warm_basis;  // master basis carried across rounds
    while (columns.size() < options.max_columns) {
      ++solution.separation_rounds;
      LpProblem lp(Objective::kMaximize);
      for (std::size_t j = 0; j < columns.size(); ++j) {
        lp.add_variable(1.0, "tree" + std::to_string(j));
      }
      for (const std::vector<LpTerm>& row : build_master_rows(columns.size())) {
        lp.add_constraint(row, RowSense::kLessEqual, 1.0);
      }

      SimplexOptions lp_options = master_lp_options;
      lp_options.engine = options.master_engine;
      lp_options.stats = &solution.lp_stats;
      if (!warm_basis.empty()) lp_options.warm_basis = &warm_basis;
      Timer master_timer;
      const LpSolution master = solve_lp(lp, lp_options);
      solution.master_wall_ms += master_timer.millis();
      BT_REQUIRE(master.status == LpStatus::kOptimal,
                 "solve_ssb_column_generation: master LP " + to_string(master.status));
      solution.lp_iterations += master.iterations;
      lambda = master.x;
      warm_basis = master.basis;
      if (!price_and_append(master.duals)) break;
    }
  }
  BT_REQUIRE(columns.size() < options.max_columns,
             "solve_ssb_column_generation: column cap hit without convergence");

  // ---- Assemble the solution. ----
  solution.solved = true;
  solution.edge_load.assign(g.num_edges(), 0.0);
  solution.throughput = 0.0;
  for (std::size_t j = 0; j < columns.size(); ++j) {
    const double rate = j < lambda.size() ? lambda[j] : 0.0;
    solution.throughput += rate;
    if (rate <= 0.0) continue;
    for (EdgeId e : columns[j].edges) solution.edge_load[e] += rate;
    PackedTree tree;
    tree.edges = columns[j].edges;
    tree.rate = rate;
    solution.trees.push_back(std::move(tree));
  }
  if (options.export_tree_columns) solution.tree_columns = solution.trees;
  solution.cuts_generated = columns.size();
  packing_solution_ = std::move(solution);
}

const SsbPackingSolution& PlannerSession::solve_packing() {
  if (!packing_dirty_) return packing_solution_;
  ++stats_.packing_solves;
  try {
    run_packing_solve();
  } catch (...) {
    // The packing master is rebuilt from the pool each run, so there is no
    // standing engine to roll back -- only the count matters.  tree_pool_ /
    // tree_seen_ stay consistent (add_column inserts into both).
    ++stats_.rollbacks;
    throw;
  }
  packing_dirty_ = false;
  return packing_solution_;
}

// ---- schedule synthesis -----------------------------------------------------

std::shared_ptr<const PeriodicSchedule> PlannerSession::schedule() {
  if (schedule_ != nullptr && schedule_version_ == version_) return schedule_;
  // Synthesis fans out over the same worker pool as the masters (per-tree
  // validation, the BvN consume step, the decomposition certificate), so a
  // caller pinning the pool width -- the churn determinism matrix -- covers
  // the schedule path too.
  OrchestrationOptions orchestration;
  TreeDecompositionOptions decomposition;
  PeriodicSchedule built;
  if (!packing_dirty_) {
    // Fresh packing solution: orchestrate its exact tree columns.
    orchestration.port_model = options_.colgen.port_model;
    orchestration.pool = options_.colgen.pool;
    decomposition.pool = options_.colgen.pool;
    built = synthesize_schedule(platform_, packing_solution_, orchestration, decomposition);
  } else if (!cutting_dirty_) {
    orchestration.port_model = options_.cutting.port_model;
    orchestration.pool = options_.cutting.pool;
    decomposition.pool = options_.cutting.pool;
    if (!cutting_solution_.tree_columns.empty()) {
      // A heuristic-tier answer carries its tree.
      built = synthesize_schedule(platform_, cutting_solution_, orchestration, decomposition);
    } else {
      // Fresh cutting-plane loads: decompose -- unless TP and loads are
      // bitwise those of the last decomposition, whose trees are then
      // exactly what decompose_edge_load would return -- and orchestrate
      // under the current link times.
      DecompositionMemo& memo = decomposition_memo_;
      if (memo.valid && same_bits(memo.throughput, cutting_solution_.throughput) &&
          same_bits(memo.edge_load, cutting_solution_.edge_load)) {
        ++stats_.decompositions_reused;
      } else {
        memo.valid = false;
        memo.trees = decompose_edge_load(platform_, cutting_solution_, decomposition).trees;
        memo.throughput = cutting_solution_.throughput;
        memo.edge_load = cutting_solution_.edge_load;
        memo.valid = true;
      }
      built = orchestrate_one_port(platform_, memo.trees, orchestration);
    }
  } else {
    orchestration.port_model = options_.colgen.port_model;
    orchestration.pool = options_.colgen.pool;
    decomposition.pool = options_.colgen.pool;
    built = synthesize_schedule(platform_, solve_packing(), orchestration, decomposition);
  }
  schedule_ = std::make_shared<const PeriodicSchedule>(std::move(built));
  schedule_version_ = version_;
  ++stats_.schedules_built;
  return schedule_;
}

}  // namespace bt
