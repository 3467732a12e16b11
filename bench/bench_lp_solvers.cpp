// Ablation E7: the three SSB solvers.  The direct solver transcribes program
// (2) with all commodity variables; the cutting-plane solver works on the
// projected master LP with lazy min-cut separation; the column-generation
// solver packs spanning arborescences (the production solver).  This bench
// checks their agreement, tracks their cost as the platform grows to
// paper-and-beyond sizes, and records three master ablations:
//
//  * column generation: incremental sparse-LU master vs the legacy
//    dense-inverse rebuild-every-round master;
//  * cutting plane: incremental master (append_row + dual-simplex
//    reoptimize from the standing basis, Forrest-Tomlin updates) vs the
//    rebuild path (cold solve from the slack basis every round).  Both
//    paths walk the same cut trajectory and must report bitwise-identical
//    throughput;
//  * hypersparse LP core: the production configuration (Devex primal
//    pricing, dual steepest-edge rows, reach-set FTRAN/BTRAN) vs the
//    pre-hypersparse configuration (Dantzig, most-infeasible rows, full
//    triangular sweeps), on both masters.
//
// Scaling sizes are env-tunable via BT_LP_SIZES (default 20..120; column
// generation is skipped -- with an explicit "skipped" record -- beyond 150
// nodes, where its degenerate master tailing dominates; the cutting plane
// carries the curve to 500, where the batch default completes via its
// cold-polish stall escape -- see SsbSolution::cold_polish_stalls).  The
// `direct` solver likewise gets explicit "skipped" records above 12 nodes
// instead of silently missing rows.
//
// Machine-readable results are written to BENCH_lp.json in the working
// directory: one record per nodes x solver (wall-clock ms, simplex
// iterations, and -- where the solver ran the sparse engine -- FTRAN/BTRAN
// reach fractions, kernel ns/call and the pricing mode), plus summary
// fields for the guard script scripts/check_bench_regression.py.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/sweeps.hpp"
#include "platform/random_generator.hpp"
#include "ssb/ssb_column_generation.hpp"
#include "ssb/ssb_cutting_plane.hpp"
#include "ssb/ssb_direct.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

/// Column generation is skipped beyond this size (explicit "skipped"
/// records): its pricing tails off on the massively degenerate packing
/// master there, see ROADMAP.
constexpr std::size_t kColgenSizeCap = 150;

struct BenchRecord {
  std::size_t nodes = 0;
  std::string solver;
  double wall_ms = 0.0;
  std::size_t iterations = 0;
  std::string status = "ok";  ///< "ok" or "skipped"
  std::string reason;         ///< skip reason (status == "skipped")
  // Hypersparsity metrics of the sparse master engine; negative = absent.
  double ftran_reach = -1.0;
  double btran_reach = -1.0;
  double ftran_ns_per_call = -1.0;
  double btran_ns_per_call = -1.0;
  std::string pricing_mode;

  void attach_stats(const bt::LpEngineStats& stats) {
    ftran_reach = stats.ftran_reach_fraction();
    btran_reach = stats.btran_reach_fraction();
    ftran_ns_per_call = stats.ftran_ns_per_call();
    btran_ns_per_call = stats.btran_ns_per_call();
    pricing_mode = stats.pricing_mode;
  }
};

BenchRecord record(std::size_t nodes, std::string solver, double wall_ms,
                   std::size_t iterations) {
  BenchRecord r;
  r.nodes = nodes;
  r.solver = std::move(solver);
  r.wall_ms = wall_ms;
  r.iterations = iterations;
  return r;
}

BenchRecord skipped(std::size_t nodes, std::string solver, std::string reason) {
  BenchRecord r;
  r.nodes = nodes;
  r.solver = std::move(solver);
  r.status = "skipped";
  r.reason = std::move(reason);
  return r;
}

bt::Platform instance(std::size_t n, std::uint64_t seed_scale) {
  bt::Rng rng(n * seed_scale);
  bt::RandomPlatformConfig config;
  config.num_nodes = n;
  config.density = n <= 12 ? 0.25 : 0.12;
  return bt::generate_random_platform(config, rng);
}

/// Best (minimum) wall-clock of `solve` over `reps` runs: robust against
/// scheduler noise on shared CI machines, per standard bench practice.
template <typename Solve>
double timed_ms(std::size_t reps, const Solve& solve) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < reps; ++r) {
    bt::Timer t;
    solve();
    best = std::min(best, t.millis());
  }
  return best;
}

/// Summary key/value pairs appended after the records array (numbers and
/// booleans are emitted verbatim).
using Summary = std::vector<std::pair<std::string, std::string>>;

std::string num(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

void write_json(const std::vector<BenchRecord>& records, const Summary& summary) {
  std::ofstream out("BENCH_lp.json");
  out << "{\n  \"bench\": \"lp_solvers\",\n  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    out << "    {\"nodes\": " << r.nodes << ", \"solver\": \"" << r.solver << "\", \"status\": \""
        << r.status << "\"";
    if (r.status == "skipped") {
      out << ", \"reason\": \"" << r.reason << "\"";
    } else {
      out << ", \"wall_ms\": " << r.wall_ms << ", \"iterations\": " << r.iterations;
      if (r.ftran_reach >= 0.0) {
        out << ", \"ftran_reach_fraction\": " << r.ftran_reach
            << ", \"btran_reach_fraction\": " << r.btran_reach
            << ", \"ftran_ns_per_call\": " << r.ftran_ns_per_call
            << ", \"btran_ns_per_call\": " << r.btran_ns_per_call << ", \"pricing_mode\": \""
            << r.pricing_mode << "\"";
      }
    }
    out << "}" << (i + 1 < records.size() ? ",\n" : "\n");
  }
  out << "  ]";
  for (const auto& kv : summary) out << ",\n  \"" << kv.first << "\": " << kv.second;
  out << "\n}\n";
}

}  // namespace

int main() {
  using namespace bt;
  Timer total;
  std::vector<BenchRecord> records;
  Summary summary;

  std::cout << "E7 -- SSB solver cross-validation\n"
            << "direct program (2) vs cutting plane vs arborescence column generation\n\n";

  TablePrinter table({"nodes", "arcs", "TP direct", "TP cutting", "TP colgen",
                      "max rel.diff", "direct_ms", "cutting_ms", "colgen_ms"});

  // Collect master engine stats (and kernel timing) on every solve.
  SsbCuttingPlaneOptions cutting_default;
  cutting_default.master_kernel_timing = true;
  SsbColumnGenOptions colgen_default;
  colgen_default.master_kernel_timing = true;

  for (std::size_t n : {5, 6, 8, 10, 12}) {
    const Platform p = instance(n, 7919);

    Timer t1;
    const auto direct = solve_ssb_direct(p);
    const double direct_ms = t1.millis();

    Timer t2;
    const auto cutting = solve_ssb_cutting_plane(p, cutting_default);
    const double cutting_ms = t2.millis();

    Timer t3;
    const auto colgen = solve_ssb_column_generation(p, colgen_default);
    const double colgen_ms = t3.millis();

    records.push_back(record(n, "direct", direct_ms, direct.lp_iterations));
    records.push_back(record(n, "cutting_plane", cutting_ms, cutting.lp_iterations));
    records.back().attach_stats(cutting.lp_stats);
    records.push_back(record(n, "colgen", colgen_ms, colgen.lp_iterations));
    records.back().attach_stats(colgen.lp_stats);

    const double reference = direct.throughput;
    const double diff = std::max(std::abs(reference - cutting.throughput),
                                 std::abs(reference - colgen.throughput)) /
                        std::max(1e-12, reference);
    table.add_row({std::to_string(n), std::to_string(p.num_edges()),
                   TablePrinter::fmt(direct.throughput, 4),
                   TablePrinter::fmt(cutting.throughput, 4),
                   TablePrinter::fmt(colgen.throughput, 4),
                   TablePrinter::fmt(diff, 8), TablePrinter::fmt(direct_ms, 1),
                   TablePrinter::fmt(cutting_ms, 1), TablePrinter::fmt(colgen_ms, 1)});
  }
  table.render(std::cout);

  // Scaling to paper-size-and-beyond platforms (BT_LP_SIZES lifts further).
  // The direct solver is capped at 12 nodes (its commodity LP grows
  // cubically) and column generation at kColgenSizeCap -- both emit
  // explicit "skipped" records so BENCH_lp.json consumers see the cut.
  std::cout << "\ncutting-plane and column-generation scaling "
            << "(reach = avg fraction of elimination steps visited per solve):\n";
  TablePrinter scale({"nodes", "arcs", "TP cutting", "TP colgen", "rel.diff", "cutting_ms",
                      "colgen_ms", "cut reach f/b", "cg reach f/b"});
  const std::vector<std::size_t> scaling_sizes =
      sizes_from_env("BT_LP_SIZES", {20, 30, 50, 80, 120});
  for (std::size_t n : scaling_sizes) {
    const Platform p = instance(n, 104729);
    const std::size_t reps = n <= 50 ? 3 : 1;
    records.push_back(
        skipped(n, "direct", "commodity LP grows cubically; capped at 12 nodes"));

    SsbSolution cutting;
    const double cutting_ms =
        timed_ms(reps, [&] { cutting = solve_ssb_cutting_plane(p, cutting_default); });
    records.push_back(record(n, "cutting_plane", cutting_ms, cutting.lp_iterations));
    records.back().attach_stats(cutting.lp_stats);
    const std::string cut_reach = TablePrinter::fmt(cutting.lp_stats.ftran_reach_fraction(), 2) +
                                  "/" + TablePrinter::fmt(cutting.lp_stats.btran_reach_fraction(), 2);

    if (n > kColgenSizeCap) {
      records.push_back(skipped(
          n, "colgen", "degenerate packing-master tailing beyond 150 nodes; see ROADMAP"));
      scale.add_row({std::to_string(n), std::to_string(p.num_edges()),
                     TablePrinter::fmt(cutting.throughput, 4), "skipped", "-",
                     TablePrinter::fmt(cutting_ms, 1), "-", cut_reach, "-"});
      continue;
    }
    SsbPackingSolution colgen;
    const double colgen_ms =
        timed_ms(reps, [&] { colgen = solve_ssb_column_generation(p, colgen_default); });
    records.push_back(record(n, "colgen", colgen_ms, colgen.lp_iterations));
    records.back().attach_stats(colgen.lp_stats);

    const double diff = std::abs(cutting.throughput - colgen.throughput) /
                        std::max(1e-12, colgen.throughput);
    scale.add_row({std::to_string(n), std::to_string(p.num_edges()),
                   TablePrinter::fmt(cutting.throughput, 4),
                   TablePrinter::fmt(colgen.throughput, 4), TablePrinter::fmt(diff, 8),
                   TablePrinter::fmt(cutting_ms, 1), TablePrinter::fmt(colgen_ms, 1), cut_reach,
                   TablePrinter::fmt(colgen.lp_stats.ftran_reach_fraction(), 2) + "/" +
                       TablePrinter::fmt(colgen.lp_stats.btran_reach_fraction(), 2)});

    if (n == 80) {
      summary.push_back({"cutting_ftran_reach_fraction_n80",
                         num(cutting.lp_stats.ftran_reach_fraction())});
      summary.push_back({"cutting_btran_reach_fraction_n80",
                         num(cutting.lp_stats.btran_reach_fraction())});
      summary.push_back({"colgen_btran_reach_fraction_n80",
                         num(colgen.lp_stats.btran_reach_fraction())});
    }
  }
  scale.render(std::cout);

  // Hypersparse-core ablation: production pricing/solve configuration vs the
  // pre-hypersparse one (Dantzig pricing, most-infeasible dual rows, full
  // triangular sweeps), interleaved best-of-N on both masters at n = 120
  // (the smallest size where the pricing wins clear the per-pivot weight
  // maintenance; they grow with n -- colgen is 1.8x end-to-end at 200).
  std::cout << "\nhypersparse core: production pricing/solve configuration vs "
               "dantzig/most-infeasible/full-sweep:\n";
  TablePrinter hs({"master", "legacy_ms", "hypersparse_ms", "speedup", "TP diff"});
  {
    const std::size_t n = 120;
    const Platform p = instance(n, 104729);
    const std::size_t reps = 3;
    SsbCuttingPlaneOptions cut_legacy = cutting_default;
    cut_legacy.master_pricing = PricingRule::kDantzig;
    cut_legacy.master_dual_row_rule = DualRowRule::kMostInfeasible;
    cut_legacy.master_solve_mode = BasisLu::SolveMode::kFullSweep;
    SsbColumnGenOptions cg_legacy = colgen_default;
    cg_legacy.master_pricing = PricingRule::kDantzig;
    cg_legacy.master_dual_row_rule = DualRowRule::kMostInfeasible;
    cg_legacy.master_solve_mode = BasisLu::SolveMode::kFullSweep;

    (void)solve_ssb_cutting_plane(p, cutting_default);
    (void)solve_ssb_cutting_plane(p, cut_legacy);
    SsbSolution cut_new, cut_old;
    double cut_new_ms = std::numeric_limits<double>::infinity();
    double cut_old_ms = std::numeric_limits<double>::infinity();
    double cut_new_master = std::numeric_limits<double>::infinity();
    double cut_old_master = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < reps; ++r) {
      {
        Timer t;
        cut_new = solve_ssb_cutting_plane(p, cutting_default);
        cut_new_ms = std::min(cut_new_ms, t.millis());
        cut_new_master = std::min(cut_new_master, cut_new.master_wall_ms);
      }
      {
        Timer t;
        cut_old = solve_ssb_cutting_plane(p, cut_legacy);
        cut_old_ms = std::min(cut_old_ms, t.millis());
        cut_old_master = std::min(cut_old_master, cut_old.master_wall_ms);
      }
    }
    records.push_back(record(n, "cutting_legacy_core", cut_old_ms, cut_old.lp_iterations));
    records.back().attach_stats(cut_old.lp_stats);
    const double cut_speedup = cut_old_master / cut_new_master;
    hs.add_row({"cutting (master)", TablePrinter::fmt(cut_old_master, 2),
                TablePrinter::fmt(cut_new_master, 2), TablePrinter::fmt(cut_speedup, 2),
                TablePrinter::fmt(std::abs(cut_new.throughput - cut_old.throughput), 9)});
    summary.push_back({"cutting_hypersparse_master_speedup_n120", num(cut_speedup)});
    // Refactorization cost of the cutting-plane masters (record only).
    summary.push_back({"cutting_factorize_ns_per_call_n120",
                       num(cut_new.lp_stats.factorize_ns_per_call())});

    (void)solve_ssb_column_generation(p, colgen_default);
    (void)solve_ssb_column_generation(p, cg_legacy);
    SsbPackingSolution cg_new, cg_old;
    double cg_new_ms = std::numeric_limits<double>::infinity();
    double cg_old_ms = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < reps; ++r) {
      {
        Timer t;
        cg_new = solve_ssb_column_generation(p, colgen_default);
        cg_new_ms = std::min(cg_new_ms, t.millis());
      }
      {
        Timer t;
        cg_old = solve_ssb_column_generation(p, cg_legacy);
        cg_old_ms = std::min(cg_old_ms, t.millis());
      }
    }
    records.push_back(record(n, "colgen_legacy_core", cg_old_ms, cg_old.lp_iterations));
    records.back().attach_stats(cg_old.lp_stats);
    const double cg_speedup = cg_old_ms / cg_new_ms;
    hs.add_row({"colgen (end-to-end)", TablePrinter::fmt(cg_old_ms, 2),
                TablePrinter::fmt(cg_new_ms, 2), TablePrinter::fmt(cg_speedup, 2),
                TablePrinter::fmt(std::abs(cg_new.throughput - cg_old.throughput), 9)});
    summary.push_back({"colgen_hypersparse_speedup_n120", num(cg_speedup)});
  }
  {
    // The Devex win grows with size (it saves iterations, and iterations
    // get costlier): ~2x at the colgen scaling cap n = 150, ~1.8x at 200.
    // One interleaved pair of runs pins that curve point.
    const std::size_t n = 150;
    const Platform p = instance(n, 104729);
    SsbColumnGenOptions cg_legacy = colgen_default;
    cg_legacy.master_pricing = PricingRule::kDantzig;
    cg_legacy.master_dual_row_rule = DualRowRule::kMostInfeasible;
    cg_legacy.master_solve_mode = BasisLu::SolveMode::kFullSweep;
    (void)solve_ssb_column_generation(p, colgen_default);
    SsbPackingSolution cg_old, cg_new;
    double cg_old_ms = std::numeric_limits<double>::infinity();
    double cg_new_ms = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < 2; ++r) {
      {
        Timer t;
        cg_old = solve_ssb_column_generation(p, cg_legacy);
        cg_old_ms = std::min(cg_old_ms, t.millis());
      }
      {
        Timer t;
        cg_new = solve_ssb_column_generation(p, colgen_default);
        cg_new_ms = std::min(cg_new_ms, t.millis());
      }
    }
    records.push_back(record(n, "colgen_legacy_core", cg_old_ms, cg_old.lp_iterations));
    records.back().attach_stats(cg_old.lp_stats);
    records.push_back(record(n, "colgen_hypersparse", cg_new_ms, cg_new.lp_iterations));
    records.back().attach_stats(cg_new.lp_stats);
    const double cg_speedup = cg_old_ms / cg_new_ms;
    hs.add_row({"colgen n=150 (end-to-end)", TablePrinter::fmt(cg_old_ms, 2),
                TablePrinter::fmt(cg_new_ms, 2), TablePrinter::fmt(cg_speedup, 2),
                TablePrinter::fmt(std::abs(cg_new.throughput - cg_old.throughput), 9)});
    summary.push_back({"colgen_hypersparse_speedup_n150", num(cg_speedup)});
  }
  hs.render(std::cout);

  // Engine ablation: the production configuration (standing incremental
  // master on the sparse LU engine) against the pre-LU configuration (master
  // LP rebuilt every round, dense basis inverse), same instances.
  std::cout << "\ncolumn-generation master: incremental sparse LU vs dense rebuild:\n";
  TablePrinter ab({"nodes", "dense_ms", "sparse_ms", "speedup", "TP diff"});
  double speedup_n50 = 0.0;
  for (std::size_t n : {20, 50}) {
    const Platform p = instance(n, 104729);
    const std::size_t reps = 20;

    SsbColumnGenOptions legacy;
    legacy.incremental_master = false;
    legacy.master_engine = LpEngine::kDenseReference;
    // Interleave the two configurations and keep each one's best run, so
    // scheduler/thermal noise on shared machines hits both sides alike.
    // One untimed warm-up per configuration first (page faults, caches).
    (void)solve_ssb_column_generation(p, legacy);
    (void)solve_ssb_column_generation(p);
    SsbPackingSolution dense_solution, sparse_solution;
    double dense_ms = std::numeric_limits<double>::infinity();
    double sparse_ms = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < reps; ++r) {
      {
        Timer t;
        dense_solution = solve_ssb_column_generation(p, legacy);
        dense_ms = std::min(dense_ms, t.millis());
      }
      {
        Timer t;
        sparse_solution = solve_ssb_column_generation(p);
        sparse_ms = std::min(sparse_ms, t.millis());
      }
    }

    records.push_back(record(n, "colgen_dense_legacy", dense_ms, dense_solution.lp_iterations));
    records.push_back(record(n, "colgen_incremental", sparse_ms, sparse_solution.lp_iterations));

    const double speedup = dense_ms / sparse_ms;
    if (n == 50) speedup_n50 = speedup;
    ab.add_row({std::to_string(n), TablePrinter::fmt(dense_ms, 2),
                TablePrinter::fmt(sparse_ms, 2), TablePrinter::fmt(speedup, 2),
                TablePrinter::fmt(
                    std::abs(dense_solution.throughput - sparse_solution.throughput), 9)});
  }
  ab.render(std::cout);

  // Cutting-plane master ablation: incremental (standing IncrementalSimplex,
  // append_row + reoptimize_dual) vs rebuild (cold solve from the slack
  // basis every round).  Separation and the final polish are identical
  // deterministic work on both sides, so the end-to-end speedup understates
  // the master speedup -- both are reported.
  std::cout << "\ncutting-plane master: incremental (dual simplex + FT) vs rebuild:\n";
  TablePrinter cp({"nodes", "rebuild_ms", "incr_ms", "speedup", "master speedup",
                   "rounds", "TP bitwise=="});
  double cutting_speedup_n80 = 0.0;
  double cutting_master_speedup_n80 = 0.0;
  bool cutting_bitwise = true;
  for (std::size_t n : {20, 30, 50, 80, 120}) {
    const Platform p = instance(n, 104729);
    const std::size_t reps = n <= 50 ? 5 : 2;

    SsbCuttingPlaneOptions incremental;
    SsbCuttingPlaneOptions rebuild;
    rebuild.incremental_master = false;
    // Interleaved best-of-N with one warm-up per configuration, as above.
    (void)solve_ssb_cutting_plane(p, incremental);
    (void)solve_ssb_cutting_plane(p, rebuild);
    SsbSolution inc_solution, reb_solution;
    double inc_ms = std::numeric_limits<double>::infinity();
    double reb_ms = std::numeric_limits<double>::infinity();
    double inc_master_ms = std::numeric_limits<double>::infinity();
    double reb_master_ms = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < reps; ++r) {
      {
        Timer t;
        inc_solution = solve_ssb_cutting_plane(p, incremental);
        inc_ms = std::min(inc_ms, t.millis());
        inc_master_ms = std::min(inc_master_ms, inc_solution.master_wall_ms);
      }
      {
        Timer t;
        reb_solution = solve_ssb_cutting_plane(p, rebuild);
        reb_ms = std::min(reb_ms, t.millis());
        reb_master_ms = std::min(reb_master_ms, reb_solution.master_wall_ms);
      }
    }

    records.push_back(record(n, "cutting_incremental", inc_ms, inc_solution.lp_iterations));
    records.push_back(record(n, "cutting_rebuild", reb_ms, reb_solution.lp_iterations));
    // Master-only wall clock (separation and polish excluded); no
    // master-specific iteration counter exists, so record 0 rather than a
    // misleading end-to-end count.
    records.push_back(record(n, "cutting_incremental_master", inc_master_ms, 0));
    records.push_back(record(n, "cutting_rebuild_master", reb_master_ms, 0));

    const bool bitwise = inc_solution.throughput == reb_solution.throughput;
    cutting_bitwise = cutting_bitwise && bitwise;
    const double speedup = reb_ms / inc_ms;
    const double master_speedup = reb_master_ms / inc_master_ms;
    if (n == 80) {
      cutting_speedup_n80 = speedup;
      cutting_master_speedup_n80 = master_speedup;
    }
    cp.add_row({std::to_string(n), TablePrinter::fmt(reb_ms, 2), TablePrinter::fmt(inc_ms, 2),
                TablePrinter::fmt(speedup, 2), TablePrinter::fmt(master_speedup, 2),
                std::to_string(inc_solution.separation_rounds), bitwise ? "yes" : "NO"});
  }
  cp.render(std::cout);

  summary.push_back({"colgen_speedup_vs_dense_n50", num(speedup_n50)});
  summary.push_back({"cutting_speedup_incremental_n80", num(cutting_speedup_n80)});
  summary.push_back({"cutting_master_speedup_incremental_n80", num(cutting_master_speedup_n80)});
  summary.push_back({"cutting_bitwise_agree", cutting_bitwise ? "true" : "false"});

  // In-solver oracle scaling: the same instance with the parallel phases
  // (per-destination max-flow separation, pricing/column rebuild) on a
  // 1-thread pool vs the machine's width (floored at 2 so the fan-out path
  // is always exercised).  Record-only -- 2-vCPU CI runners cannot show a
  // stable speedup, so the guard script never gates on these -- but the
  // bitwise agreement between the two widths is asserted into the summary.
  std::cout << "\nin-solver parallel oracles: pool width 1 vs machine width:\n";
  TablePrinter ts({"solver", "nodes", "w1_ms", "wN_ms", "speedup", "oracle_ms", "TP bitwise=="});
  bool insolver_bitwise = true;
  {
    const std::size_t width = std::max<std::size_t>(2, ThreadPool::default_thread_count());
    ThreadPool narrow(1);
    ThreadPool wide(width);
    summary.push_back({"insolver_threads", num(static_cast<double>(width))});

    const std::size_t n_cut = scaling_sizes.back();
    const Platform p_cut = instance(n_cut, 104729);
    SsbCuttingPlaneOptions cut_narrow = cutting_default;
    cut_narrow.pool = &narrow;
    SsbCuttingPlaneOptions cut_wide = cutting_default;
    cut_wide.pool = &wide;
    const std::size_t cut_reps = n_cut <= 120 ? 3 : 1;
    SsbSolution cut_1, cut_n;
    double cut_1_ms = std::numeric_limits<double>::infinity();
    double cut_n_ms = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < cut_reps; ++r) {
      {
        Timer t;
        cut_1 = solve_ssb_cutting_plane(p_cut, cut_narrow);
        cut_1_ms = std::min(cut_1_ms, t.millis());
      }
      {
        Timer t;
        cut_n = solve_ssb_cutting_plane(p_cut, cut_wide);
        cut_n_ms = std::min(cut_n_ms, t.millis());
      }
    }
    records.push_back(record(n_cut, "cutting_oracle_width1", cut_1_ms, cut_1.lp_iterations));
    records.push_back(record(n_cut, "cutting_oracle_widthN", cut_n_ms, cut_n.lp_iterations));
    const bool cut_bitwise =
        cut_1.throughput == cut_n.throughput && cut_1.edge_load == cut_n.edge_load;
    insolver_bitwise = insolver_bitwise && cut_bitwise;
    ts.add_row({"cutting", std::to_string(n_cut), TablePrinter::fmt(cut_1_ms, 2),
                TablePrinter::fmt(cut_n_ms, 2), TablePrinter::fmt(cut_1_ms / cut_n_ms, 2),
                TablePrinter::fmt(cut_n.phase_stats.separation_wall_ms, 2),
                cut_bitwise ? "yes" : "NO"});
    summary.push_back({"insolver_cutting_nodes", num(static_cast<double>(n_cut))});
    summary.push_back({"insolver_cutting_wall_ms_width1", num(cut_1_ms)});
    summary.push_back({"insolver_cutting_wall_ms_widthN", num(cut_n_ms)});
    summary.push_back({"insolver_cutting_speedup", num(cut_1_ms / cut_n_ms)});
    summary.push_back(
        {"insolver_cutting_separation_wall_ms", num(cut_n.phase_stats.separation_wall_ms)});

    const std::size_t n_cg = std::min<std::size_t>(kColgenSizeCap, scaling_sizes.back());
    const Platform p_cg = instance(n_cg, 104729);
    SsbColumnGenOptions cg_narrow = colgen_default;
    cg_narrow.pool = &narrow;
    SsbColumnGenOptions cg_wide = colgen_default;
    cg_wide.pool = &wide;
    SsbPackingSolution cg_1, cg_n;
    double cg_1_ms = std::numeric_limits<double>::infinity();
    double cg_n_ms = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < 3; ++r) {
      {
        Timer t;
        cg_1 = solve_ssb_column_generation(p_cg, cg_narrow);
        cg_1_ms = std::min(cg_1_ms, t.millis());
      }
      {
        Timer t;
        cg_n = solve_ssb_column_generation(p_cg, cg_wide);
        cg_n_ms = std::min(cg_n_ms, t.millis());
      }
    }
    records.push_back(record(n_cg, "colgen_oracle_width1", cg_1_ms, cg_1.lp_iterations));
    records.push_back(record(n_cg, "colgen_oracle_widthN", cg_n_ms, cg_n.lp_iterations));
    const bool cg_bitwise =
        cg_1.throughput == cg_n.throughput && cg_1.edge_load == cg_n.edge_load;
    insolver_bitwise = insolver_bitwise && cg_bitwise;
    ts.add_row({"colgen", std::to_string(n_cg), TablePrinter::fmt(cg_1_ms, 2),
                TablePrinter::fmt(cg_n_ms, 2), TablePrinter::fmt(cg_1_ms / cg_n_ms, 2),
                TablePrinter::fmt(cg_n.phase_stats.pricing_wall_ms, 2),
                cg_bitwise ? "yes" : "NO"});
    summary.push_back({"insolver_colgen_nodes", num(static_cast<double>(n_cg))});
    summary.push_back({"insolver_colgen_wall_ms_width1", num(cg_1_ms)});
    summary.push_back({"insolver_colgen_wall_ms_widthN", num(cg_n_ms)});
    summary.push_back({"insolver_colgen_speedup", num(cg_1_ms / cg_n_ms)});
    summary.push_back(
        {"insolver_colgen_pricing_wall_ms", num(cg_n.phase_stats.pricing_wall_ms)});
  }
  ts.render(std::cout);
  summary.push_back({"insolver_bitwise_agree", insolver_bitwise ? "true" : "false"});

  write_json(records, summary);
  std::cout << "\nwrote BENCH_lp.json (" << records.size() << " records, "
            << "colgen n=50 speedup vs dense-inverse engine: "
            << TablePrinter::fmt(speedup_n50, 2) << "x, cutting-plane n=80 master "
            << "speedup incremental-vs-rebuild: "
            << TablePrinter::fmt(cutting_master_speedup_n80, 2) << "x)\n";

  std::cout << "\nexpected: all solvers agree (rel.diff ~ 0); column generation\n"
               "also returns the explicit multi-tree schedule, the step the paper\n"
               "describes as too complicated to implement.\n";
  std::cout << "\nelapsed_s=" << total.seconds() << "\n";
  return 0;
}
