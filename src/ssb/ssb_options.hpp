#pragma once

// Shared solve options of the SSB optimum masters.
//
// Both standing masters -- the cutting-plane value/stable pair and the
// column-generation packing master -- are configured from the same base so
// a PlannerSession (planner_session.hpp) can set tolerances, the port
// model and the LP engine knobs once and have the two masters agree on
// them.  The derived structs add the solver-specific fields and override
// the pricing defaults where the per-master A/B benchmarks picked
// different production configurations (see BENCH_lp.json).

#include "lp/simplex.hpp"
#include "ssb/ssb_solution.hpp"

namespace bt {

class ThreadPool;

struct SsbSolveOptions {
  /// Convergence tolerance of the outer loop (cut separation / column
  /// pricing); the master LPs themselves solve tighter.
  double tolerance = 1e-7;
  /// Keep one master LP alive across rounds (IncrementalSimplex warm
  /// re-solves).  When false, the master is rebuilt and re-solved every
  /// round -- the pre-incremental behavior, kept for benchmarking.
  bool incremental_master = true;
  /// Port model of the occupation rows: separate out/in rows per node
  /// (bidirectional one-port) or one combined row (unidirectional).
  PortModel port_model = PortModel::kBidirectional;
  /// Master LP engine knobs, forwarded into SimplexOptions for every
  /// master solve (warm and cold).  The pricing defaults here are the
  /// engine-wide production configuration (Devex primal + dual
  /// steepest-edge rows); SsbCuttingPlaneOptions overrides them -- its
  /// short lexicographic rounds re-optimize in a handful of pivots where
  /// the candidate-list Dantzig scan wins and reference weights never
  /// amortize (see the hypersparse-core ablation in BENCH_lp.json).
  PricingRule master_pricing = PricingRule::kDevex;
  DualRowRule master_dual_row_rule = DualRowRule::kSteepestEdge;
  BasisLu::SolveMode master_solve_mode = BasisLu::SolveMode::kReachSet;
  /// Also collect per-call factorize/FTRAN/BTRAN wall-clock into
  /// SsbSolution::lp_stats (the call and reach counters are always
  /// collected).
  bool master_kernel_timing = false;
  /// Worker pool for the parallel oracle phases (per-destination max-flow
  /// separation, pricing/column rebuild).  nullptr means the process-wide
  /// global_thread_pool(); point at a 1-thread pool to force the serial
  /// path.  Either way the solve is bitwise-identical -- the oracles write
  /// destination-/slot-indexed results and reduce them in serial order, so
  /// the pool width only changes wall-clock (see util/thread_pool.hpp).
  ThreadPool* pool = nullptr;
};

}  // namespace bt
