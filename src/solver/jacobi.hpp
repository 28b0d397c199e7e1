// Jacobi iteration, sequential baseline and simulated-parallel versions.
//
// x_i^{t+1} = (b_i - sum_{j != i} a_ij x_j^t) / a_ii.
//
// For strictly diagonally dominant systems the iteration contracts in the
// infinity norm, and — the theoretical backbone of the paper's whole
// programme — it remains convergent under *totally asynchronous* execution
// with arbitrary (finite) staleness of the x_j it reads (Bertsekas &
// Tsitsiklis [2], the paper's reference for partial asynchrony).  The
// parallel version partitions rows in blocks across simulated nodes and
// exchanges boundary values through the shared space in the three styles:
//
//   * kSynchronous  — barrier + Global_Read(age 0) each sweep;
//   * kAsynchronous — plain reads of whatever neighbour values arrived;
//   * kPartialAsync — Global_Read(age): bounded staleness, which both
//     bounds the extra iterations asynchrony costs and licenses update
//     coalescing on a congested network.
#pragma once

#include <cstdint>
#include <vector>

#include "dsm/shared_space.hpp"
#include "harness/run_config.hpp"
#include "rt/vm.hpp"
#include "solver/linear_system.hpp"

namespace nscc::solver {

/// Shared-location id of processor `owner`'s row block.  Public so the
/// harness tolerance contract audits the same locations the blocks share.
[[nodiscard]] inline dsm::LocationId block_loc(int owner) noexcept {
  return 700 + owner;
}

struct JacobiConfig {
  double tolerance = 1e-8;      ///< Converged when ||b - Ax||_inf <= tol.
  int max_sweeps = 20000;
  int check_interval = 10;      ///< Residual checks every this many sweeps.
  /// Virtual cost per nonzero processed (77 MHz-class node).
  sim::Time cost_per_nonzero = 2 * sim::kMicrosecond;
  /// Per-sweep fixed overhead per row block.
  sim::Time sweep_overhead = 200 * sim::kMicrosecond;
  std::uint64_t seed = 1;
};

struct JacobiResult {
  bool converged = false;
  int sweeps = 0;
  double residual = 0.0;
  double error_inf = 0.0;  ///< ||x - x_true||_inf when x_true is known.
  sim::Time completion_time = 0;
  std::vector<double> x;
};

/// Sequential Jacobi with virtual-time accounting.
JacobiResult run_sequential_jacobi(const LinearSystem& sys,
                                   const JacobiConfig& config);

/// Mode, age, seed, and the propagation policy live in the embedded
/// harness::RunConfig (the solver honours the policy's coalesce and
/// read_timeout fields); JacobiConfig::seed is shadowed by the RunConfig one
/// so there is a single seed.
struct ParallelJacobiConfig : JacobiConfig, harness::RunConfig {
  using harness::RunConfig::seed;
  int processors = 4;
  /// OS-load model, as in the other applications.
  double node_speed_spread = 0.15;
  double per_sweep_jitter = 0.10;
};

/// The machine counters live in the embedded harness::MachineStats;
/// JacobiResult::completion_time is shadowed by the MachineStats one so
/// there is a single completion time.
struct ParallelJacobiResult : JacobiResult, harness::MachineStats {
  using harness::MachineStats::completion_time;
};

/// Row-block parallel Jacobi on a fresh simulated machine.
ParallelJacobiResult run_parallel_jacobi(const LinearSystem& sys,
                                         const ParallelJacobiConfig& config,
                                         rt::MachineConfig machine);

}  // namespace nscc::solver
