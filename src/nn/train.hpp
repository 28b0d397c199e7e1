// Data-parallel neural-network training over the NSCC shared space — the
// "neural-network based approaches" the paper's Section 6 names as the next
// data-race tolerant application.
//
// Topology: one parameter-server task plus P worker tasks.  Workers pull
// the parameter vector through a shared location and push mini-batch
// gradients; the server applies gradients and republishes parameters.  The
// parameter location's iteration stamp is the last *globally completed
// round* (every worker's gradient up to that step applied), so
//
//   Global_Read(params, my_step - 1, age)
//
// bounds how far any worker can run ahead of the slowest contributor —
// bounded-staleness SGD, with the three styles:
//
//   * kSynchronous  — classic synchronous SGD: the server averages all P
//     step-t gradients before publishing params t; workers wait for them;
//   * kAsynchronous — uncontrolled stale-gradient SGD (Hogwild-flavoured):
//     workers use whatever parameters they have;
//   * kPartialAsync — staleness bounded by `age` rounds.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "dsm/shared_space.hpp"
#include "harness/run_config.hpp"
#include "nn/mlp.hpp"
#include "rt/vm.hpp"

namespace nscc::nn {

/// Shared-location id of the parameter vector.  Public so the harness
/// tolerance contract audits the same location the trainer shares.
inline constexpr dsm::LocationId kParamsLoc = 900;

/// Mode, age, seed, and the propagation policy live in the embedded
/// harness::RunConfig.  The trainer honours only the policy's read_timeout
/// (the Global_Read starvation watchdog); parameter/gradient publications
/// are never coalesced — the server needs every worker gradient.
struct TrainConfig : harness::RunConfig {
  int workers = 4;
  int steps = 300;          ///< Mini-batch steps per worker.
  int batch_size = 16;
  double learning_rate = 0.25;
  std::vector<int> layers = {2, 16, 16, 1};
  /// Loss is evaluated on the training set every this many server
  /// applications (charged to the server).
  int eval_every = 32;
  /// Virtual cost per multiply-accumulate (77 MHz-class node).
  sim::Time cost_per_mac = 40;  // ns
  double node_speed_spread = 0.15;
  double per_step_jitter = 0.10;
};

/// The machine counters live in the embedded harness::MachineStats, with
/// one override: mean_staleness is the step lag of the parameters each
/// worker trained on (step - 1 - stamp), not the DSM histogram mean.
struct TrainResult : harness::MachineStats {
  double final_loss = 0.0;
  double final_accuracy = 0.0;
  /// (virtual time, training loss) at each server evaluation.
  std::vector<std::pair<sim::Time, double>> loss_trajectory;

  /// First virtual time at which the training loss reached `target`;
  /// -1 when never.
  [[nodiscard]] sim::Time time_to_loss(double target) const;
};

TrainResult train_parallel(const Dataset& data, const TrainConfig& config,
                           rt::MachineConfig machine);

/// Single-node baseline with the same cost model (full-batch passes over
/// the same shard schedule).
TrainResult train_sequential(const Dataset& data, const TrainConfig& config);

}  // namespace nscc::nn
