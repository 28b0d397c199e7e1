// The paper's speedup protocol (Section 5.1.1), written once for the GA
// (Figures 2 and 4) and the belief-network sampler (Figure 3).  Every rep
// runs the serial program and the sync, async and Global_Read(age)
// programs on one seed; a variant's speedup is serial time over its own,
// averaged over differently-seeded reps.  Both protocols build their
// configs through the workload adapters, so a cell runs the same program
// the drivers run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bayes/generators.hpp"
#include "harness/run_config.hpp"
#include "harness/sweep.hpp"
#include "rt/vm.hpp"

namespace nscc::util {
class Table;
}  // namespace nscc::util

namespace nscc::harness {

/// The single-node baseline every speedup divides.
[[nodiscard]] VariantSpec serial_variant();

/// One variant of a cell, summarised over its reps.
struct VariantSummary {
  VariantSpec variant;
  double speedup = 0.0;      ///< Mean over reps of serial/variant time.
  double mean_time_s = 0.0;  ///< Mean completion (virtual seconds).
  double sum_time_s = 0.0;   ///< Summed over reps (for average_cells).
  /// Per-rep means of the protocol's own metrics, in protocol order.
  std::vector<std::pair<std::string, double>> means;

  /// The named mean; throws std::out_of_range when there is none.
  [[nodiscard]] double mean(std::string_view name) const;
};

/// One cell of a speedup chart: serial first, then sync, async and one
/// partial variant per age.
struct SpeedupCell {
  std::string label;  ///< "f<id>" for the GA, the network name for Bayes.
  std::vector<VariantSummary> variants;

  /// The variant with this name (and age, for "partial"); throws
  /// std::out_of_range when the cell has none.
  [[nodiscard]] const VariantSummary& variant(std::string_view name,
                                              dsm::Iteration age = 0) const;
};

/// The paper's cross-benchmark average: per variant, summed serial time
/// over summed variant time; named means are averaged over cells.  Cells
/// must share one variant list.  Throws std::invalid_argument when empty.
[[nodiscard]] std::vector<VariantSummary> average_cells(
    const std::vector<SpeedupCell>& cells);

/// The paper's white bar: the best Global_Read speedup over the best of
/// serial (1.0), sync and async; > 1 means a partial program wins.
[[nodiscard]] double best_partial_over_best_competitor(
    const std::vector<VariantSummary>& variants);

/// A chart header: `leading`, each parallel variant's tag, "best/bestcomp".
[[nodiscard]] std::vector<std::string> chart_columns(
    std::vector<std::string> leading,
    const std::vector<VariantSummary>& variants);

/// Finish `table`'s current row: each parallel variant's speedup, then the
/// white bar.
void chart_cells(util::Table& table,
                 const std::vector<VariantSummary>& variants);

/// The variant as an aggregated sweep record (repeat = -1) with stats
/// speedup, mean_time_s and the named means.
[[nodiscard]] SweepRecord sweep_record(
    const VariantSummary& v, std::string workload, std::uint64_t seed,
    std::vector<std::pair<std::string, double>> params);

struct GaCellConfig {
  int function_id = 1;
  int processors = 4;
  int generations = 300;  ///< Sync/serial budget (paper: 1000).
  int reps = 3;           ///< Paper: 25.
  std::vector<dsm::Iteration> ages = {0, 5, 10, 20, 30};
  double loader_mbps = 0.0;  ///< Background load (Figure 4).
  std::uint64_t seed = 1;
  rt::MachineConfig machine;
};

/// One (function, processors) cell of Figures 2 and 4.  Serial and sync
/// run `generations`; the sync run's final average fitness is the target.
/// Async and partial runs must converge further ("convergence beyond the
/// required point was ensured for every trial"): while the final average
/// misses the target plus a 2% slack, the budget grows 1.5x, up to 3x.
/// Named means: final_best, mean_generations, quality_ok_fraction,
/// bus_utilization, mean_warp.  Throws std::invalid_argument for reps < 1,
/// processors < 1 or an unknown function.
[[nodiscard]] SpeedupCell run_ga_cell(const GaCellConfig& config);

struct BayesCellConfig {
  int processors = 2;  ///< The paper's networks are too small for more.
  int reps = 3;        ///< Paper: 10.
  std::vector<dsm::Iteration> ages = {0, 5, 10, 20, 30};
  int queries_per_net = 3;
  std::uint64_t seed = 1;
};

/// One network's cell of Figure 3.  Every parallel variant samples 1.3x
/// the serial sampler's sample count, so the CI is met with margin even
/// under the speculative modes' validation lag.  Named means:
/// converged_fraction, rollbacks, nodes_resampled, mean_warp.  Throws
/// std::invalid_argument for reps < 1 or processors < 1.
[[nodiscard]] SpeedupCell run_bayes_cell(const bayes::NamedNetwork& network,
                                         const BayesCellConfig& config);

}  // namespace nscc::harness
