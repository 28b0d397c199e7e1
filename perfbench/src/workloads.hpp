// The benchmark's three workloads.  Each is a closed loop of cells; a cell
// is one harness::Workload::run(RunConfig, MachineConfig) call on the
// public workload classes.  A workload cycles through kDistinctCells
// distinct cells, each with its own instance seed derived from --seed and
// the workload's variants taken in turn, so a run of any length repeats the
// same cells and every repeat must reproduce its first run's virtual
// outputs exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/run_config.hpp"
#include "harness/workload.hpp"
#include "rt/vm.hpp"

namespace perfbench {

/// The seed whose cells are pinned by the checked-in golden tables.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Distinct cells per cycle.  Each takes an equal share of the cell-time
/// distribution; with 15 shares the median and the 90th percentile fall in
/// the middle of one cell's share (the 8th and the 14th), never on the
/// border between two cells, where they would jump between the two.
inline constexpr int kDistinctCells = 15;

/// A RunStats field the benchmark does not publish because the workload
/// never fills it (a silent zero), with the reason.
struct NaField {
  std::string field;
  std::string reason;
};

/// One distinct cell of a workload's cycle.
struct CellKey {
  int key = 0;             ///< Position in the cycle, [0, kDistinctCells).
  std::uint64_t seed = 0;  ///< RunConfig::seed (instance and simulator).
  std::string label;       ///< "variant/instance", e.g. "partial10/r2".
};

/// Everything harness::Workload::run takes for one cell.
struct CellPlan {
  nscc::harness::RunConfig run;
  nscc::rt::MachineConfig machine;
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  /// Benchmark workload name (ga_island, jacobi_cells, nn_lossy_strict).
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual nscc::harness::Workload& workload() = 0;

  /// The cell at position `index` of the closed loop seeded by `run_seed`.
  [[nodiscard]] CellKey key(std::uint64_t run_seed, int index) const;

  /// The RunConfig, MachineConfig and tolerance spec of one cell.
  [[nodiscard]] virtual CellPlan configure(const CellKey& key) const = 0;
  /// Problem-instance generation for one instance seed.
  virtual void generate_instance(std::uint64_t seed) = 0;
  /// The workload's sequential reference: app compute, no simulator.
  virtual void sequential_reference(std::uint64_t seed) = 0;
  /// Workload-specific output check; empty when the outputs are fine.
  [[nodiscard]] virtual std::string check(
      const nscc::harness::RunStats& stats) const;
  /// RunStats fields this workload leaves at a silent zero.
  [[nodiscard]] virtual std::vector<NaField> na_fields() const { return {}; }
  /// Runs audited under sanitize=strict.
  [[nodiscard]] virtual bool strict() const { return false; }
  /// Untimed warm-up cells in set-up: the default seed's first cells.
  [[nodiscard]] virtual int warmup_cells() const { return 1; }

  /// Simulated tasks per cell, and the payload of its typical DSM update:
  /// the layer probes are sized to these.
  [[nodiscard]] virtual int tasks() const = 0;
  [[nodiscard]] virtual std::uint32_t payload_bytes() const = 0;

 protected:
  [[nodiscard]] virtual int variants() const = 0;
  [[nodiscard]] virtual std::string variant_label(int variant) const = 0;
  /// The variant a cell runs: variants are taken in turn along the cycle.
  [[nodiscard]] int variant_of(const CellKey& key) const {
    return key.key % variants();
  }

  /// Accumulates a value from each instance and reference result, so the
  /// timed work has an observable effect and is not optimised away.
  double sink_ = 0.0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<BenchWorkload> make_workload(
    const std::string& name);

}  // namespace perfbench
