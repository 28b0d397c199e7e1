// The unified per-run contract every workload shares (paper Section 5: the
// core experiment is always "run one workload under synchronous / fully
// asynchronous / Global_Read(age) and compare").
//
// RunConfig carries the fields that used to be duplicated across the four
// workload configs — consistency mode, staleness bound, seed, propagation
// policy (coalescing + starvation watchdog), and background load — so a new
// cross-cutting knob lands here once instead of in every driver.  Workload
// configs *embed* it (by inheritance, so existing field accesses keep
// working).  The result side mirrors it: MachineStats holds every
// mechanism counter, collect() harvests them all from a finished machine,
// workload results inherit MachineStats, and RunStats — the unified result
// the shared driver and bench sweeps print and serialise — adds only the
// workload's quality metric.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dsm/shared_space.hpp"
#include "recovery/recovery.hpp"
#include "rt/vm.hpp"
#include "sim/time.hpp"

namespace nscc::harness {

/// Per-run knobs common to every workload.  Workload configs inherit this;
/// anything not listed here is workload-specific and registered through
/// Workload::register_params instead.
struct RunConfig {
  dsm::Mode mode = dsm::Mode::kSynchronous;
  dsm::Iteration age = 0;  ///< Staleness bound for kPartialAsync.
  std::uint64_t seed = 1;
  /// Update-propagation policy (coalescing, Global_Read watchdog).  Each
  /// workload honours the subset it historically honoured: the GA applies
  /// the whole policy, the solver coalescing + watchdog, the sampler and
  /// the trainer only the watchdog.
  dsm::PropagationPolicy propagation;
  /// Background-load payload bits per second on the interconnect (0 = none).
  double loader_offered_bps = 0.0;
  /// Crash-restart recovery (checkpointing, failure detection, rejoin).
  /// Policy::kNone leaves every run byte-identical to the pre-recovery
  /// harness; kDegraded/kRejoin attach a recovery::Coordinator to the VM.
  recovery::Config recovery;
};

/// Every mechanism counter the paper compares sync, async and
/// Global_Read(age) by, harvested from the simulated machine by collect().
/// Workload result structs inherit it (as their configs inherit RunConfig)
/// and add only their quality fields; RunStats slices it out of them.
struct MachineStats {
  sim::Time completion_time = 0;
  bool deadlocked = false;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t global_read_blocks = 0;
  sim::Time global_read_block_time = 0;
  double bus_utilization = 0.0;
  double mean_staleness = 0.0;
  double mean_warp = 0.0;
  /// Robustness counters (zero on a perfect network).
  std::uint64_t frames_lost = 0;       ///< Fault-injected wire losses.
  std::uint64_t retransmissions = 0;   ///< Reliable-transport resends.
  std::uint64_t read_escalations = 0;  ///< Global_Read watchdog demands.
  /// Data-integrity counters (zero unless corruption/sanitizing is on).
  std::uint64_t integrity_dropped = 0;    ///< Damaged DSM frames quarantined.
  std::uint64_t sanitize_violations = 0;  ///< Tolerance-contract violations.
  /// Crash-recovery counters (zero unless a recovery policy was active).
  recovery::Stats recovery;
  std::uint64_t degraded_reads = 0;  ///< Reads served stale past a dead peer.
  /// Partition counters (zero unless the fault plan scheduled
  /// partition/blackhole windows).
  std::uint64_t partition_drops = 0;        ///< Frames cut by the split.
  std::uint64_t partition_stale_served = 0; ///< Minority-side stale serves.
  std::uint64_t heal_frames = 0;            ///< Anti-entropy republishes.
  std::uint64_t diverged_locations = 0;     ///< Reader locations diverged.
  std::uint64_t reconciled_locations = 0;   ///< Diverged marks later healed.
  /// Consistency-model counters (zero under the default nonstrict model).
  std::uint64_t updates_parked = 0;   ///< Arrivals deferred to an acquire.
  std::uint64_t updates_flushed = 0;  ///< Parked updates applied at acquires.
  std::uint64_t ooo_updates = 0;      ///< Release stamps out of order.

  /// Restarts that resumed, from a checkpoint or cold (the "restores" field).
  [[nodiscard]] std::uint64_t restores() const noexcept {
    return recovery.restores + recovery.cold_restarts;
  }
};

/// Harvest every MachineStats counter from a finished run: per-task message
/// traffic, wire losses on the active interconnect, transport resends,
/// partition/blackhole drops, sanitizer violations, the coordinator's
/// recovery stats (`coord` may be null), the machine-wide staleness mean,
/// and the sum of `dsm` — one DsmStats per SharedSpace the run created.
/// completion_time and mean_warp stay 0 and deadlocked reflects only the
/// engine: the workload knows its own completion rule and deadlock horizon.
[[nodiscard]] MachineStats collect(const rt::VirtualMachine& vm,
                                   std::span<const dsm::DsmStats> dsm,
                                   const recovery::Coordinator* coord);

/// The unified result every workload reports: the machine counters, one
/// workload-defined quality metric, and a tail of named extras.
struct RunStats : MachineStats {
  /// The workload's own figure of merit (best fitness, posterior, residual,
  /// training loss, ...), labelled so tables and JSON stay self-describing.
  std::string quality_name = "quality";
  double quality = 0.0;
  /// Workload-specific diagnostics appended to JSON output.
  std::vector<std::pair<std::string, double>> extra;

  /// Flat name -> value view (times in seconds) for JSON serialisation.
  [[nodiscard]] std::vector<std::pair<std::string, double>> to_fields() const;
};

/// One (name, mode, age) point of the paper's three-way comparison.  The
/// canonical names — "sync", "async", "partial" — are what --variants
/// accepts; the speedup protocol adds "serial" for its single-node
/// baseline.
struct VariantSpec {
  std::string name;
  dsm::Mode mode = dsm::Mode::kSynchronous;
  dsm::Iteration age = 0;

  /// Human label for tables ("synchronous" / "asynchronous" /
  /// "Global_Read(age)").
  [[nodiscard]] std::string label() const;
  /// Compact column header: the name, or "ageN" for partial.
  [[nodiscard]] std::string tag() const;
  /// Run `run` as this variant: set its mode and age, and coalesce
  /// pending updates iff the variant is partial — staleness tolerance is
  /// what licenses coalescing (paper Sections 1-2); sync and the
  /// uncontrolled async program send directly.  The sampler and the
  /// trainer never coalesce, so the flag is inert for them.
  void apply(RunConfig& run) const;
};

/// The canonical variant names, in paper order.
[[nodiscard]] const std::vector<std::string>& variant_names();

/// Build a VariantSpec from a canonical name; `partial_age` is the bound
/// used when name == "partial".  Throws std::invalid_argument otherwise.
[[nodiscard]] VariantSpec make_variant(const std::string& name,
                                       dsm::Iteration partial_age);

/// Parse a validated --variants value ("sync,partial") into specs.
[[nodiscard]] std::vector<VariantSpec> parse_variants(
    const std::string& csv, dsm::Iteration partial_age);

}  // namespace nscc::harness
