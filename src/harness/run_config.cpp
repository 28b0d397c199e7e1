#include "harness/run_config.hpp"

#include <stdexcept>

#include "util/flags.hpp"

namespace nscc::harness {

MachineStats collect(const rt::VirtualMachine& vm,
                     std::span<const dsm::DsmStats> dsm,
                     const recovery::Coordinator* coord) {
  MachineStats stats;
  stats.deadlocked = vm.deadlocked();
  stats.bus_utilization = vm.network_utilization();
  for (int t = 0; t < vm.size(); ++t) {
    stats.messages_sent += vm.task(t).stats().messages_sent;
    stats.bytes_sent += vm.task(t).stats().bytes_sent;
  }
  stats.frames_lost = vm.bus().stats().frames_lost;
  if (vm.config().network == rt::Network::kSp2Switch) {
    stats.frames_lost += vm.sp2_switch().stats().frames_lost;
  }
  stats.retransmissions = vm.transport_stats().retransmissions;
  if (const fault::FaultInjector* faults = vm.fault_injector()) {
    stats.partition_drops =
        faults->stats().partition_drops + faults->stats().blackhole_drops;
  }
  if (const sanitize::Sanitizer* sanitizer = vm.sanitizer()) {
    stats.sanitize_violations = sanitizer->stats().total_violations();
  }
  if (coord != nullptr) stats.recovery = coord->stats();
  // Every SharedSpace feeds the machine-wide histogram at the source, so
  // its mean IS the run mean.
  if (const obs::Histogram* staleness =
          vm.obs().registry().find_histogram("dsm.staleness")) {
    stats.mean_staleness = staleness->mean();
  }
  for (const dsm::DsmStats& d : dsm) {
    stats.global_read_blocks += d.global_read_blocks;
    stats.global_read_block_time += d.global_read_block_time;
    stats.read_escalations += d.read_escalations;
    stats.degraded_reads += d.degraded_reads;
    stats.integrity_dropped += d.integrity_dropped;
    stats.partition_stale_served += d.partition_stale_served;
    stats.heal_frames += d.heal_frames;
    stats.diverged_locations += d.diverged_marks;
    stats.reconciled_locations += d.reconciled_marks;
    stats.updates_parked += d.updates_parked;
    stats.updates_flushed += d.updates_flushed;
    stats.ooo_updates += d.ooo_updates;
  }
  return stats;
}

std::vector<std::pair<std::string, double>> RunStats::to_fields() const {
  std::vector<std::pair<std::string, double>> fields = {
      {"completion_s", sim::to_seconds(completion_time)},
      {"deadlocked", deadlocked ? 1.0 : 0.0},
      {"messages_sent", static_cast<double>(messages_sent)},
      {"bytes_sent", static_cast<double>(bytes_sent)},
      {"global_read_blocks", static_cast<double>(global_read_blocks)},
      {"global_read_block_s", sim::to_seconds(global_read_block_time)},
      {"bus_utilization", bus_utilization},
      {"mean_staleness", mean_staleness},
      {"mean_warp", mean_warp},
      {"frames_lost", static_cast<double>(frames_lost)},
      {"retransmissions", static_cast<double>(retransmissions)},
      {"read_escalations", static_cast<double>(read_escalations)},
      {"integrity_dropped", static_cast<double>(integrity_dropped)},
      {"sanitize_violations", static_cast<double>(sanitize_violations)},
      {"crashes", static_cast<double>(recovery.crashes)},
      {"checkpoints_taken", static_cast<double>(recovery.checkpoints_taken)},
      {"restores", static_cast<double>(restores())},
      {"rejoins", static_cast<double>(recovery.rejoins)},
      {"degraded_reads", static_cast<double>(degraded_reads)},
      {"detection_latency_s", sim::to_seconds(recovery.detection_latency)},
      {"recovery_latency_s", sim::to_seconds(recovery.recovery_latency)},
      {"lost_iterations", static_cast<double>(recovery.lost_iterations)},
      {"partition_drops", static_cast<double>(partition_drops)},
      {"partition_stale_served", static_cast<double>(partition_stale_served)},
      {"heal_frames", static_cast<double>(heal_frames)},
      {"diverged_locations", static_cast<double>(diverged_locations)},
      {"reconciled_locations", static_cast<double>(reconciled_locations)},
      {"split_brain_declarations",
       static_cast<double>(recovery.split_brain_declarations)},
      {"updates_parked", static_cast<double>(updates_parked)},
      {"updates_flushed", static_cast<double>(updates_flushed)},
      {"ooo_updates", static_cast<double>(ooo_updates)},
      {quality_name, quality},
  };
  fields.insert(fields.end(), extra.begin(), extra.end());
  return fields;
}

std::string VariantSpec::label() const {
  if (name == "sync") return "synchronous";
  if (name == "async") return "asynchronous";
  if (name == "partial") return "Global_Read(" + std::to_string(age) + ")";
  return name;
}

std::string VariantSpec::tag() const {
  if (name == "partial") return "age" + std::to_string(age);
  return name;
}

void VariantSpec::apply(RunConfig& run) const {
  run.mode = mode;
  run.age = age;
  run.propagation.coalesce = mode == dsm::Mode::kPartialAsync;
}

const std::vector<std::string>& variant_names() {
  static const std::vector<std::string> names = {"sync", "async", "partial"};
  return names;
}

VariantSpec make_variant(const std::string& name, dsm::Iteration partial_age) {
  if (name == "sync") return {name, dsm::Mode::kSynchronous, 0};
  if (name == "async") return {name, dsm::Mode::kAsynchronous, 0};
  if (name == "partial") {
    return {name, dsm::Mode::kPartialAsync, partial_age};
  }
  throw std::invalid_argument("unknown variant: " + name);
}

std::vector<VariantSpec> parse_variants(const std::string& csv,
                                        dsm::Iteration partial_age) {
  std::vector<VariantSpec> specs;
  for (const auto& name : util::split_csv(csv)) {
    specs.push_back(make_variant(name, partial_age));
  }
  return specs;
}

}  // namespace nscc::harness
