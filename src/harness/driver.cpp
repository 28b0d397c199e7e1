#include "harness/driver.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "dsm/consistency.hpp"
#include "harness/report.hpp"
#include "harness/run_config.hpp"
#include "harness/workload.hpp"
#include "obs/obs.hpp"
#include "recovery/recovery.hpp"
#include "sanitize/sanitize.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace nscc::harness {

int drive(int argc, char** argv, const DriveOptions& options) {
  Workload* workload = Registry::global().find(options.workload);
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << options.workload << "'; registered:";
    for (const auto& name : Registry::global().names()) {
      std::cerr << ' ' << name;
    }
    std::cerr << '\n';
    return 2;
  }

  util::Flags flags;
  flags
      .add_enum_list("variants", options.default_variants, variant_names(),
                     "consistency variants to run")
      .add_int("age", options.default_age,
               "staleness bound for the partial (Global_Read) variant")
      .add_int("seed", 1, "random seed (also seeds the problem instance)")
      .add_enum("network",
                options.default_network == rt::Network::kSp2Switch
                    ? "sp2"
                    : "ethernet",
                {"ethernet", "sp2"},
                "interconnect: shared 10 Mbps Ethernet or SP2 switch")
      .add_enum("recovery", "none", {"none", "degraded", "rejoin"},
                "crash-recovery policy for stateful (--crash-at) windows")
      .add_double("checkpoint-interval", 0.5,
                  "virtual seconds between node checkpoints (0 disables)")
      .add_enum("consistency", "nonstrict",
                dsm::ConsistencyRegistry::instance().names(),
                "consistency model applied by every DSM instance: nonstrict "
                "(paper default), regional (region-scoped fences), "
                "release-acquire (updates visible only at acquires), or "
                "eventual (never block on staleness)")
      .add_enum("sanitize", "off", {"off", "track", "strict"},
                "staleness sanitizer: audit every DSM read against the "
                "workload's tolerance contract (strict exits nonzero on any "
                "violation)")
      .add_string("report-out", "",
                  "write an end-of-run JSON report (nscc-run-report-v1: "
                  "every row's completion/staleness/sanitizer/recovery "
                  "counters) here; empty disables")
      .add_double("quorum", 0.0,
                  "fraction of the cluster (self included) an observer must "
                  "hear before declaring a suspected peer dead; 0 disables "
                  "the split-brain gate")
      .add_bool("heal", true,
                "anti-entropy heal: writers republish their locations over "
                "the reliable channel when a partition/blackhole window ends")
      .add_int("heartbeat-interval-ms", 50,
               "failure-detector heartbeat period in virtual ms (> 0)")
      .add_int("suspect-timeout-ms", 0,
               "silence before suspecting a peer, in virtual ms (0 derives "
               "the phi-threshold default; otherwise must exceed the "
               "heartbeat interval)");
  obs::add_flags(flags);
  fault::add_flags(flags);
  workload->register_params(flags);
  for (const auto& [name, value] : options.flag_defaults) {
    if (!flags.set_default(name, value)) return 2;
  }
  if (!flags.parse(argc, argv)) return 1;

  workload->configure(flags);
  const obs::Options obs_options = obs::options_from_flags(flags);
  fault::FaultPlan flag_plan;
  try {
    flag_plan = fault::plan_from_flags(flags);
  } catch (const std::invalid_argument& e) {
    std::cerr << "harness: " << e.what() << '\n';
    return 1;
  }
  const double quorum = flags.get_double("quorum");
  if (quorum < 0.0 || quorum > 1.0) {
    std::cerr << "harness: --quorum must be in [0, 1], got " << quorum << '\n';
    return 1;
  }
  const std::int64_t heartbeat_ms = flags.get_int("heartbeat-interval-ms");
  if (heartbeat_ms <= 0) {
    std::cerr << "harness: --heartbeat-interval-ms must be > 0, got "
              << heartbeat_ms << '\n';
    return 1;
  }
  const std::int64_t suspect_ms = flags.get_int("suspect-timeout-ms");
  if (suspect_ms < 0) {
    std::cerr << "harness: --suspect-timeout-ms must be >= 0, got "
              << suspect_ms << '\n';
    return 1;
  }
  if (suspect_ms > 0 && suspect_ms <= heartbeat_ms) {
    std::cerr << "harness: --suspect-timeout-ms (" << suspect_ms
              << ") must exceed --heartbeat-interval-ms (" << heartbeat_ms
              << ") or the detector suspects peers between heartbeats\n";
    return 1;
  }
  const bool heal = flags.get_bool("heal");
  const sim::Time read_timeout = fault::read_timeout_from_flags(flags);
  const rt::Network network =
      flags.get_string("network") == "sp2" ? rt::Network::kSp2Switch
                                           : rt::Network::kEthernet;
  const auto variants =
      parse_variants(flags.get_string("variants"), flags.get_int("age"));
  const sanitize::Level sanitize_level =
      *sanitize::level_from_name(flags.get_string("sanitize"));

  std::vector<Scenario> scenarios =
      options.scenarios ? options.scenarios(flags)
                        : std::vector<Scenario>{Scenario{}};
  const bool scenario_column = !scenarios.empty() && !scenarios[0].label.empty();

  const std::string consistency = flags.get_string("consistency");

  RunConfig base;
  base.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  base.propagation.read_timeout = read_timeout;
  base.propagation.consistency = consistency;
  base.recovery.policy =
      *recovery::policy_from_name(flags.get_string("recovery"));
  base.recovery.checkpoint_interval = static_cast<sim::Time>(
      flags.get_double("checkpoint-interval") *
      static_cast<double>(sim::kSecond));
  base.recovery.quorum_fraction = quorum;
  base.recovery.heartbeat_interval =
      static_cast<sim::Time>(heartbeat_ms) * sim::kMillisecond;
  base.recovery.suspect_timeout =
      static_cast<sim::Time>(suspect_ms) * sim::kMillisecond;
  workload->print_reference(std::cout, base);

  struct Row {
    std::string scenario;
    std::string variant;
    RunStats stats;
  };
  std::vector<Row> rows;
  bool any_fault = !flag_plan.empty();
  bool any_partition = false;
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const Scenario& scenario = scenarios[si];
    const fault::FaultPlan& plan =
        scenario.has_fault ? scenario.fault : flag_plan;
    if (!plan.empty()) any_fault = true;
    if (plan.partitionable()) any_partition = true;
    for (const auto& v : variants) {
      RunConfig run = base;
      v.apply(run);
      // Anti-entropy heal only arms when the plan can actually split the
      // cluster, so partition-free runs stay byte-identical.
      run.propagation.partition_heal = heal && plan.partitionable();
      run.loader_offered_bps = scenario.loader_offered_bps;
      // Sanitizing turns on the end-to-end integrity layer too: audited
      // runs should also checksum what the wire delivered.
      run.propagation.integrity = sanitize_level != sanitize::Level::kOff;

      rt::MachineConfig machine;
      machine.network = network;
      machine.fault = plan;
      machine.transport.enabled = !plan.empty() || run.recovery.enabled();
      machine.sanitize.level = sanitize_level;
      machine.sanitize.spec = workload->tolerance_spec(run);
      // Observe only the Global_Read variant of the last scenario so
      // --trace-out / --metrics-out capture exactly one run (the one the
      // paper's mechanism is about).
      if (v.mode == dsm::Mode::kPartialAsync && si + 1 == scenarios.size()) {
        machine.obs = obs_options;
      }
      rows.push_back(
          {scenario.label, v.label(), workload->run(run, machine)});
    }
  }

  util::Table table(options.title.empty() ? workload->description()
                                          : options.title);
  std::vector<std::string> cols;
  if (scenario_column) cols.push_back(options.scenario_column);
  // A non-default consistency model earns its own column; the default keeps
  // the legacy table byte-identical.
  const bool model_column = consistency != "nonstrict";
  if (model_column) cols.push_back("model");
  cols.insert(cols.end(), {"variant", "completion s",
                           rows.empty() ? std::string("quality")
                                        : rows[0].stats.quality_name,
                           "messages", "gr blocks", "block time s",
                           "bus util"});
  if (any_fault) {
    cols.insert(cols.end(), {"frames lost", "retx", "escalations"});
  }
  if (any_partition) {
    cols.insert(cols.end(), {"part drops", "stale served", "heal frames",
                             "diverged", "reconciled", "split brains"});
  }
  const bool any_recovery = base.recovery.enabled();
  if (any_recovery) {
    cols.insert(cols.end(),
                {"crashes", "restores", "rejoins", "degraded reads"});
  }
  const bool any_sanitize = sanitize_level != sanitize::Level::kOff;
  if (any_sanitize) {
    cols.insert(cols.end(), {"quarantined", "violations"});
  }
  table.columns(cols);
  for (const auto& row : rows) {
    table.row();
    if (scenario_column) table.cell(row.scenario);
    if (model_column) table.cell(consistency);
    const RunStats& s = row.stats;
    // Small figures of merit (residuals, near-optimal fitness) need
    // scientific notation; everything else reads best fixed.
    char quality[32];
    if (s.quality != 0.0 && std::fabs(s.quality) < 1e-3) {
      std::snprintf(quality, sizeof quality, "%.3e", s.quality);
    } else {
      std::snprintf(quality, sizeof quality, "%.4f", s.quality);
    }
    table.cell(row.variant + (s.deadlocked ? " (DEADLOCK)" : ""))
        .cell(sim::to_seconds(s.completion_time), 2)
        .cell(quality)
        .cell(s.messages_sent)
        .cell(s.global_read_blocks)
        .cell(sim::to_seconds(s.global_read_block_time), 2)
        .cell(s.bus_utilization, 2);
    if (any_fault) {
      table.cell(s.frames_lost).cell(s.retransmissions).cell(
          s.read_escalations);
    }
    if (any_partition) {
      table.cell(s.partition_drops)
          .cell(s.partition_stale_served)
          .cell(s.heal_frames)
          .cell(s.diverged_locations)
          .cell(s.reconciled_locations)
          .cell(s.recovery.split_brain_declarations);
    }
    if (any_recovery) {
      table.cell(s.recovery.crashes).cell(s.restores()).cell(
          s.recovery.rejoins).cell(s.degraded_reads);
    }
    if (any_sanitize) {
      table.cell(s.integrity_dropped).cell(s.sanitize_violations);
    }
  }
  table.print(std::cout);
  if (!options.epilogue.empty()) std::cout << '\n' << options.epilogue << '\n';

  // Written before the deadlock/sanitize exit checks below on purpose: a
  // failing run's report is exactly the artifact CI wants to upload.
  if (const std::string report_path = flags.get_string("report-out");
      !report_path.empty()) {
    std::vector<ReportRow> report_rows;
    report_rows.reserve(rows.size());
    for (const auto& row : rows) {
      report_rows.push_back({row.scenario, row.variant, row.stats});
    }
    if (!write_run_report(report_path, options.workload, report_rows)) {
      return 2;
    }
  }

  // A deadlocked run is a wedged experiment, not a data point: fail loudly
  // so scripts and CI cannot mistake the table for a healthy result.
  for (const auto& row : rows) {
    if (row.stats.deadlocked) {
      std::cerr << "harness: deadlock — variant '" << row.variant
                << "' never completed (blocked processes reported above by "
                   "the simulator); rerun with --recovery=degraded or "
                   "--recovery=rejoin to survive crash faults\n";
      return 3;
    }
  }
  // Under --sanitize=strict the tolerance contract is an assertion, not a
  // diagnostic: any read outside the declared envelope fails the run.
  if (sanitize_level == sanitize::Level::kStrict) {
    std::uint64_t violations = 0;
    for (const auto& row : rows) violations += row.stats.sanitize_violations;
    if (violations > 0) {
      std::cerr << "harness: sanitize=strict — " << violations
                << " tolerance-contract violation(s) across " << rows.size()
                << " run(s); per-read detail reported above by each "
                   "machine's sanitizer\n";
      return 4;
    }
  }
  // A partitioned run split-brains when both sides declared each other dead
  // (mutual dead declarations — the quorum gate's job to prevent) or when
  // diverged locations were never reconciled (anti-entropy heal's job).
  // This is the demonstrable failure mode of --quorum=0 --heal=false; the
  // quorum-gated + healed configuration must never reach it.
  if (any_partition) {
    std::uint64_t diverged = 0;
    std::uint64_t reconciled = 0;
    std::uint64_t split_brains = 0;
    for (const auto& row : rows) {
      diverged += row.stats.diverged_locations;
      reconciled += row.stats.reconciled_locations;
      split_brains += row.stats.recovery.split_brain_declarations;
    }
    if (split_brains > 0 || diverged > reconciled) {
      std::cerr << "harness: split-brain — " << split_brains
                << " mutual dead declaration(s), " << (diverged - reconciled)
                << " diverged location(s) never reconciled; rerun with a "
                   "majority --quorum to gate dead declarations and --heal "
                   "to merge divergent histories\n";
      return 5;
    }
  }
  return 0;
}

}  // namespace nscc::harness
