// Warp measurements (paper Section 4.3): warp at a node with respect to a
// peer is the ratio of consecutive message inter-arrival to inter-send
// times, measured above the runtime for all messages.  On a stable network
// warp ~= 1; values much greater than 1 indicate rising load.  This harness
// drives a fixed-rate probe pair while a loader ramps the shared 10 Mbps
// Ethernet through increasing offered loads (including overload), and also
// reports the warp seen by the GA benchmarks under Figure 4's load levels.
#include <iostream>
#include <memory>

#include "fault/fault.hpp"
#include "harness/speedup.hpp"
#include "net/load_generator.hpp"
#include "obs/obs.hpp"
#include "rt/vm.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

/// Mean warp of a probe stream (one sender, one receiver, fixed period)
/// under `offered_mbps` of background load ramping up during the run.
double probe_warp(double offered_mbps, bool ramp,
                  const nscc::obs::Options& obs_options,
                  const nscc::fault::FaultPlan& fault_plan) {
  nscc::rt::MachineConfig cfg;
  cfg.ntasks = 2;
  cfg.obs = obs_options;
  cfg.fault = fault_plan;
  cfg.transport.enabled = !fault_plan.empty();
  nscc::rt::VirtualMachine vm(cfg);
  constexpr int kMessages = 400;
  vm.add_task("probe-recv", [](nscc::rt::Task& t) {
    for (int i = 0; i < kMessages; ++i) (void)t.recv(1);
  });
  vm.add_task("probe-send", [](nscc::rt::Task& t) {
    for (int i = 0; i < kMessages; ++i) {
      t.compute(10 * nscc::sim::kMillisecond);
      nscc::rt::Packet p;
      p.pack_double_vec(std::vector<double>(32, 0.0));
      t.send(0, 1, std::move(p));
    }
  });
  nscc::net::LoadGeneratorConfig lg;
  lg.offered_bps = offered_mbps * 1e6;
  lg.seed = 7;
  nscc::net::LoadGenerator base_load(vm.engine(), vm.bus(), lg);
  // Optional second loader that switches on mid-run: warp spikes while the
  // load *changes* (warp measures the rate of change of network load).
  nscc::net::LoadGeneratorConfig lg2;
  lg2.offered_bps = 9e6;  // Total exceeds the 10 Mbps capacity: load is *rising*.
  lg2.seed = 8;
  std::unique_ptr<nscc::net::LoadGenerator> ramp_load;
  if (ramp) {
    vm.engine().schedule(2 * nscc::sim::kSecond, [&vm, lg2, &ramp_load] {
      ramp_load =
          std::make_unique<nscc::net::LoadGenerator>(vm.engine(), vm.bus(), lg2);
    });
  }
  vm.run();
  base_load.stop();
  if (ramp_load) ramp_load->stop();
  return vm.warp_meter().overall().mean();
}

}  // namespace

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("generations", 120, "GA generations for the workload rows")
      .add_int("seed", 1, "base seed")
      .add_bool("csv", false, "also emit CSV");
  nscc::obs::add_flags(flags);
  nscc::fault::add_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  // Each probe run overwrites the outputs; the ramp run (the one where warp
  // actually spikes) is traced last and wins.
  const nscc::obs::Options obs_options = nscc::obs::options_from_flags(flags);
  const nscc::fault::FaultPlan fault_plan = nscc::fault::plan_from_flags(flags);

  nscc::util::Table probe("Warp of a fixed-rate probe stream vs offered load");
  probe.columns({"background load", "mean warp", "interpretation"});
  for (double mbps : {0.0, 2.0, 5.0, 8.0}) {
    const double w = probe_warp(mbps, false, obs_options, fault_plan);
    probe.row()
        .cell(nscc::util::format_double(mbps, 1) + " Mbps steady")
        .cell(w, 3)
        .cell(w < 1.1 ? "stable" : "loaded");
  }
  {
    const double w = probe_warp(2.0, true, obs_options, fault_plan);
    probe.row()
        .cell("2 -> 11 Mbps ramp")
        .cell(w, 3)
        .cell(w > 1.05 ? "rising load (warp >> 1)" : "stable");
  }
  probe.print(std::cout);

  nscc::util::Table ga("Warp observed by the island GA (P=16)");
  ga.columns({"load", "sync warp", "async warp", "age10 warp"});
  for (double load : {0.0, 1.0, 2.0}) {
    nscc::harness::GaCellConfig cfg;
    cfg.function_id = 1;
    cfg.processors = 16;
    cfg.generations = static_cast<int>(flags.get_int("generations"));
    cfg.reps = 1;
    cfg.ages = {10};
    cfg.loader_mbps = load;
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    const auto cell = nscc::harness::run_ga_cell(cfg);
    ga.row()
        .cell(nscc::util::format_double(load, 1) + " Mbps")
        .cell(cell.variant("sync").mean("mean_warp"), 3)
        .cell(cell.variant("async").mean("mean_warp"), 3)
        .cell(cell.variant("partial", 10).mean("mean_warp"), 3);
  }
  std::cout << '\n';
  ga.print(std::cout);
  if (flags.get_bool("csv")) std::cout << '\n' << probe.to_csv();
  return 0;
}
