// Extension: the consistency-model matrix (model x age x network).
//
// The paper picks one point in the consistency design space — per-read
// bounded staleness (non-strict coherence) — and shows it beats lockstep
// synchronisation on emerging applications.  With the model layer pluggable
// (dsm::ConsistencyModel), that design point becomes one row of a matrix:
// this bench runs the distributed Jacobi solver (the application class the
// paper's Section 1 opens with, and the workload whose operand freshness
// the models most visibly reshape) under every registered model, across
// sync and two staleness budgets, on both interconnects, and reports what
// each model's semantics cost at the read gate and in solution quality.
//
// The expected shape:
//
//   * nonstrict is the reference: bounded-staleness variants beat sync on
//     the shared medium (the paper's central claim) at a small residual
//     cost per extra sweep.
//   * regional admits a read only when EVERY operand block the task reads
//     satisfies the bound, so its blocking is at least nonstrict's; the
//     sync column (age 0 degenerates to the per-read rule) is identical.
//   * release-acquire matches nonstrict's admission but defers visibility
//     to acquire points; a blocked Global_Read is itself an acquire, so
//     completion stays close while the message/residual trajectory shifts
//     slightly (values publish in acquire-batches, not on arrival).
//   * eventual never blocks past first validity: gr blocks collapse to ~0
//     and the solver free-runs on stale operands — more sweeps, later
//     convergence, the failure mode the paper's bounded modes avoid.
//
// Each cell lands in the nscc-bench-v5 JSON (--json-out) tagged with its
// model, so nscc-bench-compare gates the default-model cells against the
// checked-in baselines while the non-default rows grow their own history.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "dsm/consistency.hpp"
#include "harness/run_config.hpp"
#include "harness/sweep.hpp"
#include "solver/jacobi.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using nscc::solver::ParallelJacobiResult;

ParallelJacobiResult run(const nscc::solver::LinearSystem& sys,
                         const std::string& model,
                         const nscc::harness::VariantSpec& variant,
                         nscc::rt::Network network, int processors,
                         double tolerance, std::uint64_t seed) {
  nscc::solver::ParallelJacobiConfig cfg;
  // The harness's mode-derived wiring; a model's shape() may override.
  variant.apply(cfg);
  cfg.processors = processors;
  cfg.tolerance = tolerance;
  cfg.check_interval = 25;
  cfg.seed = seed;
  cfg.propagation.consistency = model;

  nscc::rt::MachineConfig machine;
  machine.network = network;

  return nscc::solver::run_parallel_jacobi(sys, cfg, machine);
}

}  // namespace

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("grid", 16, "Poisson grid side")
      .add_int("processors", 8, "simulated nodes")
      .add_double("tolerance", 1e-7, "residual tolerance")
      .add_int("seed", 5, "random seed")
      .add_bool("csv", false, "also emit CSV");
  nscc::harness::Sweep sweep("ext_consistency");
  nscc::harness::Sweep::add_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  sweep.configure(flags);
  const int processors = static_cast<int>(flags.get_int("processors"));
  const double tolerance = flags.get_double("tolerance");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  const auto sys = nscc::solver::make_poisson_2d(
      static_cast<int>(flags.get_int("grid")), seed);

  const auto models = nscc::dsm::ConsistencyRegistry::instance().names();
  const std::vector<long> ages = {0, 5, 20};
  const std::vector<std::pair<std::string, nscc::rt::Network>> networks = {
      {"ethernet", nscc::rt::Network::kEthernet},
      {"sp2", nscc::rt::Network::kSp2Switch}};

  nscc::util::Table table(
      "Extension - consistency-model matrix (Jacobi, model x age x network, "
      "P=" + std::to_string(processors) + ")");
  table.columns({"network", "model", "variant", "completion s", "residual",
                 "sweeps", "converged", "messages", "gr blocks",
                 "block time s", "parked", "flushed", "ooo"});
  for (const auto& [net_name, network] : networks) {
    for (const auto& model : models) {
      for (long age : ages) {
        const auto variant = age == 0
                                 ? nscc::harness::make_variant("sync", 0)
                                 : nscc::harness::make_variant("partial", age);
        const ParallelJacobiResult cell =
            run(sys, model, variant, network, processors, tolerance, seed);
        char residual[32];
        std::snprintf(residual, sizeof residual, "%.3e", cell.residual);
        table.row()
            .cell(net_name)
            .cell(model)
            .cell(variant.tag() + (cell.deadlocked ? " (DEADLOCK)" : ""))
            .cell(nscc::sim::to_seconds(cell.completion_time), 2)
            .cell(residual)
            .cell(cell.sweeps)
            .cell(cell.converged ? "yes" : "NO")
            .cell(cell.messages_sent)
            .cell(cell.global_read_blocks)
            .cell(nscc::sim::to_seconds(cell.global_read_block_time), 2)
            .cell(cell.updates_parked)
            .cell(cell.updates_flushed)
            .cell(cell.ooo_updates);
        nscc::harness::SweepRecord rec;
        rec.workload = "solver.jacobi";
        rec.variant = variant.name;
        rec.consistency = model;
        rec.age = variant.age;
        rec.seed = seed;
        rec.repeat = 0;
        rec.params = {{"grid",
                       static_cast<double>(flags.get_int("grid"))},
                      {"processors", static_cast<double>(processors)},
                      {"sp2", network == nscc::rt::Network::kSp2Switch
                                  ? 1.0
                                  : 0.0}};
        rec.stats = {
            {"completion_s", nscc::sim::to_seconds(cell.completion_time)},
            {"residual", cell.residual},
            {"sweeps", static_cast<double>(cell.sweeps)},
            {"converged", cell.converged ? 1.0 : 0.0},
            {"messages", static_cast<double>(cell.messages_sent)},
            {"gr_blocks", static_cast<double>(cell.global_read_blocks)},
            {"block_time_s",
             nscc::sim::to_seconds(cell.global_read_block_time)},
            {"updates_parked", static_cast<double>(cell.updates_parked)},
            {"updates_flushed", static_cast<double>(cell.updates_flushed)},
            {"ooo_updates", static_cast<double>(cell.ooo_updates)},
            {"deadlocked", cell.deadlocked ? 1.0 : 0.0}};
        sweep.add(std::move(rec));
      }
    }
  }
  table.print(std::cout);
  if (flags.get_bool("csv")) std::cout << '\n' << table.to_csv();
  if (!sweep.write()) return 1;
  return 0;
}
