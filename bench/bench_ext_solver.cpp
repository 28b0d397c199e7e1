// Extension experiment: the asynchronous iterative solver (the application
// class the paper's Section 1 opens with).  Sweeps the Global_Read age and
// the background load for a distributed Jacobi solve, exposing the paper's
// central tradeoff in its cleanest setting: larger ages admit staler
// operands (more sweeps to contract) but wait less and coalesce more.
#include <iostream>

#include "harness/run_config.hpp"
#include "solver/jacobi.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("grid", 20, "Poisson grid side")
      .add_int("processors", 8, "simulated nodes")
      .add_double("tolerance", 1e-7, "residual tolerance")
      .add_int("seed", 5, "random seed")
      .add_bool("csv", false, "also emit CSV");
  if (!flags.parse(argc, argv)) return 1;

  const auto sys = nscc::solver::make_poisson_2d(
      static_cast<int>(flags.get_int("grid")),
      static_cast<std::uint64_t>(flags.get_int("seed")));

  nscc::solver::JacobiConfig seq;
  seq.tolerance = flags.get_double("tolerance");
  const auto serial = nscc::solver::run_sequential_jacobi(sys, seq);

  nscc::util::Table table("Extension - parallel Jacobi, age x load sweep (P=" +
                          std::to_string(flags.get_int("processors")) + ")");
  table.columns({"load", "variant", "sweeps", "time s", "speedup",
                 "block time s", "converged"});

  for (double load_mbps : {0.0, 4.0}) {
    auto run = [&](const nscc::harness::VariantSpec& variant) {
      nscc::solver::ParallelJacobiConfig cfg;
      variant.apply(cfg);
      cfg.processors = static_cast<int>(flags.get_int("processors"));
      cfg.tolerance = flags.get_double("tolerance");
      cfg.check_interval = 25;
      cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
      cfg.loader_offered_bps = load_mbps * 1e6;
      const auto r = nscc::solver::run_parallel_jacobi(sys, cfg, {});
      table.row()
          .cell(nscc::util::format_double(load_mbps, 0) + " Mbps")
          .cell(variant.tag())
          .cell(static_cast<std::int64_t>(r.sweeps))
          .cell(nscc::sim::to_seconds(r.completion_time), 2)
          .cell(static_cast<double>(serial.completion_time) /
                    static_cast<double>(r.completion_time),
                2)
          .cell(nscc::sim::to_seconds(r.global_read_block_time), 2)
          .cell(r.converged ? "yes" : "NO");
    };
    run(nscc::harness::make_variant("sync", 0));
    for (long age : {0L, 2L, 5L, 10L, 20L, 40L}) {
      run(nscc::harness::make_variant("partial", age));
    }
    run(nscc::harness::make_variant("async", 0));
  }
  table.print(std::cout);
  if (flags.get_bool("csv")) std::cout << '\n' << table.to_csv();
  return 0;
}
