// Regenerates Figure 3: speedups of the parallel probabilistic-inference
// implementations (sync, async, Global_Read ages) over the sequential logic
// sampler, on a 2-node configuration with an unloaded network, for the four
// belief networks of Table 2, plus the cross-network average and the
// "best partial over best competitor" bar.
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bayes/generators.hpp"
#include "harness/speedup.hpp"
#include "harness/sweep.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("reps", 3, "repetitions (paper: 10)")
      .add_int("queries", 3, "query nodes per network")
      .add_int("seed", 21, "base seed")
      .add_bool("paper-scale", false, "paper protocol: 10 reps")
      .add_bool("csv", false, "also emit CSV");
  nscc::harness::Sweep sweep("fig3_bayes");
  nscc::harness::Sweep::add_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  sweep.configure(flags);

  nscc::harness::BayesCellConfig cfg;
  cfg.reps = flags.get_bool("paper-scale")
                 ? 10
                 : static_cast<int>(flags.get_int("reps"));
  cfg.queries_per_net = static_cast<int>(flags.get_int("queries"));
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  std::vector<nscc::harness::SpeedupCell> cells;
  std::vector<nscc::harness::VariantSummary> avg;
  try {
    for (const auto& net : nscc::bayes::table2_networks()) {
      cells.push_back(nscc::harness::run_bayes_cell(net, cfg));
      // The belief-network instance rides on the workload name after ':'.
      const std::size_t net_index = cells.size() - 1;
      for (const auto& v : cells.back().variants) {
        sweep.add(nscc::harness::sweep_record(
            v, "bayes.sampling:" + cells.back().label, cfg.seed,
            {{"processors", static_cast<double>(cfg.processors)},
             {"network_index", static_cast<double>(net_index)},
             {"queries", static_cast<double>(cfg.queries_per_net)},
             {"reps", static_cast<double>(cfg.reps)}}));
      }
    }
    avg = nscc::harness::average_cells(cells);
  } catch (const std::exception& e) {
    std::cerr << "bench_fig3_bayes: " << e.what() << '\n';
    return 1;
  }

  nscc::util::Table table(
      "Figure 3 - Bayesian network speedups, 2 processors, unloaded network");
  table.columns(nscc::harness::chart_columns({"network"}, avg));
  for (const auto& cell : cells) {
    nscc::harness::chart_cells(table.row().cell(cell.label), cell.variants);
  }
  nscc::harness::chart_cells(table.row().cell("average"), avg);
  table.print(std::cout);

  nscc::util::Table diag("Rollback diagnostics (mean per run)");
  diag.columns({"network", "async rollbacks", "async resampled",
                "age5 rollbacks", "age5 resampled", "age30 rollbacks",
                "age30 resampled"});
  for (const auto& cell : cells) {
    diag.row().cell(cell.label);
    for (const auto* v : {&cell.variant("async"), &cell.variant("partial", 5),
                          &cell.variant("partial", 30)}) {
      diag.cell(v->mean("rollbacks"), 0).cell(v->mean("nodes_resampled"), 0);
    }
  }
  std::cout << '\n';
  diag.print(std::cout);
  if (flags.get_bool("csv")) std::cout << '\n' << table.to_csv();
  return sweep.write() ? 0 : 1;
}
