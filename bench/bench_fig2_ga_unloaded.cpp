// Regenerates Figure 2: speedups of the synchronous, fully asynchronous, and
// Global_Read (age 0/5/10/20/30) island-GA implementations over the cached
// serial GA, on the unloaded 10 Mbps shared Ethernet, for 2..16 processors.
// Prints the paper's three panels: the best case (function 1), the
// eight-function average (ratio of summed serial to summed parallel times),
// and the "best partially asynchronous over best competitor" bar.
//
// Defaults are reduced for a quick run; --paper-scale restores the paper's
// 1000-generation, 25-repetition protocol (expect a long run).
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/speedup.hpp"
#include "harness/sweep.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("generations", 200, "sync/serial generation budget (paper: 1000)")
      .add_int("reps", 2, "repetitions (paper: 25)")
      .add_int("functions", 8, "use test functions 1..N")
      .add_string("procs", "2,4,8,16", "comma-separated processor counts")
      .add_int("seed", 1, "base seed")
      .add_bool("paper-scale", false, "paper protocol: 1000 gens, 25 reps")
      .add_bool("csv", false, "also emit CSV");
  nscc::harness::Sweep sweep("fig2_ga_unloaded");
  nscc::harness::Sweep::add_flags(flags);
  if (!flags.parse(argc, argv)) return 1;
  sweep.configure(flags);

  int generations = static_cast<int>(flags.get_int("generations"));
  int reps = static_cast<int>(flags.get_int("reps"));
  if (flags.get_bool("paper-scale")) {
    generations = 1000;
    reps = 25;
  }
  const int nfuncs = static_cast<int>(flags.get_int("functions"));

  try {
    std::vector<int> procs;
    try {
      procs = nscc::util::parse_int_csv(flags.get_string("procs"));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("--procs: ") + e.what());
    }

    for (int P : procs) {
      std::vector<nscc::harness::SpeedupCell> cells;
      for (int f = 1; f <= nfuncs; ++f) {
        nscc::harness::GaCellConfig cfg;
        cfg.function_id = f;
        cfg.processors = P;
        cfg.generations = generations;
        cfg.reps = reps;
        cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
        cells.push_back(nscc::harness::run_ga_cell(cfg));
        for (const auto& v : cells.back().variants) {
          sweep.add(nscc::harness::sweep_record(
              v, "ga.island", cfg.seed,
              {{"processors", static_cast<double>(P)},
               {"function", static_cast<double>(f)},
               {"generations", static_cast<double>(generations)},
               {"reps", static_cast<double>(reps)}}));
        }
      }
      const auto avg = nscc::harness::average_cells(cells);

      nscc::util::Table table("Figure 2 - GA speedups, unloaded network, P=" +
                              std::to_string(P));
      table.columns(nscc::harness::chart_columns({"series"}, avg));
      nscc::harness::chart_cells(table.row().cell("f1 (best case)"),
                                 cells.front().variants);
      nscc::harness::chart_cells(
          table.row().cell("average (" + std::to_string(nfuncs) + " fns)"),
          avg);
      table.print(std::cout);

      nscc::util::Table diag("diagnostics (f1): generations to match sync "
                             "quality, bus utilization, warp");
      diag.columns({"variant", "gens", "quality ok", "bus util", "warp"});
      for (const auto& v : cells.front().variants) {
        if (v.variant.name == "serial") continue;
        diag.row()
            .cell(v.variant.tag())
            .cell(v.mean("mean_generations"), 0)
            .cell(v.mean("quality_ok_fraction"), 2)
            .cell(v.mean("bus_utilization"), 2)
            .cell(v.mean("mean_warp"), 2);
      }
      diag.print(std::cout);
      std::cout << '\n';
      if (flags.get_bool("csv")) std::cout << table.to_csv() << '\n';
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_fig2_ga_unloaded: " << e.what() << '\n';
    return 1;
  }
  return sweep.write() ? 0 : 1;
}
