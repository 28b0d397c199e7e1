// Regenerates Figure 4: GA speedups on the loaded network.  Four processors
// run the benchmarks while a network loader injects 0.5 / 1 / 2 Mbps of
// background traffic into the shared 10 Mbps Ethernet (the paper used two
// dedicated loader nodes).  Prints function 1 (best case) and the
// eight-function average per load level, plus the best-partial-over-best-
// competitor bar, which the paper shows growing with load.
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/speedup.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("generations", 200, "sync/serial generation budget (paper: 1000)")
      .add_int("reps", 2, "repetitions (paper: 25)")
      .add_int("functions", 8, "use test functions 1..N")
      .add_int("processors", 4, "GA processors (paper: 4 + 2 loader nodes)")
      .add_int("seed", 1, "base seed")
      .add_bool("paper-scale", false, "paper protocol: 1000 gens, 25 reps")
      .add_bool("csv", false, "also emit CSV");
  if (!flags.parse(argc, argv)) return 1;

  int generations = static_cast<int>(flags.get_int("generations"));
  int reps = static_cast<int>(flags.get_int("reps"));
  if (flags.get_bool("paper-scale")) {
    generations = 1000;
    reps = 25;
  }
  const int nfuncs = static_cast<int>(flags.get_int("functions"));

  const std::vector<double> loads_mbps = {0.0, 0.5, 1.0, 2.0};
  nscc::util::Table table("Figure 4 - GA speedups on the loaded network (P=" +
                          std::to_string(flags.get_int("processors")) + ")");
  try {
    for (double load : loads_mbps) {
      std::vector<nscc::harness::SpeedupCell> cells;
      for (int f = 1; f <= nfuncs; ++f) {
        nscc::harness::GaCellConfig cfg;
        cfg.function_id = f;
        cfg.processors = static_cast<int>(flags.get_int("processors"));
        cfg.generations = generations;
        cfg.reps = reps;
        cfg.loader_mbps = load;
        cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
        cells.push_back(nscc::harness::run_ga_cell(cfg));
      }
      const auto avg = nscc::harness::average_cells(cells);

      // Every load level runs the same variant list, so the header is
      // the same each time round.
      table.columns(nscc::harness::chart_columns({"load", "series"}, avg));
      const std::string load_label =
          nscc::util::format_double(load, 1) + " Mbps";
      nscc::harness::chart_cells(table.row().cell(load_label).cell("f1"),
                                 cells.front().variants);
      nscc::harness::chart_cells(table.row().cell(load_label).cell("average"),
                                 avg);
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_fig4_ga_loaded: " << e.what() << '\n';
    return 1;
  }
  table.print(std::cout);
  if (flags.get_bool("csv")) std::cout << '\n' << table.to_csv();
  return 0;
}
