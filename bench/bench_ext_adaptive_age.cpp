// Extension experiment (paper Section 6 future work): dynamic runtime
// setting of the tolerable staleness.  Fixed ages are each best at one
// operating point; the adaptive controller should track the best fixed age
// as the network load changes, without retuning.
#include <iostream>

#include "ga/island.hpp"
#include "harness/run_config.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("function", 1, "GA test function")
      .add_int("processors", 8, "demes")
      .add_int("generations", 150, "generations per deme")
      .add_int("seed", 9, "base seed")
      .add_bool("csv", false, "also emit CSV");
  if (!flags.parse(argc, argv)) return 1;

  nscc::util::Table table(
      "Extension - dynamic age setting vs fixed ages (island GA f" +
      std::to_string(flags.get_int("function")) + ", P=" +
      std::to_string(flags.get_int("processors")) + ")");
  table.columns({"load", "variant", "completion s", "block time s",
                 "final age", "adjustments", "final avg"});

  for (double load_mbps : {0.0, 2.0, 6.0}) {
    auto run = [&](const std::string& label, long age, bool adaptive) {
      nscc::ga::IslandConfig cfg;
      cfg.function_id = static_cast<int>(flags.get_int("function"));
      nscc::harness::make_variant("partial", age).apply(cfg);
      cfg.adaptive_age = adaptive;
      cfg.ndemes = static_cast<int>(flags.get_int("processors"));
      cfg.generations = static_cast<int>(flags.get_int("generations"));
      cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
      cfg.loader_offered_bps = load_mbps * 1e6;
      const auto r = nscc::ga::run_island_ga(cfg, {});
      table.row()
          .cell(nscc::util::format_double(load_mbps, 0) + " Mbps")
          .cell(label)
          .cell(nscc::sim::to_seconds(r.completion_time), 2)
          .cell(nscc::sim::to_seconds(r.global_read_block_time), 2)
          .cell(adaptive ? r.mean_final_age : static_cast<double>(age), 1)
          .cell(r.age_adjustments)
          .cell(r.final_average, 4);
    };
    for (long age : {0L, 5L, 10L, 20L, 30L}) {
      run("fixed age " + std::to_string(age), age, false);
    }
    run("adaptive", 0, true);
  }
  table.print(std::cout);
  if (flags.get_bool("csv")) std::cout << '\n' << table.to_csv();
  return 0;
}
