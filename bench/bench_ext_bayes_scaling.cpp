// Extension experiment (paper Section 6 future work): larger Bayesian
// networks.  The paper's 54-node networks "did not exhibit enough
// parallelism to be run on larger configurations"; here we scale the same
// random-network recipe to a few hundred nodes and run 2- and 4-way
// partitions, showing (a) parallel inference finally beating the
// uniprocessor, and (b) the Global_Read variants extending their lead as
// the per-iteration computation grows relative to communication.
#include <iostream>
#include <tuple>

#include "bayes/generators.hpp"
#include "bayes/partitioner.hpp"
#include "harness/speedup.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  nscc::util::Flags flags;
  flags.add_int("seed", 21, "random seed")
      .add_int("queries", 3, "query nodes per network")
      .add_bool("csv", false, "also emit CSV");
  if (!flags.parse(argc, argv)) return 1;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  nscc::util::Table table(
      "Extension - larger belief networks (paper future work)");
  table.columns({"network", "nodes", "P", "edge-cut", "serial s", "sync",
                 "async", "age10", "age30", "best partial/best comp"});

  for (auto [label, nodes, epn] :
       {std::tuple{"L200", 200, 2.0}, {"L400", 400, 1.8}}) {
    nscc::bayes::RandomNetworkConfig nc;
    nc.nodes = nodes;
    nc.edges = static_cast<int>(nodes * epn);
    nc.skew = 0.55;
    nc.seed = seed ^ static_cast<std::uint64_t>(nodes);
    const nscc::bayes::NamedNetwork named{label,
                                          nscc::bayes::make_random_network(nc)};

    for (int P : {2, 4}) {
      nscc::harness::BayesCellConfig cfg;
      cfg.processors = P;
      cfg.reps = 1;
      cfg.ages = {10, 30};
      cfg.queries_per_net = static_cast<int>(flags.get_int("queries"));
      cfg.seed = seed;
      const auto cell = nscc::harness::run_bayes_cell(named, cfg);
      const int cut = nscc::bayes::edge_cut(
          named.net, nscc::bayes::partition_network(named.net, {.parts = P}));
      table.row()
          .cell(label)
          .cell(static_cast<std::int64_t>(nodes))
          .cell(static_cast<std::int64_t>(P))
          .cell(static_cast<std::int64_t>(cut))
          .cell(cell.variant("serial").mean_time_s, 1)
          .cell(cell.variant("sync").speedup, 2)
          .cell(cell.variant("async").speedup, 2)
          .cell(cell.variant("partial", 10).speedup, 2)
          .cell(cell.variant("partial", 30).speedup, 2)
          .cell(nscc::harness::best_partial_over_best_competitor(cell.variants),
                2);
    }
  }
  table.print(std::cout);
  if (flags.get_bool("csv")) std::cout << '\n' << table.to_csv();
  return 0;
}
