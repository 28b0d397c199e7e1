// Tests for the speedup protocol: the paper's mechanics (variant lists,
// quality-matched generation budgets, paper-style averages, best-vs-best-
// competitor computation) on reduced workloads, its parity with the
// workload adapters, and its input validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "bayes/generators.hpp"
#include "bayes/logic_sampling.hpp"
#include "bayes/partitioner.hpp"
#include "harness/speedup.hpp"
#include "harness/workloads.hpp"
#include "sim/time.hpp"

namespace {

using nscc::dsm::Mode;
using nscc::harness::SpeedupCell;
using nscc::harness::VariantSummary;

nscc::harness::GaCellConfig tiny_cell() {
  nscc::harness::GaCellConfig cfg;
  cfg.function_id = 1;
  cfg.processors = 2;
  cfg.generations = 40;
  cfg.reps = 1;
  cfg.ages = {0, 10};
  cfg.seed = 5;
  return cfg;
}

TEST(GaExperiments, CellProducesAllVariants) {
  const auto cell = nscc::harness::run_ga_cell(tiny_cell());
  ASSERT_EQ(cell.variants.size(), 5u);  // serial, sync, async, age0, age10.
  EXPECT_EQ(cell.variants[0].variant.name, "serial");
  EXPECT_DOUBLE_EQ(cell.variant("serial").speedup, 1.0);
  for (const auto& v : cell.variants) {
    EXPECT_GT(v.mean_time_s, 0.0) << v.variant.tag();
    EXPECT_GT(v.mean("mean_generations"), 0.0) << v.variant.tag();
  }
  EXPECT_THROW((void)cell.variant("nope"), std::out_of_range);
  EXPECT_THROW((void)cell.variant("partial", 5), std::out_of_range);
  EXPECT_THROW((void)cell.variants[0].mean("nope"), std::out_of_range);
}

TEST(GaExperiments, BestPartialOverBestCompetitor) {
  const auto cell = nscc::harness::run_ga_cell(tiny_cell());
  double best_partial = 0.0;
  double best_other = 0.0;
  for (const auto& v : cell.variants) {
    if (v.variant.mode == Mode::kPartialAsync) {
      best_partial = std::max(best_partial, v.speedup);
    } else {
      best_other = std::max(best_other, v.speedup);
    }
  }
  EXPECT_NEAR(nscc::harness::best_partial_over_best_competitor(cell.variants),
              best_partial / best_other, 1e-12);
}

TEST(GaExperiments, AverageUsesSummedTimes) {
  auto cfg = tiny_cell();
  std::vector<SpeedupCell> cells;
  cells.push_back(nscc::harness::run_ga_cell(cfg));
  cfg.function_id = 3;
  cells.push_back(nscc::harness::run_ga_cell(cfg));
  const auto avg = nscc::harness::average_cells(cells);
  ASSERT_EQ(avg.size(), cells.front().variants.size());
  // Paper metric: sum of serial times over sum of variant times.
  const double serial_sum = cells[0].variant("serial").sum_time_s +
                            cells[1].variant("serial").sum_time_s;
  const double sync_sum = cells[0].variant("sync").sum_time_s +
                          cells[1].variant("sync").sum_time_s;
  for (const auto& v : avg) {
    if (v.variant.name == "sync") {
      EXPECT_NEAR(v.speedup, serial_sum / sync_sum, 1e-12);
    }
  }
}

TEST(GaExperiments, DeterministicCells) {
  const auto a = nscc::harness::run_ga_cell(tiny_cell());
  const auto b = nscc::harness::run_ga_cell(tiny_cell());
  for (std::size_t i = 0; i < a.variants.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.variants[i].speedup, b.variants[i].speedup);
  }
}

TEST(GaExperiments, SyncTimeMatchesTheWorkloadAdapter) {
  // The protocol's sync run is the ga.island workload's run: same config,
  // same machine, same completion time — on a loaded network too.
  auto cfg = tiny_cell();
  cfg.loader_mbps = 1.0;
  const auto cell = nscc::harness::run_ga_cell(cfg);

  nscc::harness::GaIslandWorkload workload;
  workload.function_id = cfg.function_id;
  workload.demes = cfg.processors;
  workload.generations = cfg.generations;
  nscc::harness::RunConfig run;
  run.seed = cfg.seed;
  run.loader_offered_bps = 1e6;
  nscc::harness::make_variant("sync", 0).apply(run);
  const auto stats = workload.run(run, cfg.machine);
  EXPECT_EQ(cell.variant("sync").mean_time_s,
            nscc::sim::to_seconds(stats.completion_time));
}

TEST(GaExperiments, RejectsInvalidCells) {
  auto cfg = tiny_cell();
  cfg.reps = 0;
  EXPECT_THROW((void)nscc::harness::run_ga_cell(cfg), std::invalid_argument);
  cfg = tiny_cell();
  cfg.processors = 0;
  EXPECT_THROW((void)nscc::harness::run_ga_cell(cfg), std::invalid_argument);
  for (int id : {0, 9}) {
    cfg = tiny_cell();
    cfg.function_id = id;
    EXPECT_THROW((void)nscc::harness::run_ga_cell(cfg), std::invalid_argument)
        << id;
  }
}

TEST(BayesExperiments, Table2RowsMatchStructure) {
  const auto nets = nscc::bayes::table2_networks();
  ASSERT_EQ(nets.size(), 4u);
  EXPECT_EQ(nets[0].name, "A");
  EXPECT_EQ(nets[3].name, "Hailfinder");
  std::vector<int> cuts;
  std::vector<double> times_s;
  for (const auto& [name, net] : nets) {
    cuts.push_back(nscc::bayes::edge_cut(
        net, nscc::bayes::partition_network(net, {.parts = 2})));
    nscc::bayes::InferenceConfig ic;
    ic.seed = 21;
    const auto serial = nscc::bayes::run_logic_sampling(
        net, {}, nscc::bayes::default_queries(net, 2, 21), ic);
    times_s.push_back(nscc::sim::to_seconds(serial.completion_time));
    EXPECT_GE(net.size(), 54) << name;
    EXPECT_GT(cuts.back(), 0) << name;
    EXPECT_GT(times_s.back(), 0.0) << name;
  }
  // Table 2's qualitative facts: Hailfinder has by far the smallest cut
  // and the smallest uniprocessor inference time.
  EXPECT_LT(cuts[3], cuts[0] / 2);
  EXPECT_LT(times_s[3], times_s[0] / 2);
}

TEST(BayesExperiments, CellVariantsAndAverage) {
  nscc::harness::BayesCellConfig cfg;
  cfg.reps = 1;
  cfg.ages = {10};
  cfg.seed = 21;
  const auto nets = nscc::bayes::table2_networks();
  std::vector<SpeedupCell> cells;
  cells.push_back(nscc::harness::run_bayes_cell(nets[3], cfg));  // Hailfinder.
  const auto& cell = cells[0];
  ASSERT_EQ(cell.variants.size(), 4u);  // serial, sync, async, age10.
  EXPECT_EQ(cell.label, "Hailfinder");
  EXPECT_DOUBLE_EQ(cell.variant("serial").speedup, 1.0);
  // The paper's ordering on the speculation-friendly network:
  // sync < async < Global_Read.
  EXPECT_LT(cell.variant("sync").speedup, cell.variant("async").speedup);
  EXPECT_LT(cell.variant("async").speedup,
            cell.variant("partial", 10).speedup);
  const auto avg = nscc::harness::average_cells(cells);
  ASSERT_EQ(avg.size(), 4u);
  EXPECT_NEAR(avg[0].speedup, 1.0, 1e-12);
}

TEST(BayesExperiments, RejectsInvalidCells) {
  const auto nets = nscc::bayes::table2_networks();
  nscc::harness::BayesCellConfig cfg;
  cfg.reps = 0;
  EXPECT_THROW((void)nscc::harness::run_bayes_cell(nets[3], cfg),
               std::invalid_argument);
  cfg.reps = 1;
  cfg.processors = 0;
  EXPECT_THROW((void)nscc::harness::run_bayes_cell(nets[3], cfg),
               std::invalid_argument);
}

// ---- shared arithmetic on hand-built cells ---------------------------------

VariantSummary summary(const nscc::harness::VariantSpec& variant,
                       double serial_s, double time_s) {
  VariantSummary v;
  v.variant = variant;
  v.speedup = serial_s / time_s;
  v.mean_time_s = time_s;
  v.sum_time_s = time_s;
  return v;
}

/// A one-rep cell in which every parallel variant is slower than serial:
/// sync 0.5x, async 0.25x, Global_Read(10) 0.8x.
SpeedupCell slow_cell(double serial_s) {
  SpeedupCell cell;
  cell.variants = {
      summary(nscc::harness::serial_variant(), serial_s, serial_s),
      summary(nscc::harness::make_variant("sync", 0), serial_s, 2 * serial_s),
      summary(nscc::harness::make_variant("async", 0), serial_s, 4 * serial_s),
      summary(nscc::harness::make_variant("partial", 10), serial_s,
              1.25 * serial_s)};
  return cell;
}

TEST(SpeedupProtocol, WhiteBarCountsSerialAsOneWhenEveryVariantIsSlower) {
  const std::vector<SpeedupCell> cells = {slow_cell(1.0), slow_cell(2.0)};
  // The best competitor is serial itself, so both bars divide by 1.0.
  EXPECT_DOUBLE_EQ(
      nscc::harness::best_partial_over_best_competitor(cells[0].variants),
      0.8);
  const auto avg = nscc::harness::average_cells(cells);
  EXPECT_DOUBLE_EQ(avg[1].speedup, 0.5);  // 3 s serial over 6 s sync.
  EXPECT_DOUBLE_EQ(nscc::harness::best_partial_over_best_competitor(avg),
                   0.8);
}

TEST(SpeedupProtocol, AverageOfNoCellsThrows) {
  EXPECT_THROW((void)nscc::harness::average_cells({}), std::invalid_argument);
}

TEST(SpeedupProtocol, SweepRecordCarriesVariantAndMeans) {
  VariantSummary v = summary(nscc::harness::make_variant("partial", 10), 3.0,
                             1.5);
  v.means = {{"mean_warp", 1.25}};
  const auto rec =
      nscc::harness::sweep_record(v, "ga.island", 7, {{"processors", 4.0}});
  EXPECT_EQ(rec.workload, "ga.island");
  EXPECT_EQ(rec.variant, "partial");
  EXPECT_EQ(rec.age, 10);
  EXPECT_EQ(rec.seed, 7u);
  EXPECT_EQ(rec.repeat, -1);
  ASSERT_EQ(rec.params.size(), 1u);
  ASSERT_EQ(rec.stats.size(), 3u);
  EXPECT_EQ(rec.stats[0].first, "speedup");
  EXPECT_DOUBLE_EQ(rec.stats[0].second, 2.0);
  EXPECT_EQ(rec.stats[1].first, "mean_time_s");
  EXPECT_EQ(rec.stats[2].first, "mean_warp");
}

}  // namespace
