#include "harness/speedup.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <stdexcept>

#include "bayes/logic_sampling.hpp"
#include "bayes/parallel_sampling.hpp"
#include "ga/functions.hpp"
#include "ga/island.hpp"
#include "ga/sequential.hpp"
#include "harness/workloads.hpp"
#include "sim/time.hpp"
#include "util/table.hpp"

namespace nscc::harness {

namespace {

/// Fraction of the serial run's fitness improvement an async or partial
/// run may fall short of the sync target by and still count as converged.
constexpr double kQualitySlack = 0.02;

/// One variant's per-rep completion times and metric sums, in rep order.
struct RepLog {
  VariantSpec variant;
  std::vector<double> times_s;
  std::vector<std::pair<std::string, double>> sums;

  void add(sim::Time completion,
           std::initializer_list<std::pair<const char*, double>> metrics) {
    times_s.push_back(sim::to_seconds(completion));
    if (sums.empty()) {
      for (const auto& [name, value] : metrics) sums.emplace_back(name, 0.0);
    }
    std::size_t i = 0;
    for (const auto& [name, value] : metrics) sums[i++].second += value;
  }
};

/// Validate the shared protocol inputs and open one log per variant:
/// serial, sync, async, then partial at each age.
std::vector<RepLog> open_logs(const char* who, int reps, int processors,
                              const std::vector<dsm::Iteration>& ages) {
  if (reps < 1 || processors < 1) {
    throw std::invalid_argument(std::string(who) +
                                ": reps and processors must be >= 1");
  }
  std::vector<RepLog> logs = {{serial_variant(), {}, {}},
                              {make_variant("sync", 0), {}, {}},
                              {make_variant("async", 0), {}, {}}};
  for (const dsm::Iteration age : ages) {
    logs.push_back({make_variant("partial", age), {}, {}});
  }
  return logs;
}

/// Reduce the logs (serial first) to a cell.
SpeedupCell summarize(std::string label, const std::vector<RepLog>& logs) {
  const std::vector<double>& serial_s = logs.front().times_s;
  SpeedupCell cell{std::move(label), {}};
  for (const RepLog& log : logs) {
    VariantSummary v{log.variant, 0.0, 0.0, 0.0, {}};
    for (std::size_t r = 0; r < log.times_s.size(); ++r) {
      v.speedup += serial_s[r] / log.times_s[r];
      v.mean_time_s += log.times_s[r];
      v.sum_time_s += log.times_s[r];
    }
    const auto n = static_cast<double>(log.times_s.size());
    v.speedup /= n;
    v.mean_time_s /= n;
    for (const auto& [name, sum] : log.sums) v.means.emplace_back(name, sum / n);
    cell.variants.push_back(std::move(v));
  }
  return cell;
}

}  // namespace

VariantSpec serial_variant() { return {"serial", dsm::Mode::kSynchronous, 0}; }

double VariantSummary::mean(std::string_view name) const {
  for (const auto& [n, value] : means) {
    if (n == name) return value;
  }
  throw std::out_of_range("VariantSummary: no mean named " + std::string(name));
}

const VariantSummary& SpeedupCell::variant(std::string_view name,
                                           dsm::Iteration age) const {
  for (const auto& v : variants) {
    if (v.variant.name == name && v.variant.age == age) return v;
  }
  throw std::out_of_range("SpeedupCell: unknown variant " + std::string(name) +
                          " (age " + std::to_string(age) + ")");
}

std::vector<VariantSummary> average_cells(
    const std::vector<SpeedupCell>& cells) {
  if (cells.empty()) {
    throw std::invalid_argument("average_cells: no cells to average");
  }
  const auto n = static_cast<double>(cells.size());
  double serial_sum = 0.0;
  for (const auto& cell : cells) serial_sum += cell.variants.front().sum_time_s;

  std::vector<VariantSummary> avg = cells.front().variants;
  for (std::size_t i = 0; i < avg.size(); ++i) {
    VariantSummary& v = avg[i];
    for (auto& mean : v.means) mean.second = 0.0;
    double time_sum = 0.0;
    for (const auto& cell : cells) {
      const VariantSummary& cv = cell.variants[i];
      time_sum += cv.sum_time_s;
      for (std::size_t m = 0; m < v.means.size(); ++m) {
        v.means[m].second += cv.means[m].second;
      }
    }
    v.speedup = time_sum > 0.0 ? serial_sum / time_sum : 0.0;
    v.sum_time_s = time_sum;
    v.mean_time_s = time_sum / n;
    for (auto& mean : v.means) mean.second /= n;
  }
  return avg;
}

double best_partial_over_best_competitor(
    const std::vector<VariantSummary>& variants) {
  double best_partial = 0.0;
  double best_other = 1.0;  // Serial is a competitor at speedup 1.
  for (const auto& v : variants) {
    double& best = v.variant.mode == dsm::Mode::kPartialAsync ? best_partial
                                                              : best_other;
    best = std::max(best, v.speedup);
  }
  return best_partial / best_other;
}

std::vector<std::string> chart_columns(
    std::vector<std::string> leading,
    const std::vector<VariantSummary>& variants) {
  for (const auto& v : variants) {
    if (v.variant.name != "serial") leading.push_back(v.variant.tag());
  }
  leading.emplace_back("best/bestcomp");
  return leading;
}

void chart_cells(util::Table& table,
                 const std::vector<VariantSummary>& variants) {
  for (const auto& v : variants) {
    if (v.variant.name != "serial") table.cell(v.speedup, 2);
  }
  table.cell(best_partial_over_best_competitor(variants), 2);
}

SweepRecord sweep_record(const VariantSummary& v, std::string workload,
                         std::uint64_t seed,
                         std::vector<std::pair<std::string, double>> params) {
  SweepRecord rec;
  rec.workload = std::move(workload);
  rec.variant = v.variant.name;
  rec.age = v.variant.age;
  rec.seed = seed;
  rec.repeat = -1;
  rec.params = std::move(params);
  rec.stats = {{"speedup", v.speedup}, {"mean_time_s", v.mean_time_s}};
  rec.stats.insert(rec.stats.end(), v.means.begin(), v.means.end());
  return rec;
}

SpeedupCell run_ga_cell(const GaCellConfig& config) {
  std::vector<RepLog> logs =
      open_logs("run_ga_cell", config.reps, config.processors, config.ages);
  const auto nfunctions = static_cast<int>(ga::dejong_testbed().size());
  if (config.function_id < 1 || config.function_id > nfunctions) {
    throw std::invalid_argument("run_ga_cell: unknown GA function " +
                                std::to_string(config.function_id));
  }
  GaIslandWorkload workload;
  workload.function_id = config.function_id;
  workload.demes = config.processors;
  auto island = [&](const VariantSpec& v, std::uint64_t seed, int gens) {
    RunConfig run;
    run.seed = seed;
    run.loader_offered_bps = config.loader_mbps * 1e6;
    v.apply(run);
    workload.generations = gens;
    return workload.build(run);
  };
  auto log_island = [](RepLog& log, const ga::IslandResult& r, int gens,
                       bool ok) {
    log.add(r.completion_time, {{"final_best", r.best_fitness},
                                {"mean_generations", gens},
                                {"quality_ok_fraction", ok ? 1.0 : 0.0},
                                {"bus_utilization", r.bus_utilization},
                                {"mean_warp", r.mean_warp}});
  };

  const int budget = config.generations;
  for (int rep = 0; rep < config.reps; ++rep) {
    const std::uint64_t seed = config.seed + 1000ULL * rep;
    const ga::IslandConfig sync_cfg = island(logs[1].variant, seed, budget);
    const auto serial = ga::run_sequential_ga(
        {.function_id = config.function_id,
         .pop_size = sync_cfg.params.pop_size * config.processors,
         .generations = budget,
         .seed = seed,
         .params = sync_cfg.params,
         .compute = sync_cfg.compute});
    logs[0].add(serial.completion_time, {{"final_best", serial.best_fitness},
                                         {"mean_generations", budget},
                                         {"quality_ok_fraction", 1.0},
                                         {"bus_utilization", 0.0},
                                         {"mean_warp", 0.0}});

    const auto sync = ga::run_island_ga(sync_cfg, config.machine);
    log_island(logs[1], sync, budget, true);
    const double target = sync.final_average;
    const double initial_avg = serial.average.points.front().second;
    const double slack = kQualitySlack * std::fabs(initial_avg - target);
    for (std::size_t i = 2; i < logs.size(); ++i) {
      int gens = budget;
      for (;;) {
        const auto r = ga::run_island_ga(island(logs[i].variant, seed, gens),
                                         config.machine);
        const bool ok = r.final_average <= target + slack;
        if (ok || gens >= 3 * budget) {
          log_island(logs[i], r, gens, ok);
          break;
        }
        gens = std::min(3 * budget, gens * 3 / 2);
      }
    }
  }
  return summarize("f" + std::to_string(config.function_id), logs);
}

SpeedupCell run_bayes_cell(const bayes::NamedNetwork& network,
                           const BayesCellConfig& config) {
  std::vector<RepLog> logs = open_logs("run_bayes_cell", config.reps,
                                       config.processors, config.ages);
  const auto queries =
      bayes::default_queries(network.net, config.queries_per_net, config.seed);
  BayesSamplingWorkload workload;
  workload.parts = config.processors;
  for (int rep = 0; rep < config.reps; ++rep) {
    const std::uint64_t seed = config.seed + 1000ULL * rep;
    const auto serial =
        bayes::run_logic_sampling(network.net, {}, queries, {.seed = seed});
    logs[0].add(serial.completion_time,
                {{"converged_fraction", serial.converged ? 1.0 : 0.0},
                 {"rollbacks", 0.0},
                 {"nodes_resampled", 0.0},
                 {"mean_warp", 0.0}});

    workload.iterations = serial.samples_drawn * 13 / 10;
    for (std::size_t i = 1; i < logs.size(); ++i) {
      RunConfig run;
      run.seed = seed;
      logs[i].variant.apply(run);
      const auto r = bayes::run_parallel_logic_sampling(
          network.net, {}, queries, workload.build(run), {});
      logs[i].add(r.completion_time,
                  {{"converged_fraction", r.converged ? 1.0 : 0.0},
                   {"rollbacks", static_cast<double>(r.rollbacks)},
                   {"nodes_resampled", static_cast<double>(r.nodes_resampled)},
                   {"mean_warp", r.mean_warp}});
    }
  }
  return summarize(network.name, logs);
}

}  // namespace nscc::harness
