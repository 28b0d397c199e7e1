#include "workloads.hpp"

#include <cmath>

#include "dsm/shared_space.hpp"
#include "ga/deme.hpp"
#include "ga/functions.hpp"
#include "ga/sequential.hpp"
#include "harness/workloads.hpp"
#include "nn/mlp.hpp"
#include "nn/train.hpp"
#include "sanitize/sanitize.hpp"
#include "solver/jacobi.hpp"
#include "solver/linear_system.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace harness = nscc::harness;
namespace dsm = nscc::dsm;
namespace sim = nscc::sim;

namespace {

/// Silent zeros shared by solver.jacobi and nn.train (only the ga.island
/// adapter copies these counters into RunStats).
std::vector<NaField> unfilled_transport_fields(const std::string& workload) {
  const std::string adapter =
      "the " + workload + " adapter never copies this counter into RunStats";
  return {
      {"bytes_sent", adapter +
                         "; rt.bytes_sent in the obs registry holds the true "
                         "count (ROADMAP item 3)"},
      {"frames_lost", adapter +
                          "; reads 0 even under --loss-rate (ROADMAP items 3 "
                          "and 4)"},
      {"retransmissions", adapter +
                              "; reads 0 even with the reliable transport on "
                              "(ROADMAP items 3 and 4)"},
  };
}

/// The paper's three-way comparison, as harness::drive maps it: partial
/// reads get coalescing, sync and async send directly.
void apply_variant(harness::RunConfig& run, dsm::Mode mode) {
  run.mode = mode;
  run.age = mode == dsm::Mode::kPartialAsync ? 10 : 0;
  run.propagation.coalesce = mode == dsm::Mode::kPartialAsync;
}

// ---- ga_island --------------------------------------------------------------

class GaIsland final : public BenchWorkload {
 public:
  GaIsland() {
    ga_.demes = 8;
    ga_.function_id = 6;  // Rastrigin
  }

  std::string name() const override { return "ga_island"; }
  harness::Workload& workload() override { return ga_; }

  CellPlan configure(const CellKey& key) const override {
    static constexpr dsm::Mode kModes[] = {dsm::Mode::kSynchronous,
                                           dsm::Mode::kAsynchronous,
                                           dsm::Mode::kPartialAsync};
    CellPlan plan;
    plan.run.seed = key.seed;
    apply_variant(plan.run, kModes[variant_of(key)]);
    plan.machine.network = nscc::rt::Network::kEthernet;
    plan.machine.sanitize.spec = ga_.tolerance_spec(plan.run);
    return plan;
  }

  void generate_instance(std::uint64_t seed) override {
    // The GA's problem instance: the test function and every deme's
    // evaluated initial population.
    const auto& fn = nscc::ga::test_function(ga_.function_id);
    nscc::util::Xoshiro256 rng(seed);
    for (int d = 0; d < ga_.demes; ++d) {
      nscc::ga::Deme deme(fn, nscc::ga::GaParams{}, rng.split(d));
      deme.initialize();
      sink_ += deme.best().fitness;
    }
  }

  void sequential_reference(std::uint64_t seed) override {
    nscc::ga::SequentialGaConfig cfg;
    cfg.function_id = ga_.function_id;
    cfg.pop_size = ga_.demes * nscc::ga::GaParams{}.pop_size;
    cfg.generations = ga_.generations;
    cfg.seed = seed;
    sink_ += nscc::ga::run_sequential_ga(cfg).best_fitness;
  }

  int tasks() const override { return ga_.demes; }
  // Mean migrant update of a sync cell at the default seed: 7,179,144
  // bytes_sent over 10,556 messages.
  std::uint32_t payload_bytes() const override { return 680; }

 protected:
  int variants() const override { return 3; }
  std::string variant_label(int v) const override {
    static const char* const kLabels[] = {"sync", "async", "partial10"};
    return kLabels[v];
  }

 private:
  harness::GaIslandWorkload ga_;
};

// ---- jacobi_cells -----------------------------------------------------------

class JacobiCells final : public BenchWorkload {
 public:
  JacobiCells() {
    jacobi_.grid = 16;
    jacobi_.processors = 4;
  }

  std::string name() const override { return "jacobi_cells"; }
  harness::Workload& workload() override { return jacobi_; }

  CellPlan configure(const CellKey& key) const override {
    CellPlan plan;
    plan.run.seed = key.seed;
    apply_variant(plan.run, dsm::Mode::kPartialAsync);
    plan.machine.network = nscc::rt::Network::kEthernet;
    plan.machine.sanitize.spec = jacobi_.tolerance_spec(plan.run);
    return plan;
  }

  void generate_instance(std::uint64_t seed) override {
    sink_ += nscc::solver::make_poisson_2d(jacobi_.grid, seed).b[0];
  }

  void sequential_reference(std::uint64_t seed) override {
    const auto sys = nscc::solver::make_poisson_2d(jacobi_.grid, seed);
    nscc::solver::JacobiConfig cfg;
    cfg.tolerance = jacobi_.tolerance;
    sink_ += nscc::solver::run_sequential_jacobi(sys, cfg).residual;
  }

  std::string check(const harness::RunStats& stats) const override {
    if (!(stats.quality <= jacobi_.tolerance)) {
      return "residual " + std::to_string(stats.quality) +
             " above tolerance " + std::to_string(jacobi_.tolerance);
    }
    return {};
  }

  std::vector<NaField> na_fields() const override {
    return unfilled_transport_fields("solver.jacobi");
  }
  // One warm-up cell lasts ~14 ms, of which first-touch page faults take
  // ~10 ms whose cost varies by half between runs on a shared VM; a whole
  // warm-up cycle keeps set-up time from being mostly fault noise.
  int warmup_cells() const override { return kDistinctCells; }

  int tasks() const override { return jacobi_.processors; }
  // One row block per update: a length prefix plus grid^2 / processors
  // doubles.
  std::uint32_t payload_bytes() const override {
    return static_cast<std::uint32_t>(
        8 + 8 * jacobi_.grid * jacobi_.grid / jacobi_.processors);
  }

 protected:
  int variants() const override { return 1; }
  std::string variant_label(int) const override { return "partial10"; }

 private:
  harness::JacobiWorkload jacobi_;
};

// ---- nn_lossy_strict --------------------------------------------------------

class NnLossyStrict final : public BenchWorkload {
 public:
  NnLossyStrict() { nn_.workers = 4; }

  std::string name() const override { return "nn_lossy_strict"; }
  harness::Workload& workload() override { return nn_; }

  CellPlan configure(const CellKey& key) const override {
    CellPlan plan;
    plan.run.seed = key.seed;
    apply_variant(plan.run, dsm::Mode::kPartialAsync);
    plan.run.propagation.coalesce = false;  // the trainer never coalesces
    plan.run.propagation.consistency = variant_label(variant_of(key));
    plan.run.propagation.read_timeout = 200 * sim::kMillisecond;
    // Sanitizing turns on end-to-end update checksums, as harness::drive
    // does.
    plan.run.propagation.integrity = true;
    plan.machine.network = nscc::rt::Network::kEthernet;
    plan.machine.fault.seed = key.seed ^ 0xFA17ULL;
    plan.machine.fault.link.loss_prob = 0.02;
    plan.machine.transport.enabled = true;
    plan.machine.sanitize.level = nscc::sanitize::Level::kStrict;
    plan.machine.sanitize.spec = nn_.tolerance_spec(plan.run);
    return plan;
  }

  void generate_instance(std::uint64_t seed) override {
    sink_ += nscc::nn::make_two_spirals(60, 0.02, seed).inputs[0][0];
  }

  void sequential_reference(std::uint64_t seed) override {
    const auto data = nscc::nn::make_two_spirals(60, 0.02, seed);
    harness::RunConfig run;
    run.seed = seed;
    sink_ += nscc::nn::train_sequential(data, nn_.build(run)).final_loss;
  }

  std::vector<NaField> na_fields() const override {
    return unfilled_transport_fields("nn.train");
  }
  bool strict() const override { return true; }

  int tasks() const override { return nn_.workers + 1; }
  // One parameter vector or gradient: a length prefix plus every weight and
  // bias of the MLP.
  std::uint32_t payload_bytes() const override {
    const auto layers = nn_.build(harness::RunConfig{}).layers;
    std::uint32_t params = 0;
    for (std::size_t i = 1; i < layers.size(); ++i) {
      params += static_cast<std::uint32_t>(layers[i - 1] * layers[i] +
                                           layers[i]);
    }
    return 8 + 8 * params;
  }

 protected:
  int variants() const override { return 2; }
  std::string variant_label(int v) const override {
    return v == 0 ? "nonstrict" : "release-acquire";
  }

 private:
  harness::NnTrainWorkload nn_;
};

}  // namespace

CellKey BenchWorkload::key(std::uint64_t run_seed, int index) const {
  CellKey k;
  k.key = index % kDistinctCells;
  nscc::util::SplitMix64 seeds(run_seed);
  for (int i = 0; i <= k.key; ++i) k.seed = seeds.next();
  k.label = variant_label(variant_of(k)) + "/r" + std::to_string(k.key);
  return k;
}

std::string BenchWorkload::check(const harness::RunStats& stats) const {
  if (!std::isfinite(stats.quality)) {
    return stats.quality_name + " is not finite";
  }
  return {};
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ga_island", "jacobi_cells",
                                                 "nn_lossy_strict"};
  return names;
}

std::unique_ptr<BenchWorkload> make_workload(const std::string& name) {
  if (name == "ga_island") return std::make_unique<GaIsland>();
  if (name == "jacobi_cells") return std::make_unique<JacobiCells>();
  if (name == "nn_lossy_strict") return std::make_unique<NnLossyStrict>();
  return nullptr;
}

}  // namespace perfbench
