#include "harness/workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "bayes/logic_sampling.hpp"
#include "ga/functions.hpp"
#include "rt/vm.hpp"
#include "util/flags.hpp"

namespace nscc::harness {

namespace {

/// The staleness bound each variant's read discipline promises: synchronous
/// reads demand the producer's previous iteration exactly, Global_Read(age)
/// reads promise the declared bound, fully asynchronous reads tolerate
/// anything (that is the paper's uncontrolled baseline).
sanitize::Iteration mode_age_bound(const RunConfig& run) {
  switch (run.mode) {
    case dsm::Mode::kSynchronous:
      return 0;
    case dsm::Mode::kPartialAsync:
      return run.age;
    case dsm::Mode::kAsynchronous:
      break;
  }
  return -1;
}

}  // namespace

// ---- ga.island -------------------------------------------------------------

std::string GaIslandWorkload::description() const {
  return "island GA on " + ga::test_function(function_id).name;
}

void GaIslandWorkload::register_params(util::Flags& flags) const {
  flags.add_int("demes", demes, "number of islands (simulated nodes)")
      .add_int("generations", generations, "generations per deme")
      .add_int("function", function_id, "test function 1..8 (6 = Rastrigin)");
}

void GaIslandWorkload::configure(const util::Flags& flags) {
  demes = static_cast<int>(flags.get_int("demes"));
  generations = static_cast<int>(flags.get_int("generations"));
  function_id = static_cast<int>(flags.get_int("function"));
}

ga::IslandConfig GaIslandWorkload::build(const RunConfig& run) const {
  ga::IslandConfig cfg;
  static_cast<RunConfig&>(cfg) = run;
  cfg.function_id = function_id;
  cfg.ndemes = demes;
  cfg.generations = generations;
  return cfg;
}

RunStats GaIslandWorkload::run(const RunConfig& run,
                               const rt::MachineConfig& machine) {
  const auto r = ga::run_island_ga(build(run), machine);
  RunStats stats;
  static_cast<MachineStats&>(stats) = r;
  stats.quality_name = "best_fitness";
  stats.quality = r.best_fitness;
  stats.extra = {{"final_average", r.final_average},
                 {"evaluations", static_cast<double>(r.evaluations)},
                 {"cache_hits", static_cast<double>(r.cache_hits)}};
  return stats;
}

sanitize::ToleranceSpec GaIslandWorkload::tolerance_spec(
    const RunConfig& run) const {
  const ga::IslandConfig cfg = build(run);
  sanitize::ToleranceRule rule;
  rule.max_age = mode_age_bound(run);
  // Adaptive demes raise their own age at runtime, bounded by the
  // controller's cap — the contract certifies that cap, not the seed age.
  if (cfg.adaptive_age && run.mode == dsm::Mode::kPartialAsync) {
    rule.max_age = std::max(rule.max_age, cfg.adaptive.max_age);
  }
  // Sync/partial demes always state an age bound on migrant reads; only
  // the uncontrolled asynchronous variant reads un-aged.  Degraded and
  // not-yet-valid migrants are tolerated by design: demes skip them (crash
  // recovery serves the last published migrants; before the first
  // migration nothing has arrived).
  rule.require_aged = run.mode != dsm::Mode::kAsynchronous;
  sanitize::ToleranceSpec spec;
  spec.declare_range(ga::migrant_loc(0), ga::migrant_loc(cfg.ndemes), rule);
  return spec;
}

// ---- bayes.sampling --------------------------------------------------------

bayes::BeliefNetwork BayesSamplingWorkload::figure1() {
  bayes::BeliefNetwork net;
  const auto a = net.add_node("metastatic-cancer", 2);
  const auto b = net.add_node("serum-calcium", 2);
  const auto c = net.add_node("brain-tumor", 2);
  const auto d = net.add_node("coma", 2);
  const auto e = net.add_node("headache", 2);
  net.set_parents(b, {a});
  net.set_parents(c, {a});
  net.set_parents(d, {b, c});
  net.set_parents(e, {c});
  net.set_cpt(a, {0.80, 0.20});
  net.set_cpt(b, {0.80, 0.20, 0.20, 0.80});
  net.set_cpt(c, {0.95, 0.05, 0.20, 0.80});
  net.set_cpt(d, {0.95, 0.05, 0.40, 0.60, 0.30, 0.70, 0.20, 0.80});
  net.set_cpt(e, {0.90, 0.10, 0.30, 0.70});
  net.validate();
  return net;
}

namespace {
// Query: P(coma = true | metastatic-cancer = true), P(headache = true | ...).
const std::vector<bayes::Evidence> kFigure1Evidence = {{0, 1}};
const std::vector<bayes::Query> kFigure1Queries = {{3, 1}, {4, 1}};
}  // namespace

std::string BayesSamplingWorkload::description() const {
  return "speculative logic sampling on the Figure 1 belief network";
}

void BayesSamplingWorkload::register_params(util::Flags& flags) const {
  flags
      .add_int("iterations", static_cast<std::int64_t>(iterations),
               "sampling iterations per task")
      .add_int("parts", parts, "network partitions (simulated nodes)");
}

void BayesSamplingWorkload::configure(const util::Flags& flags) {
  iterations = static_cast<std::uint64_t>(flags.get_int("iterations"));
  parts = static_cast<int>(flags.get_int("parts"));
}

bayes::ParallelInferenceConfig BayesSamplingWorkload::build(
    const RunConfig& run) const {
  bayes::ParallelInferenceConfig cfg;
  static_cast<RunConfig&>(cfg) = run;
  cfg.parts = parts;
  cfg.iterations = iterations;
  return cfg;
}

RunStats BayesSamplingWorkload::run(const RunConfig& run,
                                    const rt::MachineConfig& machine) {
  const auto net = figure1();
  const auto r = bayes::run_parallel_logic_sampling(
      net, kFigure1Evidence, kFigure1Queries, build(run), machine);
  RunStats stats;
  static_cast<MachineStats&>(stats) = r;
  stats.quality_name = "P(coma|cancer)";
  stats.quality = r.estimates.empty() ? 0.0 : r.estimates[0].probability;
  stats.extra = {
      {"P(headache|cancer)",
       r.estimates.size() > 1 ? r.estimates[1].probability : 0.0},
      {"rollbacks", static_cast<double>(r.rollbacks)},
      {"nodes_resampled", static_cast<double>(r.nodes_resampled)},
      {"validated_samples", static_cast<double>(r.validated_samples)}};
  return stats;
}

sanitize::ToleranceSpec BayesSamplingWorkload::tolerance_spec(
    const RunConfig& run) const {
  sanitize::ToleranceRule rule;
  rule.max_age = mode_age_bound(run);
  // Guard-phase reads are receiver-driven flow control: partial mode polls
  // un-aged inside its free run-ahead window and the rollback machinery
  // tolerates any interim value (corrections supersede), so un-aged reads
  // are legitimate in every mode.
  rule.require_aged = false;
  sanitize::ToleranceSpec spec;
  spec.declare_range(bayes::block_loc(0, 0), bayes::block_loc(parts, 0),
                     rule);
  return spec;
}

void BayesSamplingWorkload::print_reference(std::ostream& os,
                                            const RunConfig& base) {
  bayes::InferenceConfig serial_cfg;
  serial_cfg.seed = base.seed;
  const auto serial = bayes::run_logic_sampling(figure1(), kFigure1Evidence,
                                                kFigure1Queries, serial_cfg);
  char line[256];
  std::snprintf(line, sizeof line,
                "sequential logic sampling: %llu runs (%llu "
                "evidence-consistent), P(coma|cancer)=%.3f, %.2fs virtual\n",
                static_cast<unsigned long long>(serial.samples_drawn),
                static_cast<unsigned long long>(serial.samples_used),
                serial.estimates.empty() ? 0.0
                                         : serial.estimates[0].probability,
                sim::to_seconds(serial.completion_time));
  os << line;
}

// ---- solver.jacobi ---------------------------------------------------------

std::string JacobiWorkload::description() const {
  return "row-block parallel Jacobi on a 2-D Poisson system";
}

void JacobiWorkload::register_params(util::Flags& flags) const {
  flags.add_int("grid", grid, "Poisson grid side (n x n unknowns)")
      .add_int("processors", processors, "simulated nodes")
      .add_double("tolerance", tolerance, "residual tolerance");
}

void JacobiWorkload::configure(const util::Flags& flags) {
  grid = static_cast<int>(flags.get_int("grid"));
  processors = static_cast<int>(flags.get_int("processors"));
  tolerance = flags.get_double("tolerance");
}

solver::ParallelJacobiConfig JacobiWorkload::build(const RunConfig& run) const {
  solver::ParallelJacobiConfig cfg;
  static_cast<RunConfig&>(cfg) = run;
  cfg.processors = processors;
  cfg.tolerance = tolerance;
  cfg.check_interval = 25;
  return cfg;
}

RunStats JacobiWorkload::run(const RunConfig& run,
                             const rt::MachineConfig& machine) {
  const auto sys = solver::make_poisson_2d(grid, run.seed);
  const auto r = solver::run_parallel_jacobi(sys, build(run), machine);
  RunStats stats;
  static_cast<MachineStats&>(stats) = r;
  stats.quality_name = "residual";
  stats.quality = r.residual;
  stats.extra = {{"sweeps", static_cast<double>(r.sweeps)},
                 {"error_inf", r.error_inf},
                 {"converged", r.converged ? 1.0 : 0.0}};
  return stats;
}

sanitize::ToleranceSpec JacobiWorkload::tolerance_spec(const RunConfig& run) const {
  sanitize::ToleranceRule rule;
  rule.max_age = mode_age_bound(run);
  // require_aged stays off in every mode: the verified convergence phase
  // legitimately plain-reads boundary blocks after a flushing barrier, and
  // Bertsekas-Tsitsiklis convergence tolerates any finite interim
  // staleness on those paths.
  sanitize::ToleranceSpec spec;
  spec.declare_range(solver::block_loc(0), solver::block_loc(processors),
                     rule);
  return spec;
}

void JacobiWorkload::print_reference(std::ostream& os, const RunConfig& base) {
  const auto sys = solver::make_poisson_2d(grid, base.seed);
  solver::JacobiConfig seq_cfg;
  seq_cfg.tolerance = tolerance;
  const auto serial = solver::run_sequential_jacobi(sys, seq_cfg);
  char line[256];
  std::snprintf(line, sizeof line,
                "system: %d unknowns, %zu nonzeros; sequential: %d sweeps, "
                "%.2fs virtual, residual %.2e\n",
                sys.size(), sys.a.nonzeros(), serial.sweeps,
                sim::to_seconds(serial.completion_time), serial.residual);
  os << line;
}

// ---- nn.train --------------------------------------------------------------

std::string NnTrainWorkload::description() const {
  return "bounded-staleness SGD on the two-spirals MLP";
}

void NnTrainWorkload::register_params(util::Flags& flags) const {
  flags.add_int("steps", steps, "mini-batch steps per worker")
      .add_int("workers", workers, "worker nodes (plus a parameter server)");
}

void NnTrainWorkload::configure(const util::Flags& flags) {
  steps = static_cast<int>(flags.get_int("steps"));
  workers = static_cast<int>(flags.get_int("workers"));
}

nn::TrainConfig NnTrainWorkload::build(const RunConfig& run) const {
  nn::TrainConfig cfg;
  static_cast<RunConfig&>(cfg) = run;
  cfg.workers = workers;
  cfg.steps = steps;
  return cfg;
}

RunStats NnTrainWorkload::run(const RunConfig& run,
                              const rt::MachineConfig& machine) {
  const auto data = nn::make_two_spirals(60, 0.02, run.seed);
  const auto r = nn::train_parallel(data, build(run), machine);
  RunStats stats;
  static_cast<MachineStats&>(stats) = r;
  stats.quality_name = "final_loss";
  stats.quality = r.final_loss;
  stats.extra = {{"final_accuracy", r.final_accuracy}};
  return stats;
}

sanitize::ToleranceSpec NnTrainWorkload::tolerance_spec(const RunConfig& run) const {
  sanitize::ToleranceRule rule;
  rule.max_age = mode_age_bound(run);
  // Sync/partial workers always bound their parameter pulls; only the
  // Hogwild-flavoured asynchronous variant reads un-aged.  A not-yet-valid
  // or degraded vector is tolerated: workers fall back to their local
  // parameter copy (stale-gradient SGD still converges).
  rule.require_aged = run.mode != dsm::Mode::kAsynchronous;
  sanitize::ToleranceSpec spec;
  spec.declare(nn::kParamsLoc, rule);
  return spec;
}

void NnTrainWorkload::print_reference(std::ostream& os, const RunConfig& base) {
  const auto data = nn::make_two_spirals(60, 0.02, base.seed);
  const auto serial = nn::train_sequential(data, build(base));
  char line[192];
  std::snprintf(line, sizeof line,
                "serial: loss %.4f, accuracy %.2f, %.2fs virtual\n",
                serial.final_loss, serial.final_accuracy,
                sim::to_seconds(serial.completion_time));
  os << line;
}

}  // namespace nscc::harness
