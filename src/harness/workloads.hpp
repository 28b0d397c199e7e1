// The four paper workloads as harness::Workload adapters.  Each adapter
// holds the workload's problem-size parameters as plain members (flag
// registration reads/writes them; tests may set them directly), exposes the
// RunConfig -> workload-config mapping as a public build() so the parity
// tests can inspect it, and reports the workload result's MachineStats
// slice plus its quality metric as RunStats.
#pragma once

#include <iosfwd>
#include <string>

#include "bayes/network.hpp"
#include "bayes/parallel_sampling.hpp"
#include "ga/island.hpp"
#include "harness/workload.hpp"
#include "nn/train.hpp"
#include "solver/jacobi.hpp"

namespace nscc::harness {

/// Island-model GA (paper Sections 3.1, 4.2.1): one deme per node, best
/// individuals migrate through a shared location every generation.
class GaIslandWorkload final : public Workload {
 public:
  int function_id = 6;   ///< Test function 1..8 (6 = Rastrigin).
  int demes = 8;
  int generations = 150;

  [[nodiscard]] std::string name() const override { return "ga.island"; }
  [[nodiscard]] std::string description() const override;
  void register_params(util::Flags& flags) const override;
  void configure(const util::Flags& flags) override;
  [[nodiscard]] ga::IslandConfig build(const RunConfig& run) const;
  RunStats run(const RunConfig& run,
               const rt::MachineConfig& machine) override;
  [[nodiscard]] sanitize::ToleranceSpec tolerance_spec(
      const RunConfig& run) const override;
};

/// Speculative parallel logic sampling with rollback (paper Section 3.2) on
/// the paper's Figure 1 medical-diagnosis belief network.
class BayesSamplingWorkload final : public Workload {
 public:
  int parts = 2;
  std::uint64_t iterations = 6000;

  /// The paper's Figure 1 network: A -> {B, C}; {B, C} -> D; C -> E.
  [[nodiscard]] static bayes::BeliefNetwork figure1();

  [[nodiscard]] std::string name() const override { return "bayes.sampling"; }
  [[nodiscard]] std::string description() const override;
  void register_params(util::Flags& flags) const override;
  void configure(const util::Flags& flags) override;
  [[nodiscard]] bayes::ParallelInferenceConfig build(
      const RunConfig& run) const;
  RunStats run(const RunConfig& run,
               const rt::MachineConfig& machine) override;
  [[nodiscard]] sanitize::ToleranceSpec tolerance_spec(
      const RunConfig& run) const override;
  void print_reference(std::ostream& os, const RunConfig& base) override;
};

/// Row-block parallel Jacobi on a 2-D Poisson system (paper Section 1's
/// opening data-race tolerant application).
class JacobiWorkload final : public Workload {
 public:
  int grid = 16;          ///< Poisson grid side (n x n unknowns).
  int processors = 4;
  double tolerance = 1e-7;

  [[nodiscard]] std::string name() const override { return "solver.jacobi"; }
  [[nodiscard]] std::string description() const override;
  void register_params(util::Flags& flags) const override;
  void configure(const util::Flags& flags) override;
  [[nodiscard]] solver::ParallelJacobiConfig build(const RunConfig& run) const;
  RunStats run(const RunConfig& run,
               const rt::MachineConfig& machine) override;
  [[nodiscard]] sanitize::ToleranceSpec tolerance_spec(
      const RunConfig& run) const override;
  void print_reference(std::ostream& os, const RunConfig& base) override;
};

/// Bounded-staleness SGD on the two-spirals task (paper Section 6's named
/// future-work application): P workers plus a parameter server.
class NnTrainWorkload final : public Workload {
 public:
  int workers = 4;
  int steps = 500;

  [[nodiscard]] std::string name() const override { return "nn.train"; }
  [[nodiscard]] std::string description() const override;
  void register_params(util::Flags& flags) const override;
  void configure(const util::Flags& flags) override;
  [[nodiscard]] nn::TrainConfig build(const RunConfig& run) const;
  RunStats run(const RunConfig& run,
               const rt::MachineConfig& machine) override;
  [[nodiscard]] sanitize::ToleranceSpec tolerance_spec(
      const RunConfig& run) const override;
  void print_reference(std::ostream& os, const RunConfig& base) override;
};

}  // namespace nscc::harness
