// Tests for the iterative-solver application: CSR mechanics, system
// generators, sequential Jacobi convergence, and the parallel solver's
// convergence guarantee under every consistency mode (the Bertsekas &
// Tsitsiklis bounded-staleness result the paper builds on).
#include <gtest/gtest.h>

#include <cmath>

#include "solver/jacobi.hpp"
#include "solver/linear_system.hpp"

namespace {

using nscc::dsm::Mode;
using nscc::solver::CsrMatrix;
using nscc::solver::JacobiConfig;
using nscc::solver::LinearSystem;
using nscc::solver::ParallelJacobiConfig;

TEST(CsrMatrixTest, MultiplyAndResidual) {
  // [2 1; 0 3] * [1, 2] = [4, 6].
  const auto m = CsrMatrix::from_rows(
      2, {{{0, 2.0}, {1, 1.0}}, {{1, 3.0}}});
  std::vector<double> y;
  m.multiply({1.0, 2.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  EXPECT_DOUBLE_EQ(m.residual_inf({1.0, 2.0}, {4.0, 6.0}), 0.0);
  EXPECT_DOUBLE_EQ(m.residual_inf({1.0, 2.0}, {4.0, 8.0}), 2.0);
}

TEST(CsrMatrixTest, DiagonalAccessAndDominance) {
  const auto dom = CsrMatrix::from_rows(
      2, {{{0, 3.0}, {1, 1.0}}, {{0, -1.0}, {1, 2.5}}});
  EXPECT_DOUBLE_EQ(dom.diagonal(0), 3.0);
  EXPECT_DOUBLE_EQ(dom.diagonal(1), 2.5);
  EXPECT_TRUE(dom.strictly_diagonally_dominant());
  const auto weak = CsrMatrix::from_rows(
      2, {{{0, 1.0}, {1, 1.0}}, {{1, 2.0}}});
  EXPECT_FALSE(weak.strictly_diagonally_dominant());
}

TEST(CsrMatrixTest, RowDotExcludesDiagonal) {
  const auto m = CsrMatrix::from_rows(
      2, {{{0, 5.0}, {1, 2.0}}, {{0, 1.0}, {1, 4.0}}});
  EXPECT_DOUBLE_EQ(m.row_dot_excluding_diagonal(0, {10.0, 3.0}), 6.0);
  EXPECT_DOUBLE_EQ(m.row_dot_excluding_diagonal(1, {10.0, 3.0}), 10.0);
}

TEST(Generators, Poisson2dIsDominantWithConsistentRhs) {
  const auto sys = nscc::solver::make_poisson_2d(8, 5);
  EXPECT_EQ(sys.size(), 64);
  EXPECT_TRUE(sys.a.strictly_diagonally_dominant());
  // b was generated as A * x_true.
  EXPECT_NEAR(sys.a.residual_inf(sys.x_true, sys.b), 0.0, 1e-12);
}

TEST(Generators, DominantRandomRespectsParameters) {
  const auto sys = nscc::solver::make_dominant_random(100, 4, 1.5, 7);
  EXPECT_EQ(sys.size(), 100);
  EXPECT_TRUE(sys.a.strictly_diagonally_dominant());
  EXPECT_THROW(nscc::solver::make_dominant_random(10, 2, 0.9, 1),
               std::invalid_argument);
}

TEST(SequentialJacobi, ConvergesToTrueSolution) {
  const auto sys = nscc::solver::make_poisson_2d(10, 11);
  JacobiConfig cfg;
  cfg.tolerance = 1e-9;
  const auto r = nscc::solver::run_sequential_jacobi(sys, cfg);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.residual, 1e-9);
  EXPECT_LE(r.error_inf, 1e-7);
  EXPECT_GT(r.completion_time, 0);
  EXPECT_GT(r.sweeps, 10);
}

TEST(SequentialJacobi, TighterToleranceCostsMoreSweeps) {
  const auto sys = nscc::solver::make_dominant_random(200, 5, 1.3, 13);
  JacobiConfig loose;
  loose.tolerance = 1e-4;
  JacobiConfig tight;
  tight.tolerance = 1e-10;
  const auto a = nscc::solver::run_sequential_jacobi(sys, loose);
  const auto b = nscc::solver::run_sequential_jacobi(sys, tight);
  EXPECT_TRUE(a.converged);
  EXPECT_TRUE(b.converged);
  EXPECT_LT(a.sweeps, b.sweeps);
  EXPECT_LT(a.completion_time, b.completion_time);
}

class JacobiEveryMode : public ::testing::TestWithParam<Mode> {};

TEST_P(JacobiEveryMode, ParallelConvergesUnderAnyConsistency) {
  // The asynchronous-convergence theorem in action: any bounded staleness
  // still reaches the fixed point of a contraction.
  const auto sys = nscc::solver::make_poisson_2d(12, 17);
  ParallelJacobiConfig cfg;
  cfg.mode = GetParam();
  cfg.age = 8;
  cfg.processors = 4;
  cfg.tolerance = 1e-7;
  cfg.check_interval = 25;
  cfg.propagation.coalesce = GetParam() == Mode::kPartialAsync;
  cfg.node_speed_spread = 0.3;
  const auto r = nscc::solver::run_parallel_jacobi(sys, cfg, {});
  EXPECT_FALSE(r.deadlocked);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.error_inf, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Modes, JacobiEveryMode,
                         ::testing::Values(Mode::kSynchronous,
                                           Mode::kAsynchronous,
                                           Mode::kPartialAsync));

TEST(ParallelJacobi, AsynchronyCostsIterationsButSavesTime) {
  const auto sys = nscc::solver::make_poisson_2d(16, 19);
  ParallelJacobiConfig cfg;
  cfg.processors = 4;
  cfg.tolerance = 1e-7;
  cfg.check_interval = 25;
  cfg.node_speed_spread = 0.3;

  cfg.mode = Mode::kSynchronous;
  const auto sync = nscc::solver::run_parallel_jacobi(sys, cfg, {});
  cfg.mode = Mode::kPartialAsync;
  cfg.age = 10;
  cfg.propagation.coalesce = true;
  const auto partial = nscc::solver::run_parallel_jacobi(sys, cfg, {});

  ASSERT_TRUE(sync.converged);
  ASSERT_TRUE(partial.converged);
  // Stale reads slow per-sweep contraction: at least as many sweeps...
  EXPECT_GE(partial.sweeps, sync.sweeps);
  // ...but each sweep is cheaper (no barrier, no fresh-data wait).
  EXPECT_LT(partial.completion_time, sync.completion_time);
}

TEST(ParallelJacobi, StalenessBoundIsRespected) {
  const auto sys = nscc::solver::make_poisson_2d(12, 23);
  ParallelJacobiConfig cfg;
  cfg.mode = Mode::kPartialAsync;
  cfg.age = 4;
  cfg.processors = 4;
  cfg.tolerance = 1e-6;
  cfg.check_interval = 25;
  cfg.node_speed_spread = 0.4;
  const auto r = nscc::solver::run_parallel_jacobi(sys, cfg, {});
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.mean_staleness, 4.0 + 1e-9);
}

TEST(ParallelJacobi, DeterministicForSeed) {
  const auto sys = nscc::solver::make_poisson_2d(10, 29);
  ParallelJacobiConfig cfg;
  cfg.mode = Mode::kAsynchronous;
  cfg.processors = 3;
  cfg.tolerance = 1e-6;
  cfg.seed = 31;
  const auto a = nscc::solver::run_parallel_jacobi(sys, cfg, {});
  const auto b = nscc::solver::run_parallel_jacobi(sys, cfg, {});
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.sweeps, b.sweeps);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
}

TEST(ParallelJacobi, BackgroundLoadHurtsSyncMoreThanPartial) {
  const auto sys = nscc::solver::make_poisson_2d(16, 37);
  ParallelJacobiConfig cfg;
  cfg.processors = 4;
  cfg.tolerance = 1e-7;
  cfg.check_interval = 25;

  auto run_at = [&](double offered_bps) {
    cfg.loader_offered_bps = offered_bps;
    return nscc::solver::run_parallel_jacobi(sys, cfg, {});
  };
  cfg.mode = Mode::kSynchronous;
  const auto sync0 = run_at(0.0);
  const auto sync6 = run_at(6e6);
  cfg.mode = Mode::kPartialAsync;
  cfg.age = 10;
  cfg.propagation.coalesce = true;
  const auto part0 = run_at(0.0);
  const auto part6 = run_at(6e6);

  // Load hurts everyone; the bounded-staleness program stays ahead of the
  // synchronous one at every load level (it trades extra sweeps for never
  // waiting on fresh data).
  EXPECT_GT(sync6.completion_time, sync0.completion_time);
  EXPECT_GT(part6.completion_time, part0.completion_time);
  EXPECT_LT(part0.completion_time, sync0.completion_time);
  EXPECT_LT(part6.completion_time, sync6.completion_time);
}

}  // namespace
