// Tests for the GA library: test-function values at known optima, decoding,
// migrant serialisation, fitness cache exactness, deme evolution invariants,
// the sequential baseline, and island-GA behaviour in all three modes.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "ga/chromosome.hpp"
#include "ga/deme.hpp"
#include "ga/fitness_cache.hpp"
#include "ga/functions.hpp"
#include "ga/island.hpp"
#include "ga/sequential.hpp"

namespace {

using nscc::dsm::Mode;
using nscc::ga::Deme;
using nscc::ga::dejong_testbed;
using nscc::ga::FitnessCache;
using nscc::ga::GaParams;
using nscc::ga::Individual;
using nscc::ga::IslandConfig;
using nscc::ga::run_island_ga;
using nscc::ga::run_sequential_ga;
using nscc::ga::SequentialGaConfig;
using nscc::ga::test_function;
using nscc::ga::TestFunction;
using nscc::util::BitVec;
using nscc::util::Xoshiro256;

Xoshiro256 g_rng(123);

double eval_at(const TestFunction& fn, const std::vector<double>& x) {
  return fn.eval(x, g_rng);
}

TEST(Functions, TestbedHasEightFunctionsMatchingTable1) {
  const auto& bed = dejong_testbed();
  ASSERT_EQ(bed.size(), 8u);
  EXPECT_EQ(bed[0].nvars, 3);
  EXPECT_DOUBLE_EQ(bed[0].lo, -5.12);
  EXPECT_EQ(bed[1].nvars, 2);
  EXPECT_DOUBLE_EQ(bed[1].hi, 2.048);
  EXPECT_EQ(bed[2].nvars, 5);
  EXPECT_EQ(bed[3].nvars, 30);
  EXPECT_TRUE(bed[3].noisy);
  EXPECT_EQ(bed[4].nvars, 2);
  EXPECT_DOUBLE_EQ(bed[4].hi, 65.536);
  EXPECT_EQ(bed[5].nvars, 20);
  EXPECT_EQ(bed[6].nvars, 10);
  EXPECT_DOUBLE_EQ(bed[6].hi, 500.0);
  EXPECT_EQ(bed[7].nvars, 10);
  EXPECT_DOUBLE_EQ(bed[7].hi, 600.0);
}

TEST(Functions, SphereMinimumAtOrigin) {
  EXPECT_DOUBLE_EQ(eval_at(test_function(1), {0, 0, 0}), 0.0);
  EXPECT_GT(eval_at(test_function(1), {1, 1, 1}), 0.0);
}

TEST(Functions, RosenbrockVariantMinimum) {
  // The paper's printed form has minima at x1=1, x2=+/-1.
  EXPECT_DOUBLE_EQ(eval_at(test_function(2), {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(eval_at(test_function(2), {1, -1}), 0.0);
  EXPECT_GT(eval_at(test_function(2), {0, 0}), 0.0);
}

TEST(Functions, StepFunctionNormalisedMinimumZero) {
  EXPECT_DOUBLE_EQ(eval_at(test_function(3), {-5.12, -5.12, -5.12, -5.12, -5.12}),
                   0.0);
  EXPECT_DOUBLE_EQ(eval_at(test_function(3), {0, 0, 0, 0, 0}), 30.0);
}

TEST(Functions, QuarticNoiseIsStochasticAroundDeterministicPart) {
  const auto& fn = test_function(4);
  std::vector<double> x(30, 0.0);
  nscc::util::RunningStats s;
  Xoshiro256 rng(5);
  for (int i = 0; i < 2000; ++i) s.add(fn.eval(x, rng));
  EXPECT_NEAR(s.mean(), 0.0, 0.1);   // Gauss(0,1) noise around 0.
  EXPECT_NEAR(s.stddev(), 1.0, 0.1);
}

TEST(Functions, FoxholesMinimumNearPublishedValue) {
  EXPECT_NEAR(eval_at(test_function(5), {-32, -32}), 0.998004, 1e-4);
  EXPECT_GT(eval_at(test_function(5), {0, 0}), 1.0);
}

TEST(Functions, RastriginMinimumZeroAtOrigin) {
  std::vector<double> x(20, 0.0);
  EXPECT_NEAR(eval_at(test_function(6), x), 0.0, 1e-12);
}

TEST(Functions, SchwefelMinimumNearPublishedValue) {
  std::vector<double> x(10, 420.9687);
  EXPECT_NEAR(eval_at(test_function(7), x), -4189.83, 0.1);
}

TEST(Functions, GriewankMinimumZeroAtOrigin) {
  std::vector<double> x(10, 0.0);
  EXPECT_NEAR(eval_at(test_function(8), x), 0.0, 1e-12);
}

TEST(Functions, LookupRejectsBadIds) {
  EXPECT_THROW(test_function(0), std::out_of_range);
  EXPECT_THROW(test_function(9), std::out_of_range);
}

TEST(Chromosome, DecodeEndpointsAndMidpoint) {
  const auto& fn = test_function(1);  // 3 vars x 10 bits on [-5.12, 5.12].
  BitVec zeros(static_cast<std::size_t>(fn.genome_bits()));
  auto x = nscc::ga::decode(zeros, fn);
  for (double v : x) EXPECT_DOUBLE_EQ(v, -5.12);

  BitVec ones(static_cast<std::size_t>(fn.genome_bits()));
  for (std::size_t i = 0; i < ones.size(); ++i) ones.set(i, true);
  x = nscc::ga::decode(ones, fn);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 5.12);
}

TEST(Chromosome, MigrantPackUnpackRoundTrip) {
  const auto& fn = test_function(6);
  Xoshiro256 rng(17);
  Individual ind;
  ind.genome = BitVec(static_cast<std::size_t>(fn.genome_bits()));
  ind.genome.randomize(rng);
  ind.fitness = 123.5;
  ind.evaluated = true;

  nscc::rt::Packet p;
  nscc::ga::pack_individual(p, ind, fn);
  EXPECT_EQ(p.byte_size(), nscc::ga::migrant_bytes(fn));
  Individual back = nscc::ga::unpack_individual(p, fn);
  EXPECT_EQ(back.genome, ind.genome);
  EXPECT_FLOAT_EQ(static_cast<float>(back.fitness),
                  static_cast<float>(ind.fitness));
}

TEST(FitnessCacheTest, ExactLookupNoFalseHits) {
  FitnessCache cache;
  Xoshiro256 rng(3);
  BitVec a(64);
  a.randomize(rng);
  cache.insert(a, 1.5);
  double f = 0.0;
  EXPECT_TRUE(cache.lookup(a, f));
  EXPECT_DOUBLE_EQ(f, 1.5);
  BitVec b = a;
  b.flip(5);
  EXPECT_FALSE(cache.lookup(b, f));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(FitnessCacheTest, BoundedCapacity) {
  FitnessCache cache(4);
  Xoshiro256 rng(9);
  for (int i = 0; i < 10; ++i) {
    BitVec v(32);
    v.randomize(rng);
    cache.insert(v, static_cast<double>(i));
  }
  EXPECT_LE(cache.size(), 4u);
}

TEST(DemeTest, InitializeEvaluatesWholePopulation) {
  GaParams params;
  Deme deme(test_function(1), params, Xoshiro256(11));
  const auto count = deme.initialize();
  EXPECT_EQ(count.evaluations, params.pop_size);
  EXPECT_EQ(deme.population().size(), static_cast<std::size_t>(params.pop_size));
  for (const auto& ind : deme.population()) EXPECT_TRUE(ind.evaluated);
}

TEST(DemeTest, StepKeepsPopulationSizeAndImprovesBest) {
  GaParams params;
  Deme deme(test_function(1), params, Xoshiro256(13));
  deme.initialize();
  const double initial_best = deme.best().fitness;
  for (int g = 0; g < 60; ++g) deme.step();
  EXPECT_EQ(deme.population().size(), static_cast<std::size_t>(params.pop_size));
  EXPECT_EQ(deme.generation(), 60);
  EXPECT_LT(deme.best().fitness, initial_best);
}

TEST(DemeTest, ElitismNeverLosesTheBest) {
  GaParams params;
  params.elitist = true;
  Deme deme(test_function(6), params, Xoshiro256(15));
  deme.initialize();
  double best = deme.best().fitness;
  for (int g = 0; g < 40; ++g) {
    deme.step();
    EXPECT_LE(deme.best().fitness, best + 1e-12);
    best = std::min(best, deme.best().fitness);
  }
}

TEST(DemeTest, BestKIsSortedAscending) {
  Deme deme(test_function(1), GaParams{}, Xoshiro256(17));
  deme.initialize();
  const auto top = deme.best_k(10);
  ASSERT_EQ(top.size(), 10u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i - 1].fitness, top[i].fitness);
  }
  EXPECT_DOUBLE_EQ(top[0].fitness, deme.best().fitness);
}

TEST(DemeTest, IncorporateReplacesWorstWithBestMigrants) {
  Deme deme(test_function(1), GaParams{}, Xoshiro256(19));
  deme.initialize();
  // Craft unbeatable migrants (fitness below any real value).
  std::vector<Individual> migrants(5);
  for (auto& m : migrants) {
    m.genome = BitVec(static_cast<std::size_t>(test_function(1).genome_bits()));
    m.fitness = -1.0;
    m.evaluated = true;
  }
  const double pre_worst = deme.worst_fitness();
  deme.incorporate(migrants, 5);
  int improved = 0;
  for (const auto& ind : deme.population()) {
    if (ind.fitness == -1.0) ++improved;
  }
  EXPECT_EQ(improved, 5);
  EXPECT_LE(deme.worst_fitness(), pre_worst);
  EXPECT_DOUBLE_EQ(deme.best().fitness, -1.0);
}

TEST(DemeTest, IncorporateCapsReplacementCount) {
  Deme deme(test_function(1), GaParams{}, Xoshiro256(21));
  deme.initialize();
  std::vector<Individual> migrants(200);
  for (auto& m : migrants) {
    m.genome = BitVec(static_cast<std::size_t>(test_function(1).genome_bits()));
    m.fitness = -2.0;
    m.evaluated = true;
  }
  deme.incorporate(migrants, 25);
  int replaced = 0;
  for (const auto& ind : deme.population()) {
    if (ind.fitness == -2.0) ++replaced;
  }
  EXPECT_EQ(replaced, 25);  // Never wiped out by a flood of migrants.
}

TEST(DemeTest, CacheReducesEvaluations) {
  FitnessCache cache;
  GaParams params;
  Deme deme(test_function(1), params, Xoshiro256(23), &cache);
  deme.initialize();
  nscc::ga::EvalCount total;
  for (int g = 0; g < 30; ++g) total += deme.step();
  EXPECT_GT(total.cache_hits, 0);
  EXPECT_LT(total.evaluations, 30 * params.pop_size);
}

TEST(SequentialGa, ConvergesOnSphereAndTracksTime) {
  SequentialGaConfig cfg;
  cfg.function_id = 1;
  cfg.generations = 120;
  cfg.seed = 31;
  const auto result = run_sequential_ga(cfg);
  EXPECT_GT(result.completion_time, 0);
  EXPECT_LT(result.best_fitness, 0.05);
  EXPECT_EQ(result.trajectory.points.size(), 121u);
  EXPECT_GT(result.cache_hits, 0u);
  // Best-so-far is monotone non-increasing.
  for (std::size_t i = 1; i < result.trajectory.points.size(); ++i) {
    EXPECT_LE(result.trajectory.points[i].second,
              result.trajectory.points[i - 1].second);
  }
  // Virtual time is monotone.
  for (std::size_t i = 1; i < result.trajectory.points.size(); ++i) {
    EXPECT_GE(result.trajectory.points[i].first,
              result.trajectory.points[i - 1].first);
  }
}

TEST(SequentialGa, DeterministicForSeed) {
  SequentialGaConfig cfg;
  cfg.function_id = 7;
  cfg.generations = 40;
  cfg.seed = 37;
  const auto a = run_sequential_ga(cfg);
  const auto b = run_sequential_ga(cfg);
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_DOUBLE_EQ(a.best_fitness, b.best_fitness);
}

TEST(SequentialGa, TimeToReachSemantics) {
  nscc::ga::GaTrajectory traj;
  traj.points = {{0, 10.0}, {5, 4.0}, {9, 1.0}};
  EXPECT_EQ(traj.time_to_reach(10.0), 0);
  EXPECT_EQ(traj.time_to_reach(4.0), 5);
  EXPECT_EQ(traj.time_to_reach(2.0), 9);
  EXPECT_EQ(traj.time_to_reach(0.5), -1);
}

IslandConfig small_island(Mode mode) {
  IslandConfig cfg;
  cfg.function_id = 1;
  cfg.mode = mode;
  cfg.ndemes = 4;
  cfg.generations = 40;
  cfg.seed = 41;
  return cfg;
}

TEST(IslandGa, SynchronousRunCompletes) {
  const auto r = run_island_ga(small_island(Mode::kSynchronous), {});
  EXPECT_FALSE(r.deadlocked);
  EXPECT_GT(r.completion_time, 0);
  EXPECT_LT(r.best_fitness, 0.5);
  EXPECT_GT(r.messages_sent, 0u);
  EXPECT_FALSE(r.global_best.points.empty());
  EXPECT_FALSE(r.global_average.points.empty());
}

TEST(IslandGa, AllModesCompleteAndConverge) {
  for (Mode mode :
       {Mode::kSynchronous, Mode::kAsynchronous, Mode::kPartialAsync}) {
    auto cfg = small_island(mode);
    cfg.age = 5;
    const auto r = run_island_ga(cfg, {});
    EXPECT_FALSE(r.deadlocked) << nscc::dsm::mode_name(mode);
    EXPECT_LT(r.best_fitness, 1.0) << nscc::dsm::mode_name(mode);
  }
}

TEST(IslandGa, DeterministicForSeed) {
  auto cfg = small_island(Mode::kPartialAsync);
  cfg.age = 10;
  const auto a = run_island_ga(cfg, {});
  const auto b = run_island_ga(cfg, {});
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_DOUBLE_EQ(a.best_fitness, b.best_fitness);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
}

TEST(IslandGa, SynchronousSlowerPerGenerationThanPartial) {
  // Same generation budget: sync pays barriers + age-0 waits; partial
  // overlaps communication.  Partial must finish no later.
  auto sync_cfg = small_island(Mode::kSynchronous);
  auto part_cfg = small_island(Mode::kPartialAsync);
  part_cfg.age = 10;
  const auto sync = run_island_ga(sync_cfg, {});
  const auto part = run_island_ga(part_cfg, {});
  EXPECT_LT(part.completion_time, sync.completion_time);
}

TEST(IslandGa, GlobalReadBlocksOccurUnderSkewForAgeZero) {
  auto cfg = small_island(Mode::kPartialAsync);
  cfg.age = 0;
  cfg.compute.node_speed_spread = 0.3;
  const auto r = run_island_ga(cfg, {});
  EXPECT_GT(r.global_read_blocks, 0u);
  EXPECT_GT(r.global_read_block_time, 0);
}

TEST(IslandGa, LargerAgeBlocksLess) {
  auto cfg = small_island(Mode::kPartialAsync);
  cfg.compute.node_speed_spread = 0.3;
  cfg.age = 0;
  const auto tight = run_island_ga(cfg, {});
  cfg.age = 20;
  const auto loose = run_island_ga(cfg, {});
  EXPECT_LT(loose.global_read_block_time, tight.global_read_block_time);
  EXPECT_LE(loose.completion_time, tight.completion_time);
}

TEST(IslandGa, AsyncNeverBlocksOnGlobalRead) {
  const auto r = run_island_ga(small_island(Mode::kAsynchronous), {});
  EXPECT_EQ(r.global_read_blocks, 0u);
}

TEST(IslandGa, PartialAsyncBoundsStaleness) {
  auto cfg = small_island(Mode::kPartialAsync);
  cfg.age = 5;
  cfg.compute.node_speed_spread = 0.4;
  cfg.generations = 60;
  const auto r = run_island_ga(cfg, {});
  // Mean staleness on satisfied reads can never exceed the age bound
  // by construction (values can only be fresher).
  EXPECT_LE(r.mean_staleness, 5.0 + 1e-9);
}

TEST(IslandGa, BackgroundLoadSlowsTheRun) {
  auto cfg = small_island(Mode::kSynchronous);
  const auto unloaded = run_island_ga(cfg, {});
  cfg.loader_offered_bps = 5e6;  // 5 Mbps of 10 Mbps.
  const auto loaded = run_island_ga(cfg, {});
  EXPECT_FALSE(loaded.deadlocked);
  EXPECT_GT(loaded.completion_time, unloaded.completion_time);
  EXPECT_GT(loaded.bus_utilization, unloaded.bus_utilization);
}

TEST(IslandGa, ScalesTotalPopulationWithDemes) {
  auto cfg = small_island(Mode::kSynchronous);
  cfg.ndemes = 2;
  const auto two = run_island_ga(cfg, {});
  cfg.ndemes = 8;
  cfg.generations = 40;
  const auto eight = run_island_ga(cfg, {});
  // 4x demes, same per-deme size: ~4x total evaluations (cache effects aside).
  EXPECT_GT(eight.evaluations + eight.cache_hits,
            3 * (two.evaluations + two.cache_hits));
}

}  // namespace
