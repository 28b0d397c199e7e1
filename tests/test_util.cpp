// Tests for the util substrate: RNG statistical sanity and determinism,
// streaming statistics, confidence intervals, bit vectors, tables, flags.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bitvec.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using nscc::util::BitVec;
using nscc::util::Flags;
using nscc::util::RunningStats;
using nscc::util::Table;
using nscc::util::Xoshiro256;

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, Uniform01InRangeAndRoughlyUniform) {
  Xoshiro256 rng(7);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.uniform01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, BelowIsUnbiasedAcrossSmallRange) {
  Xoshiro256 rng(11);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(7)];
  for (int c : counts) EXPECT_NEAR(c, n / 7.0, 5.0 * std::sqrt(n / 7.0));
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Xoshiro256 rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, NormalMomentsMatch) {
  Xoshiro256 rng(17);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.03);
  EXPECT_NEAR(s.stddev(), 2.0, 0.03);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Xoshiro256 rng(19);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.005);
}

TEST(Rng, SplitProducesIndependentStream) {
  Xoshiro256 parent(23);
  Xoshiro256 child = parent.split(1);
  Xoshiro256 child2 = parent.split(2);
  EXPECT_NE(child(), child2());
  // Splitting must not perturb the parent.
  Xoshiro256 parent2(23);
  (void)parent2.split(1);
  (void)parent2.split(2);
  EXPECT_EQ(parent(), parent2());
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, SumIsExactNotReconstructedFromMean) {
  // Regression: sum() used to return mean() * n, which drifts once the mean
  // itself carries rounding error.  Accumulate values whose running mean is
  // not representable and check the sum stays exact (integers summed in
  // doubles are exact well past this range).
  RunningStats s;
  double exact = 0.0;
  for (int i = 1; i <= 10007; ++i) {
    const double x = static_cast<double>(i % 97) + 1.0 / 3.0;
    s.add(x);
    exact += x;
  }
  EXPECT_DOUBLE_EQ(s.sum(), exact);
  // mean * n is only close; sum() must be the accumulated value itself.
  EXPECT_NEAR(s.sum(), s.mean() * static_cast<double>(s.count()), 1e-6);
}

TEST(Stats, MergePreservesSum) {
  RunningStats a;
  RunningStats b;
  for (double x : {1.5, 2.5, 3.0}) a.add(x);
  for (double x : {10.0, 20.0}) b.add(x);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.sum(), 37.0);
  RunningStats empty;
  empty.merge(a);  // Merge into a default-constructed accumulator.
  EXPECT_DOUBLE_EQ(empty.sum(), 37.0);
}

TEST(Stats, MergeMatchesCombinedStream) {
  nscc::util::Xoshiro256 rng(31);
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    if (i % 3 == 0) {
      a.add(x);
    } else {
      b.add(x);
    }
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, NormalQuantileKnownValues) {
  EXPECT_NEAR(nscc::util::normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(nscc::util::normal_quantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(nscc::util::normal_quantile(0.95), 1.644854, 1e-5);
  EXPECT_NEAR(nscc::util::normal_quantile(0.05), -1.644854, 1e-5);
}

TEST(Stats, ZForConfidence) {
  EXPECT_NEAR(nscc::util::z_for_confidence(0.90), 1.6449, 1e-3);
  EXPECT_NEAR(nscc::util::z_for_confidence(0.95), 1.9600, 1e-3);
}

TEST(Stats, ProportionCiShrinksWithSamples) {
  const auto wide = nscc::util::proportion_ci(50, 100, 0.90);
  const auto narrow = nscc::util::proportion_ci(5000, 10000, 0.90);
  EXPECT_LT(narrow.half_width(), wide.half_width());
  EXPECT_TRUE(wide.contains(0.5));
}

TEST(Stats, SamplesForProportionMatchesPaperScale) {
  // The paper's +/-0.01 at 90% confidence: worst case ~6764 samples.
  const auto n = nscc::util::samples_for_proportion(0.01, 0.90);
  EXPECT_GE(n, 6500u);
  EXPECT_LE(n, 7000u);
}

TEST(BitVec, SetGetFlipPopcount) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.popcount(), 0u);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 3u);
  v.flip(0);
  EXPECT_FALSE(v.get(0));
  EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVec, ExtractLittleEndianBits) {
  BitVec v(16);
  // Write value 0b1011 at offset 4.
  v.set(4, true);
  v.set(5, true);
  v.set(7, true);
  EXPECT_EQ(v.extract(4, 4), 0b1011u);
  EXPECT_EQ(v.extract(0, 4), 0u);
}

TEST(BitVec, CrossoverSplitsAtPoint) {
  BitVec a(10);
  BitVec b(10);
  for (std::size_t i = 0; i < 10; ++i) b.set(i, true);
  BitVec ca;
  BitVec cb;
  BitVec::crossover(a, b, 4, ca, cb);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(ca.get(i), i >= 4);
    EXPECT_EQ(cb.get(i), i < 4);
  }
}

TEST(BitVec, HashDiscriminatesAndEqualityHolds) {
  nscc::util::Xoshiro256 rng(41);
  BitVec a(100);
  a.randomize(rng);
  BitVec b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.flip(57);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(BitVec, RandomizeMasksTailBits) {
  nscc::util::Xoshiro256 rng(43);
  BitVec v(70);
  v.randomize(rng);
  // Tail bits beyond 70 must be zero so hashing/equality are well defined.
  EXPECT_EQ(v.words().back() >> 6, 0u);
}

TEST(BitVec, RoundTripFromWords) {
  nscc::util::Xoshiro256 rng(47);
  BitVec v(90);
  v.randomize(rng);
  BitVec w = BitVec::from_words(90, v.words());
  EXPECT_EQ(v, w);
}

TEST(Table, RendersAlignedColumnsAndCsv) {
  Table t("demo");
  t.columns({"name", "value"});
  t.row().cell("alpha").cell(1.5, 2);
  t.row().cell("b").cell(std::int64_t{42});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("b,42"), std::string::npos);
}

TEST(Table, CsvQuotesSpecialCharacters) {
  Table t;
  t.columns({"c"});
  t.row().cell("has,comma");
  EXPECT_NE(t.to_csv().find("\"has,comma\""), std::string::npos);
}

TEST(Flags, ParsesAllKindsAndDefaults) {
  Flags f;
  f.add_int("gens", 100, "generations")
      .add_double("rate", 0.5, "rate")
      .add_bool("verbose", false, "chatty")
      .add_string("mode", "sync", "mode");
  const char* argv[] = {"prog", "--gens=250", "--rate", "0.75", "--verbose"};
  ASSERT_TRUE(f.parse(5, const_cast<char**>(argv)));
  EXPECT_EQ(f.get_int("gens"), 250);
  EXPECT_DOUBLE_EQ(f.get_double("rate"), 0.75);
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_EQ(f.get_string("mode"), "sync");
}

TEST(Flags, RejectsUnknownFlag) {
  Flags f;
  f.add_int("x", 1, "x");
  const char* argv[] = {"prog", "--nope=3"};
  EXPECT_FALSE(f.parse(2, const_cast<char**>(argv)));
}

TEST(Flags, EnvOverrideApplies) {
  ::setenv("NSCC_SCALE_FACTOR", "9", 1);
  Flags f;
  f.add_int("scale-factor", 1, "scale");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(f.get_int("scale-factor"), 9);
  ::unsetenv("NSCC_SCALE_FACTOR");
}

TEST(Flags, CommandLineBeatsEnv) {
  ::setenv("NSCC_REPS", "3", 1);
  Flags f;
  f.add_int("reps", 1, "reps");
  const char* argv[] = {"prog", "--reps=5"};
  ASSERT_TRUE(f.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(f.get_int("reps"), 5);
  ::unsetenv("NSCC_REPS");
}

TEST(Flags, RejectsIllFormedNumbers) {
  Flags f;
  f.add_int("n", 1, "n").add_double("r", 0.5, "r");
  const char* bad_int[] = {"prog", "--n=12abc"};
  EXPECT_FALSE(f.parse(2, const_cast<char**>(bad_int)));
  Flags g;
  g.add_double("r", 0.5, "r");
  const char* bad_double[] = {"prog", "--r=fast"};
  EXPECT_FALSE(g.parse(2, const_cast<char**>(bad_double)));
}

TEST(Flags, EnumAcceptsAllowedValueOnly) {
  Flags f;
  f.add_enum("network", "ethernet", {"ethernet", "sp2"}, "net");
  const char* ok[] = {"prog", "--network=sp2"};
  ASSERT_TRUE(f.parse(2, const_cast<char**>(ok)));
  EXPECT_EQ(f.get_string("network"), "sp2");

  Flags g;
  g.add_enum("network", "ethernet", {"ethernet", "sp2"}, "net");
  const char* bad[] = {"prog", "--network=token-ring"};
  EXPECT_FALSE(g.parse(2, const_cast<char**>(bad)));
}

TEST(Flags, EnumListAcceptsSubsetRejectsJunk) {
  const std::vector<std::string> allowed = {"sync", "async", "partial"};
  Flags f;
  f.add_enum_list("variants", "sync,async,partial", allowed, "variants");
  const char* ok[] = {"prog", "--variants=partial,sync"};
  ASSERT_TRUE(f.parse(2, const_cast<char**>(ok)));
  EXPECT_EQ(f.get_list("variants"),
            (std::vector<std::string>{"partial", "sync"}));

  for (const char* value :
       {"--variants=", "--variants=sync,nope", "--variants=sync,sync"}) {
    Flags g;
    g.add_enum_list("variants", "sync", allowed, "variants");
    const char* bad[] = {"prog", value};
    EXPECT_FALSE(g.parse(2, const_cast<char**>(bad))) << value;
  }
}

TEST(Flags, SetDefaultValidatesAndStaysOverridable) {
  Flags f;
  f.add_int("demes", 8, "demes").add_enum("network", "ethernet",
                                          {"ethernet", "sp2"}, "net");
  EXPECT_TRUE(f.set_default("demes", "4"));
  EXPECT_TRUE(f.set_default("network", "sp2"));
  EXPECT_FALSE(f.set_default("nope", "1"));        // unknown flag
  EXPECT_FALSE(f.set_default("network", "ring"));  // outside the enum
  const char* argv[] = {"prog", "--demes=2"};
  ASSERT_TRUE(f.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(f.get_int("demes"), 2);  // command line beats the new default
  EXPECT_EQ(f.get_string("network"), "sp2");
}

TEST(Flags, InvalidEnvOverrideIsIgnoredNotFatal) {
  ::setenv("NSCC_NETWORK", "token-ring", 1);
  Flags f;
  f.add_enum("network", "ethernet", {"ethernet", "sp2"}, "net");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(f.get_string("network"), "ethernet");
  ::unsetenv("NSCC_NETWORK");
}

TEST(SplitCsv, SplitsAndPreservesEmptyTokens) {
  using nscc::util::split_csv;
  EXPECT_EQ(split_csv("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv(""), (std::vector<std::string>{""}));
  EXPECT_EQ(split_csv("a,,b"), (std::vector<std::string>{"a", "", "b"}));
}

TEST(ParseIntCsv, ParsesIntegersAndRejectsJunk) {
  using nscc::util::parse_int_csv;
  EXPECT_EQ(parse_int_csv("2,4,16"), (std::vector<int>{2, 4, 16}));
  EXPECT_EQ(parse_int_csv("-1"), (std::vector<int>{-1}));
  for (const char* bad : {"abc", "", "4,", "4,,8", "4x", " 4", "1e3",
                          "99999999999"}) {
    EXPECT_THROW((void)parse_int_csv(bad), std::invalid_argument) << bad;
  }
}

}  // namespace
