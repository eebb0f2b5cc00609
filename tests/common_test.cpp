// Unit tests for common utilities: RNG determinism, Zipf distribution shape,
// statistics, and the table formatter.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/pattern.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "common/zipf.hpp"

namespace dcs {
namespace {

// --- pattern_bytes ---

TEST(PatternBytesTest, MatchesPerByteFormula) {
  for (const std::uint64_t base :
       {std::uint64_t{0}, std::uint64_t{131}, std::uint64_t{0xFFFFFFFFu} * 131,
        ~std::uint64_t{0}}) {
    for (const std::uint64_t step : {0u, 1u, 7u, 13u, 255u}) {
      for (const std::size_t n : {1u, 255u, 256u, 257u, 16384u, 16385u}) {
        const auto bytes = pattern_bytes(n, base, step);
        ASSERT_EQ(bytes.size(), n);
        for (std::size_t k = 0; k < n; ++k) {
          ASSERT_EQ(bytes[k], static_cast<std::byte>((base + k * step) & 0xffu))
              << "base " << base << " step " << step << " n " << n << " k "
              << k;
        }
      }
    }
  }
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformBoundRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(11);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 10.0);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng b = a.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler z(100, 0.9);
  double total = 0;
  for (std::size_t k = 0; k < z.size(); ++k) total += z.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, EmpiricalMatchesPmfForHeadRanks) {
  const std::size_t n = 50;
  ZipfSampler z(n, 0.9);
  Rng rng(13);
  std::vector<int> counts(n, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) counts[z.sample(rng)]++;
  for (std::size_t k = 0; k < 5; ++k) {
    const double expected = z.pmf(k) * draws;
    EXPECT_NEAR(counts[k], expected, expected * 0.05) << "rank " << k;
  }
}

TEST(ZipfTest, AlphaZeroIsUniform) {
  ZipfSampler z(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(z.pmf(k), 0.1, 1e-12);
}

TEST(ZipfTest, HigherAlphaConcentratesMass) {
  ZipfSampler lo(1000, 0.25), hi(1000, 0.9);
  EXPECT_GT(hi.pmf(0), lo.pmf(0));
}

TEST(ZipfTest, TraceDeterministicAndInRange) {
  ZipfTrace t1(100, 0.75, 5000, 99);
  ZipfTrace t2(100, 0.75, 5000, 99);
  EXPECT_EQ(t1.requests(), t2.requests());
  for (auto d : t1.requests()) EXPECT_LT(d, 100u);
}

TEST(ZipfTest, TraceDiffersAcrossSeeds) {
  ZipfTrace t1(100, 0.75, 1000, 1);
  ZipfTrace t2(100, 0.75, 1000, 2);
  EXPECT_NE(t1.requests(), t2.requests());
}

TEST(RunningStatTest, MeanAndVariance) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatTest, MergeEqualsCombinedStream) {
  RunningStat a, b, all;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform_double() * 10;
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(LatencySamplesTest, ExactPercentiles) {
  LatencySamples s;
  for (int i = 100; i >= 1; --i) s.add(i);  // 1..100
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 1e-9);
  EXPECT_EQ(s.max(), 100.0);
}

TEST(LatencySamplesTest, EmptyReturnsZero) {
  LatencySamples s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 0.0);
  EXPECT_DOUBLE_EQ(s.median(), 0.0);
}

TEST(LatencySamplesTest, LinearInterpolationHandComputed) {
  // Four samples: rank r = p/100 * (n-1); interpolate between floor/ceil.
  LatencySamples s;
  for (double v : {40.0, 10.0, 30.0, 20.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);   // r=1.5 -> 20 + 0.5*(30-20)
  EXPECT_NEAR(s.percentile(99), 39.7, 1e-9);  // r=2.97 -> 30 + 0.97*10
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
}

TEST(LatencySamplesTest, SingleSampleAllPercentilesEqual) {
  LatencySamples s;
  s.add(7.25);
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.25);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.25);
  EXPECT_DOUBLE_EQ(s.percentile(99), 7.25);
  EXPECT_DOUBLE_EQ(s.percentile(100), 7.25);
}

TEST(LogHistogramTest, BucketsPowerOfTwo) {
  LogHistogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket_count(0), 1u);   // 0
  EXPECT_EQ(h.bucket_count(1), 1u);   // 1
  EXPECT_EQ(h.bucket_count(2), 2u);   // 2,3
  EXPECT_EQ(h.bucket_count(11), 1u);  // 1024
}

TEST(TableTest, FormatsAlignedColumns) {
  Table t({"scheme", "8k", "16k"});
  t.add_row({"AC", "1000", "900"});
  t.add_row("BCC", {1500.5, 1400.25}, 1);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("scheme"), std::string::npos);
  EXPECT_NE(s.find("1500.5"), std::string::npos);
  EXPECT_NE(s.find("BCC"), std::string::npos);
}

TEST(UnitsTest, Conversions) {
  EXPECT_EQ(microseconds(1), 1000u);
  EXPECT_EQ(milliseconds(1), 1000000u);
  EXPECT_EQ(seconds(1), 1000000000u);
  EXPECT_DOUBLE_EQ(to_micros(microseconds(55)), 55.0);
  EXPECT_EQ(8_KB, 8192u);
  EXPECT_EQ(2_MB, 2097152u);
}

// --- flags: the declarative flag table ---

/// Parses `args` (after argv[0]) with a table of one row of each kind.
struct FlagRun {
  std::size_t nodes = 4;
  std::optional<std::uint32_t> node;
  double alpha = 0.5;
  std::string scheme = "a", out, file;
  bool check = false;

  void parse(std::vector<std::string> args) {
    args.insert(args.begin(), "unit");
    std::vector<const char*> argv;
    for (const auto& a : args) argv.push_back(a.c_str());
    flags::Table("unit", "",
                 {flags::positional("FILE", &file, "input"),
                  flags::count("--nodes", &nodes, 1, 64, "nodes"),
                  flags::count("--node", &node, 0, 7, "one node"),
                  flags::real("--alpha", &alpha, 0, 1, "skew"),
                  flags::choice("--scheme", &scheme, {"a", "b"}, "scheme"),
                  flags::path("--out", &out, "output"),
                  flags::toggle("--check", &check, "check only")})
        .parse(static_cast<int>(argv.size()), argv.data());
  }
};

TEST(FlagTableTest, EqualsAndSpaceSpellingsParseAlike) {
  FlagRun spaced, joined;
  spaced.parse({"f", "--nodes", "8", "--node", "3", "--alpha", "0.25",
                "--scheme", "b", "--out", "o", "--check"});
  joined.parse({"--nodes=8", "--node=3", "--alpha=0.25", "--scheme=b",
                "--out=o", "--check", "f"});
  for (const FlagRun* r : {&spaced, &joined}) {
    EXPECT_EQ(r->nodes, 8u);
    EXPECT_EQ(r->node, 3u);
    EXPECT_EQ(r->alpha, 0.25);
    EXPECT_EQ(r->scheme, "b");
    EXPECT_EQ(r->out, "o");
    EXPECT_EQ(r->file, "f");
    EXPECT_TRUE(r->check);
  }
}

TEST(FlagTableTest, DefaultsStayWhenAFlagIsAbsent) {
  FlagRun r;
  r.parse({"f"});
  EXPECT_EQ(r.nodes, 4u);
  EXPECT_EQ(r.node, std::nullopt);
  EXPECT_EQ(r.scheme, "a");
  EXPECT_FALSE(r.check);
}

TEST(FlagTableTest, EveryMalformedCommandLineExits2WithAMessage) {
  const std::pair<std::vector<std::string>, const char*> kCases[] = {
      {{"f", "--bogus"}, "unit: unknown flag --bogus"},
      {{"f", "-h"}, "unit: unknown flag -h"},
      {{"f", "g"}, "unit: unexpected argument 'g'"},
      {{}, "unit: missing FILE"},
      {{"f", "--nodes"}, "unit: --nodes needs a value"},
      {{"f", "--nodes", "--check"}, "unit: --nodes needs a value"},
      {{"f", "--out="}, "unit: --out needs a value"},
      {{"f", "--nodes=2", "--nodes", "2"}, "unit: --nodes given twice"},
      {{"f", "--check", "--check"}, "unit: --check given twice"},
      {{"f", "--check=1"}, "unit: --check takes no value"},
      {{"f", "--nodes", "0"}, "unit: --nodes wants a count in \\[1, 64\\]"},
      {{"f", "--nodes", "65"}, "unit: --nodes wants a count"},
      {{"f", "--node", "-1"}, "unit: --node wants a count"},
      {{"f", "--node", "8"}, "unit: --node wants a count"},
      {{"f", "--alpha", "nan"}, "unit: --alpha wants a number"},
      {{"f", "--scheme", "c"}, "unit: unknown --scheme 'c'"},
  };
  for (const auto& [args, message] : kCases) {
    FlagRun r;
    EXPECT_EXIT(r.parse(args), ::testing::ExitedWithCode(2), message)
        << message;
  }
}

TEST(FlagTableTest, HelpPrintsTheGeneratedUsageAndExits0) {
  FlagRun r;
  EXPECT_EXIT(r.parse({"--help"}), ::testing::ExitedWithCode(0), "");
  const std::string usage = flags::Table(
      "unit", "about", {flags::count("--nodes", &r.nodes, 1, 64, "nodes")})
                                .usage();
  EXPECT_EQ(usage,
            "usage: unit [flags]\n"
            "about\n\n"
            "  --nodes N             nodes (N in [1, 64], default 4)\n"
            "  --help                print this usage and exit\n");
}

TEST(FlagTableTest, CheckedParsersReadWholeNumbersOnly) {
  EXPECT_EQ(flags::parse_count("42"), 42u);
  EXPECT_EQ(flags::parse_count("18446744073709551615"),
            18446744073709551615ull);
  for (const char* text : {"", "-1", "+1", " 1", "1 ", "3x", "0x10",
                           "18446744073709551616"}) {
    EXPECT_EQ(flags::parse_count(text), std::nullopt) << text;
  }
  EXPECT_EQ(flags::parse_count("5", 6, 9), std::nullopt);
  EXPECT_EQ(flags::parse_real("-2.5e1"), -25.0);
  for (const char* text : {"", "nan", "inf", "1e999", "1.5.", " 1"}) {
    EXPECT_EQ(flags::parse_real(text), std::nullopt) << text;
  }
}

}  // namespace
}  // namespace dcs
