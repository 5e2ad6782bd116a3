// Support-library tests: deterministic RNG, statistics, table/CSV, CLI.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace topomap {
namespace {

TEST(Rng, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  bool any_diff = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) any_diff |= (a2() != c());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_THROW(rng.uniform(0), precondition_error);
  EXPECT_THROW(rng.uniform_int(3, 2), precondition_error);
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(99);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, PermutationIsBijection) {
  Rng rng(5);
  const auto p = rng.permutation(200);
  std::vector<char> seen(200, 0);
  for (int v : p) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 200);
    EXPECT_FALSE(seen[v]);
    seen[v] = 1;
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(1);
  Rng child = parent.split();
  EXPECT_NE(parent(), child());
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsCombinedStream) {
  Rng rng(3);
  RunningStats a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform_double(-3, 9);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SampleStats, Percentiles) {
  SampleStats s;
  for (int i = 100; i >= 1; --i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.percentile(0.5), 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_THROW(s.percentile(1.5), precondition_error);
}

TEST(Table, PrintsAlignedAndWritesCsv) {
  Table t("demo", {"name", "count", "ratio"}, 2);
  t.add_row({std::string("alpha"), std::int64_t{42}, 1.234});
  t.add_row({std::string("b,\"x\""), std::int64_t{7}, 0.5});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("demo"), std::string::npos);
  EXPECT_NE(os.str().find("alpha"), std::string::npos);
  EXPECT_NE(os.str().find("1.23"), std::string::npos);

  const auto path = std::filesystem::temp_directory_path() / "topomap_t.csv";
  ASSERT_TRUE(t.write_csv(path.string()));
  std::ifstream in(path);
  std::string header, row1, row2;
  std::getline(in, header);
  std::getline(in, row1);
  std::getline(in, row2);
  EXPECT_EQ(header, "name,count,ratio");
  EXPECT_EQ(row1, "alpha,42,1.23");
  EXPECT_EQ(row2, "\"b,\"\"x\"\"\",7,0.50");
  std::filesystem::remove(path);
}

TEST(Table, RejectsMismatchedRows) {
  Table t("demo", {"a", "b"});
  EXPECT_THROW(t.add_row({std::int64_t{1}}), precondition_error);
}

TEST(CheckedNarrow, KeepsEveryValueTheTargetHoldsAndRejectsTheRest) {
  // Both ends of a target's range pass unchanged; one past either end throws
  // instead of wrapping (the message is checked through the CLI below).
  const std::int64_t lo = INT32_MIN, hi = INT32_MAX, uhi = UINT32_MAX;
  EXPECT_EQ(checked_narrow<int>(lo, "x"), lo);
  EXPECT_EQ(checked_narrow<int>(hi, "x"), hi);
  EXPECT_EQ(checked_narrow<std::uint32_t>(uhi, "x"), uhi);
  for (const std::int64_t v : {lo - 1, hi + 1})
    EXPECT_THROW(checked_narrow<int>(v, "x"), precondition_error) << v;
  EXPECT_THROW(checked_narrow<std::uint32_t>(uhi + 1, "x"),
               precondition_error);
  EXPECT_THROW(checked_narrow<std::size_t>(-1, "x"), precondition_error);
}

TEST(Cli, ParsesFlagsOptionsAndLists) {
  CliParser cli("test");
  cli.add_flag("fast", "run fast");
  cli.add_option("iters", "iterations", "100");
  cli.add_option("sizes", "sweep sizes", "1,2,3");
  cli.add_option("bw", "bandwidth", "2.5");
  const char* argv[] = {"prog", "--fast", "--iters=250", "--bw", "7.5"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_TRUE(cli.flag("fast"));
  EXPECT_EQ(cli.integer("iters"), 250);
  EXPECT_DOUBLE_EQ(cli.real("bw"), 7.5);
  EXPECT_EQ(cli.int_list("sizes"), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(Cli, RejectsUnknownAndMalformed) {
  CliParser cli("test");
  cli.add_option("iters", "iterations", "100");
  const char* bad1[] = {"prog", "--nope=1"};
  EXPECT_FALSE(CliParser(cli).parse(2, bad1));
  const char* bad2[] = {"prog", "positional"};
  CliParser cli2("test");
  EXPECT_FALSE(cli2.parse(2, bad2));

  // Malformed, out-of-range and too-wide values throw a typed
  // precondition_error naming the flag, never a bare std::stoll error or a
  // value wrapped through a narrowing cast.
  const auto error_of = [](const char* arg, auto read) -> std::string {
    CliParser c("test");
    c.add_option("n", "count", "100");
    c.add_option("bw", "bandwidth", "2.5");
    c.add_option("sizes", "sweep sizes", "1,2,3");
    const char* argv[] = {"prog", arg};
    EXPECT_TRUE(c.parse(2, argv)) << arg;
    try {
      read(c);
    } catch (const precondition_error& e) {
      return e.what();
    }
    return "";
  };
  const auto as_i64 = [](const CliParser& c) { c.integer("n"); };
  const auto as_int = [](const CliParser& c) { c.integer_as<int>("n"); };
  for (const char* arg : {"--n=abc", "--n=12abc", "--n=", "--n=1e99999"})
    EXPECT_NE(error_of(arg, as_i64).find("--n is not an integer"),
              std::string::npos)
        << arg;
  EXPECT_NE(error_of("--n=99999999999999999999", as_i64).find("--n is out"),
            std::string::npos);
  EXPECT_NE(error_of("--n=4294967297", as_int).find("--n is out of range"),
            std::string::npos);
  EXPECT_EQ(error_of("--n=-2147483648", as_int), "");
  // Seeds are read as uint64_t: every value the RNG takes is accepted, and
  // a negative one is out of range instead of wrapping.
  const auto as_u64 = [](const CliParser& c) { c.unsigned_integer("n"); };
  EXPECT_EQ(error_of("--n=18446744073709551615", as_u64), "");
  EXPECT_EQ(error_of("--n=0", as_u64), "");
  for (const char* arg : {"--n=-1", "--n= -1", "--n=18446744073709551616"})
    EXPECT_NE(error_of(arg, as_u64).find("--n is out of range"),
              std::string::npos)
        << arg;
  EXPECT_NE(error_of("--n=12abc", as_u64).find("--n is not an integer"),
            std::string::npos);
  {
    CliParser c("test");
    c.add_option("seed", "RNG seed", "1");
    const char* argv[] = {"prog", "--seed=18446744073709551615"};
    ASSERT_TRUE(c.parse(2, argv));
    EXPECT_EQ(c.unsigned_integer("seed"), 18446744073709551615ull);
  }
  EXPECT_NE(error_of("--bw=1.5x", [](const CliParser& c) { c.real("bw"); })
                .find("--bw is not a number"),
            std::string::npos);
  EXPECT_NE(error_of("--sizes=1,x", [](const CliParser& c) {
              c.int_list("sizes");
            }).find("--sizes is not an integer"),
            std::string::npos);
}

}  // namespace
}  // namespace topomap
