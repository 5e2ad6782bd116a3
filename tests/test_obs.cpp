// The obs:: subsystem: JSON round-trips, registry merge determinism across
// worker-pool sizes, span nesting and the Chrome-trace exporter, the
// schema-versioned Report, the contract that enabling telemetry never
// changes a mapping result, and exact pins on TopoLB's work counters.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/baseline_lb.hpp"
#include "core/mapping.hpp"
#include "core/metrics.hpp"
#include "core/refine_topo_lb.hpp"
#include "core/topo_lb.hpp"
#include "graph/builders.hpp"
#include "graph/task_graph.hpp"
#include "obs/histogram.hpp"
#include "support/json.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/tracer.hpp"
#include "ops/ops.hpp"
#include "runtime/evacuate.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topo/distance_cache.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"

namespace topomap::obs {
namespace {

namespace json = support::json;
using json::Value;

// Every test starts and ends with a clean, disabled registry so suites can
// run in any order.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    Registry::instance().reset();
    Tracer::instance().reset();
  }
  void TearDown() override {
    set_enabled(false);
    Registry::instance().reset();
    Tracer::instance().reset();
    support::set_num_threads(1);
  }
};

// --- JSON -----------------------------------------------------------------

TEST_F(ObsTest, JsonRoundTripsScalarsArraysObjects) {
  const std::string text =
      R"({"a": 1, "b": -2.5, "c": "hi\nthere", "d": [true, false, null], )"
      R"("e": {"nested": [1, 2, 3]}})";
  const Value v = Value::parse(text);
  EXPECT_EQ(v.at("a").as_number(), 1.0);
  EXPECT_EQ(v.at("b").as_number(), -2.5);
  EXPECT_EQ(v.at("c").as_string(), "hi\nthere");
  EXPECT_TRUE(v.at("d").items()[0].as_bool());
  EXPECT_TRUE(v.at("d").items()[2].is_null());
  EXPECT_EQ(v.at("e").at("nested").items().size(), 3u);
  // dump -> parse -> dump is a fixed point.
  const std::string once = v.dump();
  EXPECT_EQ(Value::parse(once).dump(), once);
}

TEST_F(ObsTest, JsonPreservesMemberOrderAndShortNumbers) {
  Value obj = Value::object();
  obj.set("zulu", 1);
  obj.set("alpha", 0.25);
  EXPECT_EQ(obj.dump(), R"({"zulu":1,"alpha":0.25})");
  EXPECT_EQ(json::format_number(3.0), "3");
  EXPECT_EQ(json::format_number(0.1), "0.1");
}

TEST_F(ObsTest, JsonParseErrorsThrowWithOffset) {
  EXPECT_THROW((void)Value::parse("{\"a\": }"), precondition_error);
  EXPECT_THROW((void)Value::parse("[1, 2"), precondition_error);
  EXPECT_THROW((void)Value::parse("{} trailing"), precondition_error);
  EXPECT_THROW((void)Value::parse(""), precondition_error);
}

TEST_F(ObsTest, JsonRepeatedKeysKeepFirstPositionAndLastValue) {
  EXPECT_EQ(Value::parse(R"({"a":1,"b":2,"a":3})").dump(), R"({"a":3,"b":2})");
  // Random objects over a small key alphabet, so keys repeat, some with
  // nested objects that repeat keys too; each parses to the tree that
  // Value::set builds appending the members one by one.
  std::mt19937_64 gen(0x0b1ec7);
  for (int round = 0; round < 400; ++round) {
    const std::size_t n = gen() % 48;
    const std::size_t alphabet = 1 + gen() % 24;
    Value reference = Value::object();
    std::string text = "{";
    for (std::size_t i = 0; i < n; ++i) {
      const std::string key = std::string("k").append(
          std::to_string(gen() % alphabet));
      const int value = static_cast<int>(i);
      if (i) text += ',';
      if (gen() % 4 == 0) {  // a nested object with its own repeats
        text += "\"" + key + "\":{\"x\":" + std::to_string(value) +
                ",\"x\":" + std::to_string(-value) + "}";
        Value inner = Value::object();
        inner.set("x", -value);
        reference.set(key, std::move(inner));
      } else {
        text += "\"" + key + "\":" + std::to_string(value);
        reference.set(key, value);
      }
    }
    text += '}';
    EXPECT_EQ(Value::parse(text).dump(), reference.dump()) << text;
  }
}

TEST_F(ObsTest, JsonObjectKeysResolveInLogLinearComparisons) {
  // A 65,536-member object over at most 40,000 distinct keys.  Resolving
  // its repeats sorts member positions: at most 2 m log2 m = 2,097,152 key
  // comparisons, where a scan of the earlier keys per member (Value::set)
  // makes about m^2 / 2 = 2^31.  Parsing the same object keeps each key's
  // first position and last value.
  constexpr std::size_t m = std::size_t{1} << 16;
  std::mt19937_64 gen(0x5eed);
  json::Members members;
  std::string text = "{";
  std::vector<std::pair<std::string, int>> want;  // first position order
  std::map<std::string, std::size_t> slot;
  for (std::size_t i = 0; i < m; ++i) {
    const std::string key =
        std::string("k").append(std::to_string(gen() % 40000));
    const int value = static_cast<int>(i);
    members.emplace_back(key, value);
    if (i) text += ',';
    text += "\"" + key + "\":" + std::to_string(value);
    const auto [it, fresh] = slot.try_emplace(key, want.size());
    if (fresh) want.emplace_back(key, value);
    else want[it->second].second = value;
  }
  text += '}';
  ASSERT_LT(want.size(), m);  // the object really repeats keys

  const std::size_t comparisons = json::detail::resolve_repeated_keys(members);
  EXPECT_LE(comparisons, 2 * m * 16);
  const Value parsed = Value::parse(text);
  const json::Members* const results[] = {&members, &parsed.members()};
  for (const json::Members* got : results) {
    ASSERT_EQ(got->size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*got)[i].first, want[i].first);
      EXPECT_EQ((*got)[i].second.as_number(), want[i].second);
    }
  }
}

// The number codec's contract, stated as the printf/strtod formula the
// writer and parser must reproduce byte for byte: integral values below
// 2^53 print as "%.0f", everything else as the first of "%.15g", "%.16g",
// "%.17g" that strtod reads back exactly; a parsed number is strtod's
// double for the same text.
std::string printf_format_number(double d) {
  char buf[40];
  if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%.0f", d);
    return buf;
  }
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

std::uint64_t bits_of(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// Format `d` both ways and parse the text both ways; returns how many of
/// the two checks disagree (0 or more), failing the test with the value.
int number_codec_mismatches(double d) {
  int bad = 0;
  const std::string expected = printf_format_number(d);
  const std::string got = json::format_number(d);
  if (got != expected) {
    ADD_FAILURE() << "format_number(" << expected << ") printed " << got;
    ++bad;
  }
  const double parsed = Value::parse(expected).as_number();
  if (bits_of(parsed) != bits_of(std::strtod(expected.c_str(), nullptr))) {
    ADD_FAILURE() << "parse(" << expected << ") differs from strtod";
    ++bad;
  }
  return bad;
}

TEST_F(ObsTest, JsonNumberCodecMatchesPrintfAndStrtod) {
  int mismatches = 0;
  for (const double d :
       {0.0, -0.0, 5e-324, -5e-324, DBL_MIN, DBL_MAX, -DBL_MAX,
        9007199254740991.0, 9007199254740992.0, -9007199254740992.0,
        1e15, 1e16, 1e21, 0.1, 1e-5, 0.5, 1.0 / 3.0, 123456789.125})
    mismatches += number_codec_mismatches(d);

  // Texts beyond the double range parse as strtod reads them: overflow to
  // infinity, underflow to zero.
  for (const char* text : {"1e400", "-1e400", "1e-400", "-1e-400",
                           "2.4703282292062327e-324", "0.1e1", "-0",
                           "00012", "1E+2"}) {
    const double parsed = Value::parse(text).as_number();
    EXPECT_EQ(bits_of(parsed), bits_of(std::strtod(text, nullptr))) << text;
  }

  std::mt19937_64 gen(20240611);
  // Random bit patterns cover every exponent, subnormals included.
  constexpr int kBitPatterns = 1000000;
  for (int i = 0; i < kBitPatterns; ++i) {
    std::uint64_t u = gen();
    double d;
    std::memcpy(&d, &u, sizeof d);
    if (!std::isfinite(d)) continue;
    mismatches += number_codec_mismatches(d);
    if (mismatches > 10) break;
  }
  // Values the stack actually emits: uniform fractions and scaled
  // integers (byte counts, ratios, means).
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 200000 && mismatches <= 10; ++i) {
    mismatches += number_codec_mismatches(unit(gen));
    mismatches += number_codec_mismatches(
        static_cast<double>(gen() >> (gen() % 64)) / 8.0);
  }
  // Decimal texts with arbitrary digit counts and exponents, including
  // ones no formatter would print (more digits than a double holds).
  for (int i = 0; i < 200000 && mismatches <= 10; ++i) {
    std::string text = gen() % 2 ? "-" : "";
    text += static_cast<char>('1' + gen() % 9);
    for (int k = static_cast<int>(gen() % 24); k > 0; --k)
      text += static_cast<char>('0' + gen() % 10);
    if (gen() % 2) {
      text += '.';
      for (int k = 1 + static_cast<int>(gen() % 20); k > 0; --k)
        text += static_cast<char>('0' + gen() % 10);
    }
    if (gen() % 2) {
      text += 'e';
      text += std::to_string(static_cast<int>(gen() % 700) - 350);
    }
    const double parsed = Value::parse(text).as_number();
    if (bits_of(parsed) != bits_of(std::strtod(text.c_str(), nullptr))) {
      ADD_FAILURE() << "parse(" << text << ") differs from strtod";
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// --- Registry -------------------------------------------------------------

TEST_F(ObsTest, RegistryCountsRecordsAndResets) {
  Registry& reg = Registry::instance();
  reg.add("x/count", 2);
  reg.add("x/count", 3);
  reg.observe("x/value", 4.0);
  reg.observe("x/value", 8.0);
  reg.append_series("x/series", 1.0);
  reg.append_series("x/series", 2.0);

  EXPECT_EQ(reg.counter("x/count"), 5u);
  EXPECT_EQ(reg.counter("never/touched"), 0u);
  const auto hists = reg.histograms();
  ASSERT_EQ(hists.count("x/value"), 1u);
  EXPECT_EQ(hists.at("x/value").count(), 2u);
  EXPECT_EQ(hists.at("x/value").mean(), 6.0);
  EXPECT_EQ(hists.at("x/value").min_or_zero(), 4.0);
  EXPECT_EQ(hists.at("x/value").max_or_zero(), 8.0);
  const auto series = reg.series();
  ASSERT_EQ(series.count("x/series"), 1u);
  EXPECT_EQ(series.at("x/series"), (std::vector<double>{1.0, 2.0}));

  reg.reset();
  EXPECT_TRUE(reg.counters().empty());
  EXPECT_TRUE(reg.histograms().empty());
  EXPECT_TRUE(reg.series().empty());
}

// The same parallel workload must produce the same merged counters no
// matter how many worker threads recorded them (histograms: below).
TEST_F(ObsTest, RegistryMergeIsDeterministicAcrossThreadCounts) {
  constexpr int kN = 10'000;
  auto run = [&] {
    Registry::instance().reset();
    support::parallel_for(kN, /*grain=*/64, [](int begin, int end) {
      for (int i = begin; i < end; ++i) {
        Registry::instance().add("merge/count", 1);
        Registry::instance().add("merge/weighted",
                                 static_cast<std::uint64_t>(i % 7));
      }
    });
    return Registry::instance().counters();
  };

  support::set_num_threads(1);
  const auto base = run();
  EXPECT_EQ(base.at("merge/count"), static_cast<std::uint64_t>(kN));
  for (int threads : {2, 8}) {
    support::set_num_threads(threads);
    EXPECT_EQ(run(), base) << threads << " threads";
  }
}

// --- Histogram ------------------------------------------------------------

TEST_F(ObsTest, HistogramBucketBoundariesAreFixedAndCoverTheLine) {
  // Bucket 0 absorbs sub-1.0 values and NaN; above it the layout is
  // log2-linear with kSubBuckets per octave.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(0.999), 0);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0);
  EXPECT_EQ(Histogram::bucket_index(1.0), 1);
  // Every bucket boundary lands in its own bucket, boundaries ascend, and
  // [lo, hi) tiles the line with no gaps.
  for (int i = 1; i < Histogram::kBucketCount; ++i) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lo(i)), i) << i;
    EXPECT_LT(Histogram::bucket_lo(i), Histogram::bucket_hi(i)) << i;
    EXPECT_EQ(Histogram::bucket_hi(i - 1), Histogram::bucket_lo(i)) << i;
  }
  // Values beyond the top octave clamp into the last bucket.
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBucketCount - 1);
}

TEST_F(ObsTest, HistogramIsInsertOrderFreeAndMergesExactly) {
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i)
    samples.push_back(static_cast<double>((i * 37) % 1000));
  Histogram forward, backward, merged_a, merged_b;
  for (double v : samples) forward.add(v);
  for (auto it = samples.rbegin(); it != samples.rend(); ++it)
    backward.add(*it);
  for (std::size_t i = 0; i < samples.size(); ++i)
    (i % 2 == 0 ? merged_a : merged_b).add(samples[i]);
  merged_a.merge(merged_b);
  EXPECT_TRUE(forward == backward);
  EXPECT_TRUE(forward == merged_a);
  EXPECT_EQ(forward.count(), 500u);
  // Integral samples keep the sum exact, so even sum() compares equal.
  EXPECT_EQ(forward.sum(), merged_a.sum());
}

TEST_F(ObsTest, HistogramQuantilesAreDeterministicAndBracketed) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty reports 0
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.quantile(0.0), 1.0);
  EXPECT_EQ(h.quantile(1.0), 1000.0);
  const double p50 = h.quantile(0.5);
  const double p99 = h.quantile(0.99);
  // Log-bucketed estimates: within one bucket's relative resolution.
  EXPECT_NEAR(p50, 500.0, 500.0 / Histogram::kSubBuckets);
  EXPECT_NEAR(p99, 990.0, 990.0 / Histogram::kSubBuckets);
  EXPECT_LE(p50, p99);
  // Same multiset -> identical estimate, regardless of insert order.
  Histogram r;
  for (int i = 1000; i >= 1; --i) r.add(static_cast<double>(i));
  EXPECT_EQ(r.quantile(0.5), p50);
  EXPECT_EQ(r.quantile(0.99), p99);
}

// Sharded histograms must merge to the same snapshot no matter how many
// worker threads recorded the samples — the counter contract, extended.
TEST_F(ObsTest, RegistryHistogramMergeIsDeterministicAcrossThreadCounts) {
  constexpr int kN = 10'000;
  auto run = [&] {
    Registry::instance().reset();
    support::parallel_for(kN, /*grain=*/64, [](int begin, int end) {
      for (int i = begin; i < end; ++i)
        Registry::instance().observe("merge/hist",
                                     static_cast<double>(i % 97));
    });
    return Registry::instance().histograms();
  };

  support::set_num_threads(1);
  const auto base = run();
  ASSERT_EQ(base.count("merge/hist"), 1u);
  EXPECT_EQ(base.at("merge/hist").count(), static_cast<std::uint64_t>(kN));
  for (int threads : {2, 8}) {
    support::set_num_threads(threads);
    const auto got = run();
    ASSERT_EQ(got.count("merge/hist"), 1u) << threads << " threads";
    EXPECT_TRUE(got.at("merge/hist") == base.at("merge/hist"))
        << threads << " threads";
  }
}

// --- Tracer ---------------------------------------------------------------

TEST_F(ObsTest, TracerRecordsNestedSpansInOrder) {
  set_enabled(true);
  {
    ScopedSpan outer("outer");
    { ScopedSpan inner("inner"); }
    { ScopedSpan inner("inner"); }
  }
  const auto spans = Tracer::instance().spans();
  ASSERT_EQ(spans.size(), 3u);
  // Sorted by start time: outer opened first, then the two inner slices.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].name, "inner");
  EXPECT_LE(spans[1].start_ns + spans[1].dur_ns,
            spans[2].start_ns + spans[2].dur_ns);
  // Both inner spans sit inside the outer interval.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[2].start_ns + spans[2].dur_ns,
            spans[0].start_ns + spans[0].dur_ns);

  const auto rollup = Tracer::instance().rollup();
  ASSERT_EQ(rollup.count("inner"), 1u);
  EXPECT_EQ(rollup.at("inner").count, 2u);
  EXPECT_NE(Tracer::instance().summary().find("outer"), std::string::npos);
}

TEST_F(ObsTest, TracerRecordsNothingWhileDisabled) {
  { ScopedSpan span("ghost"); }
  EXPECT_TRUE(Tracer::instance().spans().empty());
}

// Regression: a span opened while enabled but closing after
// set_enabled(false) must be dropped, not recorded — "disabled records
// nothing" holds at the record point, not the open point.  The depth
// counter still balances so later spans nest correctly.
TEST_F(ObsTest, SpanOutlivingDisableIsDroppedAndDepthStaysBalanced) {
  set_enabled(true);
  {
    ScopedSpan span("outliver");
    set_enabled(false);
  }
  EXPECT_TRUE(Tracer::instance().spans().empty());

  set_enabled(true);
  { ScopedSpan span("after"); }
  const auto spans = Tracer::instance().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "after");
  EXPECT_EQ(spans[0].depth, 0);  // the dropped span's depth slot was freed
}

TEST_F(ObsTest, ChromeTraceExportIsParseableCompleteEvents) {
  set_enabled(true);
  {
    ScopedSpan a("phase/a");
    { ScopedSpan b("phase/b"); }
  }
  std::ostringstream os;
  Tracer::instance().write_chrome_trace(os);
  const Value doc = Value::parse(os.str());
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.items().size(), 2u);
  for (const Value& event : doc.items()) {
    EXPECT_EQ(event.at("ph").as_string(), "X");
    EXPECT_TRUE(event.at("name").is_string());
    EXPECT_GE(event.at("ts").as_number(), 0.0);
    EXPECT_GE(event.at("dur").as_number(), 0.0);
    EXPECT_EQ(event.at("pid").as_number(), 1.0);
    EXPECT_GE(event.at("tid").as_number(), 0.0);
  }
}

// --- Report ---------------------------------------------------------------

TEST_F(ObsTest, ReportCarriesSchemaAndCapturedState) {
  set_enabled(true);
  Registry::instance().add("report/count", 7);
  Registry::instance().observe("report/value", 3.0);
  Registry::instance().append_series("report/series", 1.0);
  { ScopedSpan span("report/span"); }

  Report report;
  report.set_meta("workload", "unit-test");
  report.add_series("explicit", {1.0, 2.0, 3.0});
  report.capture();
  const Value doc = report.to_json();

  EXPECT_EQ(doc.at("schema").as_string(), Report::kSchemaName);
  EXPECT_EQ(doc.at("schema_version").as_number(),
            static_cast<double>(Report::kSchemaVersion));
  EXPECT_EQ(doc.at("meta").at("workload").as_string(), "unit-test");
  EXPECT_EQ(doc.at("counters").at("report/count").as_number(), 7.0);
  EXPECT_EQ(doc.at("histograms").at("report/value").at("mean").as_number(),
            3.0);
  EXPECT_EQ(doc.find("distributions"), nullptr);  // dropped in version 2
  EXPECT_EQ(doc.at("series").at("explicit").items().size(), 3u);
  EXPECT_EQ(doc.at("series").at("report/series").items().size(), 1u);
  EXPECT_GE(doc.at("spans").at("report/span").at("count").as_number(), 1.0);

  // The artifact round-trips through its own parser.
  std::ostringstream os;
  report.write(os);
  EXPECT_EQ(Value::parse(os.str()).at("schema").as_string(),
            Report::kSchemaName);
}

TEST_F(ObsTest, ReportCapturesHistogramsWithNonEmptyBucketsOnly) {
  Registry& reg = Registry::instance();
  for (int i = 0; i < 10; ++i) reg.observe("report/hist", 4.0);
  reg.observe("report/hist", 100.0);
  Report report;
  report.capture();
  const Value doc = report.to_json();
  const Value& h = doc.at("histograms").at("report/hist");
  EXPECT_EQ(h.at("count").as_number(), 11.0);
  EXPECT_EQ(h.at("min").as_number(), 4.0);
  EXPECT_EQ(h.at("max").as_number(), 100.0);
  // Two distinct values -> exactly two populated [lo, hi, count] triples.
  ASSERT_EQ(h.at("buckets").items().size(), 2u);
  double total = 0.0;
  for (const Value& triple : h.at("buckets").items()) {
    ASSERT_EQ(triple.items().size(), 3u);
    EXPECT_LT(triple.items()[0].as_number(), triple.items()[1].as_number());
    total += triple.items()[2].as_number();
  }
  EXPECT_EQ(total, 11.0);
  EXPECT_LE(h.at("p50").as_number(), h.at("p99").as_number());
}

TEST_F(ObsTest, ReportExplicitSeriesShadowsCapturedSeries) {
  Registry::instance().append_series("same/name", 9.0);
  Report report;
  report.add_series("same/name", {1.0, 2.0});
  report.capture();
  EXPECT_EQ(report.to_json().at("series").at("same/name").items().size(), 2u);
}

TEST_F(ObsTest, ReportRejectsRaggedTableRows) {
  Report report;
  report.add_table("t", {"a", "b"}, {{Value(1.0)}});
  EXPECT_THROW((void)report.to_json(), precondition_error);
}

TEST_F(ObsTest, ReportTableMixesStringsAndNumbers) {
  Report report;
  report.add_table("t", {"strategy", "hpb"},
                   {{Value(std::string("topolb")), Value(1.5)}});
  const Value doc = report.to_json();
  const Value& row = doc.at("tables").at("t").at("rows").items()[0];
  EXPECT_EQ(row.items()[0].as_string(), "topolb");
  EXPECT_EQ(row.items()[1].as_number(), 1.5);
}

// --- Instrumented kernels -------------------------------------------------

// Telemetry only observes: the mapping with recording on must be
// byte-identical to the mapping with recording off.
TEST_F(ObsTest, EnablingObsDoesNotChangeTopoLBMapping) {
  const auto g = graph::stencil_2d(6, 6, 1.0);
  const auto topo = topo::make_topology("torus:6x6");
  Rng rng_off(42);
  set_enabled(false);
  const core::Mapping off = core::TopoLB().map(g, *topo, rng_off);
  Rng rng_on(42);
  set_enabled(true);
  const core::Mapping on = core::TopoLB().map(g, *topo, rng_on);
  EXPECT_EQ(off, on);
}

TEST_F(ObsTest, TopoLBRecordsCountersAndHopBytesTrajectory) {
  const auto g = graph::stencil_2d(6, 6, 1.0);
  const auto topo = topo::make_topology("torus:6x6");
  set_enabled(true);
  Rng rng(1);
  const core::Mapping m = core::TopoLB().map(g, *topo, rng);

  Registry& reg = Registry::instance();
  EXPECT_EQ(reg.counter("topolb/placements"), 36u);
  EXPECT_GT(reg.counter("topolb/f_est_evals"), 0u);
  EXPECT_GT(reg.counter("topolb/row_rescans"), 0u);
  EXPECT_GT(reg.counter("distcache/builds"), 0u);

  // The incremental trajectory converges to the exact final hop-bytes.
  const auto series = reg.series();
  ASSERT_EQ(series.count("topolb/hop_bytes_trajectory"), 1u);
  const auto& traj = series.at("topolb/hop_bytes_trajectory");
  ASSERT_EQ(traj.size(), 36u);
  EXPECT_NEAR(traj.back(), core::hop_bytes(g, *topo, m), 1e-6);
  // Monotone non-decreasing: each placement can only add hop-bytes.
  for (std::size_t i = 1; i < traj.size(); ++i)
    EXPECT_GE(traj[i], traj[i - 1] - 1e-9);

  // The span tree covers the run.
  const auto rollup = Tracer::instance().rollup();
  EXPECT_EQ(rollup.count("topolb/map"), 1u);
  ASSERT_EQ(rollup.count("topolb/select_task"), 1u);
  EXPECT_EQ(rollup.at("topolb/select_task").count, 36u);
}

// Every pair the sweep visits (refine/swap_attempts) is either skipped by
// the swap bound (refine/pairs_skipped) or has its delta computed
// (refine/delta_evals), exactly once, even on a random start that accepts
// many swaps.
TEST_F(ObsTest, RefineCountsEverySwapDeltaEvaluation) {
  const auto g = graph::stencil_2d(6, 6, 1.0);
  const auto topo = topo::make_topology("torus:6x6");
  Rng rng(5);
  const core::Mapping random = core::RandomLB().map(g, *topo, rng);
  set_enabled(true);
  const core::RefineResult r = core::refine_mapping(g, *topo, random, 3);

  Registry& reg = Registry::instance();
  ASSERT_GT(r.swaps, 0);
  EXPECT_EQ(reg.counter("refine/swap_accepts"),
            static_cast<std::uint64_t>(r.swaps));
  EXPECT_GT(reg.counter("refine/swap_attempts"), 0u);
  // Every visited pair is either skipped by the bound or evaluated, once.
  const std::uint64_t visited = reg.counter("refine/delta_evals") +
                                reg.counter("refine/pairs_skipped");
  EXPECT_EQ(visited, reg.counter("refine/swap_attempts"));
  EXPECT_EQ(r.passes, 3);
  EXPECT_EQ(visited, 1890u);  // three passes over the 630 pairs
}

TEST_F(ObsTest, InstrumentedMappingIsThreadCountInvariant) {
  const auto g = graph::stencil_2d(6, 6, 1.0);
  const auto topo = topo::make_topology("torus:6x6");
  set_enabled(true);

  auto run = [&] {
    Registry::instance().reset();
    Rng rng(7);
    const core::Mapping m = core::TopoLB().map(g, *topo, rng);
    return std::pair{m, Registry::instance().counters()};
  };
  support::set_num_threads(1);
  const auto base = run();
  for (int threads : {2, 8}) {
    support::set_num_threads(threads);
    const auto got = run();
    EXPECT_EQ(got.first, base.first) << threads << " threads";
    EXPECT_EQ(got.second, base.second) << threads << " threads";
  }
}

// TopoLB's work counts do not depend on the host or the worker-pool width,
// so they are pinned exactly: a change to the row-minima buffer, the row
// sweep or the selection's block skipping shows up here as a counted work
// change.
TEST_F(ObsTest, TopoLBWorkCountersArePinnedAtAnyThreadCount) {
  ops::Params p;
  p.tasks = "stencil2d:16x16";
  p.topology = "torus:16x16";
  p.strategy = "topolb";
  p.seed = 7;
  set_enabled(true);
  for (int threads : {1, 4}) {
    support::set_num_threads(threads);
    Registry::instance().reset();
    (void)ops::run_map(p, ops::make_machine);
    Registry& reg = Registry::instance();
    EXPECT_EQ(reg.counter("topolb/row_rescans"), 480u) << threads;
    EXPECT_EQ(reg.counter("topolb/f_est_evals"), 67784u) << threads;
    // Peak tasks with two or more placed neighbours (pool rows taken).
    EXPECT_EQ(reg.counter("topolb/pool_rows"), 2u) << threads;
    // Gains the selection folded one by one; a fold of every unplaced
    // task each cycle would count 256 * 257 / 2 = 32896.
    EXPECT_EQ(reg.counter("topolb/select_evals"), 13555u) << threads;
    // ops::measure routes each of the 512 stencil edges both ways once.
    EXPECT_EQ(reg.counter("links/route_hops"), 960u) << threads;
    // One plane, one byte per pair (the torus's diameter is 16).
    EXPECT_EQ(reg.counter("distcache/plane_bytes"), 256u * 256u) << threads;
  }
}

// TopoLB keeps a p-wide placed-cost pool row only for tasks with two or
// more placed neighbours; a task with one reads its neighbour's plane row.
// On stencils few tasks have two at once, so the pool stays a few rows,
// against 136 and 768 active rows at the peak.  The mapping hashes were
// recorded with a pool row per active task.
TEST_F(ObsTest, TopoLBPoolRowsArePinnedOnStencils) {
  const auto fnv1a = [](const core::Mapping& m) {
    std::uint64_t h = 14695981039346656037ull;
    for (const int proc : m) {
      const auto u = static_cast<std::uint32_t>(proc);
      for (int b = 0; b < 4; ++b) {
        h ^= (u >> (8 * b)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
    return h;
  };
  const struct {
    graph::TaskGraph graph;
    std::uint64_t pool_rows;
    std::uint64_t hash;
  } cases[] = {
      {graph::stencil_2d(64, 64, 1024.0), 2, 0x708a37e7a7352225ull},
      {graph::stencil_3d(16, 16, 16, 1024.0), 46, 0x45704c95f3b18f25ull},
  };
  const auto topo = topo::make_topology("torus:16x16x16");
  set_enabled(true);
  for (const auto& c : cases) {
    for (const int threads : {1, 4}) {
      support::set_num_threads(threads);
      Registry::instance().reset();
      Rng rng(1);
      const core::Mapping m = core::TopoLB().map(c.graph, *topo, rng);
      EXPECT_EQ(Registry::instance().counter("topolb/pool_rows"), c.pool_rows)
          << threads;
      EXPECT_EQ(fnv1a(m), c.hash) << threads;
    }
  }
  support::set_num_threads(1);
}

// The explain run of scripts/ci.sh attributes the TopoLB mapping (224 hops)
// and the greedy baseline (886 hops) over one route walk each.
TEST_F(ObsTest, ExplainRouteHopsArePinnedAtAnyThreadCount) {
  ops::Params p;
  p.tasks = "stencil2d:8x8";
  p.topology = "torus:8x8";
  p.strategy = "topolb";
  p.baseline = "greedy";
  p.seed = 7;
  set_enabled(true);
  for (int threads : {1, 4}) {
    support::set_num_threads(threads);
    Registry::instance().reset();
    (void)ops::run_explain(p, ops::make_machine);
    EXPECT_EQ(Registry::instance().counter("links/route_hops"), 1110u)
        << threads;
  }
}

// RefineTopoLB's work counts on the served map shape (perfbench
// served-mix), pinned like TopoLB's.  TopoLB's mapping there is a perfect
// embedding (every edge one hop), so one sweep visits all 256 * 255 / 2
// pairs and the tight-pair rule skips every one: no delta is computed.
TEST_F(ObsTest, RefineWorkCountersArePinnedAtAnyThreadCount) {
  ops::Params p;
  p.tasks = "stencil2d:16x16";
  p.topology = "torus:8x8x4";
  p.strategy = "topolb+refine";
  set_enabled(true);
  for (int threads : {1, 4}) {
    support::set_num_threads(threads);
    Registry::instance().reset();
    (void)ops::run_map(p, ops::make_machine);
    Registry& reg = Registry::instance();
    EXPECT_EQ(reg.counter("refine/swap_attempts"), 32640u) << threads;
    EXPECT_EQ(reg.counter("refine/delta_evals"), 0u) << threads;
    EXPECT_EQ(reg.counter("refine/pairs_skipped"), 32640u) << threads;
  }
}

// Row searches on the cold served shape (perfbench served-mix): 4 of the
// 256 processors dead, so every plane row is one BFS over the 252 alive.
// A one-shot map searches the alive SubTopology's 252 rows plus the one row
// that proves it connected; a pooled machine searches its own 252 alive
// rows once, plus that one row, and cuts the sub-machine's plane out of
// its plane.  A second search per row for its mean, or a connectivity row
// per SubTopology member, shows here (they made 756 and 1260).
TEST_F(ObsTest, FaultedMapRowSearchesArePinnedAtAnyThreadCount) {
  ops::Params p;
  p.tasks = "stencil2d:15x16";
  p.topology = "torus:8x8x4";
  p.strategy = "topolb+refine";
  p.random_node_faults = 4;
  p.fault_seed = 7;
  const ops::MachineSource pooled = [](const std::string& topology,
                                       const topo::FaultSpec& faults) {
    auto machine = ops::make_machine(topology, faults);
    machine->plane =
        std::make_shared<const topo::DistanceCache>(machine->machine());
    return ops::MachinePtr(machine);
  };
  set_enabled(true);
  for (int threads : {1, 4}) {
    support::set_num_threads(threads);
    Registry& reg = Registry::instance();
    reg.reset();
    const ops::MapResult one_shot = ops::run_map(p, ops::make_machine);
    EXPECT_EQ(reg.counter("faultoverlay/row_searches"), 253u) << threads;
    // Planes over a FaultOverlay keep two bytes per pair.
    EXPECT_EQ(reg.counter("distcache/plane_bytes"), 252u * 252u * 2u)
        << threads;
    reg.reset();
    const ops::MapResult served = ops::run_map(p, pooled);
    EXPECT_EQ(reg.counter("faultoverlay/row_searches"), 253u) << threads;
    EXPECT_EQ(reg.counter("distcache/rows_gathered"), 252u) << threads;
    EXPECT_EQ(reg.counter("distcache/plane_bytes"),
              (256u * 256u + 252u * 252u) * 2u)
        << threads;
    EXPECT_EQ(served.mapping, one_shot.mapping) << threads;
  }
}

// The CLI's "random expectation" on a faulted machine is the overlay's
// mean pairwise distance.  When the strategy filled the plane of the whole
// (connected) alive set, run_map reads it from that plane's means with no
// search, and it is the same double the overlay's searches give.
TEST_F(ObsTest, RandomExpectationReadsTheStrategysAlivePlane) {
  ops::Params p;
  p.tasks = "stencil2d:15x16";
  p.topology = "torus:8x8x4";
  p.strategy = "topolb+refine";
  p.random_node_faults = 4;
  p.fault_seed = 7;
  set_enabled(true);
  for (int threads : {1, 4}) {
    support::set_num_threads(threads);
    Registry& reg = Registry::instance();
    reg.reset();
    const ops::MapResult r = ops::run_map(p, ops::make_machine);
    ASSERT_TRUE(r.random_expectation.has_value()) << threads;
    // 252 alive rows plus one connectivity row, all for the strategy.
    EXPECT_EQ(reg.counter("faultoverlay/row_searches"), 253u) << threads;
    const double searched = r.machine->overlay->mean_pairwise_distance();
    EXPECT_EQ(bits_of(*r.random_expectation), bits_of(searched)) << threads;
  }
  // A soft fault puts the plane in weighted units; the means still agree.
  ops::Params soft;
  soft.tasks = "stencil2d:7x9";
  soft.fail_node = "9";
  soft.degrade_link = "0:1:0.5";
  const ops::MapResult weighted = ops::run_map(soft, ops::make_machine);
  ASSERT_TRUE(weighted.random_expectation.has_value());
  EXPECT_EQ(bits_of(*weighted.random_expectation),
            bits_of(weighted.machine->overlay->mean_pairwise_distance()));

  // No plane to read: a strategy that fills none, and a split machine
  // whose primary component is not the whole alive set.  The caller then
  // asks the machine.
  ops::Params random = p;
  random.strategy = "random";
  EXPECT_FALSE(ops::run_map(random, ops::make_machine).random_expectation);
  ops::Params split;
  split.tasks = "stencil2d:6x10";
  split.topology = "torus:8x8";
  split.fail_node = "1,8,10,17";  // isolates processor 9
  EXPECT_FALSE(ops::run_map(split, ops::make_machine).random_expectation);
}

// --- Load-aware evacuation (satellite of this PR) -------------------------

TEST_F(ObsTest, EvacuateZeroLoadWeightMatchesLegacyOverload) {
  const auto g = graph::stencil_2d(3, 4, 1.0);
  auto overlay = topo::FaultOverlay(topo::make_topology("torus:4x4"));
  const core::Mapping previous = core::identity_mapping(12);
  overlay.fail_node(2);
  overlay.fail_node(7);

  const rts::EvacuationResult legacy =
      rts::evacuate(g, overlay, previous, /*refine_passes=*/2);
  rts::EvacuateOptions options;
  options.refine_passes = 2;
  options.load_weight = 0.0;
  const rts::EvacuationResult r = rts::evacuate(g, overlay, previous, options);
  EXPECT_EQ(r.mapping, legacy.mapping);
  EXPECT_EQ(r.migrations, legacy.migrations);
  EXPECT_GE(r.load_imbalance, 1.0);
}

TEST_F(ObsTest, EvacuateLoadWeightYieldsValidMappingAndImbalance) {
  // Heavy tasks stranded on failed processors: the load-aware score must
  // still produce an injective all-alive mapping, and report imbalance.
  graph::TaskGraph::Builder b("heavy");
  b.add_vertices(12, 1.0);
  b.set_vertex_weight(2, 8.0);
  b.set_vertex_weight(7, 8.0);
  for (int i = 0; i + 1 < 12; ++i) b.add_edge(i, i + 1, 1.0);
  const auto g = std::move(b).build();

  auto overlay = topo::FaultOverlay(topo::make_topology("torus:4x4"));
  const core::Mapping previous = core::identity_mapping(12);
  overlay.fail_node(2);
  overlay.fail_node(7);

  rts::EvacuateOptions options;
  options.refine_passes = 2;
  options.load_weight = 0.5;
  const rts::EvacuationResult r = rts::evacuate(g, overlay, previous, options);
  ASSERT_EQ(r.mapping.size(), 12u);
  std::vector<char> used(16, 0);
  for (int proc : r.mapping) {
    ASSERT_GE(proc, 0);
    ASSERT_LT(proc, 16);
    EXPECT_TRUE(overlay.is_alive(proc));
    EXPECT_FALSE(used[static_cast<std::size_t>(proc)]);
    used[static_cast<std::size_t>(proc)] = 1;
  }
  EXPECT_GE(r.load_imbalance, 1.0);
  EXPECT_GT(r.hop_bytes, 0.0);
  // Deterministic.
  EXPECT_EQ(rts::evacuate(g, overlay, previous, options).mapping, r.mapping);
}

TEST_F(ObsTest, EvacuateRejectsNegativeLoadWeight) {
  const auto g = graph::stencil_2d(2, 2, 1.0);
  auto overlay = topo::FaultOverlay(topo::make_topology("torus:2x2"));
  rts::EvacuateOptions options;
  options.load_weight = -1.0;
  EXPECT_THROW(
      (void)rts::evacuate(g, overlay, core::identity_mapping(4), options),
      precondition_error);
}

}  // namespace
}  // namespace topomap::obs
