// Contention-explainability properties (core::attribute_link_loads).
//
// The attribution layer's claims are all exactness claims, so the tests
// cross-check three independent implementations of "bytes per link":
//
//  * attribute_link_loads — routed attribution (the explainer),
//  * core::link_loads     — the aggregate accounting,
//  * netsim::Network      — what a store-and-forward simulation actually
//    pushes over every link under deterministic routing.
//
// The first two share one route walk (topo::LinkIndex), so their per-link
// loads agree by construction, at any weights; all three must agree per
// link and in aggregate, on every routed topology family, at any mapping
// thread count.  On top of that: contributor sums
// equal link totals (also through the JSON top-K folding), diffs are
// antisymmetric, and the soft-fault ablation's 8000 -> 1000 B hot-link
// shift is reproduced end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/contention.hpp"
#include "core/fault_aware.hpp"
#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "graph/builders.hpp"
#include "graph/factory.hpp"
#include "netsim/app.hpp"
#include "support/json.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"

namespace topomap {
namespace {

using core::ContentionDiff;
using core::ContentionReport;
using core::Mapping;

/// Directed-link byte map (from, to) -> bytes from an attribution.
std::map<std::pair<int, int>, double> to_link_map(
    const ContentionReport& report) {
  std::map<std::pair<int, int>, double> out;
  for (const auto& link : report.links)
    out[{link.from, link.to}] = link.bytes;
  return out;
}

TEST(ContentionAttribution, AgreesWithLinkLoadsAggregates) {
  for (const std::string& topo_spec :
       {std::string("torus:6x6"), std::string("mesh:4x5"),
        std::string("torus:3x3x4"), std::string("hypercube:5"),
        std::string("dragonfly:8")}) {
    const auto topo = topo::make_topology(topo_spec);
    Rng rng(7);
    // Integral byte weights: every addend is exactly representable, so all
    // three accountings must agree bit for bit, not just approximately.
    const auto dims = topo::balanced_dims(topo->size(), 2);
    const auto g = graph::stencil_2d(dims[0], dims[1], 640.0);
    const Mapping m =
        core::make_strategy("greedy")->map(g, *topo, rng);

    const ContentionReport report = core::attribute_link_loads(g, *topo, m);
    const core::LinkLoadStats agg = core::link_loads(g, *topo, m);
    EXPECT_EQ(report.stats.total_bytes, agg.total_bytes) << topo_spec;
    EXPECT_EQ(report.stats.max_bytes, agg.max_bytes) << topo_spec;
    EXPECT_EQ(report.stats.links_used, agg.links_used) << topo_spec;
    EXPECT_EQ(report.stats.links_total, agg.links_total) << topo_spec;
    // The headline exactness claim: per-link totals sum to hop-bytes.
    EXPECT_DOUBLE_EQ(report.stats.total_bytes,
                     core::hop_bytes(g, *topo, m)) << topo_spec;
    // contention_stats is the same accumulation without the breakdown.
    const core::ContentionStats stats = core::contention_stats(g, *topo, m);
    EXPECT_DOUBLE_EQ(stats.total_bytes, report.stats.total_bytes);
    EXPECT_DOUBLE_EQ(stats.l2, report.stats.l2);
    EXPECT_DOUBLE_EQ(stats.gini, report.stats.gini);
  }
  // Fractional md byte weights make sums order-sensitive.  Both
  // accountings sum each link over the same walk in the same order, so
  // per-link maxima and counts still agree exactly; the grand totals sum
  // the same loads in different orders (link id vs ascending).
  for (const std::string& topo_spec :
       {std::string("torus:4x4x4"), std::string("mesh:4x5"),
        std::string("hypercube:5")}) {
    const auto topo = topo::make_topology(topo_spec);
    Rng rng(5);
    const auto g = graph::make_task_graph("md:3x3x3", rng);
    core::Mapping m(static_cast<std::size_t>(g.num_vertices()));
    for (int t = 0; t < g.num_vertices(); ++t)
      m[static_cast<std::size_t>(t)] = (t * 37) % topo->size();
    const core::LinkLoadStats agg = core::link_loads(g, *topo, m);
    const core::ContentionStats stats = core::contention_stats(g, *topo, m);
    EXPECT_EQ(agg.max_bytes, stats.max_bytes) << topo_spec;
    EXPECT_EQ(agg.links_used, stats.links_used) << topo_spec;
    EXPECT_EQ(agg.links_total, stats.links_total) << topo_spec;
    EXPECT_NEAR(agg.total_bytes, stats.total_bytes,
                1e-12 * stats.total_bytes)
        << topo_spec;
  }
}

TEST(ContentionAttribution, ContributorSumsEqualLinkTotals) {
  const auto topo = topo::make_topology("torus:6x6");
  Rng rng(11);
  const auto g = graph::stencil_2d(6, 6, 96.0);
  const Mapping m = core::make_strategy("random")->map(g, *topo, rng);
  const ContentionReport report = core::attribute_link_loads(g, *topo, m);
  ASSERT_FALSE(report.links.empty());
  for (const auto& link : report.links) {
    double sum = 0.0;
    ASSERT_FALSE(link.contributors.empty());
    double prev = link.contributors.front().bytes;
    for (const auto& c : link.contributors) {
      EXPECT_LE(c.bytes, prev);  // sorted by descending bytes
      EXPECT_LT(c.a, c.b);       // canonical pair orientation
      prev = c.bytes;
      sum += c.bytes;
    }
    EXPECT_DOUBLE_EQ(sum, link.bytes);
  }
}

TEST(ContentionAttribution, StatsInvariantsUnderRandomMappings) {
  const auto topo = topo::make_topology("mesh:5x5");
  Rng rng(3);
  const auto g = graph::stencil_2d(5, 5, 64.0);
  for (int trial = 0; trial < 8; ++trial) {
    const Mapping m = core::make_strategy("random")->map(g, *topo, rng);
    const core::ContentionStats s = core::contention_stats(g, *topo, m);
    EXPECT_GE(s.max_bytes, s.mean_bytes);
    EXPECT_DOUBLE_EQ(s.mean_bytes * s.links_total, s.total_bytes);
    EXPECT_GE(s.gini, 0.0);
    EXPECT_LT(s.gini, 1.0);
    EXPECT_LE(s.max_bytes, s.l2 + 1e-9);   // l2 dominates the max
    EXPECT_LE(s.l2, s.total_bytes + 1e-9); // and is dominated by the sum
    EXPECT_LE(s.links_used, s.links_total);
  }
}

TEST(ContentionAttribution, MatchesNetsimDeliveredBytesPerLink) {
  // Store-and-forward, deterministic routes: over `iters` iterations the
  // simulator pushes exactly iters * (routed bytes) over every link, so
  // netsim::AppResult::link_flows must reproduce the attribution per link.
  const int iters = 3;
  for (const std::string& topo_spec :
       {std::string("torus:4x4"), std::string("mesh:4x4"),
        std::string("torus:2x2x4")}) {
    const auto topo = topo::make_topology(topo_spec);
    Rng rng(5);
    const auto g = graph::stencil_2d(4, 4, 512.0);
    const Mapping m = core::make_strategy("topolb")->map(g, *topo, rng);
    const ContentionReport report = core::attribute_link_loads(g, *topo, m);

    netsim::AppParams app;
    app.iterations = iters;
    netsim::NetworkParams net;
    net.routing = netsim::RoutingPolicy::kDeterministic;
    const netsim::AppResult r = netsim::run_iterative_app(
        g, *topo, m, app, net, netsim::ServiceModel::kStoreForward);

    const auto predicted = to_link_map(report);
    std::map<std::pair<int, int>, double> observed;
    for (const netsim::LinkFlow& f : r.link_flows)
      observed[{f.from, f.to}] = f.bytes;
    EXPECT_EQ(observed.size(), predicted.size()) << topo_spec;
    for (const auto& [link, bytes] : predicted) {
      const auto it = observed.find(link);
      ASSERT_NE(it, observed.end())
          << topo_spec << " link (" << link.first << "," << link.second
          << ") predicted but never used by the simulator";
      EXPECT_DOUBLE_EQ(it->second, bytes * iters)
          << topo_spec << " link (" << link.first << "," << link.second
          << ")";
    }
  }
}

TEST(ContentionAttribution, WormholeModelPushesTheSameBytes) {
  // The service model changes timing, never payload accounting.
  const auto topo = topo::make_topology("torus:4x4");
  Rng rng(5);
  const auto g = graph::stencil_2d(4, 4, 512.0);
  const Mapping m = core::make_strategy("topolb")->map(g, *topo, rng);
  netsim::AppParams app;
  app.iterations = 2;
  const auto wormhole = netsim::run_iterative_app(
      g, *topo, m, app, netsim::NetworkParams{},
      netsim::ServiceModel::kWormhole);
  const auto sf = netsim::run_iterative_app(
      g, *topo, m, app, netsim::NetworkParams{},
      netsim::ServiceModel::kStoreForward);
  ASSERT_EQ(wormhole.link_flows.size(), sf.link_flows.size());
  for (std::size_t i = 0; i < sf.link_flows.size(); ++i) {
    EXPECT_EQ(wormhole.link_flows[i].from, sf.link_flows[i].from);
    EXPECT_EQ(wormhole.link_flows[i].to, sf.link_flows[i].to);
    EXPECT_DOUBLE_EQ(wormhole.link_flows[i].bytes, sf.link_flows[i].bytes);
  }
}

TEST(ContentionAttribution, ThreadCountNeverChangesTheReport) {
  // Mapping kernels are thread-count deterministic and the attribution is
  // sequential, so the whole JSON artifact must be byte-identical.
  const auto topo = topo::make_topology("torus:8x8");
  const auto g = graph::stencil_2d(8, 8, 256.0);
  std::string dumps[2];
  int i = 0;
  for (const int threads : {1, 4}) {
    support::set_num_threads(threads);
    Rng rng(9);
    const Mapping m =
        core::make_strategy("topolb+refine")->map(g, *topo, rng);
    const ContentionReport report = core::attribute_link_loads(g, *topo, m);
    support::json::Writer w(dumps[i++]);
    w.begin_object().key("stats");
    core::write_contention_stats(w, report.stats);
    w.key("links");
    core::write_contention_links(w, report, 3);
    w.end_object();
  }
  support::set_num_threads(1);
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(ContentionAttribution, FatTreeHasNoRoutesToAttribute) {
  const auto topo = topo::make_topology("fattree:4x3");
  ASSERT_FALSE(topo->has_adjacency());
  Rng rng(1);
  const auto g = graph::make_task_graph(
      "er:" + std::to_string(topo->size()) + ":0.2", rng);
  const Mapping m = core::make_strategy("greedy")->map(g, *topo, rng);
  EXPECT_THROW(core::attribute_link_loads(g, *topo, m), precondition_error);
  EXPECT_THROW(core::contention_stats(g, *topo, m), precondition_error);
  EXPECT_THROW(core::link_loads(g, *topo, m), precondition_error);
}

TEST(ContentionDiffProps, SelfDiffIsEmpty) {
  const auto topo = topo::make_topology("torus:6x6");
  Rng rng(2);
  const auto g = graph::stencil_2d(6, 6, 128.0);
  const Mapping m = core::make_strategy("topolb")->map(g, *topo, rng);
  const ContentionReport report = core::attribute_link_loads(g, *topo, m);
  const ContentionDiff diff = core::diff_contention(report, report);
  EXPECT_TRUE(diff.links.empty());
  EXPECT_DOUBLE_EQ(diff.stats_a.total_bytes, diff.stats_b.total_bytes);
}

TEST(ContentionDiffProps, Antisymmetry) {
  const auto topo = topo::make_topology("torus:6x6");
  Rng rng(4);
  const auto g = graph::stencil_2d(6, 6, 128.0);
  const Mapping ma = core::make_strategy("greedy")->map(g, *topo, rng);
  const Mapping mb = core::make_strategy("topolb")->map(g, *topo, rng);
  const ContentionReport ra = core::attribute_link_loads(g, *topo, ma);
  const ContentionReport rb = core::attribute_link_loads(g, *topo, mb);
  const ContentionDiff ab = core::diff_contention(ra, rb);
  const ContentionDiff ba = core::diff_contention(rb, ra);
  ASSERT_EQ(ab.links.size(), ba.links.size());
  ASSERT_FALSE(ab.links.empty());
  // Same |delta| ordering with identical tie-breaks: entries correspond
  // index by index with deltas negated and off/on swapped.
  for (std::size_t i = 0; i < ab.links.size(); ++i) {
    const core::LinkDelta& f = ab.links[i];
    const core::LinkDelta& r = ba.links[i];
    EXPECT_EQ(f.from, r.from);
    EXPECT_EQ(f.to, r.to);
    EXPECT_DOUBLE_EQ(f.delta, -r.delta);
    EXPECT_DOUBLE_EQ(f.bytes_a, r.bytes_b);
    EXPECT_DOUBLE_EQ(f.bytes_b, r.bytes_a);
    ASSERT_EQ(f.moved_off.size(), r.moved_on.size());
    ASSERT_EQ(f.moved_on.size(), r.moved_off.size());
    for (std::size_t j = 0; j < f.moved_off.size(); ++j) {
      EXPECT_EQ(f.moved_off[j].a, r.moved_on[j].a);
      EXPECT_EQ(f.moved_off[j].b, r.moved_on[j].b);
      EXPECT_DOUBLE_EQ(f.moved_off[j].bytes, r.moved_on[j].bytes);
    }
  }
}

TEST(ContentionDiffProps, RejectsMismatchedMachines) {
  Rng rng(6);
  const auto g4 = graph::stencil_2d(4, 4, 64.0);
  const auto g5 = graph::stencil_2d(5, 5, 64.0);
  const auto t4 = topo::make_topology("torus:4x4");
  const auto t5 = topo::make_topology("torus:5x5");
  const Mapping m4 = core::make_strategy("greedy")->map(g4, *t4, rng);
  const Mapping m5 = core::make_strategy("greedy")->map(g5, *t5, rng);
  const ContentionReport r4 = core::attribute_link_loads(g4, *t4, m4);
  const ContentionReport r5 = core::attribute_link_loads(g5, *t5, m5);
  EXPECT_THROW(core::diff_contention(r4, r5), precondition_error);
}

TEST(ContentionJson, TopKFoldingKeepsSumsExact) {
  // write_contention_links truncates each link to its top-K contributors
  // but folds the tail into a sentinel {a:-1, b:-1} entry, so the parsed
  // artifact still satisfies sum(contributors) == bytes exactly.
  const auto topo = topo::make_topology("torus:6x6");
  Rng rng(8);
  const auto g = graph::make_task_graph("er:36:0.2", rng);
  const Mapping m = core::make_strategy("random")->map(g, *topo, rng);
  const ContentionReport report = core::attribute_link_loads(g, *topo, m);
  std::string text;
  support::json::Writer w(text);
  core::write_contention_links(w, report, 2);
  const support::json::Value parsed = support::json::Value::parse(text);
  ASSERT_EQ(parsed.size(), report.links.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const support::json::Value& link = parsed.items()[i];
    double sum = 0.0;
    for (const support::json::Value& c : link.at("contributors").items())
      sum += c.at("bytes").as_number();
    EXPECT_DOUBLE_EQ(sum, link.at("bytes").as_number());
    EXPECT_LE(link.at("contributors").size(),
              std::size_t{3});  // top 2 + at most one fold entry
  }
}

TEST(ContentionSoftFaults, ReproducesTheAblationHotLinkShift) {
  // The ablation_soft_faults torus scenario, replayed through the
  // attribution layer: a health-blind topolb+refine placement pushes
  // 8000 B/iter across the degraded column cut, the health-aware one
  // 1000 B, and the diff names the shift per directed link.
  const int nx = 8, ny = 8, cut_x = 3;
  const double health = 0.25;
  const graph::TaskGraph g = graph::stencil_2d(nx, ny, 1000.0);
  const auto base = topo::make_topology("torus:8x8");
  auto overlay = std::make_shared<topo::FaultOverlay>(base);
  std::vector<std::pair<int, int>> cut;
  for (int y = 0; y < ny; ++y) {
    overlay->degrade_link(cut_x + nx * y, cut_x + 1 + nx * y, health);
    cut.emplace_back(cut_x + nx * y, cut_x + 1 + nx * y);
    cut.emplace_back(cut_x + 1 + nx * y, cut_x + nx * y);
  }

  const auto strategy = core::make_strategy("topolb+refine");
  Rng blind_rng(1);
  const Mapping blind = strategy->map(g, *base, blind_rng);
  Rng aware_rng(1);
  const Mapping aware = core::map_on_alive(*strategy, g, *overlay, aware_rng);

  const ContentionReport r_blind =
      core::attribute_link_loads(g, *overlay, blind);
  const ContentionReport r_aware =
      core::attribute_link_loads(g, *overlay, aware);
  auto cut_bytes = [&cut](const ContentionReport& r) {
    double sum = 0.0;
    const auto loads = to_link_map(r);
    for (const auto& link : cut) {
      const auto it = loads.find(link);
      if (it != loads.end()) sum += it->second;
    }
    return sum;
  };
  EXPECT_DOUBLE_EQ(cut_bytes(r_blind), 8000.0);
  EXPECT_DOUBLE_EQ(cut_bytes(r_aware), 1000.0);

  // The diff blind -> aware must carry the full -7000 B shift off the cut.
  const ContentionDiff diff = core::diff_contention(r_blind, r_aware);
  double cut_delta = 0.0;
  for (const core::LinkDelta& d : diff.links)
    for (const auto& link : cut)
      if (d.from == link.first && d.to == link.second) cut_delta += d.delta;
  EXPECT_DOUBLE_EQ(cut_delta, -7000.0);
}

/// FNV-1a (64-bit) of a file's bytes.
std::uint64_t file_fnv1a(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::uint64_t h = 1469598103934665603ull;
  for (char c; is.get(c);) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(ContentionReportFile, ExplainReportBytesArePinned) {
  // `topomap explain --report` artifacts (indented JSON), run through the
  // built CLI.  The hashes were recorded from the tree-building renderer
  // that json::Writer replaced; healthy, link-faulted and soft-faulted
  // machines, each with and without the simulated timeline.
  struct Pin {
    const char* name;
    const char* args;
    std::size_t bytes;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {"healthy-timeline",
       "--tasks=stencil2d:8x8 --topology=torus:8x8 --baseline=random", 176048,
       0xb880298983f51899ull},
      {"healthy",
       "--tasks=stencil2d:8x8 --topology=torus:8x8 --baseline=random "
       "--iterations=0",
       173519, 0x6ba917d81bfa59eeull},
      {"link-faulted-timeline",
       "--tasks=stencil2d:7x8 --topology=torus:8x8 --fail-link=0:1,9:17 "
       "--baseline=random --top-k=4",
       181339, 0x3fd66d2512b63632ull},
      {"link-faulted",
       "--tasks=stencil2d:7x8 --topology=torus:8x8 --fail-link=0:1,9:17 "
       "--baseline=random --top-k=4 --iterations=0",
       178659, 0xd98a216a60170fb6ull},
      {"soft-faulted-timeline",
       "--tasks=stencil2d:8x8 --topology=torus:8x8 "
       "--degrade-link=0:1:0.5,2:3:0.25 --baseline=greedy --baseline-blind "
       "--top-k=1",
       137974, 0xd2e9870da0fb8174ull},
      {"soft-faulted",
       "--tasks=stencil2d:8x8 --topology=torus:8x8 "
       "--degrade-link=0:1:0.5,2:3:0.25 --baseline=greedy --baseline-blind "
       "--top-k=1 --iterations=0",
       135347, 0x97c193784e5803cdull},
  };
  const std::string dir = ::testing::TempDir();
  for (const Pin& pin : pins) {
    const std::string report = dir + "topomap-report-" + pin.name + ".json";
    std::remove(report.c_str());
    const std::string command = std::string(TOPOMAP_CLI_PATH) +
                                " explain --seed=3 " + pin.args +
                                " --report=" + report + " > /dev/null";
    ASSERT_EQ(std::system(command.c_str()), 0) << command;
    std::ifstream is(report, std::ios::binary | std::ios::ate);
    EXPECT_EQ(static_cast<std::size_t>(is.tellg()), pin.bytes) << pin.name;
    EXPECT_EQ(file_fnv1a(report), pin.hash) << pin.name;
    std::remove(report.c_str());
  }
}

}  // namespace
}  // namespace topomap
