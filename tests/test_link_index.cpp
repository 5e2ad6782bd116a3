// topo::LinkIndex — dense directed-link ids and the shared route walk — and
// golden values of everything that walks routes over it: core::link_loads,
// the contention attribution, link-load refinement and netsim.
//
// The goldens were recorded with the per-consumer route walks this index
// replaced.  Integral-weight results are exact and must not move; on the
// fractional-weight md workload contention_stats is unchanged, and
// link_loads now sums each link in edge-list order, so its maximum equals
// contention_stats' exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/contention.hpp"
#include "core/link_refine.hpp"
#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "graph/builders.hpp"
#include "graph/factory.hpp"
#include "netsim/app.hpp"
#include "ops/ops.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"
#include "topo/link_index.hpp"
#include "topo/sub_topology.hpp"

namespace topomap {
namespace {

/// Checks every LinkIndex invariant on `topo`, whose routes must all be
/// defined (no dead endpoints).
void check_index(const topo::Topology& topo, const std::string& label) {
  const topo::LinkIndex links(topo);
  int total = 0;
  for (int u = 0; u < topo.size(); ++u) {
    const std::vector<int> nbrs = topo.neighbors(u);
    ASSERT_EQ(links.offset(u), total) << label;
    for (std::size_t slot = 0; slot < nbrs.size(); ++slot) {
      const int l = links.offset(u) + static_cast<int>(slot);
      EXPECT_EQ(links.id(u, nbrs[slot]), l) << label;
      EXPECT_EQ(links.from(l), u) << label;
      EXPECT_EQ(links.to(l), nbrs[slot]) << label;
    }
    int prev = -1;
    for (const int l : links.links_by_target(u)) {
      EXPECT_EQ(links.from(l), u) << label;
      EXPECT_GT(links.to(l), prev) << label;
      prev = links.to(l);
    }
    total += static_cast<int>(nbrs.size());
  }
  ASSERT_EQ(links.size(), total) << label;
  for (int l = 0; l < links.size(); ++l)
    EXPECT_EQ(links.id(links.from(l), links.to(l)), l) << label;

  for (int a = 0; a < topo.size(); ++a) {
    for (int b = 0; b < topo.size(); ++b) {
      const std::vector<int> path = topo.route(a, b);
      std::vector<int> walked;
      int cost = 0;
      links.walk(a, b, [&](int l) {
        walked.push_back(l);
        cost += topo.link_cost(links.from(l), links.to(l));
      });
      ASSERT_EQ(path.size(), walked.size() + 1) << label << " " << a << "->" << b;
      for (std::size_t i = 0; i < walked.size(); ++i) {
        EXPECT_EQ(links.from(walked[i]), path[i]) << label;
        EXPECT_EQ(links.to(walked[i]), path[i + 1]) << label;
      }
      // A shortest route: its link costs add up to the distance, so on
      // hop metrics it has distance + 1 nodes.
      EXPECT_EQ(cost, topo.distance(a, b)) << label << " " << a << "->" << b;
      if (topo.distance_scale() == 1) {
        EXPECT_EQ(static_cast<int>(path.size()), topo.distance(a, b) + 1)
            << label;
      }
    }
  }
}

TEST(LinkIndex, IdsRoutesAndLookupsOnEveryRoutedFamily) {
  for (const std::string spec :
       {"torus:4x5", "torus:3x2x4", "mesh:4x3", "mesh:2x3x2", "hypercube:4",
        "dragonfly:3"})
    check_index(*topo::make_topology(spec), spec);
}

TEST(LinkIndex, FaultOverlayWithFailedAndDegradedLinks) {
  auto hard = topo::FaultOverlay(topo::make_topology("torus:4x4"));
  hard.fail_link(0, 1);
  hard.fail_link(5, 9);
  check_index(hard, "hard");
  EXPECT_EQ(topo::LinkIndex(hard).id(0, 1), -1);

  auto soft = topo::FaultOverlay(topo::make_topology("torus:4x4"));
  soft.fail_link(0, 1);
  soft.degrade_link(5, 6, 0.25);
  soft.degrade_link(10, 14, 0.5);
  check_index(soft, "soft");
}

TEST(LinkIndex, SubTopologyOverAliveProcessors) {
  auto overlay = std::make_shared<topo::FaultOverlay>(
      topo::make_topology("torus:4x4"));
  overlay->fail_node(5);
  overlay->fail_link(2, 3);
  std::vector<int> alive;
  for (int p = 0; p < overlay->size(); ++p)
    if (overlay->is_alive(p)) alive.push_back(p);
  const topo::SubTopology sub(overlay, alive);
  check_index(sub, "sub");
}

/// Reference lookup for id(): a binary search of u's links ordered by far
/// end.
int id_by_search(const topo::LinkIndex& links, int u, int v) {
  const std::span<const int> by_target = links.links_by_target(u);
  const auto it = std::lower_bound(
      by_target.begin(), by_target.end(), v,
      [&links](int l, int x) { return links.to(l) < x; });
  return it != by_target.end() && links.to(*it) == v ? *it : -1;
}

TEST(LinkIndex, IdEqualsTheSearchedLookupOnEveryFamily) {
  auto overlay = std::make_shared<topo::FaultOverlay>(
      topo::make_topology("torus:4x4x2"));
  overlay->fail_link(0, 1);
  overlay->fail_node(6);
  overlay->degrade_link(9, 10, 0.5);
  std::vector<int> alive;
  for (int p = 0; p < overlay->size(); ++p)
    if (overlay->is_alive(p)) alive.push_back(p);
  std::vector<std::pair<std::string, topo::TopologyPtr>> families;
  for (const std::string spec :
       {"torus:4x5", "torus:2x3x4", "torus:16x16x16", "mesh:1x7",
        "mesh:2x3x2", "hybrid:4wx3ox2w", "hypercube:6", "dragonfly:5"})
    families.emplace_back(spec, topo::make_topology(spec));
  families.emplace_back("overlay", overlay);
  families.emplace_back("sub",
                        std::make_shared<topo::SubTopology>(overlay, alive));
  for (const auto& [label, topo] : families) {
    const topo::LinkIndex links(*topo);
    int pairs = 0;
    for (int u = 0; u < topo->size(); ++u) {
      for (const int v : topo->neighbors(u)) {
        ASSERT_EQ(links.id(u, v), id_by_search(links, u, v))
            << label << " " << u << "->" << v;
        ++pairs;
      }
      // Not linked: both lookups miss.
      for (const int v : {u, (u + 3) % topo->size()}) {
        if (id_by_search(links, u, v) < 0) {
          EXPECT_EQ(links.id(u, v), -1) << label << " " << u << "->" << v;
        }
      }
    }
    EXPECT_EQ(pairs, links.size()) << label;
  }
}

TEST(LinkIndex, DistanceModelTopologyThrows) {
  const auto fat = topo::make_topology("fattree:2x3");
  EXPECT_THROW(topo::LinkIndex{*fat}, precondition_error);
}

// --- Goldens --------------------------------------------------------------

/// FNV-1a over raw bytes: pins a whole result without listing it.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ull;
    }
  }
  void num(double x) { bytes(&x, sizeof x); }
  void num(long long x) { bytes(&x, sizeof x); }
  void str(const std::string& x) { bytes(x.data(), x.size()); }
};

/// The JSON text one core::write_contention_* call writes as a document.
template <class WriteFn>
std::string rendered(int indent, WriteFn&& write) {
  std::string text;
  support::json::Writer w(text, indent);
  write(w);
  return text;
}

TEST(LinkLoadGoldens, FractionalWeightMdWorkload) {
  Rng rng(5);
  const auto g = graph::make_task_graph("md:4x4x4", rng);
  const auto topo = topo::make_topology("torus:4x4x4");
  core::Mapping m(static_cast<std::size_t>(g.num_vertices()));
  for (int t = 0; t < g.num_vertices(); ++t)
    m[static_cast<std::size_t>(t)] = (t * 37) % 64;

  const core::ContentionStats cs = core::contention_stats(g, *topo, m);
  EXPECT_EQ(cs.total_bytes, 0x1.6ff11b455124cp+25);
  EXPECT_EQ(cs.max_bytes, 0x1.f897c6604d133p+17);
  EXPECT_EQ(cs.mean_bytes, 0x1.ea96cf0716dbbp+16);
  EXPECT_EQ(cs.l2, 0x1.526a928745da4p+21);
  EXPECT_EQ(cs.gini, 0x1.275713b3f23b3p-2);
  EXPECT_EQ(cs.links_used, 384);
  EXPECT_EQ(cs.links_total, 384);

  const core::LinkLoadStats ll = core::link_loads(g, *topo, m);
  EXPECT_EQ(ll.max_bytes, cs.max_bytes);
  EXPECT_EQ(ll.total_bytes, 0x1.6ff11b455124ap+25);
  EXPECT_EQ(ll.mean_bytes, 0x1.ea96cf0716db8p+16);
  EXPECT_EQ(ll.links_used, 384);
  EXPECT_EQ(ll.links_total, 384);

  Fnv f;
  const core::ContentionReport report = core::attribute_link_loads(g, *topo, m);
  f.str(rendered(0, [&](support::json::Writer& w) {
    core::write_contention_links(w, report, 3);
  }));
  EXPECT_EQ(f.h, 0x3fdf759c51269b84ull);
}

TEST(LinkLoadGoldens, ExplainAttributionAndDiff) {
  ops::Params p;
  p.tasks = "stencil2d:8x8";
  p.topology = "torus:8x8";
  p.strategy = "topolb";
  p.baseline = "greedy";
  p.seed = 7;
  const ops::ExplainResult r = ops::run_explain(p, ops::make_machine);
  ASSERT_TRUE(r.baseline.has_value());
  Fnv f;
  f.str(rendered(2, [&](support::json::Writer& w) {
    core::write_contention_stats(w, r.attribution.stats);
  }));
  f.str(rendered(2, [&](support::json::Writer& w) {
    core::write_contention_links(w, r.attribution, 3);
  }));
  f.str(rendered(2, [&](support::json::Writer& w) {
    core::write_contention_stats(w, r.baseline->attribution.stats);
  }));
  f.str(rendered(2, [&](support::json::Writer& w) {
    core::write_contention_diff(w, r.baseline->diff, 3);
  }));
  EXPECT_EQ(f.h, 0xdaaaaedad8964b22ull);
}

TEST(LinkLoadGoldens, LinkRefinedMapping) {
  const auto g = graph::stencil_2d(8, 8, 1000.0);
  const auto topo = topo::make_topology("mesh:4x4x4");
  Rng rng(7);
  const core::Mapping m =
      core::make_strategy("topolb+linkrefine")->map(g, *topo, rng);
  EXPECT_EQ(m, (core::Mapping{51, 35, 16, 40, 24, 8,  4,  0,  54, 18, 20,
                              41, 25, 9,  5,  1,  50, 34, 38, 42, 26, 10,
                              6,  2,  49, 33, 37, 39, 43, 11, 7,  3,  53,
                              17, 21, 22, 31, 27, 23, 19, 48, 32, 36, 28,
                              29, 30, 14, 15, 52, 56, 57, 61, 45, 46, 13,
                              12, 55, 59, 58, 62, 47, 63, 60, 44}));
  Rng rng2(7);
  const core::Mapping base = core::make_strategy("topolb")->map(g, *topo, rng2);
  const core::LinkRefineResult rr = core::refine_link_load(g, *topo, base);
  EXPECT_EQ(rr.swaps, 16);
  EXPECT_EQ(rr.passes, 4);
  EXPECT_EQ(rr.l2_before, 202500000.0);
  EXPECT_EQ(rr.l2_after, 162500000.0);
  EXPECT_EQ(rr.max_before, 2500.0);
  EXPECT_EQ(rr.max_after, 1500.0);
}

struct NetsimGolden {
  bool adaptive;
  double completion, avg_lat, p99_lat, max_lat;
  std::uint64_t messages;
  double mean_hops, max_busy, mean_busy;
  std::size_t flows;
  std::uint64_t flows_hash;
  std::size_t windows;
  std::uint64_t telemetry_hash;
};

TEST(LinkLoadGoldens, NetsimDeterministicAndAdaptiveRuns) {
  const NetsimGolden goldens[] = {
      {false, 0x1.4f33333333332p+6, 0x1.9cbb3ee721a55p+1,
       0x1.cccccccccccd7p+2, 0x1.099999999999ap+3, 1120,
       0x1.fdb6db6db6db7p+1, 0x1.4p+5, 0x1.16cp+4, 251,
       0x049de235770fc5bbull, 9, 0x0ea42759ba1c53b8ull},
      {true, 0x1.51916872b0209p+6, 0x1.e8d3f05173ae8p+1,
       0x1.9848beb5b2d53p+2, 0x1.dced916872bp+2, 1120,
       0x1.fdb6db6db6db9p+1, 0x1.c83126e978d5p+4, 0x1.16bfffffffffdp+4, 256,
       0xefc5c9d3e455ae6cull, 9, 0xea45f2c2264dea2aull},
  };
  const auto g = graph::stencil_2d(8, 8, 1000.0);
  const auto topo = topo::make_topology("torus:8x8");
  for (const NetsimGolden& want : goldens) {
    Rng rng(3);
    const core::Mapping m = rng.permutation(64);
    netsim::AppParams app;
    app.iterations = 5;
    app.telemetry = true;
    app.telemetry_spec.sample_interval_us = 10.0;
    netsim::NetworkParams net;
    net.bandwidth = 500.0;
    if (want.adaptive) net.routing = netsim::RoutingPolicy::kMinimalAdaptive;
    const auto r = netsim::run_iterative_app(
        g, *topo, m, app, net,
        want.adaptive ? netsim::ServiceModel::kStoreForward
                      : netsim::ServiceModel::kWormhole);
    EXPECT_EQ(r.completion_us, want.completion) << want.adaptive;
    EXPECT_EQ(r.avg_message_latency_us, want.avg_lat) << want.adaptive;
    EXPECT_EQ(r.p99_message_latency_us, want.p99_lat) << want.adaptive;
    EXPECT_EQ(r.max_message_latency_us, want.max_lat) << want.adaptive;
    EXPECT_EQ(r.messages, want.messages) << want.adaptive;
    EXPECT_EQ(r.mean_hops, want.mean_hops) << want.adaptive;
    EXPECT_EQ(r.max_link_busy_us, want.max_busy) << want.adaptive;
    EXPECT_EQ(r.mean_link_busy_us, want.mean_busy) << want.adaptive;

    Fnv flows;
    for (const auto& fl : r.link_flows) {
      flows.num(static_cast<long long>(fl.from));
      flows.num(static_cast<long long>(fl.to));
      flows.num(fl.bytes);
      flows.num(fl.busy_us);
    }
    EXPECT_EQ(r.link_flows.size(), want.flows) << want.adaptive;
    EXPECT_EQ(flows.h, want.flows_hash) << want.adaptive;

    Fnv tel;
    for (const double x : r.telemetry.t_us) tel.num(x);
    for (const double x : r.telemetry.util_max) tel.num(x);
    for (const double x : r.telemetry.queue_depth) tel.num(x);
    for (const auto& lt : r.telemetry.links) {
      tel.num(static_cast<long long>(lt.from));
      tel.num(static_cast<long long>(lt.to));
      tel.num(lt.bytes);
      tel.num(lt.busy_us);
      tel.num(lt.peak_util);
      tel.num(lt.time_to_peak_us);
      tel.num(lt.saturated_us);
    }
    EXPECT_EQ(r.telemetry.t_us.size(), want.windows) << want.adaptive;
    EXPECT_EQ(tel.h, want.telemetry_hash) << want.adaptive;
  }
}

}  // namespace
}  // namespace topomap
