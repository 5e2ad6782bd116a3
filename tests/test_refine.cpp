// RefineTopoLB's pair-skipping bound (core/detail/swap_bound.hpp).  On
// every topology family, and on integral, fractional and very large byte
// weights, every pair the bound skips must have a computed swap delta of
// at least -1e-12 (the sweep's acceptance threshold), for a fresh bound
// and after swaps moved it incrementally; its C entries must stay upper
// bounds of the exact C.  The metric the bound's argument rests on is
// checked on every plane as well: symmetry and the triangle inequality,
// kUnreachable entries of a partitioned machine included.  Finally the
// refiner must reproduce a plain all-pairs first-improvement sweep byte
// for byte, at 1 and 4 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/detail/swap_bound.hpp"
#include "core/distance_provider.hpp"
#include "core/refine_topo_lb.hpp"
#include "core/swap_kernel.hpp"
#include "graph/task_graph.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topo/distance_cache.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"
#include "topo/graph_topology.hpp"
#include "topo/sub_topology.hpp"

namespace topomap {
namespace {

using core::Mapping;
using core::detail::CachedDistance;
using core::detail::SwapBound;
using graph::TaskGraph;

struct Machine {
  std::string name;
  topo::TopologyPtr topo;
};

/// One machine per topology family, each of 20 to 64 processors.
std::vector<Machine> machines() {
  std::vector<Machine> out;
  for (const char* spec : {"torus:4x4x4", "mesh:8x6", "hypercube:6",
                           "fattree:4x3", "dragonfly:4"})
    out.push_back({spec, topo::make_topology(spec)});

  // An irregular graph topology: a ring with random chords.
  Rng rng(11);
  std::vector<std::pair<int, int>> links;
  for (int v = 0; v < 48; ++v) links.emplace_back(v, (v + 1) % 48);
  for (int i = 0; i < 24; ++i) {
    const int a = static_cast<int>(rng.uniform(48));
    const int b = static_cast<int>(rng.uniform(48));
    if (a == b || (a + 1) % 48 == b || (b + 1) % 48 == a) continue;
    bool dup = false;
    for (const auto& [x, y] : links)
      dup = dup || (x == a && y == b) || (x == b && y == a);
    if (!dup) links.emplace_back(a, b);
  }
  out.push_back({"graph-ring-chords",
                 std::make_shared<topo::GraphTopology>(48, links, "chords")});

  // Soft faults: a weighted Dijkstra plane.
  auto soft =
      std::make_shared<topo::FaultOverlay>(topo::make_topology("torus:8x8"));
  for (int p = 0; p < soft->size(); p += 5)
    soft->degrade_link(p, soft->neighbors(p).front(), p % 2 ? 0.5 : 0.2);
  out.push_back({"soft torus:8x8", soft});

  // The compact alive view map_on_alive builds on a node-faulted machine.
  auto faulted =
      std::make_shared<topo::FaultOverlay>(topo::make_topology("torus:8x8"));
  for (const int p : {3, 17, 42, 60}) faulted->fail_node(p);
  out.push_back({"alive view of node-faulted torus:8x8",
                 std::make_shared<topo::SubTopology>(faulted,
                                                     faulted->alive_procs())});

  // A machine split in two by link faults: the plane carries kUnreachable
  // between the halves.
  auto split =
      std::make_shared<topo::FaultOverlay>(topo::make_topology("mesh:8x8"));
  for (int y = 0; y < 8; ++y) split->fail_link(8 * y + 3, 8 * y + 4);
  out.push_back({"partitioned mesh:8x8", split});
  return out;
}

struct Weights {
  const char* name;
  double lo, hi;
  bool integral;
};

const Weights kWeights[] = {
    {"integral", 1.0, 1024.0, true},
    {"fractional", 0.001, 1024.0, false},
    {"huge integral", 1e12, 4e12, true},
    {"huge fractional", 1e12, 4e12, false},
};

TaskGraph random_graph(int n, const Weights& w, Rng& rng) {
  TaskGraph::Builder b("bound");
  b.add_vertices(n);
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) {
      if (!rng.bernoulli(0.06)) continue;
      const double bytes = rng.uniform_double(w.lo, w.hi);
      b.add_edge(i, j, w.integral ? std::floor(bytes) : bytes);
    }
  return std::move(b).build();
}

Mapping random_mapping(int n, Rng& rng) {
  const std::vector<int> perm = rng.permutation(n);
  return Mapping(perm.begin(), perm.end());
}

TEST(RefineBound, PlanesAreMetrics) {
  for (const Machine& mc : machines()) {
    const topo::DistanceCache plane(*mc.topo);
    const int p = plane.size();
    int unreachable = 0;
    for (int x = 0; x < p; ++x) {
      const std::uint16_t* rx = plane.row(x);
      for (int y = 0; y < p; ++y) {
        ASSERT_EQ(rx[y], plane.row(y)[x]) << mc.name << " (" << x << "," << y
                                          << ") is not symmetric";
        unreachable += rx[y] == topo::FaultOverlay::kUnreachable ? 1 : 0;
        for (int z = 0; z < p; ++z)
          ASSERT_LE(rx[z], static_cast<int>(rx[y]) + plane.row(y)[z])
              << mc.name << ": d(" << x << "," << z << ") > d(" << x << ","
              << y << ") + d(" << y << "," << z << ")";
      }
    }
    if (mc.name.rfind("partitioned", 0) == 0) {
      EXPECT_GT(unreachable, 0) << mc.name;
    }
  }
}

/// Checks every pair the bound skips under m, and that every C entry
/// bounds the exact C from above.  Returns the number of skipped pairs.
int check_skips(const TaskGraph& g, const CachedDistance& dist,
                const Mapping& m, const SwapBound& bound,
                const std::string& what) {
  const int n = g.num_vertices();
  int skipped = 0;
  for (int a = 0; a < n; ++a) {
    const std::uint16_t* row = dist.row(m[static_cast<std::size_t>(a)]);
    long double c = 0.0L;
    for (const graph::Edge& e : g.edges_of(a))
      c += static_cast<long double>(e.bytes) *
           row[m[static_cast<std::size_t>(e.neighbor)]];
    EXPECT_GE(static_cast<long double>(bound[a].c), c)
        << what << ": task " << a;
    for (int b = a + 1; b < n; ++b) {
      if (!bound.skips(bound[a], bound[b],
                       row[m[static_cast<std::size_t>(b)]]))
        continue;
      ++skipped;
      EXPECT_GE(core::detail::swap_delta_dist(g, dist, m, a, b), -1e-12)
          << what << ": pair (" << a << "," << b << ")";
    }
  }
  return skipped;
}

TEST(RefineBound, SkippedPairsNeverImprove) {
  Rng rng(2024);
  for (const Machine& mc : machines()) {
    const topo::DistanceCache plane(*mc.topo);
    const CachedDistance dist{plane};
    const int n = plane.size();
    for (const Weights& w : kWeights) {
      const std::string what = mc.name + ", " + w.name + " weights";
      const TaskGraph g = random_graph(n, w, rng);
      int skipped = 0;
      for (int trial = 0; trial < 3; ++trial) {
        Mapping m = random_mapping(n, rng);
        SwapBound bound(g, dist, m);
        skipped += check_skips(g, dist, m, bound, what + " (fresh)");
        // Incremental updates after swaps, improving or not.
        for (int round = 0; round < 3; ++round) {
          for (int s = 0; s < 12; ++s) {
            const int a = static_cast<int>(rng.uniform(n));
            const int b = static_cast<int>(rng.uniform(n));
            if (a == b) continue;
            std::swap(m[static_cast<std::size_t>(a)],
                      m[static_cast<std::size_t>(b)]);
            bound.swapped(g, dist, m, a, b);
          }
          skipped += check_skips(g, dist, m, bound, what + " (moved)");
        }
      }
      // A refined mapping, where most pairs are far apart relative to
      // their tasks' edges and the bound skips most often.
      const Mapping refined =
          core::refine_mapping(g, *mc.topo, random_mapping(n, rng), 8,
                               core::DistanceMode::kCached, &plane)
              .mapping;
      skipped += check_skips(g, dist, refined, SwapBound(g, dist, refined),
                             what + " (refined)");
      EXPECT_GT(skipped, 0) << what << ": the bound never skipped";
    }
  }
}

/// The plain sequential first-improvement sweep the refiner must match.
Mapping reference_refine(const TaskGraph& g, const CachedDistance& dist,
                         Mapping m, int max_passes) {
  const int n = g.num_vertices();
  for (int pass = 0; pass < max_passes; ++pass) {
    bool improved = false;
    for (int a = 0; a < n; ++a)
      for (int b = a + 1; b < n; ++b)
        if (core::detail::swap_delta_dist(g, dist, m, a, b) < -1e-12) {
          std::swap(m[static_cast<std::size_t>(a)],
                    m[static_cast<std::size_t>(b)]);
          improved = true;
        }
    if (!improved) break;
  }
  return m;
}

TEST(RefineBound, RefinerMatchesAllPairsSweep) {
  Rng rng(99);
  for (const Machine& mc : machines()) {
    const topo::DistanceCache plane(*mc.topo);
    const CachedDistance dist{plane};
    const int n = plane.size();
    for (const Weights& w : kWeights) {
      const TaskGraph g = random_graph(n, w, rng);
      const Mapping start = random_mapping(n, rng);
      const Mapping expected = reference_refine(g, dist, start, 8);
      for (const int threads : {1, 4}) {
        support::set_num_threads(threads);
        const core::RefineResult r =
            core::refine_mapping(g, *mc.topo, start, 8,
                                 core::DistanceMode::kCached, &plane);
        EXPECT_EQ(r.mapping, expected)
            << mc.name << ", " << w.name << " weights, threads " << threads;
      }
    }
  }
  support::set_num_threads(1);
}

}  // namespace
}  // namespace topomap
