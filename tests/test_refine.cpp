// RefineTopoLB's pair-skipping bound (core/detail/swap_bound.hpp).  On
// every topology family, and on integral, fractional and very large byte
// weights, every pair the bound skips must have a computed swap delta of
// at least -1e-12 (the sweep's acceptance threshold), for a fresh bound
// and after swaps moved it incrementally; its C entries must stay upper
// bounds of the exact C.  The metric the bound's argument rests on is
// checked on every plane as well: symmetry and the triangle inequality,
// kUnreachable entries of a partitioned machine included.  The tight-pair
// rule (core/detail/tight_tasks.hpp) is checked the same way: one hop is
// the least distance of every plane, incremental tightness matches a
// recount, and every pair of tight tasks has a computed delta >= 0.
// Finally the refiner must reproduce a plain all-pairs first-improvement
// sweep byte for byte, from random starts and from perfect embeddings a
// few swaps away, at 1 and 4 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/detail/swap_bound.hpp"
#include "core/detail/tight_tasks.hpp"
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
using core::detail::TightTasks;
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

/// A perfect embedding's task graph: the machine's own links, one task per
/// processor, so under the identity mapping every edge spans one link.  On
/// torus:4x4x4 it is a periodic 3-D stencil, on mesh:8x6 a 2-D one.  A fat
/// tree has no processor links (two leaves are at least two hops apart);
/// there it is a random graph.
TaskGraph link_graph(const Machine& mc, const Weights& w, Rng& rng) {
  const int n = mc.topo->size();
  if (mc.name.rfind("fattree", 0) == 0) return random_graph(n, w, rng);
  TaskGraph::Builder b("links");
  b.add_vertices(n);
  for (int p = 0; p < n; ++p)
    for (const int q : mc.topo->neighbors(p)) {
      if (q < p) continue;
      const double bytes = rng.uniform_double(w.lo, w.hi);
      b.add_edge(p, q, w.integral ? std::floor(bytes) : bytes);
    }
  return std::move(b).build();
}

/// The identity mapping after `swaps` random exchanges, so tasks one hop
/// from all their partners (tight) and tasks that are not (loose) mix.
Mapping perturbed_identity(int n, int swaps, Rng& rng) {
  Mapping m(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) m[static_cast<std::size_t>(t)] = t;
  for (int s = 0; s < swaps; ++s)
    std::swap(m[rng.uniform(static_cast<std::uint64_t>(n))],
              m[rng.uniform(static_cast<std::uint64_t>(n))]);
  return m;
}

TEST(RefineBound, PlanesAreMetrics) {
  for (const Machine& mc : machines()) {
    const topo::DistanceCache plane(*mc.topo);
    const int p = plane.size();
    int unreachable = 0;
    for (int x = 0; x < p; ++x) {
      for (int y = 0; y < p; ++y) {
        const int dxy = plane.distance(x, y);
        ASSERT_EQ(dxy, plane.distance(y, x))
            << mc.name << " (" << x << "," << y << ") is not symmetric";
        unreachable += dxy == topo::FaultOverlay::kUnreachable ? 1 : 0;
        for (int z = 0; z < p; ++z)
          ASSERT_LE(plane.distance(x, z), dxy + plane.distance(y, z))
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
template <class D>
int check_skips(const TaskGraph& g, const CachedDistance<D>& dist,
                const Mapping& m, const SwapBound& bound,
                const std::string& what) {
  const int n = g.num_vertices();
  int skipped = 0;
  for (int a = 0; a < n; ++a) {
    const D* row = dist.row(m[static_cast<std::size_t>(a)]);
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
    plane.visit([&](auto tag) {
      const CachedDistance<decltype(tag)> dist{plane};
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
            core::refine_mapping(g, *mc.topo, random_mapping(n, rng), 8, &plane)
                .mapping;
        skipped += check_skips(g, dist, refined, SwapBound(g, dist, refined),
                               what + " (refined)");
        EXPECT_GT(skipped, 0) << what << ": the bound never skipped";
      }
    });
  }
}

TEST(RefineTight, OneHopIsTheLeastDistance) {
  for (const Machine& mc : machines()) {
    const topo::DistanceCache plane(*mc.topo);
    const int h = plane.scale();
    EXPECT_EQ(h, mc.name.rfind("soft", 0) == 0
                     ? topo::FaultOverlay::kHealthCostOne
                     : 1)
        << mc.name;
    for (int x = 0; x < plane.size(); ++x)
      for (int y = 0; y < plane.size(); ++y)
        if (x != y) {
          ASSERT_GE(plane.distance(x, y), h) << mc.name;
        }
  }
}

/// Checks TightTasks against a recount under m, and every pair it calls
/// tight (the pairs the sweep skips) against the sweep's delta.  Returns the number of tight tasks
/// with at least one edge (a task without edges is trivially tight).
template <class D>
int check_tight(const TaskGraph& g, const CachedDistance<D>& dist,
                const Mapping& m, int one_hop, const TightTasks& tight,
                const std::string& what) {
  const int n = g.num_vertices();
  std::vector<int> tight_tasks;
  int connected = 0;
  for (int t = 0; t < n; ++t) {
    bool is_tight = true;
    for (const graph::Edge& e : g.edges_of(t))
      is_tight = is_tight && dist(m[static_cast<std::size_t>(t)],
                                  m[static_cast<std::size_t>(e.neighbor)]) ==
                                 one_hop;
    EXPECT_EQ(tight.tight(t), is_tight) << what << ": task " << t;
    if (!tight.tight(t)) continue;
    tight_tasks.push_back(t);
    if (g.degree(t) > 0) ++connected;
  }
  for (std::size_t i = 0; i < tight_tasks.size(); ++i)
    for (std::size_t j = i + 1; j < tight_tasks.size(); ++j)
      EXPECT_GE(core::detail::swap_delta_dist(g, dist, m, tight_tasks[i],
                                              tight_tasks[j]),
                0.0)
          << what << ": tight pair (" << tight_tasks[i] << ","
          << tight_tasks[j] << ")";
  return connected;
}

TEST(RefineTight, TightPairsNeverImprove) {
  Rng rng(31);
  for (const Machine& mc : machines()) {
    const topo::DistanceCache plane(*mc.topo);
    const bool fat_tree = mc.name.rfind("fattree", 0) == 0;
    plane.visit([&](auto tag) {
      const CachedDistance<decltype(tag)> dist{plane};
      const int n = plane.size();
      for (const Weights& w : kWeights) {
        const std::string what = mc.name + ", " + w.name + " weights";
        const TaskGraph g = link_graph(mc, w, rng);
        Mapping m = perturbed_identity(n, n / 8, rng);
        TightTasks tight(g, dist, m, plane.scale());
        int tight_count = check_tight(g, dist, m, plane.scale(), tight,
                                      what + " (fresh)");
        // Incremental updates after swaps, improving or not.
        for (int s = 0; s < 6; ++s) {
          const int a = static_cast<int>(rng.uniform(n));
          const int b = static_cast<int>(rng.uniform(n));
          if (a == b) continue;
          std::swap(m[static_cast<std::size_t>(a)],
                    m[static_cast<std::size_t>(b)]);
          tight.swapped(g, dist, m, a, b);
          tight_count += check_tight(g, dist, m, plane.scale(), tight,
                                     what + " (moved)");
        }
        if (fat_tree) {
          EXPECT_EQ(tight_count, 0) << what;
        } else {
          EXPECT_GT(tight_count, 0) << what << ": no task was ever tight";
        }
      }
    });
  }
}

/// The plain sequential first-improvement sweep the refiner must match.
template <class D>
Mapping reference_refine(const TaskGraph& g, const CachedDistance<D>& dist,
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
    const int n = plane.size();
    for (const Weights& w : kWeights) {
      // A random start, where few tasks are tight, and a perfect embedding
      // a few swaps away, where most are.
      const TaskGraph random_g = random_graph(n, w, rng);
      const Mapping random_start = random_mapping(n, rng);
      const TaskGraph embedded_g = link_graph(mc, w, rng);
      const Mapping embedded_start = perturbed_identity(n, 4, rng);
      for (const auto& [g, start, kind] :
           {std::tuple{&random_g, &random_start, "random start"},
            std::tuple{&embedded_g, &embedded_start, "perturbed embedding"}}) {
        const Mapping expected = plane.visit([&](auto tag) {
          return reference_refine(*g, CachedDistance<decltype(tag)>{plane},
                                  *start, 8);
        });
        for (const int threads : {1, 4}) {
          support::set_num_threads(threads);
          const core::RefineResult r =
              core::refine_mapping(*g, *mc.topo, *start, 8, &plane);
          EXPECT_EQ(r.mapping, expected)
              << mc.name << ", " << w.name << " weights, " << kind
              << ", threads " << threads;
        }
      }
    }
  }
  support::set_num_threads(1);
}

}  // namespace
}  // namespace topomap
