// Distance-plane engine tests: the dense cache must agree exactly with
// virtual Topology dispatch, every strategy must produce byte-identical
// mappings in cached and virtual modes, results must not depend on the
// worker-pool size, and known-good hop-bytes goldens pin the TopoLB /
// TopoCentLB outputs against silent drift.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/cache_handle.hpp"
#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "core/topo_cent_lb.hpp"
#include "core/topo_lb.hpp"
#include "graph/builders.hpp"
#include "ops/ops.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topo/distance_cache.hpp"
#include "topo/factory.hpp"
#include "topo/fat_tree.hpp"
#include "topo/fault_overlay.hpp"

namespace topomap {
namespace {

using core::Mapping;
using graph::TaskGraph;
using topo::DistanceCache;
using topo::make_topology;

const char* const kTopoSpecs[] = {
    "torus:6x6",   "mesh:5x5",  "torus:3x3x3", "mesh:4x3x2",
    "hypercube:5", "fattree:3x3", "dragonfly:5",
};

TEST(DistanceCache, MatchesVirtualDistanceExactly) {
  std::vector<const char*> specs(std::begin(kTopoSpecs), std::end(kTopoSpecs));
  // A hybrid torus/mesh, and an 8 MiB plane: planes of 2 MiB and up are
  // allocated 2 MiB-aligned with huge-page advice.
  specs.push_back("hybrid:6wx5o");
  specs.push_back("torus:16x16x8");
  for (const char* spec : specs) {
    const auto t = make_topology(spec);
    const DistanceCache cache(*t);
    ASSERT_EQ(cache.size(), t->size());
    int max_seen = 0;
    for (int a = 0; a < t->size(); ++a) {
      const std::uint16_t* row = cache.row(a);
      for (int b = 0; b < t->size(); ++b) {
        ASSERT_EQ(static_cast<int>(row[b]), t->distance(a, b))
            << spec << " (" << a << "," << b << ")";
        max_seen = std::max(max_seen, static_cast<int>(row[b]));
      }
      // The determinism contract: the *virtual* mean, bit for bit.
      ASSERT_EQ(cache.mean_distance_from(a), t->mean_distance_from(a)) << spec;
    }
    EXPECT_EQ(cache.diameter(), max_seen) << spec;
  }
}

// Hard faults put FaultOverlay::kUnreachable entries in every row, which
// sends each row's stats through the slow path.  A fresh build on the
// faulted overlay must match the incrementally repaired cache in every
// entry, every mean and the diameter; both run on a 2 MiB plane.
TEST(DistanceCache, FreshBuildOnHardFaultsMatchesRepairedPlane) {
  const auto overlay =
      std::make_shared<topo::FaultOverlay>(make_topology("mesh:32x32"));
  DistanceCache repaired(*overlay);
  // Cut the 2x2 corner block {0, 1, 32, 33} off the rest of the mesh, then
  // kill an interior processor.
  for (const auto& [a, b] : {std::pair{1, 2}, std::pair{33, 34},
                             std::pair{32, 64}, std::pair{33, 65}}) {
    const int prev = overlay->fail_link(a, b);
    repaired.repair_link_failure(*overlay, a, b, prev);
  }
  overlay->fail_node(500);
  repaired.repair_node_failure(*overlay, 500);

  const DistanceCache fresh(*overlay);
  const int p = fresh.size();
  ASSERT_EQ(repaired.size(), p);
  for (int a = 0; a < p; ++a) {
    const std::uint16_t* fr = fresh.row(a);
    const std::uint16_t* rr = repaired.row(a);
    ASSERT_GT(std::count(fr, fr + p, topo::FaultOverlay::kUnreachable), 0)
        << "row " << a << " has no unreachable entry";
    ASSERT_TRUE(std::equal(fr, fr + p, rr)) << "row " << a;
    ASSERT_EQ(repaired.mean_distance_from(a), fresh.mean_distance_from(a))
        << "row " << a;
  }
  EXPECT_EQ(repaired.diameter(), fresh.diameter());
  // Corners (31, 0) and (0, 31) of the surviving region stay 62 hops apart.
  EXPECT_EQ(fresh.diameter(), 62);
}

TEST(DistanceCache, RejectsOversizedTopology) {
  // Beyond the 20000-node dense-matrix cap the cache must refuse instead of
  // silently allocating ~GBs.  The topology itself stays cheap to build.
  EXPECT_NO_THROW(DistanceCache(*make_topology("mesh:16x16")));
  EXPECT_THROW(DistanceCache(*make_topology("fattree:2x15")),  // 32768 leaves
               precondition_error);
}

// Every strategy the factory can build, in cached vs virtual mode, on a
// mixed random workload: the mappings must be byte-identical.  This is the
// property that lets production default to kCached without re-validating
// any paper experiment.
class CacheEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {};

TEST_P(CacheEquivalenceTest, CachedAndVirtualMappingsAreByteIdentical) {
  const auto [strategy_spec, topo_spec] = GetParam();
  const auto t = make_topology(topo_spec);
  Rng graph_rng(7);
  const TaskGraph g =
      graph::random_graph(t->size(), 3.0 / t->size() + 0.08, 1.0, 64.0,
                          graph_rng, /*require_connected=*/false);
  const auto cached = core::make_strategy(strategy_spec,
                                          core::DistanceMode::kCached);
  const auto virt = core::make_strategy(strategy_spec,
                                        core::DistanceMode::kVirtual);
  Rng rng_c(1234), rng_v(1234);
  const Mapping mc = cached->map(g, *t, rng_c);
  const Mapping mv = virt->map(g, *t, rng_v);
  EXPECT_EQ(mc, mv);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheEquivalenceTest,
    ::testing::Combine(
        ::testing::Values("topolb", "topolb1", "topolb3", "topocent",
                          "topolb+refine", "topocent+refine", "anneal",
                          "anneal-warm"),
        ::testing::Values("torus:5x5", "mesh:4x4", "torus:3x3x3",
                          "hypercube:4", "fattree:2x4", "dragonfly:4")));

// The parallel kernels must give the same answer for any pool size — the
// chunk layout depends only on (n, grain), and reductions combine in fixed
// chunk order.
TEST(DistanceCache, MappingsInvariantUnderThreadCount) {
  const auto t = make_topology("torus:6x6");
  const TaskGraph g = graph::stencil_2d(6, 6, 3.0);
  std::vector<Mapping> results;
  for (const int threads : {1, 2, 4}) {
    support::set_num_threads(threads);
    for (const char* spec : {"topolb", "topolb3", "topocent",
                             "topolb+refine"}) {
      Rng rng(42);
      results.push_back(core::make_strategy(spec)->map(g, *t, rng));
    }
  }
  support::set_num_threads(1);
  const std::size_t per_round = 4;
  for (std::size_t r = 1; r < 3; ++r)
    for (std::size_t i = 0; i < per_round; ++i)
      EXPECT_EQ(results[i], results[r * per_round + i]) << "strategy " << i;
}

// Golden hop-bytes for the deterministic strategies on stencil workloads.
// These pin the exact tie-break behaviour (including the relative-epsilon
// gain comparison in TopoLB::select_task); an unintended change to any
// kernel shows up here as a hop-bytes shift.
struct Golden {
  const char* strategy;
  const char* topo;
  int side;
  double hop_bytes;
};

TEST(DistanceCache, GoldenHopBytesOnStencils) {
  const Golden goldens[] = {
      {"topolb", "torus:6x6", 6, 180.0},   {"topolb", "mesh:5x5", 5, 144.0},
      {"topolb", "torus:4x4", 4, 72.0},    {"topolb1", "torus:6x6", 6, 180.0},
      {"topolb1", "mesh:5x5", 5, 216.0},   {"topolb1", "torus:4x4", 4, 72.0},
      {"topolb3", "torus:6x6", 6, 273.0},  {"topolb3", "mesh:5x5", 5, 144.0},
      {"topolb3", "torus:4x4", 4, 84.0},   {"topocent", "torus:6x6", 6, 294.0},
      {"topocent", "mesh:5x5", 5, 219.0},  {"topocent", "torus:4x4", 4, 72.0},
      {"topolb+refine", "torus:6x6", 6, 180.0},
      {"topolb+refine", "mesh:5x5", 5, 120.0},
      {"topolb+refine", "torus:4x4", 4, 72.0},
  };
  for (const Golden& gold : goldens) {
    const auto t = make_topology(gold.topo);
    const TaskGraph g = graph::stencil_2d(gold.side, gold.side, 3.0);
    Rng rng(42);
    const Mapping m = core::make_strategy(gold.strategy)->map(g, *t, rng);
    EXPECT_EQ(core::hop_bytes(g, *t, m), gold.hop_bytes)
        << gold.strategy << " on " << gold.topo;
  }
}

// Golden mapping bytes for TopoLB.  The hop-bytes goldens above stop at 36
// tasks and pin only the objective; these pin whole mappings (FNV-1a over
// every entry) on low-degree stencils, where few placed-cost rows are live
// at once, and on dense random graphs, where nearly every row goes live.
// The production orders run at 1024 / 512 tasks; third order (O(p^3)) and
// the soft-faulted overlay (a Dijkstra-built plane) run at 256 tasks to
// keep the suite fast.  A mesh instance has non-integer mean distances, so
// second-order f values round; the 4096-task stencil on a 3D torus is the
// flat-4k benchmark op.  Every hash must come out at 1 and 4 threads, and
// on the healthy machines up to 1024 processors in both distance modes.
std::uint64_t fnv1a(const Mapping& m) {
  std::uint64_t h = 14695981039346656037ull;
  for (const int proc : m) {
    const auto u = static_cast<std::uint32_t>(proc);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(DistanceCache, GoldenTopoLBMappingHashes) {
  struct Instance {
    const char* name;
    TaskGraph graph;
    const char* topo;
  };
  Rng graph_rng(7);
  const Instance instances[] = {
      {"stencil1024", graph::stencil_2d(32, 32, 1024.0), "torus:32x32"},
      {"er512", graph::random_graph(512, 0.05, 1.0, 1024.0, graph_rng),
       "torus:8x8x8"},
      {"stencil256", graph::stencil_2d(16, 16, 1024.0), "torus:16x16"},
      {"er256", graph::random_graph(256, 0.1, 1.0, 1024.0, graph_rng),
       "torus:16x16"},
      {"er480", graph::random_graph(480, 0.02, 1.0, 1024.0, graph_rng),
       "mesh:8x6x10"},
      {"stencil4096", graph::stencil_2d(64, 64, 1024.0), "torus:16x16x16"},
      // The served map shape of perfbench's served-mix workload.
      {"stencil256_3d", graph::stencil_2d(16, 16, 1024.0), "torus:8x8x4"},
      // Dense rows: the row-minima buffer drains most often here.
      {"er1024", graph::random_graph(1024, 0.05, 1.0, 1024.0, graph_rng),
       "torus:8x8x16"},
      // Shapes whose passive gains U(t) * (sum/nfree - min) differ from task
      // to task, so whole blocks of the selection fold get skipped or
      // scanned on the strength of the passive gain bound: mean distances
      // vary across a mesh, a sparse graph leaves zero-communication
      // isolated tasks, and weights spread over six decades on a
      // vertex-transitive cube, whose drifted slope can dip below zero.
      {"stencil1024_mesh", graph::stencil_2d(32, 32, 1024.0), "mesh:32x32"},
      {"er256_isolated",
       graph::random_graph(256, 0.01, 1.0, 1024.0, graph_rng,
                           /*require_connected=*/false),
       "mesh:16x16"},
      {"er512_spread", graph::random_graph(512, 0.01, 1.0, 1e6, graph_rng),
       "hypercube:9"},
  };
  struct Case {
    int instance;
    bool soft;
    core::EstimationOrder order;
    std::uint64_t hash;
  };
  using core::EstimationOrder;
  const Case cases[] = {
      {0, false, EstimationOrder::kFirst, 0xa107b16a61a56b25ull},
      {0, false, EstimationOrder::kSecond, 0xa107b16a61a56b25ull},
      {1, false, EstimationOrder::kFirst, 0x8468c9aea2522229ull},
      {1, false, EstimationOrder::kSecond, 0x8468c9aea2522229ull},
      {2, false, EstimationOrder::kThird, 0x55522f920ee53e05ull},
      {2, true, EstimationOrder::kFirst, 0x51a4fd78e17082e5ull},
      {2, true, EstimationOrder::kSecond, 0x83ac36d0005435b5ull},
      {2, true, EstimationOrder::kThird, 0x45d91eff6a0a6c75ull},
      {3, false, EstimationOrder::kThird, 0xe41a27f4553d00f5ull},
      {3, true, EstimationOrder::kFirst, 0x96eb6ad3b2224cb5ull},
      {3, true, EstimationOrder::kSecond, 0x267c4839f1e30dd5ull},
      {3, true, EstimationOrder::kThird, 0xb3382370013b5315ull},
      {4, false, EstimationOrder::kFirst, 0xd47cc81b273c36f1ull},
      {4, false, EstimationOrder::kSecond, 0xd4e69a6f63aa2935ull},
      {5, false, EstimationOrder::kSecond, 0x708a37e7a7352225ull},
      {6, false, EstimationOrder::kSecond, 0x83a85a5333b12525ull},
      {7, false, EstimationOrder::kFirst, 0x0c05b66c4e15a361ull},
      {7, false, EstimationOrder::kSecond, 0x0c05b66c4e15a361ull},
      {8, false, EstimationOrder::kSecond, 0xd2b7a6833041c3b1ull},
      {9, false, EstimationOrder::kFirst, 0x0f0afc8287d37975ull},
      {9, false, EstimationOrder::kSecond, 0x8f4d631b9b506905ull},
      {9, false, EstimationOrder::kThird, 0x21d6e4c362ff6165ull},
      {10, false, EstimationOrder::kFirst, 0x005b727bc3bd37b5ull},
      {10, false, EstimationOrder::kSecond, 0x005b727bc3bd37b5ull},
  };
  // The isolated-task instance must really carry zero-communication tasks.
  const TaskGraph& sparse = instances[9].graph;
  int isolated = 0;
  for (int t = 0; t < sparse.num_vertices(); ++t)
    isolated += sparse.comm_bytes(t) == 0.0 ? 1 : 0;
  ASSERT_GT(isolated, 0);
  for (const Case& c : cases) {
    const Instance& inst = instances[c.instance];
    const auto base = make_topology(inst.topo);
    // Soft faults: every 7th processor's first link runs at half health,
    // so distances are weighted and no longer torus-symmetric.
    topo::FaultOverlay overlay(base);
    for (int p = 0; p < overlay.size(); p += 7)
      overlay.degrade_link(p, overlay.neighbors(p).front(), 0.5);
    const topo::Topology& machine =
        c.soft ? static_cast<const topo::Topology&>(overlay) : *base;
    // The soft overlay's virtual distance is an early-exit Dijkstra per
    // call, so soft cases pin the cached mode only, as does the 4096-task
    // instance (a virtual call per f evaluation there costs seconds).
    const bool cached_only = c.soft || base->size() > 1024;
    std::vector<std::pair<core::DistanceMode, int>> runs = {
        {core::DistanceMode::kCached, 1}, {core::DistanceMode::kCached, 4}};
    if (!cached_only) runs.emplace_back(core::DistanceMode::kVirtual, 4);
    const auto handle = std::make_shared<core::CacheHandle>();
    for (const auto& [mode, threads] : runs) {
      support::set_num_threads(threads);
      Rng rng(42);
      const Mapping m =
          core::TopoLB(c.order, mode, handle).map(inst.graph, machine, rng);
      EXPECT_EQ(fnv1a(m), c.hash)
          << std::hex << "0x" << fnv1a(m) << std::dec << ": " << inst.name
          << (c.soft ? " (soft)" : "") << " order "
          << static_cast<int>(c.order) << " mode " << static_cast<int>(mode)
          << " threads " << threads;
    }
  }
  support::set_num_threads(1);
}

// Golden mapping bytes for TopoCentLB.  The hop-bytes goldens above stop at
// 36 tasks; these pin whole mappings on machines above 2048 processors,
// where the free-processor argmin spans thousands of candidates and its
// lowest-id tie-break decides between far-apart equal-cost processors:
// the flat-4k shape, and a sparse random graph on a 3D mesh.
TEST(DistanceCache, GoldenTopoCentLBMappingHashes) {
  Rng graph_rng(11);
  const struct {
    const char* name;
    TaskGraph graph;
    const char* topo;
    std::uint64_t hash;
  } cases[] = {
      {"stencil4096", graph::stencil_2d(64, 64, 1024.0), "torus:16x16x16",
       0xe4f770daf756f0e1ull},
      {"er3072", graph::random_graph(3072, 0.003, 1.0, 1024.0, graph_rng),
       "mesh:12x16x16", 0xfc77d1932e996b3dull},
  };
  for (const auto& c : cases) {
    const auto machine = make_topology(c.topo);
    const auto handle = std::make_shared<core::CacheHandle>();
    for (const int threads : {1, 4}) {
      support::set_num_threads(threads);
      Rng rng(42);
      const Mapping m = core::TopoCentLB(core::DistanceMode::kCached, handle)
                            .map(c.graph, *machine, rng);
      EXPECT_EQ(fnv1a(m), c.hash)
          << std::hex << "0x" << fnv1a(m) << std::dec << ": " << c.name
          << " threads " << threads;
    }
  }
  support::set_num_threads(1);
}

// Golden mapping bytes for RefineTopoLB's sweep, through the same
// ops::run_map path as `topomap map --output`: the served map shape, a
// swap-dense random start on a hypercube with non-unit weights, the served
// shape on a soft-degraded (weighted-plane) torus, and hier+refine at 32k
// tasks, whose coarse solve and final polish both run the sweep.  The
// hashes were recorded on the all-pairs sweep, before the swap bound let
// it skip pairs; every one must come out at 1 and 4 threads.
TEST(DistanceCache, GoldenRefineMappingHashes) {
  struct Case {
    const char* strategy;
    const char* tasks;
    const char* topology;
    const char* degrade;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"topolb+refine", "stencil2d:16x16", "torus:8x8x4", "",
       0x83a85a5333b12525ull},
      {"random+refine", "er:512:0.1", "hypercube:9", "",
       0x1122a614d161d9a5ull},
      {"topolb+refine", "stencil2d:16x16", "torus:8x8x4",
       "0:1:0.5,9:10:0.25,37:45:0.5,100:101:0.125,200:208:0.5",
       0x17ca753bc2e1c7a5ull},
      {"hier+refine", "stencil3d:32x32x32", "torus:16x16x16", "",
       0xe6a2a735c279da42ull},
  };
  for (const Case& c : cases) {
    for (const int threads : {1, 4}) {
      support::set_num_threads(threads);
      ops::Params p;
      p.strategy = c.strategy;
      p.tasks = c.tasks;
      p.topology = c.topology;
      p.degrade_link = c.degrade;
      const ops::MapResult r = ops::run_map(p, ops::make_machine);
      EXPECT_EQ(fnv1a(r.mapping), c.hash)
          << std::hex << "0x" << fnv1a(r.mapping) << std::dec << ": "
          << c.strategy << ' ' << c.tasks << " -> " << c.topology
          << (*c.degrade ? " (soft)" : "") << " threads " << threads;
    }
  }
  support::set_num_threads(1);
}

// hop_bytes read through a cache is bit-identical to the virtual overload.
TEST(DistanceCache, HopBytesOverloadsAgree) {
  for (const char* spec : kTopoSpecs) {
    const auto t = make_topology(spec);
    const DistanceCache cache(*t);
    Rng rng(3);
    const TaskGraph g =
        graph::random_graph(t->size(), 0.2, 1.0, 32.0, rng,
                            /*require_connected=*/false);
    Mapping m = core::identity_mapping(t->size());
    EXPECT_EQ(core::hop_bytes(g, *t, m), core::hop_bytes(g, cache, m)) << spec;
  }
}

// FatTree is a distance model with no processor-level adjacency; the
// regression here is that it used to *return* a disconnected sibling
// adjacency, which made GraphTopology::from_topology fail with a misleading
// "disconnected" diagnosis and undercounted the directed links.
TEST(FatTreeAdjacency, NeighborsRejectsUpFront) {
  const topo::FatTree f(2, 3);
  EXPECT_THROW(f.neighbors(0), precondition_error);
  EXPECT_THROW(f.route(0, 5), precondition_error);
  // Distances stay fully supported (that is the model's whole job).
  EXPECT_EQ(f.distance(0, 1), 2);
  EXPECT_EQ(f.distance(0, 7), 6);
  EXPECT_NO_THROW(DistanceCache{f});
}

}  // namespace
}  // namespace topomap
