// Fault-tolerance layer: FaultOverlay semantics, SubTopology re-indexing,
// incremental DistanceCache repair (property-tested against from-scratch
// rebuilds), alive-subset mapping, and evacuation determinism.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cache_handle.hpp"
#include "core/fault_aware.hpp"
#include "core/mapping.hpp"
#include "core/strategy.hpp"
#include "graph/builders.hpp"
#include "ops/ops.hpp"
#include "runtime/evacuate.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topo/components.hpp"
#include "topo/distance_cache.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"
#include "topo/fault_spec.hpp"
#include "topo/sub_topology.hpp"
#include "topo/torus_mesh.hpp"

namespace topomap::topo {
namespace {

TopologyPtr ring8() { return make_topology("torus:8"); }

TEST(FaultOverlay, PristineOverlayDelegatesToBase) {
  const auto base = make_topology("torus:4x4");
  FaultOverlay overlay(base);
  EXPECT_EQ(overlay.size(), base->size());
  EXPECT_FALSE(overlay.has_faults());
  EXPECT_EQ(overlay.num_alive(), 16);
  EXPECT_EQ(overlay.version(), 0);
  for (int a = 0; a < 16; ++a) {
    EXPECT_EQ(overlay.neighbors(a), base->neighbors(a));
    EXPECT_DOUBLE_EQ(overlay.mean_distance_from(a),
                     base->mean_distance_from(a));
    for (int b = 0; b < 16; ++b)
      EXPECT_EQ(overlay.distance(a, b), base->distance(a, b));
  }
  EXPECT_EQ(overlay.diameter(), base->diameter());
}

TEST(FaultOverlay, FailedLinkDisappearsAndTrafficReroutes) {
  FaultOverlay overlay(ring8());
  EXPECT_EQ(overlay.distance(0, 1), 1);
  overlay.fail_link(0, 1);
  EXPECT_TRUE(overlay.link_failed(0, 1));
  EXPECT_TRUE(overlay.link_failed(1, 0));  // undirected
  EXPECT_EQ(overlay.version(), 1);
  // The ring's only alternative runs all the way around.
  EXPECT_EQ(overlay.distance(0, 1), 7);
  const auto nb0 = overlay.neighbors(0);
  EXPECT_EQ(nb0, (std::vector<int>{7}));
  const auto path = overlay.route(0, 1);
  ASSERT_EQ(path.size(), 8u);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 1);
  // Unaffected pairs keep the base's route.
  EXPECT_EQ(overlay.route(2, 4), ring8()->route(2, 4));
}

TEST(FaultOverlay, FailedNodeIsIsolatedAndRejected) {
  FaultOverlay overlay(make_topology("torus:4x4"));
  overlay.fail_node(5);
  EXPECT_FALSE(overlay.is_alive(5));
  EXPECT_EQ(overlay.num_alive(), 15);
  EXPECT_TRUE(overlay.neighbors(5).empty());
  for (int q : overlay.neighbors(4))
    EXPECT_NE(q, 5);  // dead processors vanish from neighbor lists
  EXPECT_THROW(overlay.distance(5, 0), precondition_error);
  EXPECT_THROW(overlay.distance(0, 5), precondition_error);
  EXPECT_THROW(overlay.route(5, 0), precondition_error);
  EXPECT_DOUBLE_EQ(overlay.mean_distance_from(5), 0.0);
  const auto alive = overlay.alive_procs();
  EXPECT_EQ(alive.size(), 15u);
  for (int p : alive) EXPECT_NE(p, 5);
}

TEST(FaultOverlay, DisconnectionFailsFastNotUndefined) {
  // 1D mesh 0-1-2: killing the middle node splits the machine.
  const auto base = std::make_shared<TorusMesh>(TorusMesh::mesh({3}));
  FaultOverlay overlay(base);
  overlay.fail_node(1);
  EXPECT_THROW(overlay.distance(0, 2), precondition_error);
  EXPECT_THROW(overlay.route(0, 2), precondition_error);
  // write_distance_row reports the disconnect as kUnreachable instead.
  std::vector<std::uint16_t> row(3);
  overlay.write_distance_row(0, row.data());
  EXPECT_EQ(row[0], 0);
  EXPECT_EQ(row[1], FaultOverlay::kUnreachable);
  EXPECT_EQ(row[2], FaultOverlay::kUnreachable);
}

TEST(FaultOverlay, ValidatesFaultRequests) {
  FaultOverlay overlay(make_topology("torus:4x4"));
  EXPECT_THROW(overlay.fail_link(0, 5), precondition_error);   // not a link
  EXPECT_THROW(overlay.fail_link(0, 0), precondition_error);   // self
  EXPECT_THROW(overlay.fail_link(0, 99), precondition_error);  // range
  EXPECT_THROW(overlay.fail_node(-1), precondition_error);
  // Idempotent faults do not bump the version.
  overlay.fail_node(3);
  const int v = overlay.version();
  overlay.fail_node(3);
  EXPECT_EQ(overlay.version(), v);
}

TEST(FaultOverlay, FatTreeSupportsNodeFaultsOnly) {
  const auto base = make_topology("fattree:3x2");  // 9 leaves
  FaultOverlay overlay(base);
  EXPECT_FALSE(overlay.has_adjacency());
  EXPECT_THROW(overlay.fail_link(0, 1), precondition_error);
  overlay.fail_node(4);
  EXPECT_EQ(overlay.num_alive(), 8);
  // Survivor distances are untouched: fat-tree links attach leaves to
  // switches, so removing a leaf removes no inter-leaf capacity.
  for (int a = 0; a < 9; ++a) {
    if (!overlay.is_alive(a)) continue;
    for (int b = 0; b < 9; ++b) {
      if (!overlay.is_alive(b)) continue;
      EXPECT_EQ(overlay.distance(a, b), base->distance(a, b));
    }
  }
  EXPECT_THROW(overlay.distance(4, 0), precondition_error);
}

TEST(FaultOverlay, NameEncodesVersionForCacheKeys) {
  FaultOverlay overlay(ring8());
  const std::string before = overlay.name();
  overlay.fail_link(2, 3);
  EXPECT_NE(overlay.name(), before);
}

TEST(SubTopology, ReindexesAndPreservesMetric) {
  const auto base = make_topology("torus:4x4");
  SubTopology sub(base, {0, 1, 2, 5, 9, 10});
  EXPECT_EQ(sub.size(), 6);
  EXPECT_EQ(sub.node_of(3), 5);
  EXPECT_EQ(sub.distance(0, 3), base->distance(0, 5));
  // Adjacent subset members route entirely inside the subset...
  EXPECT_EQ(sub.route(0, 1), (std::vector<int>{0, 1}));
  // ...but a route forced through an excluded hop (2 -> 6 -> 10, with base
  // node 6 excluded) cannot be expressed in compact ids.
  EXPECT_THROW(sub.route(2, 5), precondition_error);
  EXPECT_EQ(sub.route_in_base(0, 3), base->route(0, 5));
  std::vector<std::uint16_t> row(6);
  sub.write_distance_row(1, row.data());
  for (int j = 0; j < 6; ++j)
    EXPECT_EQ(row[static_cast<std::size_t>(j)],
              base->distance(1, sub.node_of(j)));
}

TEST(SubTopology, RejectsDisconnectedSubsets) {
  const auto base = std::make_shared<TorusMesh>(TorusMesh::mesh({5}));
  auto overlay = std::make_shared<FaultOverlay>(base);
  overlay->fail_node(2);  // splits {0,1} from {3,4}
  EXPECT_THROW(SubTopology(overlay, overlay->alive_procs()),
               precondition_error);
  EXPECT_THROW(SubTopology(base, {}), precondition_error);
  EXPECT_THROW(SubTopology(base, {1, 0}), precondition_error);  // unsorted
}

// ---------------------------------------------------------------------------
// Pinned faulted planes.  FNV-1a over the matrix bytes and over the stored
// means, plus the diameter, of node-, link- and soft-faulted overlays and of
// the SubTopology over each one's primary component, at 1 and 4 threads.
// The values were recorded before the overlay's searches shared one
// adjacency walk and before the cache took faulted means from its row sums,
// so they pin that every plane byte survived both.
// ---------------------------------------------------------------------------

struct PlanePin {
  std::uint64_t matrix = 0;
  std::uint64_t means = 0;
  int diameter = 0;
};

std::uint64_t fnv1a(const void* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* c = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= c[i];
    h *= 1099511628211ull;
  }
  return h;
}

PlanePin pin_of(const DistanceCache& c) {
  const auto n = static_cast<std::size_t>(c.size());
  std::vector<double> means(n);
  for (std::size_t p = 0; p < n; ++p)
    means[p] = c.mean_distance_from(static_cast<int>(p));
  return {fnv1a(c.row(0), n * n * sizeof(std::uint16_t)),
          fnv1a(means.data(), n * sizeof(double)), c.diameter()};
}

void expect_pin(const PlanePin& got, const PlanePin& want,
                const std::string& what) {
  EXPECT_EQ(got.matrix, want.matrix)
      << what << " matrix 0x" << std::hex << got.matrix << std::dec;
  EXPECT_EQ(got.means, want.means)
      << what << " means 0x" << std::hex << got.means << std::dec;
  EXPECT_EQ(got.diameter, want.diameter) << what << " diameter";
}

struct FaultedPlaneCase {
  const char* topology;
  int nodes = 0;
  int links = 0;
  int degrades = 0;
  PlanePin overlay;
  PlanePin sub;
};

/// The overlay the CLI builds for --random-{node,link}-faults /
/// --random-degrades with --fault-seed=11.
std::shared_ptr<FaultOverlay> faulted(const FaultedPlaneCase& c) {
  FaultSpec spec;
  spec.random_node_faults = c.nodes;
  spec.random_link_faults = c.links;
  spec.random_degrades = c.degrades;
  spec.seed = 11;
  return build_fault_overlay(make_topology(c.topology), spec);
}

const std::vector<FaultedPlaneCase>& faulted_plane_cases() {
  static const std::vector<FaultedPlaneCase> cases = {
      {"torus:6x6x4", 5, 0, 0,
       {0xe33a42601efd9945ull, 0xfbba3332d360415aull, 8},
       {0x7fe5f45365cedaabull, 0xdffdce0a054198daull, 8}},
      {"torus:6x6x4", 0, 12, 0,
       {0xe2874f05cdfa9053ull, 0xa4b0b96a6602d096ull, 8},
       {0xe2874f05cdfa9053ull, 0xa4b0b96a6602d096ull, 8}},
      {"torus:6x6x4", 0, 0, 12,
       {0xd572b668660b9c0bull, 0x829b333b45afad99ull, 64},
       {0xd572b668660b9c0bull, 0x829b333b45afad99ull, 64}},
      {"mesh:8x8", 5, 0, 0,
       {0x6dfc149c84c6ac61ull, 0xf10bcfac8db120edull, 14},
       {0x30cce4a856bd8b2bull, 0xbe73274c1c74296dull, 14}},
      {"mesh:8x8", 0, 12, 0,
       {0xdc1bdeeedef72603ull, 0x7c093a10a9bfaca9ull, 14},
       {0xdc1bdeeedef72603ull, 0x7c093a10a9bfaca9ull, 14}},
      {"mesh:8x8", 0, 0, 12,
       {0x13f23a0d92277a4bull, 0x380c7fe53940910ull, 112},
       {0x13f23a0d92277a4bull, 0x380c7fe53940910ull, 112}},
      {"hypercube:7", 5, 0, 0,
       {0x78a18dddb9134591ull, 0x1ef4d5ed05bfab01ull, 7},
       {0xc2eef7da8004ad1bull, 0x5152d49fa5e23581ull, 7}},
      {"hypercube:7", 0, 12, 0,
       {0x92594de0b28659d3ull, 0xadf43253f800f7c3ull, 7},
       {0x92594de0b28659d3ull, 0xadf43253f800f7c3ull, 7}},
      {"hypercube:7", 0, 0, 12,
       {0xee357bda3954ac0bull, 0x6ab619f01a8af63ull, 56},
       {0xee357bda3954ac0bull, 0x6ab619f01a8af63ull, 56}},
      {"dragonfly:6", 5, 0, 0,
       {0xf3dc6b002fd7c3f5ull, 0xad36a1bb20d3d4c1ull, 5},
       {0x4ef1346889a1208bull, 0xbb0bf422757d9a21ull, 5}},
      {"dragonfly:6", 0, 12, 0,
       {0x6e9f1e9590e142cbull, 0xe457dcb9fad99458ull, 5},
       {0x6e9f1e9590e142cbull, 0xe457dcb9fad99458ull, 5}},
      {"dragonfly:6", 0, 0, 12,
       {0xc657f16a87b50fe3ull, 0x6d77e3a1b2358d19ull, 40},
       {0xc657f16a87b50fe3ull, 0x6d77e3a1b2358d19ull, 40}},
      {"fattree:4x3", 5, 0, 0,
       {0x4b18c801adc8f61dull, 0x64158f6fcde1b86bull, 6},
       {0xdd49a61c536de5bbull, 0x5a4ae149f87ed70bull, 6}},
  };
  return cases;
}

TEST(FaultedPlanePins, OverlayAndSubTopologyPlanesAreUnchanged) {
  for (const int threads : {1, 4}) {
    support::set_num_threads(threads);
    for (const FaultedPlaneCase& c : faulted_plane_cases()) {
      const auto overlay = faulted(c);
      const std::string what = std::string(c.topology) + " nodes=" +
                               std::to_string(c.nodes) + " links=" +
                               std::to_string(c.links) + " degrades=" +
                               std::to_string(c.degrades) + " threads=" +
                               std::to_string(threads);
      expect_pin(pin_of(DistanceCache(*overlay)), c.overlay,
                 what + " overlay");
      const SubTopology sub(overlay, connected_components(*overlay).primary());
      expect_pin(pin_of(DistanceCache(sub)), c.sub, what + " sub");
    }
  }
  support::set_num_threads(1);
}

void expect_same_plane(const DistanceCache& got, const DistanceCache& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(got.scale(), want.scale()) << what;
  const auto n = static_cast<std::size_t>(want.size());
  EXPECT_EQ(std::memcmp(got.row(0), want.row(0), n * n * sizeof(std::uint16_t)),
            0)
      << what << ": matrix";
  for (int p = 0; p < want.size(); ++p)
    ASSERT_EQ(got.mean_distance_from(p), want.mean_distance_from(p))
        << what << ": mean of row " << p;
  EXPECT_EQ(got.diameter(), want.diameter()) << what;
}

// A sub-machine plane cut out of its base's plane (what a CacheHandle
// seeded with a pooled plane hands a faulted map) is byte-identical to one
// built by searching the sub-machine's rows.
TEST(FaultedPlanePins, GatheredSubPlaneEqualsAFreshBuild) {
  for (const int threads : {1, 4}) {
    support::set_num_threads(threads);
    for (const FaultedPlaneCase& c : faulted_plane_cases()) {
      const auto overlay = faulted(c);
      const std::string what =
          std::string(c.topology) + " threads=" + std::to_string(threads);
      const auto pooled = std::make_shared<const DistanceCache>(*overlay);
      const SubTopology sub(overlay, connected_components(*overlay).primary());
      expect_same_plane(DistanceCache(sub, *pooled), DistanceCache(sub), what);

      core::CacheHandle handle;
      handle.seed(*overlay, pooled);
      const auto gathered = handle.get(sub);
      expect_same_plane(*gathered, DistanceCache(sub), what + " via handle");
      EXPECT_EQ(handle.get(sub), gathered) << what;
    }
  }
  support::set_num_threads(1);
  // A subset of a healthy machine (closed-form base plane).
  const auto torus = make_topology("torus:6x6");
  const SubTopology corner(torus, {0, 1, 2, 6, 7, 8, 12, 13, 14, 35});
  expect_same_plane(DistanceCache(corner, DistanceCache(*torus)),
                    DistanceCache(corner), "torus:6x6 corner");
}

/// The message part of a precondition_error (after the source location and
/// the failed expression).
std::string precondition_message(const std::function<void()>& f) {
  try {
    f();
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    const std::string sep = " \xE2\x80\x94 ";  // " — "
    const auto at = what.find(sep);
    return at == std::string::npos ? what : what.substr(at + sep.size());
  }
  return "no error";
}

TEST(FaultedPlanePins, DisconnectedSubsetErrorNamesTheFirstPair) {
  const auto base = std::make_shared<TorusMesh>(TorusMesh::mesh({5}));
  auto dead = std::make_shared<FaultOverlay>(base);
  dead->fail_node(2);
  const std::string dead_name =
      " are disconnected in faults(nodes=1,links=0,deg=0,v=1) over mesh(5)";
  EXPECT_EQ(
      precondition_message([&] { SubTopology(dead, dead->alive_procs()); }),
      "SubTopology: processors 0 and 3" + dead_name);
  EXPECT_EQ(
      precondition_message([&] { SubTopology(dead, {0, 1, 2, 3, 4}); }),
      "SubTopology: processors 0 and 2" + dead_name);
  EXPECT_EQ(precondition_message([&] { SubTopology(dead, {2, 3, 4}); }),
            "SubTopology: processors 2 and 2" + dead_name);
  auto cut = std::make_shared<FaultOverlay>(base);
  cut->fail_link(1, 2);
  EXPECT_EQ(precondition_message([&] { SubTopology(cut, {1, 3, 4}); }),
            "SubTopology: processors 1 and 3 are disconnected in "
            "faults(nodes=0,links=1,deg=0,v=1) over mesh(5)");
}

// ---------------------------------------------------------------------------
// Property: after every fault — hard link failures, node deaths, and soft
// degrades (including health-1.0 restores) interleaved at random — the
// incrementally repaired cache is byte-identical to a cache rebuilt from
// scratch on the faulted overlay — matrix bytes, stored means, and
// diameter — under 1 and 4 threads.
// ---------------------------------------------------------------------------

struct FaultStep {
  enum class Kind { kLinkFail, kNodeFail, kDegrade };
  Kind kind = Kind::kLinkFail;
  int a = 0;
  int b = 0;
  double health = 1.0;
};

/// Apply `steps` faults drawn from rng, repairing after each, and check the
/// repaired cache against a rebuild.  Writes the final matrix bytes into
/// `out_matrix` for cross-thread-count comparison.
void run_fault_sequence(const TopologyPtr& base, std::uint64_t seed, int steps,
                        std::vector<std::uint16_t>* out_matrix) {
  auto overlay = std::make_shared<FaultOverlay>(base);
  DistanceCache repaired(*overlay);
  Rng rng(seed);
  const int p = base->size();
  const bool links_ok = base->has_adjacency();
  // Degrade healths cycle through worsenings and a full restore, so the
  // sequence also crosses the weighted<->unweighted plane transitions.
  const double healths[] = {0.5, 0.25, 0.75, 1.0};
  for (int step = 0; step < steps; ++step) {
    // Draw a fault that is actually applicable (alive node / alive link).
    FaultStep f;
    bool found = false;
    for (int tries = 0; tries < 256 && !found; ++tries) {
      const int a =
          static_cast<int>(rng.uniform(static_cast<std::uint64_t>(p)));
      if (!overlay->is_alive(a)) continue;
      const std::uint64_t kind = links_ok ? rng.uniform(4) : 3;
      if (kind < 3) {  // link fail or degrade
        const auto nb = overlay->neighbors(a);
        if (nb.empty()) continue;
        f.a = a;
        f.b = nb[static_cast<std::size_t>(
            rng.uniform(static_cast<std::uint64_t>(nb.size())))];
        if (kind == 0) {
          f.kind = FaultStep::Kind::kLinkFail;
        } else {
          f.kind = FaultStep::Kind::kDegrade;
          f.health = healths[rng.uniform(4)];
        }
        found = true;
      } else {
        if (overlay->num_alive() <= 2) continue;  // keep survivors around
        f = {FaultStep::Kind::kNodeFail, a, 0, 1.0};
        found = true;
      }
    }
    if (!found) break;

    switch (f.kind) {
      case FaultStep::Kind::kLinkFail: {
        const int prev = overlay->fail_link(f.a, f.b);
        repaired.repair_link_failure(*overlay, f.a, f.b, prev);
        break;
      }
      case FaultStep::Kind::kNodeFail:
        overlay->fail_node(f.a);
        repaired.repair_node_failure(*overlay, f.a);
        break;
      case FaultStep::Kind::kDegrade: {
        const int prev = overlay->degrade_link(f.a, f.b, f.health);
        repaired.repair_link_degrade(*overlay, f.a, f.b, prev);
        break;
      }
    }

    const DistanceCache fresh(*overlay);
    ASSERT_EQ(repaired.size(), fresh.size());
    ASSERT_EQ(repaired.scale(), fresh.scale())
        << "plane units diverged after step " << step << " on "
        << overlay->name();
    const std::size_t bytes = static_cast<std::size_t>(p) *
                              static_cast<std::size_t>(p) *
                              sizeof(std::uint16_t);
    ASSERT_EQ(std::memcmp(repaired.row(0), fresh.row(0), bytes), 0)
        << "matrix diverged after step " << step << " on " << overlay->name();
    for (int q = 0; q < p; ++q)
      ASSERT_EQ(repaired.mean_distance_from(q), fresh.mean_distance_from(q))
          << "mean diverged for row " << q << " after step " << step << " on "
          << overlay->name();
    ASSERT_EQ(repaired.diameter(), fresh.diameter())
        << "diameter diverged after step " << step;
  }
  const auto n2 = static_cast<std::size_t>(p) * static_cast<std::size_t>(p);
  out_matrix->assign(repaired.row(0), repaired.row(0) + n2);
}

TEST(DistanceCacheRepair, RepairedEqualsRebuiltAcrossRandomFaultSequences) {
  const std::vector<std::string> specs = {"torus:6x6", "mesh:4x5",
                                          "hypercube:5", "fattree:3x2"};
  for (const std::string& spec : specs) {
    const auto base = make_topology(spec);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      std::vector<std::uint16_t> matrix_1thread;
      for (const int threads : {1, 4}) {
        support::set_num_threads(threads);
        std::vector<std::uint16_t> matrix;
        run_fault_sequence(base, seed, 6, &matrix);
        if (HasFatalFailure()) {
          support::set_num_threads(1);
          return;
        }
        if (threads == 1)
          matrix_1thread = matrix;
        else
          EXPECT_EQ(matrix, matrix_1thread)
              << spec << " seed " << seed
              << ": repaired matrix depends on thread count";
      }
      support::set_num_threads(1);
    }
  }
}

TEST(DistanceCacheRepair, LinkRepairTouchesOnlyAffectedRows) {
  // On an odd (non-bipartite) torus, sources equidistant from both link
  // endpoints cannot have the link on any shortest path: the repair must
  // BFS-recompute a strict subset of rows, not all of them.
  const auto base = make_topology("torus:9x9");
  auto overlay = std::make_shared<FaultOverlay>(base);
  DistanceCache cache(*overlay);
  overlay->fail_link(0, 1);
  const int recomputed = cache.repair_link_failure(*overlay, 0, 1);
  EXPECT_GT(recomputed, 0);
  EXPECT_LT(recomputed, base->size());
}

TEST(DistanceCacheRepair, FatTreeNodeRepairIsPatchOnly) {
  // Leaf removal never perturbs survivor distances on a distance model:
  // zero rows should be BFS-recomputed.
  const auto base = make_topology("fattree:3x2");
  auto overlay = std::make_shared<FaultOverlay>(base);
  DistanceCache cache(*overlay);
  overlay->fail_node(4);
  EXPECT_EQ(cache.repair_node_failure(*overlay, 4), 0);
}

TEST(DistanceCacheRepair, ValidatesRepairRequests) {
  const auto base = make_topology("torus:4x4");
  auto overlay = std::make_shared<FaultOverlay>(base);
  DistanceCache cache(*overlay);
  // Repair of a fault that was never injected is a contract violation.
  EXPECT_THROW(cache.repair_link_failure(*overlay, 0, 1), precondition_error);
  EXPECT_THROW(cache.repair_node_failure(*overlay, 3), precondition_error);
}

}  // namespace
}  // namespace topomap::topo

namespace topomap::core {
namespace {

using topo::FaultOverlay;
using topo::make_topology;

TEST(MapOnAlive, ProducesValidAliveOnlyInjectiveMapping) {
  const auto g = graph::stencil_2d(3, 4, 1.0);  // 12 tasks
  auto overlay = std::make_shared<FaultOverlay>(make_topology("torus:4x4"));
  overlay->fail_node(0);
  overlay->fail_node(7);
  overlay->fail_node(10);  // 13 alive
  const auto strategy = make_strategy("topolb");
  Rng rng(1);
  const Mapping m = map_on_alive(*strategy, g, *overlay, rng);
  ASSERT_EQ(m.size(), 12u);
  std::vector<char> used(16, 0);
  for (int proc : m) {
    ASSERT_GE(proc, 0);
    ASSERT_LT(proc, 16);
    EXPECT_TRUE(overlay->is_alive(proc));
    EXPECT_FALSE(used[static_cast<std::size_t>(proc)]);
    used[static_cast<std::size_t>(proc)] = 1;
  }
  // Deterministic strategy => deterministic alive-subset mapping.
  Rng rng2(999);
  EXPECT_EQ(map_on_alive(*strategy, g, *overlay, rng2), m);
}

TEST(MapOnAlive, RejectsOverfullAndDisconnectedMachines) {
  const auto g = graph::stencil_2d(4, 4, 1.0);  // 16 tasks
  auto overlay = std::make_shared<FaultOverlay>(make_topology("torus:4x4"));
  overlay->fail_node(2);
  const auto strategy = make_strategy("topolb");
  Rng rng(1);
  EXPECT_THROW(map_on_alive(*strategy, g, *overlay, rng), precondition_error);

  const auto small = graph::stencil_2d(1, 3, 1.0);  // 3 tasks
  auto split = std::make_shared<FaultOverlay>(make_topology("mesh:5"));
  split->fail_node(2);  // {0,1} | {3,4}
  EXPECT_THROW(map_on_alive(*strategy, small, *split, rng),
               precondition_error);
}

// A strategy that oversubscribes (hier) maps more tasks than alive
// processors onto a faulted machine, soft-faulted or with dead processors:
// every task lands on an alive processor, at any thread count.
TEST(MapOnAlive, OversubscribingStrategyMapsEveryTaskOntoAliveProcessors) {
  ops::Params p;
  p.tasks = "stencil3d:16x16x16";
  p.topology = "torus:8x8x4";
  p.strategy = "hier+refine";
  p.random_degrades = 20;
  for (const int dead : {0, 4}) {
    p.random_node_faults = dead;
    std::string text_1thread;
    for (const int threads : {1, 4}) {
      support::set_num_threads(threads);
      const ops::MapResult r = ops::run_map(p, ops::make_machine);
      ASSERT_EQ(r.mapping.size(), 4096u);
      EXPECT_TRUE(r.quarantined.empty());
      const topo::FaultOverlay& overlay = *r.machine->overlay;
      EXPECT_EQ(overlay.num_alive(), 256 - dead);
      for (const int proc : r.mapping) {
        ASSERT_NE(proc, kUnassigned);
        ASSERT_TRUE(overlay.is_alive(proc)) << proc;
      }
      const std::string text = ops::mapping_text(r.mapping);
      if (threads == 1)
        text_1thread = text;
      else
        EXPECT_EQ(text, text_1thread) << dead << " dead processors";
    }
  }
  support::set_num_threads(1);
}

// On a split machine an oversubscribing strategy quarantines nothing: the
// whole graph goes onto the primary component.
TEST(MapOnAlive, OversubscribingStrategyFillsThePrimaryComponent) {
  ops::Params p;
  p.tasks = "stencil2d:16x16";
  p.topology = "mesh:8x8";
  p.strategy = "hier";
  p.fail_node = "1,9,17,25,33,41,49,57";  // cuts off column 0
  const ops::MapResult r = ops::run_map(p, ops::make_machine);
  EXPECT_TRUE(r.quarantined.empty());
  EXPECT_FALSE(r.partition_note.empty());
  for (const int proc : r.mapping) {
    ASSERT_NE(proc, kUnassigned);
    EXPECT_GE(proc % 8, 2) << proc;  // columns 2..7 only
  }
}

TEST(MapOnAlive, LinkFaultsSteerPlacementAwayFromTheCut) {
  // With heavy traffic and a severed ring link, mapping on the overlay must
  // still produce a valid bijection and respect rerouted distances.
  const auto g = graph::ring(8, 16.0);
  auto overlay = std::make_shared<FaultOverlay>(make_topology("torus:8"));
  overlay->fail_link(3, 4);
  const auto strategy = make_strategy("topolb");
  Rng rng(1);
  const Mapping m = map_on_alive(*strategy, g, *overlay, rng);
  EXPECT_TRUE(is_one_to_one(m, *overlay));
}

}  // namespace
}  // namespace topomap::core

namespace topomap::rts {
namespace {

using topo::FaultOverlay;
using topo::make_topology;

TEST(Evacuate, TieBreaksToLowestProcessorId) {
  // Ring of 4 heavy tasks on alternate processors of an 8-ring; killing
  // proc 2 strands task 1, whose neighbours sit on procs 0 and 4.  The
  // death cuts the ring, so on the rerouted metric the free processors
  // cost 6 (procs 1, 3 — walled off from one neighbour) or 4 (procs 5, 7,
  // equidistant).  The documented tie-break — lowest processor id among
  // the tied best — must pick proc 5, every run, any thread count.
  const auto g = graph::ring(4, 8.0);
  auto overlay = std::make_shared<FaultOverlay>(make_topology("torus:8"));
  const core::Mapping previous{0, 2, 4, 6};
  overlay->fail_node(2);
  const EvacuationResult r = evacuate(g, *overlay, previous, 0);
  EXPECT_EQ(r.stranded, 1);
  EXPECT_EQ(r.migrations, 1);
  ASSERT_EQ(r.mapping.size(), 4u);
  EXPECT_EQ(r.mapping[1], 5);
  // Survivors keep their seats.
  EXPECT_EQ(r.mapping[0], 0);
  EXPECT_EQ(r.mapping[2], 4);
  EXPECT_EQ(r.mapping[3], 6);
}

TEST(Evacuate, CompareEvacuateVsRemapIsThreadCountInvariant) {
  // Same faults (two deaths + one soft degrade, so the weighted plane is
  // active), same seed: the evacuation and the full remap must be
  // byte-identical under 1 and 4 mapping threads.
  const auto g = graph::stencil_2d(5, 6, 1000.0);  // 30 tasks
  const auto base = make_topology("torus:6x6");
  const auto strategy = core::make_strategy("topolb");
  FaultOverlay healthy(base);
  Rng seed_rng(7);
  const core::Mapping previous =
      core::map_on_alive(*strategy, g, healthy, seed_rng);

  auto overlay = std::make_shared<FaultOverlay>(base);
  overlay->fail_node(previous[4]);
  overlay->fail_node(previous[17]);
  overlay->degrade_link(0, 1, 0.5);

  support::set_num_threads(1);
  Rng rng1(3);
  const EvacuateComparison c1 =
      compare_evacuate_vs_remap(g, *overlay, previous, *strategy, rng1, 1);
  support::set_num_threads(4);
  Rng rng4(3);
  const EvacuateComparison c4 =
      compare_evacuate_vs_remap(g, *overlay, previous, *strategy, rng4, 1);
  support::set_num_threads(1);

  EXPECT_EQ(c1.evac.mapping, c4.evac.mapping);
  EXPECT_EQ(c1.evac.stranded, c4.evac.stranded);
  EXPECT_EQ(c1.evac.migrations, c4.evac.migrations);
  EXPECT_EQ(c1.evac.refine_swaps, c4.evac.refine_swaps);
  EXPECT_EQ(c1.evac.hop_bytes, c4.evac.hop_bytes);
  EXPECT_EQ(c1.full_mapping, c4.full_mapping);
  EXPECT_EQ(c1.full_migrations, c4.full_migrations);
  EXPECT_EQ(c1.full_hop_bytes, c4.full_hop_bytes);
}

}  // namespace
}  // namespace topomap::rts
