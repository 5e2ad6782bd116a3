// Tests for the extension features: AnnealingLB, link-load refinement,
// RecursiveBisectionLB, the dragonfly topology, and dynamic re-mapping.
#include <gtest/gtest.h>

#include "core/annealing_lb.hpp"
#include "core/link_refine.hpp"
#include "core/metrics.hpp"
#include "core/recursive_map.hpp"
#include "core/refine_topo_lb.hpp"
#include "graph/builders.hpp"
#include "runtime/dynamic_lb.hpp"
#include "support/error.hpp"
#include "topo/dragonfly.hpp"
#include "topo/factory.hpp"
#include "topo/torus_mesh.hpp"

namespace topomap {
namespace {

using core::Mapping;
using graph::stencil_2d;
using topo::TorusMesh;

// ---------------------------------------------------------------------------
// AnnealingLB
// ---------------------------------------------------------------------------

TEST(AnnealingLB, ImprovesFarBeyondRandom) {
  const auto g = stencil_2d(6, 6, 1.0);
  const TorusMesh t = TorusMesh::torus({6, 6});
  Rng rng(3);
  const Mapping m = core::AnnealingLB().map(g, t, rng);
  EXPECT_TRUE(core::is_one_to_one(m, t));
  EXPECT_LT(core::hops_per_byte(g, t, m),
            0.6 * core::expected_random_hops(t));
}

TEST(AnnealingLB, WarmStartNeverWorseThanItsSeed) {
  const auto g = stencil_2d(5, 5, 1.0);
  const TorusMesh t = TorusMesh::torus({5, 5});
  core::AnnealingOptions options;
  options.warm_start = core::make_strategy("topolb");
  Rng rng(1), rng2(1);
  const Mapping seed = core::make_strategy("topolb")->map(g, t, rng2);
  const Mapping annealed = core::AnnealingLB(options).map(g, t, rng);
  // AnnealingLB returns the best-ever mapping, which includes the seed.
  EXPECT_LE(core::hop_bytes(g, t, annealed), core::hop_bytes(g, t, seed));
}

TEST(AnnealingLB, SeededDeterminism) {
  const auto g = stencil_2d(4, 4, 1.0);
  const TorusMesh t = TorusMesh::torus({4, 4});
  Rng a(9), b(9);
  EXPECT_EQ(core::AnnealingLB().map(g, t, a), core::AnnealingLB().map(g, t, b));
}

// ---------------------------------------------------------------------------
// Link-load refinement
// ---------------------------------------------------------------------------

TEST(LinkRefine, L2NeverIncreasesAndMaxUsuallyDrops) {
  const auto g = stencil_2d(8, 8, 100.0);
  const TorusMesh t = TorusMesh::torus({8, 8});
  Rng rng(4);
  const Mapping random = rng.permutation(64);
  const auto r = core::refine_link_load(g, t, random, 6);
  EXPECT_LE(r.l2_after, r.l2_before);
  EXPECT_LE(r.max_after, r.max_before);
  EXPECT_GT(r.swaps, 0);
  EXPECT_TRUE(core::is_one_to_one(r.mapping, t));
}

TEST(LinkRefine, FixesTheFig11MeshHotspot) {
  // The scenario from our Fig-11 reproduction: TopoLB's hop-optimal
  // embedding of an 8x8 stencil in a (4,4,4) MESH doubles messages up on
  // some links; link refinement must reduce the busiest link.
  const auto g = stencil_2d(8, 8, 100.0);
  const TorusMesh mesh = TorusMesh::mesh({4, 4, 4});
  Rng rng(1);
  const Mapping topolb = core::make_strategy("topolb")->map(g, mesh, rng);
  const auto before = core::link_loads(g, mesh, topolb);
  const auto refined = core::refine_link_load(g, mesh, topolb, 6);
  const auto after = core::link_loads(g, mesh, refined.mapping);
  EXPECT_LE(after.max_bytes, before.max_bytes);
}

TEST(LinkRefine, IdempotentOnBalancedOptimum) {
  // Identity mapping of a periodic stencil on the matching torus loads
  // every link identically; no swap can reduce the L2 norm.
  const auto g = stencil_2d(4, 4, 10.0, /*periodic=*/true);
  const TorusMesh t = TorusMesh::torus({4, 4});
  const auto r = core::refine_link_load(g, t, core::identity_mapping(16), 3);
  EXPECT_EQ(r.swaps, 0);
  EXPECT_DOUBLE_EQ(r.l2_after, r.l2_before);
}

TEST(LinkRefine, StrategyAdaptorComposes) {
  const auto g = stencil_2d(4, 4, 1.0);
  const TorusMesh t = TorusMesh::torus({4, 4});
  Rng rng(2);
  const auto s = core::make_strategy("topolb+linkrefine");
  EXPECT_EQ(s->name(), "TopoLB+LinkRefine");
  EXPECT_TRUE(core::is_one_to_one(s->map(g, t, rng), t));
  const auto chained = core::make_strategy("topolb+refine+linkrefine");
  EXPECT_TRUE(core::is_one_to_one(chained->map(g, t, rng), t));
}

// ---------------------------------------------------------------------------
// RecursiveBisectionLB
// ---------------------------------------------------------------------------

TEST(RecursiveBisectionLB, ValidAndStrongOnStencils) {
  const auto g = stencil_2d(8, 8, 1.0);
  const TorusMesh t = TorusMesh::torus({8, 8});
  Rng rng(5);
  const Mapping m = core::RecursiveBisectionLB().map(g, t, rng);
  EXPECT_TRUE(core::is_one_to_one(m, t));
  EXPECT_LT(core::hops_per_byte(g, t, m),
            0.5 * core::expected_random_hops(t));
}

TEST(RecursiveBisectionLB, HandlesOddSizesAndIrregularTopologies) {
  Rng rng(6);
  for (const char* spec : {"torus:5x3", "mesh:7x2", "hypercube:4"}) {
    const auto t = topo::make_topology(spec);
    const auto g = graph::random_graph(t->size(), 0.15, 1.0, 16.0, rng);
    const Mapping m = core::RecursiveBisectionLB().map(g, *t, rng);
    EXPECT_TRUE(core::is_one_to_one(m, *t)) << spec;
  }
}

TEST(RecursiveBisectionLB, KeepsCliquesLocal) {
  // Two 8-cliques on a 4x4 torus: each clique should occupy a compact
  // half, so intra-clique distances stay small.
  graph::TaskGraph::Builder b("cliques");
  b.add_vertices(16, 1.0);
  for (int base : {0, 8})
    for (int i = 0; i < 8; ++i)
      for (int j = i + 1; j < 8; ++j)
        b.add_edge(base + i, base + j, 10.0);
  const auto g = std::move(b).build();
  const TorusMesh t = TorusMesh::torus({4, 4});
  Rng rng(7);
  const Mapping m = core::RecursiveBisectionLB().map(g, t, rng);
  EXPECT_LT(core::hops_per_byte(g, t, m), core::expected_random_hops(t));
}

// ---------------------------------------------------------------------------
// Dragonfly topology
// ---------------------------------------------------------------------------

TEST(Dragonfly, ShapeInvariants) {
  for (int a : {2, 4, 8}) {
    const auto d = topo::make_dragonfly(a);
    EXPECT_EQ(d.size(), a * (a + 1));
    EXPECT_LE(d.diameter(), 3);
    for (int v = 0; v < d.size(); ++v)
      EXPECT_EQ(d.neighbors(v).size(), static_cast<std::size_t>(a))
          << "a=" << a << " v=" << v;  // (a-1) local + 1 global
  }
}

TEST(Dragonfly, IntraGroupDistanceIsOne) {
  const auto d = topo::make_dragonfly(4);
  for (int grp = 0; grp < 5; ++grp)
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j)
        if (i != j) {
          EXPECT_EQ(d.distance(grp * 4 + i, grp * 4 + j), 1);
        }
}

TEST(Dragonfly, FactorySpecAndMappingWorks) {
  const auto d = topo::make_topology("dragonfly:3");
  EXPECT_EQ(d->size(), 12);
  Rng rng(8);
  const auto g = graph::random_graph(12, 0.3, 1.0, 8.0, rng);
  const Mapping m = core::make_strategy("topolb")->map(g, *d, rng);
  EXPECT_TRUE(core::is_one_to_one(m, *d));
  // Rich wiring: even random placement costs < 3 hops/byte.
  EXPECT_LE(core::expected_random_hops(*d), 3.0);
}

// ---------------------------------------------------------------------------
// Dynamic re-mapping
// ---------------------------------------------------------------------------

rts::DynamicLBConfig dynamic_config(rts::RemapPolicy policy) {
  rts::DynamicLBConfig config;
  config.epochs = 5;
  config.policy = policy;
  config.pipeline.partitioner = part::make_partitioner("multilevel");
  config.pipeline.mapper = core::make_strategy("topolb");
  return config;
}

TEST(DynamicLB, ZeroDriftIncrementalHasZeroMigrations) {
  const auto g = stencil_2d(8, 8, 16.0);
  const auto t = topo::make_topology("torus:4x4");
  auto config = dynamic_config(rts::RemapPolicy::kIncremental);
  config.load_drift = 0.0;
  config.comm_drift = 0.0;
  Rng rng(11);
  const auto history = rts::run_dynamic_lb(g, *t, config, rng).history;
  ASSERT_EQ(history.size(), 5u);
  for (const auto& epoch : history) EXPECT_EQ(epoch.migrations, 0);
}

TEST(DynamicLB, IncrementalMigratesLessThanScratch) {
  const auto g = stencil_2d(10, 10, 16.0);
  const auto t = topo::make_topology("torus:5x5");
  Rng rng_a(13), rng_b(13);
  const auto scratch =
      rts::run_dynamic_lb(g, *t, dynamic_config(rts::RemapPolicy::kScratch),
                          rng_a)
          .history;
  const auto incremental =
      rts::run_dynamic_lb(g, *t,
                          dynamic_config(rts::RemapPolicy::kIncremental), rng_b)
          .history;
  long scratch_moves = 0, incr_moves = 0;
  for (const auto& e : scratch) scratch_moves += e.migrations;
  for (const auto& e : incremental) incr_moves += e.migrations;
  EXPECT_LT(incr_moves, scratch_moves);
  // Quality stays sane in both modes.
  for (const auto& e : incremental)
    EXPECT_LT(e.hops_per_byte, core::expected_random_hops(*t));
}

TEST(DynamicLB, FirstEpochHasNoMigrationsByDefinition) {
  const auto g = stencil_2d(4, 4, 4.0);
  const auto t = topo::make_topology("torus:4x4");
  Rng rng(17);
  const auto history =
      rts::run_dynamic_lb(g, *t, dynamic_config(rts::RemapPolicy::kScratch),
                          rng)
          .history;
  EXPECT_EQ(history.front().migrations, 0);
}

TEST(DynamicLB, RejectsBadConfig) {
  const auto g = stencil_2d(4, 4, 4.0);
  const auto t = topo::make_topology("torus:4x4");
  Rng rng(1);
  auto config = dynamic_config(rts::RemapPolicy::kScratch);
  config.load_drift = 1.0;
  EXPECT_THROW(rts::run_dynamic_lb(g, *t, config, rng), precondition_error);
  config = dynamic_config(rts::RemapPolicy::kScratch);
  config.pipeline.mapper = nullptr;
  EXPECT_THROW(rts::run_dynamic_lb(g, *t, config, rng), precondition_error);
}

// ---------------------------------------------------------------------------
// Strategy factory round-trip for the new specs
// ---------------------------------------------------------------------------

TEST(Factory, NewStrategySpecs) {
  const auto g = stencil_2d(4, 4, 1.0);
  const TorusMesh t = TorusMesh::torus({4, 4});
  Rng rng(1);
  for (const char* spec : {"recursive", "anneal", "anneal-warm",
                           "topolb+linkrefine", "recursive+refine"}) {
    const auto s = core::make_strategy(spec);
    EXPECT_TRUE(core::is_one_to_one(s->map(g, t, rng), t)) << spec;
  }
}

}  // namespace
}  // namespace topomap
