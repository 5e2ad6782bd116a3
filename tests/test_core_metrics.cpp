// Hop-bytes / hops-per-byte / link-load metric tests (paper §3).
#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "graph/builders.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "topo/factory.hpp"
#include "topo/link_index.hpp"
#include "topo/torus_mesh.hpp"

namespace topomap::core {
namespace {

using graph::stencil_2d;
using topo::TorusMesh;

TEST(Metrics, IdentityStencilOnMatchingMeshIsOneHopPerByte) {
  // stencil ids match TorusMesh::index, so identity maps neighbours to
  // neighbours: every byte travels exactly one hop.
  const auto g = stencil_2d(6, 5, 128.0);
  const TorusMesh t = TorusMesh::mesh({6, 5});
  const Mapping m = identity_mapping(g.num_vertices());
  EXPECT_DOUBLE_EQ(hop_bytes(g, t, m), g.total_comm_bytes());
  EXPECT_DOUBLE_EQ(hops_per_byte(g, t, m), 1.0);
}

TEST(Metrics, HopBytesMatchesHandComputedExample) {
  // Ring of 4 on a 4-node line mesh: identity gives edges 0-1,1-2,2-3 at
  // distance 1 and the closing edge 3-0 at distance 3.
  const auto g = graph::ring(4, 10.0);
  const TorusMesh line = TorusMesh::mesh({4});
  const Mapping m = identity_mapping(4);
  EXPECT_DOUBLE_EQ(hop_bytes(g, line, m), 10.0 * (1 + 1 + 1 + 3));
  EXPECT_DOUBLE_EQ(hops_per_byte(g, line, m), 60.0 / 40.0);
}

TEST(Metrics, TaskContributionsSumToTwiceHopBytes) {
  Rng rng(3);
  const auto g = graph::random_graph(30, 0.2, 1.0, 9.0, rng);
  const TorusMesh t = TorusMesh::torus({6, 5});
  const Mapping m = rng.permutation(30);
  double per_task = 0.0;
  for (int v = 0; v < g.num_vertices(); ++v)
    per_task += hop_bytes_of_task(g, t, m, v);
  EXPECT_NEAR(per_task, 2.0 * hop_bytes(g, t, m), 1e-6);
}

TEST(Metrics, ColocatedTasksContributeZero) {
  const auto g = graph::ring(4, 10.0);
  const TorusMesh t = TorusMesh::mesh({2, 2});
  const Mapping all_same{0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(hop_bytes(g, t, all_same), 0.0);
}

TEST(Metrics, RejectsIncompleteOrMismatchedMappings) {
  const auto g = graph::ring(4, 1.0);
  const TorusMesh t = TorusMesh::mesh({2, 2});
  EXPECT_THROW(hop_bytes(g, t, Mapping{0, 1, 2}), precondition_error);
  EXPECT_THROW(hop_bytes(g, t, Mapping{0, 1, 2, 4}), precondition_error);
  EXPECT_THROW(hop_bytes(g, t, Mapping{0, 1, 2, kUnassigned}),
               precondition_error);
}

TEST(Metrics, ExpectedRandomHopsClosedForms) {
  // Paper §5.2: sqrt(p)/2 on square 2D tori, 3*cbrt(p)/4 on cubic 3D tori.
  EXPECT_NEAR(expected_random_hops(TorusMesh::torus({32, 32})), 16.0, 1e-12);
  EXPECT_NEAR(expected_random_hops(TorusMesh::torus({16, 16, 16})), 12.0,
              1e-12);
}

TEST(Metrics, RandomMappingMatchesExpectedHops) {
  // Statistical reproduction of the paper's random-placement observation.
  const int side = 24;
  const auto g = stencil_2d(side, side, 1.0);
  const TorusMesh t = TorusMesh::torus({side, side});
  Rng rng(1234);
  RunningStats hpb;
  for (int rep = 0; rep < 20; ++rep)
    hpb.add(hops_per_byte(g, t, rng.permutation(side * side)));
  const double expected = expected_random_hops(t);  // = side/2 = 12
  EXPECT_NEAR(hpb.mean(), expected, 0.05 * expected);
}

TEST(Metrics, LinkLoadTotalsEqualHopBytes) {
  Rng rng(9);
  const auto g = graph::random_graph(24, 0.25, 2.0, 20.0, rng);
  const TorusMesh t = TorusMesh::torus({4, 6});
  const Mapping m = rng.permutation(24);
  const LinkLoadStats stats = link_loads(g, t, m);
  EXPECT_NEAR(stats.total_bytes, hop_bytes(g, t, m), 1e-6);
  EXPECT_GE(stats.max_bytes, stats.mean_bytes);
  EXPECT_EQ(stats.links_total, topo::LinkIndex(t).size());
  EXPECT_LE(stats.links_used, stats.links_total);
}

TEST(Metrics, BetterMappingLowersMaxLinkLoad) {
  // The identity mapping of a stencil spreads traffic one hop wide; a
  // random mapping concentrates far more bytes on the busiest link.
  const auto g = stencil_2d(8, 8, 100.0);
  const TorusMesh t = TorusMesh::torus({8, 8});
  Rng rng(5);
  const auto ideal = link_loads(g, t, identity_mapping(64));
  const auto random = link_loads(g, t, rng.permutation(64));
  EXPECT_LT(ideal.max_bytes, random.max_bytes);
  EXPECT_LT(ideal.total_bytes, random.total_bytes);
}

TEST(Metrics, MappingHelpers) {
  const TorusMesh t = TorusMesh::mesh({2, 2});
  EXPECT_TRUE(is_one_to_one(Mapping{0, 1, 2, 3}, t));
  EXPECT_FALSE(is_one_to_one(Mapping{0, 1, 2, 2}, t));
  EXPECT_TRUE(is_complete(Mapping{0, 0}, t));
  EXPECT_FALSE(is_complete(Mapping{0, kUnassigned}, t));
  const auto inv = inverse_mapping(Mapping{2, 0, 3, 1}, t);
  EXPECT_EQ(inv, (std::vector<int>{1, 3, 0, 2}));
  EXPECT_THROW(inverse_mapping(Mapping{0, 0, 1, 2}, t), precondition_error);
}

}  // namespace
}  // namespace topomap::core
