// Topology unit + property tests: closed-form distances vs a BFS oracle,
// coordinate round-trips, routing invariants, analytic mean distances.
#include <gtest/gtest.h>

#include <memory>

#include "support/error.hpp"
#include "topo/factory.hpp"
#include "topo/fat_tree.hpp"
#include "topo/graph_topology.hpp"
#include "topo/hypercube.hpp"
#include "topo/torus_mesh.hpp"

namespace topomap::topo {
namespace {

TEST(TorusMesh, SizeAndCoordsRoundTrip) {
  const TorusMesh t = TorusMesh::torus({4, 3, 5});
  EXPECT_EQ(t.size(), 60);
  for (int p = 0; p < t.size(); ++p) EXPECT_EQ(t.index(t.coords(p)), p);
}

TEST(TorusMesh, DistanceBasics2DTorus) {
  const TorusMesh t = TorusMesh::torus({8, 8});
  EXPECT_EQ(t.distance(0, 0), 0);
  EXPECT_EQ(t.distance(0, 1), 1);
  EXPECT_EQ(t.distance(0, 7), 1);   // wraparound in x
  EXPECT_EQ(t.distance(0, 8), 1);   // +1 in y
  EXPECT_EQ(t.distance(0, 4), 4);   // antipodal in x
  EXPECT_EQ(t.diameter(), 8);
}

TEST(TorusMesh, DistanceBasics2DMesh) {
  const TorusMesh m = TorusMesh::mesh({8, 8});
  EXPECT_EQ(m.distance(0, 7), 7);  // no wraparound
  EXPECT_EQ(m.distance(0, 63), 14);
  EXPECT_EQ(m.diameter(), 14);
}

TEST(TorusMesh, DistanceSymmetryAndTriangleInequality) {
  const TorusMesh t = TorusMesh::torus({5, 4, 3});
  for (int a = 0; a < t.size(); ++a) {
    for (int b = 0; b < t.size(); ++b) {
      EXPECT_EQ(t.distance(a, b), t.distance(b, a));
      // spot-check triangle inequality through node 0
      EXPECT_LE(t.distance(a, b), t.distance(a, 0) + t.distance(0, b));
    }
  }
}

TEST(TorusMesh, NeighborsDegree) {
  const TorusMesh torus = TorusMesh::torus({4, 4, 4});
  for (int p = 0; p < torus.size(); ++p)
    EXPECT_EQ(torus.neighbors(p).size(), 6u);  // 3D torus: 6 links each

  const TorusMesh mesh = TorusMesh::mesh({4, 4});
  EXPECT_EQ(mesh.neighbors(0).size(), 2u);    // corner
  EXPECT_EQ(mesh.neighbors(1).size(), 3u);    // edge
  EXPECT_EQ(mesh.neighbors(5).size(), 4u);    // interior
}

TEST(TorusMesh, WrapWithSpanTwoHasSingleNeighborPerDim) {
  const TorusMesh t = TorusMesh::torus({2, 2});
  for (int p = 0; p < 4; ++p) EXPECT_EQ(t.neighbors(p).size(), 2u);
  EXPECT_EQ(t.distance(0, 3), 2);
}

TEST(TorusMesh, RouteIsShortestAndDimensionOrdered) {
  const TorusMesh t = TorusMesh::torus({4, 4, 4});
  for (int a = 0; a < t.size(); a += 7) {
    for (int b = 0; b < t.size(); b += 5) {
      const auto path = t.route(a, b);
      ASSERT_EQ(static_cast<int>(path.size()), t.distance(a, b) + 1);
      EXPECT_EQ(path.front(), a);
      EXPECT_EQ(path.back(), b);
      for (std::size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_EQ(t.distance(path[i], path[i + 1]), 1);
    }
  }
}

TEST(TorusMesh, MeanDistanceMatchesBruteForce) {
  for (const auto& spec : {"torus:6x6", "torus:5x7", "mesh:6x4", "torus:4x4x4",
                           "mesh:3x5x2", "hybrid:6wx5o"}) {
    const TopologyPtr t = make_topology(spec);
    for (int p = 0; p < t->size(); p += 3) {
      double brute = 0;
      for (int q = 0; q < t->size(); ++q) brute += t->distance(p, q);
      brute /= t->size();
      EXPECT_NEAR(t->mean_distance_from(p), brute, 1e-9) << spec;
    }
  }
}

TEST(TorusMesh, MeanPairwiseDistanceClosedForm) {
  // Paper §5.2.1: square 2D torus E[d] = sqrt(p)/2; cubic 3D: 3*cbrt(p)/4.
  const TorusMesh t2 = TorusMesh::torus({16, 16});
  EXPECT_NEAR(t2.mean_pairwise_distance(), 16.0 / 2.0, 1e-12);
  const TorusMesh t3 = TorusMesh::torus({8, 8, 8});
  EXPECT_NEAR(t3.mean_pairwise_distance(), 3.0 * 8.0 / 4.0, 1e-12);
}

TEST(TorusMesh, RejectsBadArguments) {
  EXPECT_THROW(TorusMesh::torus({}), precondition_error);
  EXPECT_THROW(TorusMesh::torus({0, 4}), precondition_error);
  EXPECT_THROW(TorusMesh({4, 4}, {true}), precondition_error);
  const TorusMesh t = TorusMesh::torus({4, 4});
  EXPECT_THROW(t.distance(-1, 0), precondition_error);
  EXPECT_THROW(t.distance(0, 16), precondition_error);
}

TEST(Hypercube, DistanceIsHammingAndRouteIsEcube) {
  const Hypercube h(4);
  EXPECT_EQ(h.size(), 16);
  EXPECT_EQ(h.distance(0b0000, 0b1111), 4);
  EXPECT_EQ(h.distance(5, 5), 0);
  EXPECT_EQ(h.diameter(), 4);
  const auto path = h.route(0b0000, 0b1010);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], 0b0000);
  EXPECT_EQ(path[1], 0b0010);
  EXPECT_EQ(path[2], 0b1010);
  EXPECT_NEAR(h.mean_pairwise_distance(), 2.0, 1e-12);
}

TEST(FatTree, DistanceByCommonSwitch) {
  const FatTree f(4, 3);  // 64 leaves
  EXPECT_EQ(f.size(), 64);
  EXPECT_EQ(f.distance(0, 0), 0);
  EXPECT_EQ(f.distance(0, 1), 2);    // siblings
  EXPECT_EQ(f.distance(0, 5), 4);    // cousins
  EXPECT_EQ(f.distance(0, 63), 6);   // through the root
  EXPECT_EQ(f.diameter(), 6);
  EXPECT_THROW(f.route(0, 1), precondition_error);
  // Oracle for the mean: brute force.
  double brute = 0;
  for (int a = 0; a < f.size(); ++a)
    for (int b = 0; b < f.size(); ++b) brute += f.distance(a, b);
  brute /= static_cast<double>(f.size()) * f.size();
  EXPECT_NEAR(f.mean_pairwise_distance(), brute, 1e-9);
}

TEST(GraphTopology, MatchesClosedFormOracle) {
  // BFS distances on an explicit copy must agree with closed forms.
  for (const auto& spec :
       {"torus:5x5", "mesh:4x6", "torus:3x3x3", "hypercube:4"}) {
    const TopologyPtr t = make_topology(spec);
    const GraphTopology g = GraphTopology::from_topology(*t);
    ASSERT_EQ(g.size(), t->size()) << spec;
    for (int a = 0; a < t->size(); ++a)
      for (int b = 0; b < t->size(); ++b)
        EXPECT_EQ(g.distance(a, b), t->distance(a, b))
            << spec << " a=" << a << " b=" << b;
    EXPECT_EQ(g.diameter(), t->diameter()) << spec;
  }
}

TEST(GraphTopology, RejectsDisconnectedAndMalformed) {
  EXPECT_THROW(GraphTopology(3, {{0, 1}}), precondition_error);        // node 2 unreachable
  EXPECT_THROW(GraphTopology(2, {{0, 0}}), precondition_error);        // self loop
  EXPECT_THROW(GraphTopology(2, {{0, 1}, {1, 0}}), precondition_error);// duplicate
  EXPECT_THROW(GraphTopology(2, {{0, 2}}), precondition_error);        // out of range
}

TEST(Factory, ParsesAllKinds) {
  EXPECT_EQ(make_topology("torus:8x8")->size(), 64);
  EXPECT_EQ(make_topology("mesh:2x3x4")->size(), 24);
  EXPECT_EQ(make_topology("hypercube:5")->size(), 32);
  EXPECT_EQ(make_topology("fattree:2x4")->size(), 16);
  EXPECT_EQ(make_topology("hybrid:4wx4o")->size(), 16);
  EXPECT_THROW(make_topology("ring:5"), precondition_error);
  EXPECT_THROW(make_topology("torus"), precondition_error);
  EXPECT_THROW(make_topology("torus:axb"), precondition_error);
}

// A stray or trailing separator is an empty field the extent parser
// rejects, naming the whole spec; it never vanishes into a smaller machine.
TEST(Factory, RejectsEmptyFieldsNamingTheSpec) {
  for (const std::string spec : {"torus:4x4x", "mesh:4x", "torus:x4",
                                 "mesh:4xx4", "torus:", "hybrid:4wx4ox",
                                 "fattree:2x4x"}) {
    try {
      (void)make_topology(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find(spec), std::string::npos)
          << e.what();
    }
  }
}

TEST(Factory, BalancedDims) {
  EXPECT_EQ(balanced_dims(64, 3), (std::vector<int>{4, 4, 4}));
  EXPECT_EQ(balanced_dims(64, 2), (std::vector<int>{8, 8}));
  EXPECT_EQ(balanced_dims(12, 2), (std::vector<int>{4, 3}));
  EXPECT_EQ(balanced_dims(7, 2), (std::vector<int>{7, 1}));
  int prod = 1;
  for (int d : balanced_dims(360, 3)) prod *= d;
  EXPECT_EQ(prod, 360);
}

TEST(Factory, PerfectPowers) {
  EXPECT_TRUE(is_perfect_square(0));
  EXPECT_TRUE(is_perfect_square(1024));
  EXPECT_FALSE(is_perfect_square(1023));
  EXPECT_TRUE(is_perfect_cube(512));
  EXPECT_FALSE(is_perfect_cube(100));
}

// Property sweep: closed-form torus/mesh distance equals BFS oracle over a
// family of shapes.
class TorusOracleTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TorusOracleTest, ClosedFormEqualsBfs) {
  const TopologyPtr t = make_topology(GetParam());
  const GraphTopology oracle = GraphTopology::from_topology(*t);
  for (int a = 0; a < t->size(); ++a)
    for (int b = a; b < t->size(); ++b)
      ASSERT_EQ(t->distance(a, b), oracle.distance(a, b))
          << GetParam() << " a=" << a << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(Shapes, TorusOracleTest,
                         ::testing::Values("torus:2x2", "torus:3x2", "torus:7x3",
                                           "torus:2x2x2", "torus:5x4x3",
                                           "mesh:7x3", "mesh:2x2x2",
                                           "mesh:10x1", "hybrid:5wx4o",
                                           "hybrid:3ox3wx2o", "torus:9x9",
                                           "mesh:6x6x2"));

}  // namespace
}  // namespace topomap::topo
