// Task-graph structure and generator tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "graph/builders.hpp"
#include "graph/quotient.hpp"
#include "graph/synthetic_md.hpp"
#include "graph/task_graph.hpp"
#include "support/error.hpp"

namespace topomap::graph {
namespace {

TEST(TaskGraph, BuilderAccumulatesParallelEdges) {
  TaskGraph::Builder b("t");
  b.add_vertices(3, 2.0);
  b.add_edge(0, 1, 10.0);
  b.add_edge(1, 0, 5.0);  // same undirected edge, reversed order
  b.add_edge(1, 2, 7.0);
  const TaskGraph g = std::move(b).build();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.edge_bytes(0, 1), 15.0);
  EXPECT_DOUBLE_EQ(g.edge_bytes(1, 0), 15.0);
  EXPECT_DOUBLE_EQ(g.edge_bytes(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(g.comm_bytes(1), 22.0);
  EXPECT_DOUBLE_EQ(g.total_comm_bytes(), 22.0);
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 6.0);
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(TaskGraph, BuilderRejectsBadInput) {
  TaskGraph::Builder b("t");
  b.add_vertices(2);
  EXPECT_THROW(b.add_edge(0, 0, 1.0), precondition_error);
  EXPECT_THROW(b.add_edge(0, 2, 1.0), precondition_error);
  EXPECT_THROW(b.add_edge(0, 1, 0.0), precondition_error);
  EXPECT_THROW(b.add_vertex(-1.0), precondition_error);
}

TEST(TaskGraph, CsrRowsSortedByNeighbor) {
  TaskGraph::Builder b("t");
  b.add_vertices(4);
  b.add_edge(2, 0, 1.0);
  b.add_edge(2, 3, 1.0);
  b.add_edge(2, 1, 1.0);
  const TaskGraph g = std::move(b).build();
  const auto row = g.edges_of(2);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].neighbor, 0);
  EXPECT_EQ(row[1].neighbor, 1);
  EXPECT_EQ(row[2].neighbor, 3);
}

TEST(TaskGraph, ParallelEdgesSumInInsertionOrder) {
  // Forty raw edges over six vertices, so most (a, b) pairs repeat, in
  // either orientation, with fractional bytes over sixteen decades: a
  // merged edge's double sum depends on the order of its copies.  Each
  // must be the left-to-right sum in insertion order, edges() must be in
  // (a, b) order, and every CSR row must be ascending and hold exactly the
  // edges() entries of its vertex.
  std::mt19937_64 gen(0x7a5c);
  TaskGraph::Builder b("t");
  b.add_vertices(6);
  std::map<std::pair<int, int>, std::vector<double>> copies;
  for (int i = 0; i < 40; ++i) {
    const int a = static_cast<int>(gen() % 6);
    int c = static_cast<int>(gen() % 5);
    if (c >= a) ++c;
    const double bytes =
        gen() % 3 == 0 ? 1e16 : 0.1 * static_cast<double>(1 + gen() % 9);
    b.add_edge(a, c, bytes);
    copies[{std::min(a, c), std::max(a, c)}].push_back(bytes);
  }
  const TaskGraph g = std::move(b).build();

  ASSERT_EQ(g.num_edges(), static_cast<int>(copies.size()));
  int order_sensitive = 0;
  std::size_t i = 0;
  for (const auto& [pair, bytes] : copies) {
    double forward = 0.0, backward = 0.0;
    for (const double x : bytes) forward += x;
    for (auto it = bytes.rbegin(); it != bytes.rend(); ++it) backward += *it;
    order_sensitive += forward != backward ? 1 : 0;
    const UndirectedEdge& e = g.edges()[i++];
    EXPECT_EQ(e.a, pair.first);
    EXPECT_EQ(e.b, pair.second);
    EXPECT_EQ(e.bytes, forward) << e.a << "-" << e.b;
  }
  EXPECT_GT(order_sensitive, 0);  // the data can tell the orders apart

  std::vector<std::vector<Edge>> rows(6);
  for (const UndirectedEdge& e : g.edges()) {
    rows[static_cast<std::size_t>(e.a)].push_back({e.b, e.bytes});
    rows[static_cast<std::size_t>(e.b)].push_back({e.a, e.bytes});
  }
  for (int v = 0; v < 6; ++v) {
    auto& want = rows[static_cast<std::size_t>(v)];
    std::sort(want.begin(), want.end(), [](const Edge& x, const Edge& y) {
      return x.neighbor < y.neighbor;
    });
    const auto row = g.edges_of(v);
    ASSERT_EQ(row.size(), want.size());
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(row[k - 1].neighbor, row[k].neighbor);
      }
      EXPECT_EQ(row[k].neighbor, want[k].neighbor);
      EXPECT_EQ(row[k].bytes, want[k].bytes);
    }
  }
}

TEST(Builders, Stencil2DShape) {
  const TaskGraph g = stencil_2d(4, 3, 100.0);
  EXPECT_EQ(g.num_vertices(), 12);
  // edges: horizontal 3*3=9, vertical 4*2=8
  EXPECT_EQ(g.num_edges(), 17);
  EXPECT_EQ(g.degree(0), 2);        // corner
  EXPECT_EQ(g.degree(1), 3);        // edge
  EXPECT_EQ(g.degree(5), 4);        // interior (x=1,y=1)
  EXPECT_DOUBLE_EQ(g.total_comm_bytes(), 1700.0);
  EXPECT_TRUE(is_connected(g));
}

TEST(Builders, Stencil2DPeriodicAllDegreeFour) {
  const TaskGraph g = stencil_2d(5, 4, 1.0, /*periodic=*/true);
  for (int v = 0; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 4);
  EXPECT_EQ(g.num_edges(), 2 * 20);
}

TEST(Builders, Stencil3DShape) {
  const TaskGraph g = stencil_3d(3, 3, 3, 1.0);
  EXPECT_EQ(g.num_vertices(), 27);
  EXPECT_EQ(g.num_edges(), 3 * (2 * 3 * 3));  // 54
  EXPECT_EQ(g.degree(13), 6);  // center
  EXPECT_EQ(g.degree(0), 3);   // corner
  const TaskGraph p = stencil_3d(4, 4, 4, 1.0, /*periodic=*/true);
  for (int v = 0; v < p.num_vertices(); ++v) EXPECT_EQ(p.degree(v), 6);
}

TEST(Builders, RingAndComplete) {
  const TaskGraph r = ring(6, 2.0);
  EXPECT_EQ(r.num_edges(), 6);
  for (int v = 0; v < 6; ++v) EXPECT_EQ(r.degree(v), 2);
  const TaskGraph r2 = ring(2, 2.0);
  EXPECT_EQ(r2.num_edges(), 1);
  const TaskGraph c = complete(5, 1.0);
  EXPECT_EQ(c.num_edges(), 10);
}

TEST(Builders, RandomGraphConnectedAndSeeded) {
  Rng rng(42);
  const TaskGraph g = random_graph(40, 0.15, 1.0, 10.0, rng);
  EXPECT_EQ(g.num_vertices(), 40);
  EXPECT_TRUE(is_connected(g));
  for (const auto& e : g.edges()) {
    EXPECT_GE(e.bytes, 1.0);
    EXPECT_LE(e.bytes, 10.0);
  }
  Rng rng2(42);
  const TaskGraph g2 = random_graph(40, 0.15, 1.0, 10.0, rng2);
  EXPECT_EQ(g.num_edges(), g2.num_edges());  // determinism by seed
}

TEST(Builders, RandomGeometricConnected) {
  Rng rng(7);
  const TaskGraph g = random_geometric(60, 0.25, 5.0, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_GT(g.num_edges(), 0);
}

TEST(Builders, IsConnectedDetectsIsolation) {
  TaskGraph::Builder b("t");
  b.add_vertices(3);
  b.add_edge(0, 1, 1.0);
  EXPECT_FALSE(is_connected(std::move(b).build()));
}

TEST(SyntheticMd, ObjectCountsAndBipartiteStructure) {
  MdParams p;
  p.cells_x = 4;
  p.cells_y = 4;
  p.cells_z = 4;
  Rng rng(1);
  const TaskGraph g = synthetic_md(p, rng);
  const int ncells = md_cell_count(p);
  EXPECT_EQ(ncells, 64);
  // 26-neighbourhood, periodic, 64 cells -> 13 pairs per cell.
  const int npairs = g.num_vertices() - ncells;
  EXPECT_EQ(npairs, 13 * 64 / 1);
  // Every pair object has exactly two edges (to its two cells).
  for (int v = ncells; v < g.num_vertices(); ++v) EXPECT_EQ(g.degree(v), 2);
  // Every cell connects to exactly 26 pair objects.
  for (int v = 0; v < ncells; ++v) EXPECT_EQ(g.degree(v), 26);
  EXPECT_TRUE(is_connected(g));
}

TEST(SyntheticMd, FaceOnlyNeighborhood) {
  MdParams p;
  p.cells_x = 3;
  p.cells_y = 3;
  p.cells_z = 3;
  p.full_neighborhood = false;
  Rng rng(1);
  const TaskGraph g = synthetic_md(p, rng);
  const int npairs = g.num_vertices() - 27;
  EXPECT_EQ(npairs, 3 * 27);  // 6-neighbourhood periodic: 3 pairs per cell
}

TEST(SyntheticMd, DeterministicBySeed) {
  MdParams p;
  Rng a(99), b(99);
  const TaskGraph ga = synthetic_md(p, a);
  const TaskGraph gb = synthetic_md(p, b);
  ASSERT_EQ(ga.num_vertices(), gb.num_vertices());
  for (int v = 0; v < ga.num_vertices(); ++v)
    EXPECT_DOUBLE_EQ(ga.vertex_weight(v), gb.vertex_weight(v));
}

TEST(Quotient, ContractsGroupsAndDropsInternalEdges) {
  // 4-task path graph 0-1-2-3, groups {0,1} and {2,3}.
  TaskGraph::Builder b("path");
  b.add_vertices(4, 1.5);
  b.add_edge(0, 1, 10.0);
  b.add_edge(1, 2, 20.0);
  b.add_edge(2, 3, 30.0);
  const TaskGraph g = std::move(b).build();
  const TaskGraph q = quotient_graph(g, {0, 0, 1, 1}, 2);
  EXPECT_EQ(q.num_vertices(), 2);
  EXPECT_EQ(q.num_edges(), 1);
  EXPECT_DOUBLE_EQ(q.edge_bytes(0, 1), 20.0);
  EXPECT_DOUBLE_EQ(q.vertex_weight(0), 3.0);
  EXPECT_DOUBLE_EQ(q.vertex_weight(1), 3.0);
}

TEST(Quotient, EmptyGroupsAllowed) {
  TaskGraph::Builder b("pair");
  b.add_vertices(2);
  b.add_edge(0, 1, 5.0);
  const TaskGraph g = std::move(b).build();
  const TaskGraph q = quotient_graph(g, {0, 2}, 3);
  EXPECT_EQ(q.num_vertices(), 3);
  EXPECT_DOUBLE_EQ(q.vertex_weight(1), 0.0);
  EXPECT_DOUBLE_EQ(q.edge_bytes(0, 2), 5.0);
}

TEST(Quotient, AverageDegree) {
  const TaskGraph g = ring(10, 1.0);
  EXPECT_DOUBLE_EQ(average_degree(g), 2.0);
}

}  // namespace
}  // namespace topomap::graph
