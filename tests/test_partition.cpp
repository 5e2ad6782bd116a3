// Partitioner tests: cover/balance invariants, cut quality vs random,
// multilevel bisection behaviour, quotient-pipeline integration.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "core/strategy.hpp"
#include "graph/builders.hpp"
#include "graph/factory.hpp"
#include "graph/quotient.hpp"
#include "graph/synthetic_md.hpp"
#include "partition/greedy_partition.hpp"
#include "partition/multilevel.hpp"
#include "partition/partition.hpp"
#include "runtime/lb_manager.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "topo/factory.hpp"

namespace topomap::part {
namespace {

using graph::stencil_2d;
using graph::TaskGraph;

void expect_valid_partition(const TaskGraph& g, const PartitionResult& r,
                            int k) {
  ASSERT_EQ(r.num_parts, k);
  ASSERT_EQ(static_cast<int>(r.assignment.size()), g.num_vertices());
  for (int part : r.assignment) {
    EXPECT_GE(part, 0);
    EXPECT_LT(part, k);
  }
}

TEST(Metrics, EdgeCutAndImbalance) {
  TaskGraph::Builder b("t");
  b.add_vertices(4, 1.0);
  b.add_edge(0, 1, 10.0);
  b.add_edge(2, 3, 20.0);
  b.add_edge(1, 2, 5.0);
  const TaskGraph g = std::move(b).build();
  const std::vector<int> a{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(edge_cut(g, a), 5.0);
  EXPECT_DOUBLE_EQ(load_imbalance(g, a, 2), 1.0);
  const std::vector<int> skew{0, 0, 0, 1};
  EXPECT_DOUBLE_EQ(load_imbalance(g, skew, 2), 1.5);
  EXPECT_EQ(part_weights(g, skew, 2), (std::vector<double>{3.0, 1.0}));
}

TEST(GreedyPartitioner, BalancesHeterogeneousLoads) {
  TaskGraph::Builder b("t");
  for (int i = 0; i < 40; ++i) b.add_vertex(1.0 + (i % 7));
  const TaskGraph g = std::move(b).build();
  Rng rng(5);
  const auto r = GreedyPartitioner().partition(g, 8, rng);
  expect_valid_partition(g, r, 8);
  EXPECT_LT(load_imbalance(g, r.assignment, 8), 1.15);
}

TEST(RandomPartitioner, UsesAllPartsRoundRobin) {
  const TaskGraph g = stencil_2d(6, 6, 1.0);
  Rng rng(2);
  const auto r = RandomPartitioner().partition(g, 6, rng);
  expect_valid_partition(g, r, 6);
  std::set<int> used(r.assignment.begin(), r.assignment.end());
  EXPECT_EQ(used.size(), 6u);
  EXPECT_DOUBLE_EQ(load_imbalance(g, r.assignment, 6), 1.0);
}

TEST(Multilevel, BisectionBalancedAndLowCut) {
  // A 16x8 stencil split in half should cut near the 8-edge waistline,
  // far below a random split's expectation (~half of 232 edges).
  const TaskGraph g = stencil_2d(16, 8, 1.0);
  Rng rng(7);
  MultilevelPartitioner ml;
  const auto side = ml.bisect(g, 0.5, rng);
  double left = 0;
  for (int s : side) left += (s == 0) ? 1 : 0;
  EXPECT_NEAR(left, 64.0, 64.0 * 0.1);
  std::vector<int> assignment(side.begin(), side.end());
  EXPECT_LE(edge_cut(g, assignment), 24.0);  // optimal 8, allow slack
}

TEST(Multilevel, UnevenTargetFraction) {
  const TaskGraph g = stencil_2d(12, 12, 1.0);
  Rng rng(3);
  MultilevelPartitioner ml;
  const auto side = ml.bisect(g, 1.0 / 3.0, rng);
  double left = 0;
  for (int s : side) left += (s == 0) ? 1 : 0;
  EXPECT_NEAR(left, 48.0, 48.0 * 0.15);
}

TEST(Multilevel, BeatsRandomCutOnStencil) {
  const TaskGraph g = stencil_2d(16, 16, 1.0);
  Rng rng(11);
  const auto ml = MultilevelPartitioner().partition(g, 8, rng);
  const auto rnd = RandomPartitioner().partition(g, 8, rng);
  expect_valid_partition(g, ml, 8);
  EXPECT_LT(edge_cut(g, ml.assignment), 0.5 * edge_cut(g, rnd.assignment));
  EXPECT_LT(load_imbalance(g, ml.assignment, 8), 1.25);
}

TEST(Multilevel, DegenerateCases) {
  const TaskGraph g = stencil_2d(3, 3, 1.0);
  Rng rng(1);
  // k == 1: everything in part 0.
  const auto one = MultilevelPartitioner().partition(g, 1, rng);
  for (int part : one.assignment) EXPECT_EQ(part, 0);
  // k == n: every vertex its own part.
  const auto all = MultilevelPartitioner().partition(g, 9, rng);
  std::set<int> used(all.assignment.begin(), all.assignment.end());
  EXPECT_EQ(used.size(), 9u);
  // k > n is allowed; parts beyond n stay empty.
  const auto more = MultilevelPartitioner().partition(g, 12, rng);
  expect_valid_partition(g, more, 12);
}

TEST(Multilevel, ZeroWeightGraphBalancesOnCounts) {
  TaskGraph::Builder b("zero");
  b.add_vertices(24, 0.0);
  for (int i = 0; i + 1 < 24; ++i) b.add_edge(i, i + 1, 1.0);
  const TaskGraph g = std::move(b).build();
  Rng rng(4);
  const auto r = MultilevelPartitioner().partition(g, 4, rng);
  expect_valid_partition(g, r, 4);
  // Each part should hold roughly 6 vertices.
  std::vector<int> counts(4, 0);
  for (int part : r.assignment) ++counts[static_cast<std::size_t>(part)];
  for (int c : counts) EXPECT_NEAR(c, 6, 2);
}

TEST(Multilevel, HandlesDisconnectedGraphs) {
  TaskGraph::Builder b("two-cliques");
  b.add_vertices(16, 1.0);
  for (int i = 0; i < 8; ++i)
    for (int j = i + 1; j < 8; ++j) {
      b.add_edge(i, j, 4.0);
      b.add_edge(8 + i, 8 + j, 4.0);
    }
  const TaskGraph g = std::move(b).build();
  Rng rng(6);
  const auto r = MultilevelPartitioner().partition(g, 2, rng);
  expect_valid_partition(g, r, 2);
  // The natural split keeps each clique whole: zero cut.
  EXPECT_DOUBLE_EQ(edge_cut(g, r.assignment), 0.0);
}

TEST(Multilevel, MdPipelineProducesUsableQuotient) {
  // The paper's phase-1 pipeline: partition the MD object graph into p
  // groups, coalesce, and check the quotient is balanced and far cheaper
  // to communicate than the random grouping.
  graph::MdParams params;
  params.cells_x = 4;
  params.cells_y = 4;
  params.cells_z = 3;
  Rng rng(9);
  const TaskGraph md = graph::synthetic_md(params, rng);
  const int p = 32;
  const auto ml = MultilevelPartitioner().partition(md, p, rng);
  const auto rnd = RandomPartitioner().partition(md, p, rng);
  EXPECT_LT(load_imbalance(md, ml.assignment, p), 1.35);
  EXPECT_LT(edge_cut(md, ml.assignment), 0.75 * edge_cut(md, rnd.assignment));
  const TaskGraph q = graph::quotient_graph(md, ml.assignment, p);
  EXPECT_EQ(q.num_vertices(), p);
  EXPECT_GT(q.num_edges(), 0);
  EXPECT_NEAR(q.total_vertex_weight(), md.total_vertex_weight(), 1e-6);
}

/// FNV-1a over every entry of an assignment, for the golden-hash tests.
std::uint64_t fnv1a(const std::vector<int>& assignment) {
  std::uint64_t h = 14695981039346656037ull;
  for (const int x : assignment) {
    const auto u = static_cast<std::uint32_t>(x);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Golden bytes for contractions of fractional-weight graphs, whose merged
// edge bytes depend on the order parallel edges are summed in (insertion
// order, TaskGraph::Builder::build): `topomap partition
// --tasks=er:2000:0.01 --parts=128` and `topomap pipeline
// --tasks=md:10x10x10 --topology=torus:8x8x8`, both at seed 1.  Every hash
// must come out at 1 and 4 threads.
TEST(Multilevel, GoldenFractionalPartitionHash) {
  for (const int threads : {1, 4}) {
    support::set_num_threads(threads);
    Rng rng(1);
    const TaskGraph g = graph::make_task_graph("er:2000:0.01", rng);
    const PartitionResult r = MultilevelPartitioner().partition(g, 128, rng);
    EXPECT_EQ(fnv1a(r.assignment), 0x15b37accd896df82ull)
        << std::hex << "0x" << fnv1a(r.assignment) << std::dec << ": threads "
        << threads;
  }
  support::set_num_threads(1);
}

TEST(Multilevel, GoldenFractionalPipelineHash) {
  const auto machine = topo::make_topology("torus:8x8x8");
  rts::PipelineConfig config;
  config.partitioner = make_partitioner("multilevel");
  config.mapper = core::make_strategy("topolb+refine");
  for (const int threads : {1, 4}) {
    support::set_num_threads(threads);
    Rng rng(1);
    const TaskGraph g = graph::make_task_graph("md:10x10x10", rng);
    const rts::PipelineResult r = rts::run_two_phase(g, *machine, config, rng);
    EXPECT_EQ(fnv1a(r.object_to_proc), 0x5ee6b036cbf58658ull)
        << std::hex << "0x" << fnv1a(r.object_to_proc) << std::dec
        << ": threads " << threads;
  }
  support::set_num_threads(1);
}

TEST(Factory, BuildsByName) {
  EXPECT_EQ(make_partitioner("multilevel")->name(), "MultilevelPartition");
  EXPECT_EQ(make_partitioner("greedy")->name(), "GreedyPartition");
  EXPECT_EQ(make_partitioner("random")->name(), "RandomPartition");
  EXPECT_THROW(make_partitioner("metis"), precondition_error);
}

// Property sweep: every partitioner covers all vertices with in-range parts
// and respects a loose balance bound across graph families and k.
class PartitionPropertyTest
    : public ::testing::TestWithParam<std::tuple<const char*, int, int>> {};

TEST_P(PartitionPropertyTest, CoverAndBalance) {
  const auto [spec, k, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const TaskGraph g = graph::random_graph(96, 0.08, 1.0, 40.0, rng);
  const PartitionerPtr p = make_partitioner(spec);
  const auto r = p->partition(g, k, rng);
  expect_valid_partition(g, r, k);
  if (std::string(spec) != "random") {
    EXPECT_LT(load_imbalance(g, r.assignment, k), 1.6) << spec << " k=" << k;
  }
  std::set<int> used(r.assignment.begin(), r.assignment.end());
  EXPECT_EQ(static_cast<int>(used.size()), std::min(k, g.num_vertices()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionPropertyTest,
    ::testing::Combine(::testing::Values("multilevel", "greedy", "random"),
                       ::testing::Values(2, 5, 16, 48),
                       ::testing::Values(1, 2)));

}  // namespace
}  // namespace topomap::part
