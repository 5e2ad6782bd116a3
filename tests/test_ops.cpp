// ops:: command core coverage for the paths the served/one-shot diff tests
// rarely reach: partition quarantine with placed-only metrics, explain's
// baseline preconditions, evacuate without a fault, and the pooled-plane
// strategy constructor matching core::make_strategy.
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "graph/factory.hpp"
#include "graph/quotient.hpp"
#include "gtest/gtest.h"
#include "ops/ops.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topo/distance_cache.hpp"

namespace {

using namespace topomap;

/// make_machine plus a distance plane, like svc::CachePool builds.
ops::MachinePtr planed_machine(const std::string& topology,
                               const topo::FaultSpec& faults) {
  const std::shared_ptr<ops::Machine> m = ops::make_machine(topology, faults);
  m->plane = std::make_shared<const topo::DistanceCache>(m->machine());
  return m;
}

TEST(OpsMap, PartitionedMachineQuarantinesAndMeasuresPlacedTasksOnly) {
  // Killing the middle of mesh:5 leaves components {0,1} and {3,4}: two of
  // the four ring tasks fit, the other two are quarantined.
  ops::Params p;
  p.tasks = "ring:4";
  p.topology = "mesh:5";
  p.fail_node = "2";
  p.seed = 7;
  const ops::MapResult r = ops::run_map(p, ops::make_machine);

  ASSERT_EQ(r.quarantined.size(), 2u);
  EXPECT_LT(r.quarantined[0], r.quarantined[1]);
  EXPECT_NE(r.partition_note.find("split into 2 components"),
            std::string::npos)
      << r.partition_note;
  std::vector<int> placed;
  core::Mapping placed_mapping;
  for (int t = 0; t < r.graph.num_vertices(); ++t) {
    const int proc = r.mapping[static_cast<std::size_t>(t)];
    const bool quarantined =
        t == r.quarantined[0] || t == r.quarantined[1];
    EXPECT_EQ(proc == core::kUnassigned, quarantined) << "task " << t;
    if (quarantined) continue;
    placed.push_back(t);
    placed_mapping.push_back(proc);
  }
  // The metrics cover the placed tasks' induced subgraph only.
  const graph::Subgraph view = graph::induced_subgraph(r.graph, placed);
  const topo::Topology& machine = r.machine->machine();
  EXPECT_EQ(r.metrics.hop_bytes,
            core::hop_bytes(view.graph, machine, placed_mapping));
  EXPECT_EQ(r.metrics.hops_per_byte,
            core::hops_per_byte(view.graph, machine, placed_mapping));
  ASSERT_TRUE(r.metrics.link_loads.has_value());
  EXPECT_EQ(r.metrics.link_loads->total_bytes, r.metrics.hop_bytes);
  // --output bytes list the placed tasks only.
  EXPECT_EQ(ops::mapping_text(r.mapping),
            std::to_string(placed[0]) + ' ' +
                std::to_string(placed_mapping[0]) + '\n' +
                std::to_string(placed[1]) + ' ' +
                std::to_string(placed_mapping[1]) + '\n');
}

TEST(OpsMap, PooledPlaneGivesTheSameBytesAsAPrivateMachine) {
  ops::Params p;
  p.tasks = "stencil2d:4x4";
  p.topology = "torus:4x4";
  p.strategy = "topolb+refine";
  p.degrade_link = "0:1:0.5";
  p.seed = 3;
  const ops::MapResult one_shot = ops::run_map(p, ops::make_machine);
  const ops::MapResult pooled = ops::run_map(p, planed_machine);
  EXPECT_EQ(ops::mapping_text(one_shot.mapping),
            ops::mapping_text(pooled.mapping));
  EXPECT_EQ(one_shot.metrics.hop_bytes, pooled.metrics.hop_bytes);
}

TEST(OpsMap, NullPlaneStrategyEqualsMakeStrategy) {
  const auto machine = ops::make_machine("torus:4x4", topo::FaultSpec{});
  ASSERT_EQ(machine->plane, nullptr);
  EXPECT_EQ(machine->overlay, nullptr);
  Rng rng(5);
  const graph::TaskGraph g = graph::make_task_graph("stencil2d:4x4", rng);
  Rng a(9);
  Rng b(9);
  EXPECT_EQ(ops::make_pooled_strategy("topolb", *machine)
                ->map(g, machine->machine(), a),
            core::make_strategy("topolb")->map(g, machine->machine(), b));
}

TEST(OpsMap, MismatchedSquareRequestIsAUsageError) {
  ops::Params p;
  p.tasks = "stencil2d:3x3";
  p.topology = "torus:4x4";
  EXPECT_THROW(ops::run_map(p, ops::make_machine), usage_error);
  p.strategy = "frobnicate";
  EXPECT_THROW(ops::run_map(p, ops::make_machine), precondition_error);
}

TEST(OpsExplain, BlindBaselineIsRejectedOnHardFaults) {
  ops::Params p;
  p.tasks = "stencil2d:7x8";
  p.topology = "torus:8x8";
  p.baseline = "greedy";
  p.baseline_blind = true;
  p.fail_node = "9";
  EXPECT_THROW(ops::run_explain(p, ops::make_machine), usage_error);
  p.fail_node.clear();
  p.fail_link = "0:1";
  EXPECT_THROW(ops::run_explain(p, ops::make_machine), usage_error);

  // Soft faults are what a blind baseline is for.
  p.tasks = "stencil2d:8x8";
  p.fail_link.clear();
  p.degrade_link = "0:1:0.5";
  const ops::ExplainResult r = ops::run_explain(p, ops::make_machine);
  ASSERT_TRUE(r.baseline.has_value());
  EXPECT_EQ(r.baseline->diff.stats_a.total_bytes,
            r.baseline->attribution.stats.total_bytes);

  // A blind flag with no baseline to apply it to.
  p.baseline.clear();
  EXPECT_THROW(ops::run_explain(p, ops::make_machine), usage_error);
}

TEST(OpsEvacuate, NoFaultIsAUsageErrorBeforeAnyMachineIsBuilt) {
  ops::Params p;
  p.tasks = "stencil2d:7x8";
  bool machine_requested = false;
  const ops::MachineSource source =
      [&machine_requested](const std::string& topology,
                           const topo::FaultSpec& faults) {
        machine_requested = true;
        return ops::make_machine(topology, faults);
      };
  EXPECT_THROW(ops::run_evacuate(p, source), usage_error);
  EXPECT_FALSE(machine_requested);

  p.fail_node = "3,12";
  const ops::EvacuateResult r = ops::run_evacuate(p, source);
  EXPECT_TRUE(machine_requested);
  EXPECT_EQ(r.comparison.evac.stranded, 2);
  EXPECT_GT(r.hop_bytes_ratio(), 0.0);
}

}  // namespace
