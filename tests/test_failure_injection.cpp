// Failure injection: degraded links in the network simulator, the new
// adversarial communication patterns (transpose, butterfly), hard faults
// through topo::FaultOverlay end-to-end (netsim rerouting, evacuation,
// dynamic LB with mid-run processor deaths).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/fault_aware.hpp"
#include "core/metrics.hpp"
#include "graph/builders.hpp"
#include "netsim/app.hpp"
#include "netsim/network.hpp"
#include "partition/partition.hpp"
#include "runtime/dynamic_lb.hpp"
#include "runtime/evacuate.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"
#include "topo/hypercube.hpp"
#include "topo/torus_mesh.hpp"

namespace topomap::netsim {
namespace {

using topo::TorusMesh;

class Recorder final : public SimulationClient {
 public:
  void on_delivery(SimTime now, const Message& msg) override {
    deliveries.emplace_back(now, msg);
  }
  void on_app_event(SimTime, std::uint64_t) override {}
  std::vector<std::pair<SimTime, Message>> deliveries;
};

NetworkParams params() {
  NetworkParams p;
  p.bandwidth = 100.0;
  p.per_hop_latency_us = 1.0;
  p.injection_overhead_us = 2.0;
  return p;
}

TEST(DegradedLinks, SlowsOnlyTrafficCrossingTheLink) {
  const TorusMesh t = TorusMesh::mesh({4});
  Recorder rec;
  Network net(t, params(), ServiceModel::kWormhole, &rec);
  net.degrade_link(1, 2, 0.25);  // quarter bandwidth on 1 -> 2
  net.inject(0.0, 0, 3, 100.0, /*tag=*/1);  // crosses 0->1->2->3
  net.inject(0.0, 3, 0, 100.0, /*tag=*/2);  // reverse direction: unaffected
  net.run_until_idle();
  ASSERT_EQ(rec.deliveries.size(), 2u);
  // Unaffected: 2 + 3 hops + 1.0 serialisation = 6.0.
  // Degraded link: last link still nominal, but the head leaves hop 1 on
  // schedule — with wormhole semantics the head is unaffected and only the
  // reservation grows; the tail still arrives a nominal serialisation
  // after the head, so latency is unchanged for an isolated message...
  // unless a second message queues behind the 4x reservation.
  const double t1 = rec.deliveries[0].second.tag == 1
                        ? rec.deliveries[0].first
                        : rec.deliveries[1].first;
  const double t2 = rec.deliveries[0].second.tag == 2
                        ? rec.deliveries[0].first
                        : rec.deliveries[1].first;
  EXPECT_NEAR(t2, 6.0, 1e-9);
  EXPECT_GE(t1, t2 - 1e-9);

  // Now send two messages across the degraded link: the second must wait
  // the full 4x serialisation (4 us instead of 1 us).
  Recorder rec2;
  Network net2(t, params(), ServiceModel::kWormhole, &rec2);
  net2.degrade_link(1, 2, 0.25);
  net2.inject(0.0, 1, 2, 100.0, 1);
  net2.inject(0.0, 1, 2, 100.0, 2);
  net2.run_until_idle();
  // The degraded link serialises at 4x: first message delivers at
  // 2 (inject) + 1 (hop) + 4 (slow serialisation) = 7.0; the second queues
  // behind the 4 us reservation (head starts at 6): 6 + 1 + 4 = 11.0.
  EXPECT_NEAR(rec2.deliveries[0].first, 7.0, 1e-9);
  EXPECT_NEAR(rec2.deliveries[1].first, 11.0, 1e-9);
}

TEST(DegradedLinks, StoreForwardPacketsSlowDirectly) {
  const TorusMesh t = TorusMesh::mesh({2});
  Recorder rec;
  Network net(t, params(), ServiceModel::kStoreForward, &rec);
  net.degrade_link(0, 1, 0.5);
  net.inject(0.0, 0, 1, 100.0, 0);  // one 100B packet... packet_bytes=256
  net.run_until_idle();
  // Single packet of 100 bytes at half bandwidth: 2 + 100/100*2 + 1 = 5.0.
  EXPECT_NEAR(rec.deliveries[0].first, 5.0, 1e-9);
}

TEST(DegradedLinks, RejectsBadFactor) {
  const TorusMesh t = TorusMesh::mesh({2});
  Network net(t, params(), ServiceModel::kWormhole, nullptr);
  EXPECT_THROW(net.degrade_link(0, 1, 0.0), precondition_error);
  EXPECT_THROW(net.degrade_link(0, 1, 1.5), precondition_error);
}

TEST(DegradedLinks, AppLevelResilienceOfGoodMappings) {
  // Degrade a handful of links: the identity mapping of a stencil uses
  // each link lightly, so it degrades gracefully; the random mapping
  // funnels many routes through hot links and suffers more.
  const auto g = graph::stencil_2d(8, 8, 4000.0);
  const TorusMesh t = TorusMesh::torus({8, 8});
  AppParams app;
  app.iterations = 20;
  NetworkParams net = params();
  net.bandwidth = 400.0;
  std::vector<DegradedLink> degraded;
  for (int i = 0; i < 8; ++i) degraded.push_back({i, (i + 1) % 8, 0.25});

  Rng rng(7);
  const core::Mapping ideal = core::identity_mapping(64);
  const core::Mapping random = rng.permutation(64);
  const auto ideal_clean = run_iterative_app(g, t, ideal, app, net);
  const auto ideal_degraded = run_iterative_app(
      g, t, ideal, app, net, ServiceModel::kWormhole, degraded);
  const auto random_degraded = run_iterative_app(
      g, t, random, app, net, ServiceModel::kWormhole, degraded);
  EXPECT_GE(ideal_degraded.completion_us, ideal_clean.completion_us);
  EXPECT_GT(random_degraded.completion_us, ideal_degraded.completion_us);
}

}  // namespace
}  // namespace topomap::netsim

namespace topomap::graph {
namespace {

TEST(Patterns, TransposeShape) {
  const TaskGraph g = transpose(4, 10.0);
  EXPECT_EQ(g.num_vertices(), 16);
  EXPECT_EQ(g.num_edges(), 6);  // n*(n-1)/2 off-diagonal pairs
  EXPECT_TRUE(g.has_edge(1, 4));   // (0,1) <-> (1,0)
  EXPECT_TRUE(g.has_edge(7, 13));  // (1,3) <-> (3,1)
  EXPECT_FALSE(g.has_edge(0, 5));  // diagonal tasks are isolated
  EXPECT_EQ(g.degree(0), 0);
  EXPECT_EQ(g.degree(5), 0);
}

TEST(Patterns, ButterflyShape) {
  const TaskGraph g = butterfly(3, 8.0);
  EXPECT_EQ(g.num_vertices(), 8);
  EXPECT_EQ(g.num_edges(), 3 * 4);  // stages * n/2
  for (int v = 0; v < 8; ++v) EXPECT_EQ(g.degree(v), 3);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_TRUE(is_connected(g));
}

TEST(Patterns, ButterflyMapsPerfectlyOntoHypercube) {
  // The butterfly pattern *is* the hypercube adjacency: identity mapping
  // onto hypercube:3 gives exactly 1 hop per byte.
  const TaskGraph g = butterfly(3, 8.0);
  const topo::Hypercube h(3);
  EXPECT_DOUBLE_EQ(
      core::hops_per_byte(g, h, core::identity_mapping(8)), 1.0);
}

TEST(Patterns, RejectsBadArguments) {
  EXPECT_THROW(transpose(1, 1.0), precondition_error);
  EXPECT_THROW(butterfly(0, 1.0), precondition_error);
}

}  // namespace
}  // namespace topomap::graph

namespace topomap::netsim {
namespace {

using topo::FaultOverlay;
using topo::TorusMesh;

TEST(FaultedNetwork, FailedLinkVanishesAndTrafficReroutes) {
  // Building a Network from an overlay drops the failed link, so the
  // simulator's dimension-ordered routes follow the overlay's reroutes.
  const auto base = topo::make_topology("torus:4");
  auto overlay = std::make_shared<FaultOverlay>(base);
  overlay->fail_link(1, 2);

  Recorder rec;
  Network net(*overlay, params(), ServiceModel::kWormhole, &rec);
  net.inject(0.0, 1, 2, 100.0, /*tag=*/1);
  net.run_until_idle();
  ASSERT_EQ(rec.deliveries.size(), 1u);
  // Direct link is gone: the message takes 1 -> 0 -> 3 -> 2 (3 hops):
  // 2 (inject) + 3 (hops) + 1 (serialisation) = 6.0 instead of 4.0.
  EXPECT_NEAR(rec.deliveries[0].first, 6.0, 1e-9);
}

TEST(FaultedNetwork, AppCompletesOnFaultedMachine) {
  const auto base = topo::make_topology("torus:4x4");
  auto overlay = std::make_shared<FaultOverlay>(base);
  overlay->fail_link(0, 1);
  overlay->fail_link(5, 9);

  const auto g = graph::stencil_2d(4, 4, 2000.0);
  AppParams app;
  app.iterations = 5;
  Rng rng(3);
  const core::Mapping m = core::identity_mapping(16);
  const auto clean = run_iterative_app(g, *base, m, app, params());
  const auto faulted = run_iterative_app(g, *overlay, m, app, params());
  EXPECT_GT(faulted.completion_us, 0.0);
  EXPECT_TRUE(std::isfinite(faulted.completion_us));
  // Losing two links can only lengthen routes and add contention.
  EXPECT_GE(faulted.completion_us, clean.completion_us - 1e-9);
}

}  // namespace
}  // namespace topomap::netsim

namespace topomap::rts {
namespace {

using topo::FaultOverlay;

TEST(Evacuate, ZeroRefineMovesExactlyTheStrandedTasks) {
  const auto g = graph::stencil_2d(3, 4, 1.0);  // 12 tasks
  auto overlay =
      std::make_shared<FaultOverlay>(topo::make_topology("torus:4x4"));
  // Place tasks 0..11 on processors 0..11, then kill 3 occupied processors.
  const core::Mapping previous = core::identity_mapping(12);
  overlay->fail_node(2);
  overlay->fail_node(7);
  overlay->fail_node(11);

  const EvacuationResult r = evacuate(g, *overlay, previous, /*refine=*/0);
  EXPECT_EQ(r.stranded, 3);
  EXPECT_EQ(r.migrations, 3);  // exactly the stranded tasks, nothing else
  EXPECT_EQ(r.refine_swaps, 0);
  EXPECT_GT(r.hop_bytes, 0.0);
  ASSERT_EQ(r.mapping.size(), 12u);
  std::vector<char> used(16, 0);
  for (std::size_t task = 0; task < 12; ++task) {
    const int proc = r.mapping[task];
    ASSERT_GE(proc, 0);
    ASSERT_LT(proc, 16);
    EXPECT_TRUE(overlay->is_alive(proc));
    EXPECT_FALSE(used[static_cast<std::size_t>(proc)]);
    used[static_cast<std::size_t>(proc)] = 1;
    if (overlay->is_alive(previous[task])) {
      EXPECT_EQ(proc, previous[task]) << "survivor " << task << " moved";
    }
  }
  // Deterministic.
  EXPECT_EQ(evacuate(g, *overlay, previous, 0).mapping, r.mapping);
}

TEST(Evacuate, RefinementNeverWorsensHopBytes) {
  const auto g = graph::stencil_2d(3, 4, 1.0);
  auto overlay =
      std::make_shared<FaultOverlay>(topo::make_topology("torus:4x4"));
  const core::Mapping previous = core::identity_mapping(12);
  overlay->fail_node(5);
  overlay->fail_node(6);
  const EvacuationResult r0 = evacuate(g, *overlay, previous, 0);
  const EvacuationResult r2 = evacuate(g, *overlay, previous, 2);
  EXPECT_LE(r2.hop_bytes, r0.hop_bytes + 1e-9);
  EXPECT_GE(r2.migrations, r2.stranded);
  EXPECT_LE(r2.migrations, r2.stranded + 2 * r2.refine_swaps + 12);
}

TEST(Evacuate, FailsFastWhenStrandedCannotFit) {
  const auto g = graph::stencil_2d(4, 4, 1.0);  // 16 tasks on 16 procs
  auto overlay =
      std::make_shared<FaultOverlay>(topo::make_topology("torus:4x4"));
  const core::Mapping previous = core::identity_mapping(16);
  overlay->fail_node(9);  // zero free alive processors remain
  EXPECT_THROW(evacuate(g, *overlay, previous, 0), precondition_error);
}

TEST(Evacuate, ComparisonMigratesFarLessThanFullRemap) {
  const auto g = graph::stencil_2d(7, 8, 1.0);  // 56 tasks
  auto overlay =
      std::make_shared<FaultOverlay>(topo::make_topology("torus:8x8"));
  Rng rng(1);
  const auto strategy = core::make_strategy("topolb");
  const core::Mapping previous =
      core::map_on_alive(*strategy, g, *overlay, rng);
  overlay->fail_node(previous[10]);
  overlay->fail_node(previous[30]);

  const EvacuateComparison cmp =
      compare_evacuate_vs_remap(g, *overlay, previous, *strategy, rng);
  EXPECT_EQ(cmp.evac.stranded, 2);
  EXPECT_LT(cmp.evac.migrations, cmp.full_migrations / 4);
  EXPECT_GT(cmp.full_hop_bytes, 0.0);
  // Acceptance: patching stays within 10% of the full remap's hop-bytes.
  EXPECT_LE(cmp.evac.hop_bytes, 1.10 * cmp.full_hop_bytes);
}

TEST(DynamicLBFaults, ShrinksMachineAndKeepsPlacementsAlive) {
  const auto g = graph::stencil_2d(6, 6, 1.0);  // 36 objects
  const auto topo = topo::make_topology("torus:6x6");
  for (const RemapPolicy policy :
       {RemapPolicy::kScratch, RemapPolicy::kIncremental}) {
    DynamicLBConfig config;
    config.epochs = 6;
    config.policy = policy;
    config.pipeline.partitioner = part::make_partitioner("multilevel");
    config.pipeline.mapper = core::make_strategy("topolb");
    config.faults = {{2, 7}, {2, 8}, {4, 20}};
    Rng rng(11);
    const auto history = run_dynamic_lb(g, *topo, config, rng);
    ASSERT_EQ(history.size(), 6u);
    EXPECT_EQ(history[0].alive_procs, 36);
    EXPECT_EQ(history[1].alive_procs, 36);
    EXPECT_EQ(history[2].alive_procs, 34);
    EXPECT_EQ(history[3].alive_procs, 34);
    EXPECT_EQ(history[4].alive_procs, 33);
    EXPECT_EQ(history[5].alive_procs, 33);
    for (const DynamicEpochStats& s : history) {
      EXPECT_GT(s.hops_per_byte, 0.0);
      EXPECT_TRUE(std::isfinite(s.hops_per_byte));
      EXPECT_GE(s.load_imbalance, 1.0 - 1e-9);
    }
    // The fault epoch forces migrations off the dead processors.
    EXPECT_GT(history[2].migrations, 0);
  }
}

TEST(DynamicLBFaults, ValidatesFaultEvents) {
  const auto g = graph::stencil_2d(4, 4, 1.0);
  const auto topo = topo::make_topology("torus:4x4");
  DynamicLBConfig config;
  config.epochs = 3;
  config.pipeline.mapper = core::make_strategy("topolb");
  config.faults = {{1, 5}};
  Rng rng(1);
  // Faults require a partitioner (objects outnumber alive processors).
  EXPECT_THROW(run_dynamic_lb(g, *topo, config, rng), precondition_error);
  config.pipeline.partitioner = part::make_partitioner("multilevel");
  config.faults = {{7, 5}};  // epoch out of range
  EXPECT_THROW(run_dynamic_lb(g, *topo, config, rng), precondition_error);
  config.faults = {{1, 99}};  // processor out of range
  EXPECT_THROW(run_dynamic_lb(g, *topo, config, rng), precondition_error);
}

}  // namespace
}  // namespace topomap::rts
