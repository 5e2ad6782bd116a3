// Chaos-resilience coverage: restore-path plane repairs property-tested
// against from-scratch rebuilds, partition-tolerant mapping and quarantine,
// self-validation (validate_state), the seeded chaos generator, and the
// dynamic runtime's repair-or-rebuild soak loop — all byte-deterministic
// across thread counts.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/fault_aware.hpp"
#include "core/mapping.hpp"
#include "core/strategy.hpp"
#include "core/validate.hpp"
#include "graph/builders.hpp"
#include "graph/task_graph.hpp"
#include "partition/partition.hpp"
#include "runtime/chaos.hpp"
#include "runtime/dynamic_lb.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topo/components.hpp"
#include "topo/distance_cache.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"

namespace topomap {
namespace {

using core::Mapping;
using topo::DistanceCache;
using topo::FaultOverlay;
using topo::make_topology;

// ---------------------------------------------------------------------------
// Restore-path plane repair == rebuild (the exactness property the
// repair-or-rebuild loop depends on)
// ---------------------------------------------------------------------------

void expect_plane_matches_rebuild(const DistanceCache& repaired,
                                  const FaultOverlay& overlay,
                                  const std::string& context) {
  DistanceCache fresh(overlay);
  const int n = repaired.size();
  ASSERT_EQ(fresh.size(), n) << context;
  EXPECT_EQ(repaired.scale(), fresh.scale()) << context;
  EXPECT_EQ(repaired.diameter(), fresh.diameter()) << context;
  ASSERT_EQ(repaired.entry_bytes(), 2) << context;
  ASSERT_EQ(fresh.entry_bytes(), 2) << context;
  EXPECT_EQ(std::memcmp(repaired.row<std::uint16_t>(0),
                        fresh.row<std::uint16_t>(0),
                        static_cast<std::size_t>(n) *
                            static_cast<std::size_t>(n) * sizeof(std::uint16_t)),
            0)
      << context;
  for (int p = 0; p < n; ++p)
    EXPECT_DOUBLE_EQ(repaired.mean_distance_from(p),
                     fresh.mean_distance_from(p))
        << context << " row " << p;
}

/// A random, always-applicable event stream over all six kinds: faults when
/// there is something to break, restores when there is something to fix.
/// Link endpoints come from the *base* adjacency, so restores of failed
/// links are reachable and degrades target real wires.
rts::Event random_event(const topo::Topology& base,
                        const FaultOverlay& overlay, Rng& rng) {
  const int n = base.size();
  for (;;) {
    const int kind = static_cast<int>(rng.uniform(6));
    const int a = static_cast<int>(rng.uniform(n));
    const std::vector<int> nbrs = base.neighbors(a);
    const int b = nbrs.empty()
                      ? a
                      : nbrs[static_cast<std::size_t>(
                            rng.uniform(nbrs.size()))];
    switch (kind) {
      case 0:
        if (overlay.num_alive() <= 2) continue;
        return {0, rts::EventKind::kNodeFail, a, 0, 1.0, false};
      case 1:
        return {0, rts::EventKind::kNodeRestore, a, 0, 1.0, false};
      case 2:
        if (a == b) continue;
        return {0, rts::EventKind::kLinkFail, a, b, 1.0, false};
      case 3:
        if (a == b) continue;
        return {0, rts::EventKind::kLinkRestore, a, b, 1.0, false};
      case 4:
        if (a == b) continue;
        return {0, rts::EventKind::kLinkDegrade, a, b,
                0.25 * (1.0 + rng.uniform(3)), false};
      default:
        if (a == b) continue;
        return {0, rts::EventKind::kLinkRestoreHealth, a, b, 1.0, false};
    }
  }
}

TEST(RestoreRepair, RandomEventInterleavingMatchesRebuild) {
  for (int threads : {1, 4}) {
    support::set_num_threads(threads);
    const auto base = make_topology("torus:6x6");
    FaultOverlay overlay(base);
    DistanceCache plane(overlay);
    Rng rng(2024);
    int applied = 0;
    for (int step = 0; step < 120; ++step) {
      const rts::Event ev = random_event(*base, overlay, rng);
      if (rts::apply_event(overlay, &plane, ev).applied) ++applied;
      expect_plane_matches_rebuild(
          plane, overlay,
          "threads=" + std::to_string(threads) + " step=" +
              std::to_string(step));
      if (HasFatalFailure()) return;
    }
    // The stream must actually exercise mutations, not discard them all.
    EXPECT_GT(applied, 40) << "threads=" << threads;
  }
  support::set_num_threads(1);
}

TEST(RestoreRepair, NodeRestoreAfterIsolationIsExact) {
  // Kill every neighbor of a corner, then revive them one by one: the
  // revived row must come back exactly, including the previously
  // unreachable survivor entries.
  const auto base = make_topology("mesh:4x4");
  FaultOverlay overlay(base);
  DistanceCache plane(overlay);
  for (int p : {1, 4}) {  // isolate corner 0
    overlay.fail_node(p);
    plane.repair_node_failure(overlay, p);
  }
  expect_plane_matches_rebuild(plane, overlay, "after isolation");
  for (int p : {4, 1}) {
    overlay.restore_node(p);
    plane.repair_node_restore(overlay, p);
    expect_plane_matches_rebuild(plane, overlay,
                                 "after restoring " + std::to_string(p));
  }
  EXPECT_FALSE(overlay.has_faults());
}

TEST(RestoreRepair, LinkRestoreWithDeadEndpointIsInert) {
  const auto base = make_topology("torus:8");
  FaultOverlay overlay(base);
  DistanceCache plane(overlay);
  overlay.fail_link(2, 3);
  plane.repair_link_failure(overlay, 2, 3);
  overlay.fail_node(3);
  plane.repair_node_failure(overlay, 3);
  // The runtime skips the plane repair for a dead-endpoint restore; the
  // plane must already be correct without one.
  const rts::EventOutcome out = rts::apply_event(
      overlay, &plane, {0, rts::EventKind::kLinkRestore, 2, 3, 1.0, false});
  EXPECT_TRUE(out.applied);
  EXPECT_EQ(out.rows_repaired, 0);
  expect_plane_matches_rebuild(plane, overlay, "dead-endpoint restore");
}

// ---------------------------------------------------------------------------
// Connected components
// ---------------------------------------------------------------------------

TEST(Components, SplitLineMachineOrdersDeterministically) {
  FaultOverlay overlay(make_topology("mesh:5"));
  EXPECT_FALSE(topo::connected_components(overlay).partitioned());
  overlay.fail_node(2);
  const topo::ComponentSplit split = topo::connected_components(overlay);
  ASSERT_EQ(split.count(), 2);
  EXPECT_TRUE(split.partitioned());
  // Sizes tie at 2: the component holding processor 0 is primary.
  EXPECT_EQ(split.primary(), (std::vector<int>{0, 1}));
  EXPECT_EQ(split.components[1], (std::vector<int>{3, 4}));
  const std::string desc = topo::describe_partition(overlay, split);
  EXPECT_NE(desc.find("2 components"), std::string::npos) << desc;
}

TEST(Components, LinkCutsSplitToo) {
  FaultOverlay overlay(make_topology("torus:6"));
  overlay.fail_link(0, 5);
  overlay.fail_link(2, 3);
  const topo::ComponentSplit split = topo::connected_components(overlay);
  ASSERT_EQ(split.count(), 2);
  EXPECT_EQ(split.primary(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(split.components[1], (std::vector<int>{3, 4, 5}));
}

// ---------------------------------------------------------------------------
// Partition-tolerant mapping
// ---------------------------------------------------------------------------

TEST(PartitionMapping, MapOnAliveUsesPrimaryComponentWhenTasksFit) {
  const auto g = graph::ring(2, 8.0);
  FaultOverlay overlay(make_topology("mesh:5"));
  overlay.fail_node(2);  // {0,1} | {3,4}
  const auto strategy = core::make_strategy("topolb");
  Rng rng(3);
  const Mapping m = core::map_on_alive(*strategy, g, overlay, rng);
  ASSERT_EQ(m.size(), 2u);
  for (int proc : m) EXPECT_LT(proc, 2);  // primary = {0, 1}
}

TEST(PartitionMapping, QuarantineKeepsHeaviestCommunicators) {
  // Tasks 0-1 exchange 100 B, tasks 2-3 exchange 1 B; only two processors
  // remain in the primary component, so 2 and 3 must be quarantined.
  graph::TaskGraph::Builder b("quarantine");
  b.add_vertices(4);
  b.add_edge(0, 1, 100.0);
  b.add_edge(2, 3, 1.0);
  const graph::TaskGraph g = std::move(b).build();
  FaultOverlay overlay(make_topology("mesh:5"));
  overlay.fail_node(2);
  const auto strategy = core::make_strategy("topolb");
  Rng rng(3);
  const core::PartitionedMapResult r =
      core::map_on_largest_component(*strategy, g, overlay, rng);
  EXPECT_EQ(r.components, 2);
  EXPECT_EQ(r.primary_size, 2);
  EXPECT_EQ(r.quarantined, (std::vector<int>{2, 3}));
  EXPECT_EQ(r.mapping[2], core::kUnassigned);
  EXPECT_EQ(r.mapping[3], core::kUnassigned);
  for (int task : {0, 1}) EXPECT_LT(r.mapping[static_cast<std::size_t>(task)], 2);
}

// ---------------------------------------------------------------------------
// Self-validation
// ---------------------------------------------------------------------------

TEST(ValidateState, CatchesStalePlaneAndDeadPlacement) {
  const auto base = make_topology("torus:4x4");
  FaultOverlay overlay(base);
  DistanceCache plane(overlay);
  const graph::TaskGraph g = graph::ring(4, 8.0);
  core::SystemState st;
  st.graph = &g;
  st.overlay = &overlay;
  st.plane = &plane;
  EXPECT_TRUE(core::validate_state(st).ok());

  // Mutate the overlay WITHOUT repairing the plane: validation must notice.
  overlay.fail_node(5);
  EXPECT_FALSE(core::validate_state(st).ok());
  plane.rebuild(overlay);
  EXPECT_TRUE(core::validate_state(st).ok());

  const Mapping dead_placement{0, 1, 2, 5};  // task 3 on the dead processor
  st.placement = &dead_placement;
  const core::ValidationReport report = core::validate_state(st);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("5"), std::string::npos)
      << report.summary();
}

TEST(ValidateState, QuarantinedTasksAreExemptFromComponentCheck) {
  FaultOverlay overlay(make_topology("mesh:5"));
  overlay.fail_node(2);
  const graph::TaskGraph g = graph::ring(4, 8.0);
  const Mapping placement{0, 1, 3, 4};  // tasks 2,3 across the partition
  core::SystemState st;
  st.graph = &g;
  st.overlay = &overlay;
  st.placement = &placement;
  EXPECT_FALSE(core::validate_state(st).ok());  // two components, no ledger
  const std::vector<char> quarantined{0, 0, 1, 1};
  st.quarantined = &quarantined;
  EXPECT_TRUE(core::validate_state(st).ok());
}

// ---------------------------------------------------------------------------
// Chaos generator
// ---------------------------------------------------------------------------

bool same_event(const rts::Event& x, const rts::Event& y) {
  return x.epoch == y.epoch && x.kind == y.kind && x.a == y.a && x.b == y.b &&
         x.health == y.health && x.strict == y.strict;
}

TEST(ChaosSchedule, DeterministicSeededAndBounded) {
  const auto base = make_topology("torus:6x6");
  rts::ChaosConfig cfg;
  cfg.seed = 7;
  cfg.epochs = 60;
  cfg.event_rate = 0.8;
  cfg.burst_prob = 0.2;
  const rts::ChaosSchedule a = rts::make_chaos_schedule(*base, cfg);
  const rts::ChaosSchedule b = rts::make_chaos_schedule(*base, cfg);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i)
    EXPECT_TRUE(same_event(a.events[i], b.events[i])) << "event " << i;
  EXPECT_GT(a.failures, 0);
  EXPECT_GT(a.restores, 0);
  int prev_epoch = 0;
  for (const rts::Event& ev : a.events) {
    EXPECT_FALSE(ev.strict);
    EXPECT_GE(ev.epoch, prev_epoch);
    EXPECT_LT(ev.epoch, cfg.epochs);
    prev_epoch = ev.epoch;
  }
}

TEST(ChaosSchedule, ParseSpecRoundTripsAndRejectsGarbage) {
  const rts::ChaosConfig cfg = rts::parse_chaos_spec("7:0.5:0.1");
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_DOUBLE_EQ(cfg.event_rate, 0.5);
  EXPECT_DOUBLE_EQ(cfg.burst_prob, 0.1);
  EXPECT_THROW(rts::parse_chaos_spec("7:0.5"), precondition_error);
  EXPECT_THROW(rts::parse_chaos_spec("x:0.5:0.1"), precondition_error);
  EXPECT_THROW(rts::parse_chaos_spec("7:0.5:2.0"), precondition_error);
  EXPECT_THROW(rts::parse_chaos_spec("7:0.5:0.1x"), precondition_error);
}

// ---------------------------------------------------------------------------
// Dynamic runtime soak
// ---------------------------------------------------------------------------

rts::DynamicLBConfig soak_config(int epochs) {
  rts::DynamicLBConfig config;
  config.epochs = epochs;
  config.policy = rts::RemapPolicy::kIncremental;
  config.pipeline.partitioner = part::make_partitioner("multilevel");
  config.pipeline.mapper = core::make_strategy("topolb");
  return config;
}

rts::DynamicLBRun chaos_soak(int threads, std::vector<int> skip_repairs = {}) {
  support::set_num_threads(threads);
  const auto g = graph::stencil_2d(12, 12, 16.0);
  const auto t = make_topology("torus:6x6");
  rts::DynamicLBConfig config = soak_config(40);
  rts::ChaosConfig chaos;
  chaos.seed = 7;
  chaos.epochs = config.epochs;
  chaos.event_rate = 0.8;
  chaos.burst_prob = 0.2;
  config.events = rts::make_chaos_schedule(*t, chaos).events;
  config.resilience.skip_repairs = std::move(skip_repairs);
  Rng rng(11);
  rts::DynamicLBRun run = rts::run_dynamic_lb(g, *t, config, rng);
  support::set_num_threads(1);
  return run;
}

TEST(ChaosSoak, SurvivesValidatedAndThreadInvariant) {
  const rts::DynamicLBRun one = chaos_soak(1);
  ASSERT_EQ(one.history.size(), 40u);
  EXPECT_GT(one.events_applied, 0);
  EXPECT_EQ(one.violations, 0);
  EXPECT_EQ(one.plane_rebuilds, 0);
  ASSERT_EQ(one.final_placement.size(), 144u);

  const rts::DynamicLBRun four = chaos_soak(4);
  EXPECT_EQ(four.final_placement, one.final_placement);
  EXPECT_EQ(four.final_quarantined, one.final_quarantined);
  ASSERT_EQ(four.history.size(), one.history.size());
  for (std::size_t e = 0; e < one.history.size(); ++e) {
    EXPECT_EQ(four.history[e].migrations, one.history[e].migrations);
    EXPECT_DOUBLE_EQ(four.history[e].hops_per_byte,
                     one.history[e].hops_per_byte);
  }
}

TEST(ChaosSoak, SkippedRepairTriggersRebuildFallback) {
  // Drop the plane repair of one applied event on purpose: validation must
  // catch the stale plane, rebuild it (obs-counted), and converge to the
  // exact same final state as the honest run.  The timeline is a lone node
  // failure, so nothing else in the batch can mask the staleness (a chaos
  // batch may contain a scale-changing degrade whose own repair rebuilds
  // every row and silently heals the sabotage).
  const auto g = graph::stencil_2d(12, 12, 16.0);
  const auto t = make_topology("torus:6x6");
  auto config = soak_config(6);
  config.events = {{1, rts::EventKind::kNodeFail, 7},
                   {3, rts::EventKind::kNodeRestore, 7}};
  Rng rng_a(11);
  const rts::DynamicLBRun honest = rts::run_dynamic_lb(g, *t, config, rng_a);
  EXPECT_EQ(honest.plane_rebuilds, 0);
  EXPECT_EQ(honest.violations, 0);

  config.resilience.skip_repairs = {0};  // sabotage the node-fail repair
  Rng rng_b(11);
  const rts::DynamicLBRun sabotaged = rts::run_dynamic_lb(g, *t, config, rng_b);
  EXPECT_GE(sabotaged.plane_rebuilds, 1);
  EXPECT_GE(sabotaged.violations, 1);
  EXPECT_EQ(sabotaged.final_placement, honest.final_placement);
  EXPECT_EQ(sabotaged.final_quarantined, honest.final_quarantined);
}

TEST(DynamicLB, StrictEventThrowsWhereLenientSkips) {
  const auto g = graph::stencil_2d(4, 4, 8.0);
  const auto t = make_topology("torus:4x4");
  auto config = soak_config(3);
  config.events = {{0, rts::EventKind::kNodeFail, 5},
                   {1, rts::EventKind::kLinkDegrade, 5, 6, 0.5}};  // dead link
  Rng rng(1);
  EXPECT_THROW(rts::run_dynamic_lb(g, *t, config, rng), precondition_error);
  config.events[1].strict = false;
  Rng rng2(1);
  const rts::DynamicLBRun run = rts::run_dynamic_lb(g, *t, config, rng2);
  EXPECT_EQ(run.events_applied, 1);
  EXPECT_EQ(run.events_skipped, 1);
}

TEST(DynamicLB, PartitionQuarantinesThenRestoreReadmits) {
  // A line machine split in half: objects stranded on the minority side
  // freeze in place, and when the cut processor returns they are
  // re-admitted without a migration storm.
  const auto g = graph::stencil_2d(2, 6, 8.0);  // 12 objects on 6 procs
  const auto t = make_topology("mesh:6");
  auto config = soak_config(6);
  config.load_drift = 0.0;
  config.comm_drift = 0.0;
  config.events = {{1, rts::EventKind::kNodeFail, 2},
                   {4, rts::EventKind::kNodeRestore, 2}};
  Rng rng(5);
  const rts::DynamicLBRun run = rts::run_dynamic_lb(g, *t, config, rng);
  EXPECT_GE(run.partitioned_epochs, 1);
  EXPECT_GT(run.max_quarantined, 0);
  // After the restore the machine is whole again and everyone is active.
  for (char f : run.final_quarantined) EXPECT_EQ(f, 0);
  EXPECT_EQ(run.history.back().components, 1);
  EXPECT_EQ(run.history.back().quarantined, 0);
}

}  // namespace
}  // namespace topomap
