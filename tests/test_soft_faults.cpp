// Golden byte-identity property of the soft-fault plane: an overlay whose
// every link health is 1.0 must be indistinguishable — to the byte — from
// no overlay at all.  Degrading to health 1.0 is a no-op (the quantized
// cost equals the healthy cost, so the entry erases and the weighted mode
// never engages): the distance plane, every mapping strategy's output, and
// the network simulation must match the unweighted path exactly, on every
// topology family and under 1 and 4 mapping threads.  This is what lets
// the weighted machinery ship inside the default path without a flag.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/fault_aware.hpp"
#include "core/strategy.hpp"
#include "graph/builders.hpp"
#include "graph/factory.hpp"
#include "netsim/app.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topo/distance_cache.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"

namespace topomap {
namespace {

using topo::DistanceCache;
using topo::FaultOverlay;
using topo::make_topology;

/// Degrade every link of `overlay` that touches the first few processors
/// to health 1.0 — which must leave the overlay pristine.
void degrade_everything_to_healthy(FaultOverlay& overlay) {
  const int probes = std::min(overlay.size(), 8);
  for (int p = 0; p < probes; ++p)
    for (int q : overlay.neighbors(p)) overlay.degrade_link(p, q, 1.0);
}

TEST(SoftFaultIdentity, HealthOneDegradesAreInvisible) {
  for (const std::string& spec :
       {std::string("torus:6x6"), std::string("mesh:4x5"),
        std::string("hypercube:5")}) {
    const auto base = make_topology(spec);
    FaultOverlay overlay(base);
    degrade_everything_to_healthy(overlay);
    EXPECT_EQ(overlay.version(), 0) << spec;
    EXPECT_FALSE(overlay.has_soft_faults()) << spec;
    EXPECT_FALSE(overlay.has_faults()) << spec;
    EXPECT_EQ(overlay.distance_scale(), 1) << spec;
    EXPECT_EQ(overlay.num_degraded_links(), 0) << spec;
    for (int q : overlay.neighbors(0)) {
      EXPECT_DOUBLE_EQ(overlay.link_health(0, q), 1.0) << spec;
      EXPECT_EQ(overlay.link_cost(0, q), 1) << spec;
    }
  }
}

TEST(SoftFaultIdentity, DistancePlaneIsByteIdenticalToBase) {
  for (const std::string& spec :
       {std::string("torus:6x6"), std::string("mesh:4x5"),
        std::string("hypercube:5"), std::string("fattree:3x2")}) {
    const auto base = make_topology(spec);
    auto overlay = std::make_shared<FaultOverlay>(base);
    if (base->has_adjacency()) degrade_everything_to_healthy(*overlay);
    const DistanceCache from_base(*base);
    const DistanceCache from_overlay(*overlay);
    ASSERT_EQ(from_base.size(), from_overlay.size());
    EXPECT_EQ(from_base.scale(), from_overlay.scale()) << spec;
    // The same entries: the base's plane stores them in one byte each, the
    // overlay's (repairable) plane in two.
    EXPECT_EQ(from_base.entry_bytes(), 1) << spec;
    EXPECT_EQ(from_overlay.entry_bytes(), 2) << spec;
    for (int a = 0; a < from_base.size(); ++a)
      for (int b = 0; b < from_base.size(); ++b)
        ASSERT_EQ(from_base.distance(a, b), from_overlay.distance(a, b))
            << spec << ": plane entry (" << a << "," << b << ") diverged";
    for (int p = 0; p < from_base.size(); ++p)
      EXPECT_EQ(from_base.mean_distance_from(p),
                from_overlay.mean_distance_from(p))
          << spec << " row " << p;
    EXPECT_EQ(from_base.diameter(), from_overlay.diameter()) << spec;
  }
}

TEST(SoftFaultIdentity, EveryStrategyMapsIdenticallyAcrossThreads) {
  const std::vector<std::string> strategies = {
      "random", "topocent",      "topolb",           "recursive",
      "anneal", "topolb+refine", "topolb+linkrefine"};
  for (const std::string& spec :
       {std::string("torus:6x6"), std::string("mesh:4x5"),
        std::string("hypercube:5")}) {
    const auto base = make_topology(spec);
    Rng graph_rng(11);
    const graph::TaskGraph g =
        graph::random_graph(base->size(), 0.15, 500.0, 2000.0, graph_rng);
    auto overlay = std::make_shared<FaultOverlay>(base);
    degrade_everything_to_healthy(*overlay);
    for (const std::string& sname : strategies) {
      const auto strategy = core::make_strategy(sname);
      core::Mapping reference;
      for (const int threads : {1, 4}) {
        support::set_num_threads(threads);
        Rng plain_rng(5);
        const core::Mapping on_base = strategy->map(g, *base, plain_rng);
        Rng overlay_rng(5);
        const core::Mapping on_overlay =
            core::map_on_alive(*strategy, g, *overlay, overlay_rng);
        EXPECT_EQ(on_base, on_overlay)
            << sname << " on " << spec << " with " << threads
            << " threads: healthy overlay changed the mapping";
        if (threads == 1)
          reference = on_base;
        else
          EXPECT_EQ(on_base, reference)
              << sname << " on " << spec << ": mapping depends on threads";
      }
      support::set_num_threads(1);
    }
  }
}

TEST(SoftFaultIdentity, SimulationResultsMatchTheUnwrappedMachine) {
  const auto base = make_topology("torus:4x4");
  auto overlay = std::make_shared<FaultOverlay>(base);
  degrade_everything_to_healthy(*overlay);
  const graph::TaskGraph g = graph::stencil_2d(4, 4, 2000.0);
  const auto strategy = core::make_strategy("topolb");
  Rng rng(3);
  const core::Mapping m = strategy->map(g, *base, rng);
  netsim::AppParams app;
  app.iterations = 10;
  const netsim::NetworkParams net;
  for (const auto model :
       {netsim::ServiceModel::kWormhole, netsim::ServiceModel::kStoreForward}) {
    const auto on_base = netsim::run_iterative_app(g, *base, m, app, net, model);
    const auto on_overlay =
        netsim::run_iterative_app(g, *overlay, m, app, net, model);
    EXPECT_EQ(on_base.completion_us, on_overlay.completion_us);
    EXPECT_EQ(on_base.avg_message_latency_us, on_overlay.avg_message_latency_us);
    EXPECT_EQ(on_base.max_link_busy_us, on_overlay.max_link_busy_us);
    EXPECT_EQ(on_base.messages, on_overlay.messages);
  }
}

TEST(SoftFaultIdentity, FatTreeRejectsDegradesAndStaysPristine) {
  const auto base = make_topology("fattree:3x2");
  FaultOverlay overlay(base);
  // No processor-level links: soft faults are as unrepresentable as hard
  // link faults, and the failed attempt must leave no trace.
  EXPECT_THROW(overlay.degrade_link(0, 1, 0.5), precondition_error);
  EXPECT_EQ(overlay.version(), 0);
  EXPECT_FALSE(overlay.has_soft_faults());
  EXPECT_EQ(overlay.distance_scale(), 1);
  for (int a = 0; a < base->size(); ++a)
    for (int b = 0; b < base->size(); ++b)
      EXPECT_EQ(overlay.distance(a, b), base->distance(a, b));
}

// ---------------------------------------------------------------------------
// Sanity of the engaged weighted mode (the identity's counterpart): one
// genuinely sick link flips the plane into weighted units and back.
// ---------------------------------------------------------------------------

TEST(SoftFaultWeighted, DegradeAndRestoreRoundTripsThePlane) {
  const auto base = make_topology("torus:6x6");
  FaultOverlay overlay(base);
  const DistanceCache before(overlay);

  const int prev = overlay.degrade_link(0, 1, 0.5);
  EXPECT_EQ(prev, 1);  // was one healthy hop in scale-1 units
  EXPECT_TRUE(overlay.has_soft_faults());
  EXPECT_EQ(overlay.distance_scale(), FaultOverlay::kHealthCostOne);
  EXPECT_EQ(overlay.link_cost(0, 1), 2 * FaultOverlay::kHealthCostOne);
  EXPECT_DOUBLE_EQ(overlay.link_health(0, 1), 0.5);
  // A neighbouring healthy pair now reads one hop in weighted units.
  EXPECT_EQ(overlay.distance(1, 2), FaultOverlay::kHealthCostOne);
  // Crossing the sick link costs two hops, so the cheapest 0 -> 1 path may
  // go around; it must never cost more than the sick link itself.
  EXPECT_LE(overlay.distance(0, 1), 2 * FaultOverlay::kHealthCostOne);
  EXPECT_GT(overlay.distance(0, 1), FaultOverlay::kHealthCostOne);

  const int degraded_cost = overlay.degrade_link(0, 1, 1.0);
  EXPECT_EQ(degraded_cost, 2 * FaultOverlay::kHealthCostOne);
  EXPECT_FALSE(overlay.has_soft_faults());
  EXPECT_EQ(overlay.distance_scale(), 1);
  const DistanceCache after(overlay);
  const std::size_t n = static_cast<std::size_t>(before.size());
  EXPECT_EQ(std::memcmp(before.row<std::uint16_t>(0),
                        after.row<std::uint16_t>(0),
                        n * n * sizeof(std::uint16_t)),
            0)
      << "restore did not round-trip the plane";
}

}  // namespace
}  // namespace topomap
