#include "core/fault_aware.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "graph/quotient.hpp"
#include "support/error.hpp"
#include "topo/components.hpp"
#include "topo/sub_topology.hpp"

namespace topomap::core {

namespace {

/// Map g (padded with zero-weight tasks up to the view size when it has
/// fewer tasks) onto the given alive processors of `overlay`, translating
/// back to original ids.
Mapping map_on_procs(const MappingStrategy& strategy, const graph::TaskGraph& g,
                     const topo::FaultOverlay& overlay,
                     const std::vector<int>& procs, Rng& rng) {
  const int n = g.num_vertices();
  const int slots = static_cast<int>(procs.size());
  // Non-owning view: the SubTopology lives only inside this call, strictly
  // shorter than the caller's overlay.
  topo::TopologyPtr view(topo::TopologyPtr{}, &overlay);
  const auto sub = std::make_shared<const topo::SubTopology>(view, procs);

  const graph::TaskGraph* run_g = &g;
  graph::TaskGraph padded;
  if (n < slots) {
    graph::TaskGraph::Builder b(g.label() + "+pad");
    for (int v = 0; v < n; ++v) b.add_vertex(g.vertex_weight(v));
    b.add_vertices(slots - n, 0.0);
    for (const graph::UndirectedEdge& e : g.edges())
      b.add_edge(e.a, e.b, e.bytes);
    padded = std::move(b).build();
    run_g = &padded;
  }

  const Mapping compact = strategy.map(*run_g, *sub, rng);
  Mapping out(static_cast<std::size_t>(n), kUnassigned);
  for (int t = 0; t < n; ++t)
    out[static_cast<std::size_t>(t)] =
        sub->node_of(compact[static_cast<std::size_t>(t)]);
  return out;
}

}  // namespace

Mapping map_on_alive(const MappingStrategy& strategy,
                     const graph::TaskGraph& g,
                     const topo::FaultOverlay& overlay, Rng& rng) {
  const int n = g.num_vertices();
  const int alive = overlay.num_alive();
  const bool oversubscribe = strategy.supports_oversubscription();
  TOPOMAP_REQUIRE(n >= 1, "map_on_alive: empty task graph");
  TOPOMAP_REQUIRE(n <= alive || (oversubscribe && alive >= 1),
                  "map_on_alive: " + std::to_string(n) + " tasks exceed " +
                      std::to_string(alive) + " alive processors on " +
                      overlay.name());

  const topo::ComponentSplit split = topo::connected_components(overlay);
  if (!split.partitioned()) return map_on_procs(strategy, g, overlay,
                                                split.primary(), rng);
  // A split machine still serves requests that fit its primary component;
  // only genuine overflow is an error, and it names the partition.
  TOPOMAP_REQUIRE(
      n <= static_cast<int>(split.primary().size()) || oversubscribe,
      "map_on_alive: " + std::to_string(n) + " tasks exceed the " +
          std::to_string(split.primary().size()) +
          "-processor primary component — " +
          topo::describe_partition(overlay, split) +
          "; restore connectivity or use map_on_largest_component to "
          "quarantine the overflow");
  return map_on_procs(strategy, g, overlay, split.primary(), rng);
}

PartitionedMapResult map_on_largest_component(const MappingStrategy& strategy,
                                              const graph::TaskGraph& g,
                                              const topo::FaultOverlay& overlay,
                                              Rng& rng) {
  const int n = g.num_vertices();
  TOPOMAP_REQUIRE(n >= 1, "map_on_largest_component: empty task graph");
  TOPOMAP_REQUIRE(overlay.num_alive() >= 1,
                  "map_on_largest_component: no alive processors on " +
                      overlay.name());
  const topo::ComponentSplit split = topo::connected_components(overlay);

  PartitionedMapResult out;
  out.components = split.count();
  out.primary_size = static_cast<int>(split.primary().size());
  if (n <= out.primary_size || strategy.supports_oversubscription()) {
    out.mapping = map_on_procs(strategy, g, overlay, split.primary(), rng);
    return out;
  }

  // Overflow: keep the heaviest communicators (total incident bytes, ties
  // to the lower id), quarantine the rest unplaced.
  std::vector<double> volume(static_cast<std::size_t>(n), 0.0);
  for (const graph::UndirectedEdge& e : g.edges()) {
    volume[static_cast<std::size_t>(e.a)] += e.bytes;
    volume[static_cast<std::size_t>(e.b)] += e.bytes;
  }
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
    return volume[static_cast<std::size_t>(x)] >
           volume[static_cast<std::size_t>(y)];
  });
  std::vector<int> kept(order.begin(), order.begin() + out.primary_size);
  std::sort(kept.begin(), kept.end());
  out.quarantined.assign(order.begin() + out.primary_size, order.end());
  std::sort(out.quarantined.begin(), out.quarantined.end());

  const graph::Subgraph active = graph::induced_subgraph(g, kept);
  const Mapping placed =
      map_on_procs(strategy, active.graph, overlay, split.primary(), rng);
  out.mapping.assign(static_cast<std::size_t>(n), kUnassigned);
  for (std::size_t i = 0; i < kept.size(); ++i)
    out.mapping[static_cast<std::size_t>(kept[i])] = placed[i];
  return out;
}

}  // namespace topomap::core
