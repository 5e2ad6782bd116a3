// Internal: the one routed-load walk behind core::link_loads, the
// contention attribution and link-load refinement.  Sequential and in
// edge-list order, so each link's total is one fixed sum in every consumer
// and at any worker-pool width.
#pragma once

#include <cstdint>
#include <vector>

#include "core/mapping.hpp"
#include "graph/task_graph.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "topo/link_index.hpp"

namespace topomap::core::detail {

/// Route every edge of `g` under `m` both ways over `links`, calling
/// on_hop(edge index, link id, bytes / 2) once per hop, so per-link totals
/// sum to hop-bytes (exactly for integral weights: every addend is a
/// half-integer).  Records the hop count as links/route_hops.
template <typename OnHop>
void route_edges(const graph::TaskGraph& g, const topo::LinkIndex& links,
                 const Mapping& m, OnHop&& on_hop) {
  TOPOMAP_REQUIRE(static_cast<int>(m.size()) == g.num_vertices(),
                  "mapping size does not match task graph");
  TOPOMAP_REQUIRE(is_complete(m, links.topology()), "mapping is incomplete");
  const std::vector<graph::UndirectedEdge>& edges = g.edges();
  std::uint64_t hops = 0;
  for (int i = 0; i < static_cast<int>(edges.size()); ++i) {
    const graph::UndirectedEdge& e = edges[static_cast<std::size_t>(i)];
    const int pa = m[static_cast<std::size_t>(e.a)];
    const int pb = m[static_cast<std::size_t>(e.b)];
    if (pa == pb) continue;
    auto hop = [&, half = e.bytes / 2.0](int link) {
      ++hops;
      on_hop(i, link, half);
    };
    links.walk(pa, pb, hop);
    links.walk(pb, pa, hop);
  }
  OBS_COUNTER_ADD("links/route_hops", hops);
}

/// Per-link byte loads indexed by link id: route_edges summed per link.
inline std::vector<double> routed_link_loads(const graph::TaskGraph& g,
                                             const topo::LinkIndex& links,
                                             const Mapping& m) {
  std::vector<double> load(static_cast<std::size_t>(links.size()), 0.0);
  route_edges(g, links, m, [&](int, int link, double bytes) {
    load[static_cast<std::size_t>(link)] += bytes;
  });
  return load;
}

}  // namespace topomap::core::detail
