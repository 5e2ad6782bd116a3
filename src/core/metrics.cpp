#include "core/metrics.hpp"

#include <algorithm>
#include <vector>

#include "core/detail/route_loads.hpp"
#include "support/error.hpp"
#include "topo/link_index.hpp"

namespace topomap::core {

double hop_bytes(const graph::TaskGraph& g, const topo::Topology& topo,
                 const Mapping& m) {
  TOPOMAP_REQUIRE(static_cast<int>(m.size()) == g.num_vertices(),
                  "mapping size does not match task graph");
  TOPOMAP_REQUIRE(is_complete(m, topo), "mapping is incomplete");
  double total = 0.0;
  for (const graph::UndirectedEdge& e : g.edges())
    total += e.bytes * topo.distance(m[static_cast<std::size_t>(e.a)],
                                     m[static_cast<std::size_t>(e.b)]);
  return total;
}

double hop_bytes(const graph::TaskGraph& g, const topo::DistanceCache& cache,
                 const Mapping& m) {
  TOPOMAP_REQUIRE(static_cast<int>(m.size()) == g.num_vertices(),
                  "mapping size does not match task graph");
  for (const int p : m)
    TOPOMAP_REQUIRE(p >= 0 && p < cache.size(), "mapping is incomplete");
  return cache.visit([&](auto tag) {
    using D = decltype(tag);
    double total = 0.0;
    for (const graph::UndirectedEdge& e : g.edges())
      total += e.bytes * cache.row<D>(m[static_cast<std::size_t>(e.a)])
                             [m[static_cast<std::size_t>(e.b)]];
    return total;
  });
}

double hop_bytes_of_task(const graph::TaskGraph& g, const topo::Topology& topo,
                         const Mapping& m, int task) {
  TOPOMAP_REQUIRE(static_cast<int>(m.size()) == g.num_vertices(),
                  "mapping size does not match task graph");
  TOPOMAP_REQUIRE(is_complete(m, topo), "mapping is incomplete");
  double total = 0.0;
  const int pt = m[static_cast<std::size_t>(task)];
  for (const graph::Edge& e : g.edges_of(task))
    total += e.bytes * topo.distance(pt, m[static_cast<std::size_t>(e.neighbor)]);
  return total;
}

double hops_per_byte(const graph::TaskGraph& g, const topo::Topology& topo,
                     const Mapping& m) {
  const double bytes = g.total_comm_bytes();
  return bytes > 0.0 ? hop_bytes(g, topo, m) / bytes : 0.0;
}

double expected_random_hops(const topo::Topology& topo) {
  return topo.mean_pairwise_distance();
}

LinkLoadStats link_loads(const graph::TaskGraph& g, const topo::Topology& topo,
                         const Mapping& m) {
  const topo::LinkIndex links(topo);
  LinkLoadStats stats;
  stats.links_total = links.size();
  for (const double bytes : detail::routed_link_loads(g, links, m)) {
    if (bytes == 0.0) continue;
    stats.total_bytes += bytes;
    stats.max_bytes = std::max(stats.max_bytes, bytes);
    ++stats.links_used;
  }
  stats.mean_bytes = stats.links_total > 0
                         ? stats.total_bytes / stats.links_total
                         : 0.0;
  return stats;
}

}  // namespace topomap::core
