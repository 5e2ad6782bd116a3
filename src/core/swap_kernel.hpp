// Internal: templated pair-swap hop-bytes delta, shared by RefineTopoLB's
// sweep, AnnealingLB's Metropolis chain and HierTopoLB's level passes.
// The sweep and the chain instantiate it on their distance plane
// (CachedDistance<D>, once per plane width); it stays a template because hier also runs it on
// representative-processor distances and, where a machine is too wide for
// a plane, on VirtualDistance (core/distance_provider.hpp).  Every
// instantiation computes the same terms in the same order (integer
// distance difference, then one multiply-accumulate per edge), matching
// the public swap_delta() exactly.
#pragma once

#include "core/distance_provider.hpp"
#include "core/mapping.hpp"
#include "graph/task_graph.hpp"

namespace topomap::core::detail {

template <class Dist>
double swap_delta_dist(const graph::TaskGraph& g, const Dist& dist,
                       const Mapping& m, int a, int b) {
  const int pa = m[static_cast<std::size_t>(a)];
  const int pb = m[static_cast<std::size_t>(b)];
  if (pa == pb) return 0.0;
  const auto row_a = dist.row(pa);
  const auto row_b = dist.row(pb);
  double delta = 0.0;
  for (const graph::Edge& e : g.edges_of(a)) {
    if (e.neighbor == b) continue;  // the (a,b) edge length is unchanged
    const int pj = m[static_cast<std::size_t>(e.neighbor)];
    delta += e.bytes * static_cast<double>(row_b[pj] - row_a[pj]);
  }
  for (const graph::Edge& e : g.edges_of(b)) {
    if (e.neighbor == a) continue;
    const int pj = m[static_cast<std::size_t>(e.neighbor)];
    delta += e.bytes * static_cast<double>(row_a[pj] - row_b[pj]);
  }
  return delta;
}

}  // namespace topomap::core::detail
