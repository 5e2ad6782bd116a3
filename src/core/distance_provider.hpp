// Internal: uniform distance access for the templated swap kernels.
//
// The strategies read hop distances from a topo::DistanceCache plane,
// which tests/test_distance_cache.cpp pins entrywise, and in every row
// mean, against Topology::distance.  TopoLB, TopoCentLB, RefineTopoLB's
// sweep, AnnealingLB's chain and the swap bound take the plane directly.
// The templates that also run elsewhere (core/swap_kernel.hpp and
// HierTopoLB's level passes) take one of these providers: CachedDistance<D>
// over a plane whose entries are D (the caller dispatches once on the
// plane's width with DistanceCache::visit), or VirtualDistance over plain
// Topology::distance where there is no plane — hier's final passes on a
// contracted machine too wide for one, and the public swap_delta().  Both
// do the same integer distance math.  row(a) returns something indexable
// by processor id — a raw pointer for the plane, a thin adapter otherwise
// — and should be hoisted out of inner loops.
#pragma once

#include <cstdint>

#include "topo/distance_cache.hpp"
#include "topo/topology.hpp"

namespace topomap::core::detail {

struct VirtualDistance {
  const topo::Topology& topo;

  struct Row {
    const topo::Topology& topo;
    int a;
    int operator[](int b) const { return topo.distance(a, b); }
  };

  Row row(int a) const { return Row{topo, a}; }
};

template <class D>
struct CachedDistance {
  const topo::DistanceCache& cache;

  int operator()(int a, int b) const { return cache.row<D>(a)[b]; }
  const D* row(int a) const { return cache.row<D>(a); }
};

}  // namespace topomap::core::detail
