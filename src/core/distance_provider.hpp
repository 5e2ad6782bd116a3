// Internal: uniform, non-virtual distance access for the mapping kernels.
//
// Every kernel in src/core is written once against a `Dist` template
// parameter and instantiated twice — with CachedDistance (dense uint16 rows
// from a topo::DistanceCache) and VirtualDistance (plain
// Topology::distance dispatch).  Both providers expose the same three
// operations, perform the same integer distance math, and return the same
// mean-distance doubles, so the two instantiations are byte-identical in
// behaviour; only the lookup cost differs.  row(a) returns something
// indexable by processor id — a raw pointer for the cache, a thin adapter
// for the virtual path — and should be hoisted out of inner loops.
#pragma once

#include <cstdint>

#include "topo/distance_cache.hpp"
#include "topo/topology.hpp"

namespace topomap::core::detail {

struct VirtualDistance {
  /// No distance exceeds this.
  static constexpr double kMaxDistance = 2147483647.0;  // INT_MAX

  const topo::Topology& topo;

  struct Row {
    const topo::Topology& topo;
    int a;
    int operator[](int b) const { return topo.distance(a, b); }
  };

  int operator()(int a, int b) const { return topo.distance(a, b); }
  Row row(int a) const { return Row{topo, a}; }
  double mean_distance_from(int p) const { return topo.mean_distance_from(p); }
};

struct CachedDistance {
  /// No plane entry exceeds this.
  static constexpr double kMaxDistance = 65535.0;  // UINT16_MAX

  const topo::DistanceCache& cache;

  int operator()(int a, int b) const { return cache.distance(a, b); }
  const std::uint16_t* row(int a) const { return cache.row(a); }
  double mean_distance_from(int p) const { return cache.mean_distance_from(p); }
};

}  // namespace topomap::core::detail
