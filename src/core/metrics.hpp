// Mapping-quality metrics: hop-bytes, hops-per-byte, and per-link load
// accounting (section 3 of the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "core/mapping.hpp"
#include "graph/task_graph.hpp"
#include "topo/distance_cache.hpp"
#include "topo/topology.hpp"

namespace topomap::core {

/// HB(G_t, G_p, P) = sum over edges e=(a,b) of bytes(e) * d(P(a), P(b)).
double hop_bytes(const graph::TaskGraph& g, const topo::Topology& topo,
                 const Mapping& m);

/// Same metric read from a prebuilt distance cache.  Distances are exactly
/// equal integers and the edge summation order is identical, so this
/// returns bit-identical values to the virtual-dispatch overload.
double hop_bytes(const graph::TaskGraph& g, const topo::DistanceCache& cache,
                 const Mapping& m);

/// HB contribution of a single task: sum over its incident edges.  Summing
/// over all tasks double-counts each edge (the paper's 1/2 factor).
double hop_bytes_of_task(const graph::TaskGraph& g, const topo::Topology& topo,
                         const Mapping& m, int task);

/// hop_bytes / total bytes — the paper's headline "hops per byte".
/// Returns 0 when the graph has no communication.
double hops_per_byte(const graph::TaskGraph& g, const topo::Topology& topo,
                     const Mapping& m);

/// Expected hops-per-byte under uniform random placement: the mean distance
/// between two independent uniform processors (paper §5.2.1: sqrt(p)/2 for
/// square 2D tori, 3*cbrt(p)/4 for cubic 3D tori).
double expected_random_hops(const topo::Topology& topo);

/// Per-link byte loads when every message follows Topology::route().
struct LinkLoadStats {
  double total_bytes = 0.0;   ///< sum in link-id order (== hop-bytes)
  double max_bytes = 0.0;     ///< most loaded directed link
  double mean_bytes = 0.0;    ///< average over all directed links
  int links_used = 0;         ///< directed links carrying any traffic
  int links_total = 0;        ///< all directed links in the topology
};

/// Route every task-graph edge (both directions, bytes each way = edge
/// bytes / 2 so totals match hop-bytes) and accumulate per-link loads.
/// Requires a topology with processor-level links (grids, hypercube,
/// graphs); throws precondition_error on FatTree.  Walks the same routes
/// in the same order as the contention attribution, so per-link loads and
/// the maximum agree with it exactly.
LinkLoadStats link_loads(const graph::TaskGraph& g, const topo::Topology& topo,
                         const Mapping& m);

}  // namespace topomap::core
