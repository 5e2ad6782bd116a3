// Quotient (coalesced) task graph: contract each partition group into one
// vertex.  This is the paper's phase-1 output — after METIS-style
// partitioning of the object graph into p groups, the p-vertex quotient
// graph is what the mapping heuristics place onto the p processors.
//
// quotient_graph and induced_subgraph are the one relabel-and-merge loop
// of the code base (the partitioner's coarsening levels and bisection
// sides, HierTopoLB's task levels, the two-phase pipeline's quotient and
// the fault-aware active set all go through them).  Both walk g.edges() in
// order, so parallel edges that land on one vertex pair are summed by
// TaskGraph::Builder::build in the fine graph's edge-list order.
#pragma once

#include <vector>

#include "graph/task_graph.hpp"

namespace topomap::graph {

/// @param g           original task graph
/// @param assignment  group id in [0, num_groups) per vertex
/// @param num_groups  number of groups; a group no vertex maps to becomes an
///                    isolated zero-weight vertex
/// Group vertex weight = sum of member weights; inter-group edge bytes =
/// sum of crossing edge bytes.  Intra-group communication vanishes (it is
/// intra-processor after mapping).
TaskGraph quotient_graph(const TaskGraph& g, const std::vector<int>& assignment,
                         int num_groups);

/// Average vertex degree of a graph (2|E| / |V|); the paper reports this
/// for coalesced LeanMD graphs to explain mappability.
double average_degree(const TaskGraph& g);

/// Induced subgraph on `vertices` (original ids; duplicates rejected).
/// Edges with both endpoints inside are kept.  local_to_parent[i] is the
/// original id of local vertex i (in the order given).
struct Subgraph {
  TaskGraph graph;
  std::vector<int> local_to_parent;
};
Subgraph induced_subgraph(const TaskGraph& g, const std::vector<int>& vertices,
                          bool unit_weights = false);

}  // namespace topomap::graph
