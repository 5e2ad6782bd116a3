// Weighted undirected task graph G_t = (V_t, E_t).
//
// Vertices are compute objects (or groups of objects) with a computation
// weight; edges carry the total bytes communicated between their endpoints
// per iteration (the paper's process model: persistent tasks, symmetric
// stable communication, no DAG dependencies).
//
// The structure is immutable after Builder::build(): adjacency is stored in
// CSR form for cache-friendly traversal in the mapping inner loops, and an
// undirected edge list is kept for whole-graph metrics.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace topomap::graph {

/// One directed half of an undirected communication edge.
struct Edge {
  int neighbor;
  double bytes;
};

/// An undirected communication edge (a < b).
struct UndirectedEdge {
  int a;
  int b;
  double bytes;
};

class TaskGraph {
 public:
  class Builder;

  /// An empty graph (0 vertices); assign a Builder::build() result to fill.
  TaskGraph() = default;

  int num_vertices() const { return static_cast<int>(vertex_weight_.size()); }
  int num_edges() const { return static_cast<int>(edge_list_.size()); }

  /// Compute load of vertex v.
  double vertex_weight(int v) const;

  /// Total bytes vertex v exchanges with all neighbours (sum of incident
  /// edge weights) — the "total communication" used for greedy selection.
  double comm_bytes(int v) const;

  /// Number of incident edges of v.
  int degree(int v) const;

  /// CSR adjacency of v.
  std::span<const Edge> edges_of(int v) const;

  /// All undirected edges, each exactly once.
  const std::vector<UndirectedEdge>& edges() const { return edge_list_; }

  /// Sum of edge weights over undirected edges (total bytes on the wire per
  /// iteration, counting each message once).
  double total_comm_bytes() const { return total_comm_bytes_; }

  /// Sum of vertex weights.
  double total_vertex_weight() const { return total_vertex_weight_; }

  /// True if (a, b) is an edge (binary search over CSR row of a).
  bool has_edge(int a, int b) const;

  /// Bytes on edge (a, b); 0 if absent.
  double edge_bytes(int a, int b) const;

  const std::string& label() const { return label_; }

 private:
  friend class Builder;
  void check_vertex(int v) const;

  std::string label_;
  std::vector<double> vertex_weight_;
  std::vector<double> comm_bytes_;
  std::vector<int> row_offset_;  // size num_vertices()+1
  std::vector<Edge> csr_;        // sorted by neighbor within each row
  std::vector<UndirectedEdge> edge_list_;
  double total_comm_bytes_ = 0.0;
  double total_vertex_weight_ = 0.0;
};

class TaskGraph::Builder {
 public:
  explicit Builder(std::string label = "taskgraph");

  /// Add a vertex with the given compute load; returns its id (sequential).
  int add_vertex(double weight = 1.0);

  /// Reserve `n` unit-weight vertices at once; returns the first id.
  int add_vertices(int n, double weight = 1.0);

  void set_vertex_weight(int v, double weight);

  /// Add (or accumulate onto) the undirected edge (a, b) with `bytes` of
  /// communication.  a == b is rejected: intra-vertex traffic costs no hops.
  void add_edge(int a, int b, double bytes);

  int num_vertices() const { return static_cast<int>(weights_.size()); }

  /// Finalize into an immutable TaskGraph.  Parallel edges added through
  /// add_edge merge into one edge whose bytes are their left-to-right sum
  /// in insertion order; edges() is in (a, b) order and every CSR row is
  /// ascending by neighbour.  Linear in vertices plus edges: no comparison
  /// sort.
  TaskGraph build() &&;

 private:
  std::string label_;
  std::vector<double> weights_;
  // Edges as added, endpoints stored as (min, max).
  std::vector<UndirectedEdge> raw_edges_;
};

}  // namespace topomap::graph
