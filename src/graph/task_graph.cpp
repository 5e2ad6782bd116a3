#include "graph/task_graph.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace topomap::graph {

void TaskGraph::check_vertex(int v) const {
  TOPOMAP_REQUIRE(v >= 0 && v < num_vertices(), "vertex index out of range");
}

double TaskGraph::vertex_weight(int v) const {
  check_vertex(v);
  return vertex_weight_[static_cast<std::size_t>(v)];
}

double TaskGraph::comm_bytes(int v) const {
  check_vertex(v);
  return comm_bytes_[static_cast<std::size_t>(v)];
}

int TaskGraph::degree(int v) const {
  check_vertex(v);
  return row_offset_[static_cast<std::size_t>(v) + 1] -
         row_offset_[static_cast<std::size_t>(v)];
}

std::span<const Edge> TaskGraph::edges_of(int v) const {
  check_vertex(v);
  const auto begin = static_cast<std::size_t>(row_offset_[v]);
  const auto end = static_cast<std::size_t>(row_offset_[v + 1]);
  return {csr_.data() + begin, end - begin};
}

bool TaskGraph::has_edge(int a, int b) const {
  return edge_bytes(a, b) > 0.0;
}

double TaskGraph::edge_bytes(int a, int b) const {
  check_vertex(a);
  check_vertex(b);
  const auto row = edges_of(a);
  const auto it = std::lower_bound(
      row.begin(), row.end(), b,
      [](const Edge& e, int v) { return e.neighbor < v; });
  return (it != row.end() && it->neighbor == b) ? it->bytes : 0.0;
}

TaskGraph::Builder::Builder(std::string label) : label_(std::move(label)) {}

int TaskGraph::Builder::add_vertex(double weight) {
  TOPOMAP_REQUIRE(weight >= 0.0, "vertex weight must be non-negative");
  weights_.push_back(weight);
  return static_cast<int>(weights_.size()) - 1;
}

int TaskGraph::Builder::add_vertices(int n, double weight) {
  TOPOMAP_REQUIRE(n >= 0, "negative vertex count");
  TOPOMAP_REQUIRE(weight >= 0.0, "vertex weight must be non-negative");
  const int first = static_cast<int>(weights_.size());
  weights_.insert(weights_.end(), static_cast<std::size_t>(n), weight);
  return first;
}

void TaskGraph::Builder::set_vertex_weight(int v, double weight) {
  TOPOMAP_REQUIRE(v >= 0 && v < num_vertices(), "vertex index out of range");
  TOPOMAP_REQUIRE(weight >= 0.0, "vertex weight must be non-negative");
  weights_[static_cast<std::size_t>(v)] = weight;
}

void TaskGraph::Builder::add_edge(int a, int b, double bytes) {
  TOPOMAP_REQUIRE(a >= 0 && a < num_vertices(), "edge endpoint out of range");
  TOPOMAP_REQUIRE(b >= 0 && b < num_vertices(), "edge endpoint out of range");
  TOPOMAP_REQUIRE(a != b, "self-edges carry no hop-bytes; not allowed");
  TOPOMAP_REQUIRE(bytes > 0.0, "edge weight must be positive");
  raw_edges_.push_back({std::min(a, b), std::max(a, b), bytes});
}

TaskGraph TaskGraph::Builder::build() && {
  TaskGraph g;
  g.label_ = std::move(label_);
  g.vertex_weight_ = std::move(weights_);
  const auto n = g.vertex_weight_.size();

  // Merge parallel edges.  A stable two-pass counting sort, by b and then
  // by a, puts the raw edges in (a, b) order with the copies of one pair
  // in insertion order, and the merge sums each pair's bytes left to
  // right in that order.
  {
    std::vector<UndirectedEdge> by_b(raw_edges_.size());
    std::vector<std::size_t> start(n + 1);
    auto counting_pass = [&](const std::vector<UndirectedEdge>& from,
                             std::vector<UndirectedEdge>& to,
                             int UndirectedEdge::*key) {
      std::fill(start.begin(), start.end(), 0);
      for (const UndirectedEdge& e : from)
        ++start[static_cast<std::size_t>(e.*key) + 1];
      for (std::size_t v = 0; v < n; ++v) start[v + 1] += start[v];
      for (const UndirectedEdge& e : from)
        to[start[static_cast<std::size_t>(e.*key)]++] = e;
    };
    counting_pass(raw_edges_, by_b, &UndirectedEdge::b);
    counting_pass(by_b, raw_edges_, &UndirectedEdge::a);
  }
  std::size_t merged = 0;
  for (const UndirectedEdge& e : raw_edges_) {
    if (merged > 0 && raw_edges_[merged - 1].a == e.a &&
        raw_edges_[merged - 1].b == e.b) {
      raw_edges_[merged - 1].bytes += e.bytes;
    } else {
      raw_edges_[merged++] = e;
    }
  }
  g.edge_list_.assign(raw_edges_.begin(), raw_edges_.begin() +
                                           static_cast<std::ptrdiff_t>(merged));
  raw_edges_ = {};

  // Build CSR from the merged edge list.  Filling it in (a, b) order
  // leaves every row ascending: row v receives its edges (a, v), a < v, in
  // ascending a before its edges (v, b), b > v, in ascending b.
  std::vector<int> degree(n, 0);
  for (const auto& e : g.edge_list_) {
    ++degree[static_cast<std::size_t>(e.a)];
    ++degree[static_cast<std::size_t>(e.b)];
  }
  g.row_offset_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v)
    g.row_offset_[v + 1] = g.row_offset_[v] + degree[v];
  g.csr_.resize(static_cast<std::size_t>(g.row_offset_[n]));
  std::vector<int> cursor(g.row_offset_.begin(), g.row_offset_.end() - 1);
  g.comm_bytes_.assign(n, 0.0);
  for (const auto& e : g.edge_list_) {
    g.csr_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(e.a)]++)] = {e.b, e.bytes};
    g.csr_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(e.b)]++)] = {e.a, e.bytes};
    g.comm_bytes_[static_cast<std::size_t>(e.a)] += e.bytes;
    g.comm_bytes_[static_cast<std::size_t>(e.b)] += e.bytes;
    g.total_comm_bytes_ += e.bytes;
  }
  for (std::size_t v = 0; v < n; ++v)
    g.total_vertex_weight_ += g.vertex_weight_[v];
  return g;
}

}  // namespace topomap::graph
