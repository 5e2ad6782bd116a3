#include "graph/quotient.hpp"

#include <sstream>

#include "support/error.hpp"

namespace topomap::graph {

namespace {

/// The relabel-and-merge loop: vertex v of g becomes vertex new_id[v] of a
/// `count`-vertex graph, or is dropped when new_id[v] < 0.  A new vertex
/// weighs the sum of its members' weights (1 per member with
/// unit_weights), summed in ascending v.  An edge survives when both ends
/// do and land on distinct vertices; build() sums the survivors that share
/// a pair in g.edges() order.
TaskGraph relabel(const TaskGraph& g, const std::vector<int>& new_id,
                  int count, bool unit_weights, std::string label) {
  std::vector<double> weight(static_cast<std::size_t>(count), 0.0);
  for (int v = 0; v < g.num_vertices(); ++v)
    if (const int id = new_id[static_cast<std::size_t>(v)]; id >= 0)
      weight[static_cast<std::size_t>(id)] +=
          unit_weights ? 1.0 : g.vertex_weight(v);
  TaskGraph::Builder b(std::move(label));
  for (const double w : weight) b.add_vertex(w);
  for (const UndirectedEdge& e : g.edges()) {
    const int a = new_id[static_cast<std::size_t>(e.a)];
    const int c = new_id[static_cast<std::size_t>(e.b)];
    if (a >= 0 && c >= 0 && a != c) b.add_edge(a, c, e.bytes);
  }
  return std::move(b).build();
}

}  // namespace

TaskGraph quotient_graph(const TaskGraph& g, const std::vector<int>& assignment,
                         int num_groups) {
  TOPOMAP_REQUIRE(static_cast<int>(assignment.size()) == g.num_vertices(),
                  "assignment size mismatch");
  TOPOMAP_REQUIRE(num_groups >= 1, "need at least one group");
  for (const int grp : assignment)
    TOPOMAP_REQUIRE(grp >= 0 && grp < num_groups, "group id out of range");

  std::ostringstream label;
  label << "quotient(" << g.label() << ",k=" << num_groups << ')';
  return relabel(g, assignment, num_groups, false, label.str());
}

Subgraph induced_subgraph(const TaskGraph& g, const std::vector<int>& vertices,
                          bool unit_weights) {
  std::vector<int> parent_to_local(static_cast<std::size_t>(g.num_vertices()),
                                   -1);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const int v = vertices[i];
    TOPOMAP_REQUIRE(v >= 0 && v < g.num_vertices(),
                    "subgraph vertex out of range");
    TOPOMAP_REQUIRE(parent_to_local[static_cast<std::size_t>(v)] == -1,
                    "duplicate vertex in subgraph selection");
    parent_to_local[static_cast<std::size_t>(v)] = static_cast<int>(i);
  }
  Subgraph out;
  out.graph = relabel(g, parent_to_local, static_cast<int>(vertices.size()),
                      unit_weights, "sub[" + g.label() + "]");
  out.local_to_parent = vertices;
  return out;
}

double average_degree(const TaskGraph& g) {
  if (g.num_vertices() == 0) return 0.0;
  return 2.0 * static_cast<double>(g.num_edges()) /
         static_cast<double>(g.num_vertices());
}

}  // namespace topomap::graph
