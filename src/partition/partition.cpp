#include "partition/partition.hpp"

#include <algorithm>

#include "partition/greedy_partition.hpp"
#include "partition/multilevel.hpp"
#include "support/error.hpp"

namespace topomap::part {

double edge_cut(const graph::TaskGraph& g,
                const std::vector<int>& assignment) {
  TOPOMAP_REQUIRE(static_cast<int>(assignment.size()) == g.num_vertices(),
                  "assignment size mismatch");
  double cut = 0.0;
  for (const graph::UndirectedEdge& e : g.edges())
    if (assignment[static_cast<std::size_t>(e.a)] !=
        assignment[static_cast<std::size_t>(e.b)])
      cut += e.bytes;
  return cut;
}

std::vector<double> balance_weights(const graph::TaskGraph& g) {
  std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  if (g.total_vertex_weight() > 0.0)
    for (int v = 0; v < g.num_vertices(); ++v)
      w[static_cast<std::size_t>(v)] = g.vertex_weight(v);
  return w;
}

std::vector<double> part_weights(const graph::TaskGraph& g,
                                 const std::vector<int>& assignment, int k) {
  TOPOMAP_REQUIRE(static_cast<int>(assignment.size()) == g.num_vertices(),
                  "assignment size mismatch");
  TOPOMAP_REQUIRE(k >= 1, "need at least one part");
  std::vector<double> weights(static_cast<std::size_t>(k), 0.0);
  for (int v = 0; v < g.num_vertices(); ++v) {
    const int part = assignment[static_cast<std::size_t>(v)];
    TOPOMAP_REQUIRE(part >= 0 && part < k, "part id out of range");
    weights[static_cast<std::size_t>(part)] += g.vertex_weight(v);
  }
  return weights;
}

double load_imbalance(const graph::TaskGraph& g,
                      const std::vector<int>& assignment, int k) {
  const auto weights = part_weights(g, assignment, k);
  const double total = g.total_vertex_weight();
  if (total <= 0.0) return 1.0;
  const double ideal = total / static_cast<double>(k);
  const double max_w = *std::max_element(weights.begin(), weights.end());
  return max_w / ideal;
}

PartitionerPtr make_partitioner(const std::string& spec) {
  if (spec == "multilevel") return std::make_shared<MultilevelPartitioner>();
  if (spec == "greedy") return std::make_shared<GreedyPartitioner>();
  if (spec == "random") return std::make_shared<RandomPartitioner>();
  throw precondition_error("unknown partitioner spec: " + spec);
}

}  // namespace topomap::part
