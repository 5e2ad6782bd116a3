// Partitioning interfaces and quality metrics (phase 1 of the paper's
// two-phase approach): split the object graph into p balanced groups with
// low inter-group communication, before the mapping phase places groups on
// processors.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/task_graph.hpp"
#include "support/rng.hpp"

namespace topomap::part {

/// assignment[v] = part id in [0, num_parts).
struct PartitionResult {
  std::vector<int> assignment;
  int num_parts = 0;
};

class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Partition g into k groups.  Every part id in [0, k) is used when
  /// k <= |V_t| (empty parts only if k > |V_t|).
  virtual PartitionResult partition(const graph::TaskGraph& g, int k,
                                    Rng& rng) const = 0;

  virtual std::string name() const = 0;
};

using PartitionerPtr = std::shared_ptr<const Partitioner>;

/// Total bytes on edges whose endpoints lie in different parts.
double edge_cut(const graph::TaskGraph& g, const std::vector<int>& assignment);

/// max part weight / (total weight / k): 1.0 is perfect balance.
double load_imbalance(const graph::TaskGraph& g,
                      const std::vector<int>& assignment, int k);

/// Balancing weights: vertex weights, or all ones when the graph carries no
/// compute load (balance on counts instead of dividing by zero).
std::vector<double> balance_weights(const graph::TaskGraph& g);

/// Per-part total vertex weights.
std::vector<double> part_weights(const graph::TaskGraph& g,
                                 const std::vector<int>& assignment, int k);

/// Construct by name: "multilevel" (METIS substitute, default),
/// "greedy" (load-only, Charm++ GreedyLB analogue), "random".
PartitionerPtr make_partitioner(const std::string& spec);

}  // namespace topomap::part
