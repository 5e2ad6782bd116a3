// Binary hypercube topology: p = 2^d processors, links between nodes whose
// indices differ in exactly one bit.  Included as the classic "rich" network
// the paper contrasts with torus/mesh (contention is far less of an issue
// because wiring grows as p log p).
#pragma once

#include <string>
#include <vector>

#include "topo/topology.hpp"

namespace topomap::topo {

class Hypercube final : public Topology {
 public:
  /// @param dim  number of dimensions d (>= 0); size() = 2^d
  explicit Hypercube(int dim);

  int size() const override { return 1 << dim_; }
  int distance(int a, int b) const override;
  std::vector<int> neighbors(int p) const override;
  std::string name() const override;
  double mean_distance_from(int p) const override;
  double mean_pairwise_distance() const override;
  int diameter() const override { return dim_; }

  /// E-cube route: corrects differing bits from least to most significant.
  using Topology::route;
  void route(int a, int b, std::vector<int>& path) const override;

  /// Batch row fill for DistanceCache: one popcount per entry.
  void write_distance_row(int p, std::uint16_t* out) const override;

  int dimensions() const { return dim_; }

 private:
  int dim_;
};

}  // namespace topomap::topo
