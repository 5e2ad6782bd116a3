// k-ary fat-tree distance model.
//
// Processors are the k^L leaves of a complete k-ary switch tree; the
// distance between two leaves is 2*(L - lcp) where lcp is the length of the
// common prefix of their base-k addresses (hops up to the lowest common
// switch and back down).  This is a *distance model*: intermediate switches
// are not processors, so route() and neighbors() — which speak in processor
// sequences / processor adjacency — are unsupported and throw.
// Mapping strategies only require distance(), which is the
// point the paper makes: on fat-trees wiring grows as p log p and mapping
// matters far less, which our benches can quantify.
#pragma once

#include <string>
#include <vector>

#include "topo/topology.hpp"

namespace topomap::topo {

class FatTree final : public Topology {
 public:
  /// @param arity   k, children per switch (>= 2)
  /// @param levels  L, tree depth (>= 1); size() = k^L
  FatTree(int arity, int levels);

  int size() const override { return size_; }
  int distance(int a, int b) const override;

  /// Unsupported — every fat-tree link attaches a leaf to a *switch*, so no
  /// processor-level adjacency is consistent with distance() (the closest
  /// leaves are already 2 switch-hops apart).  An earlier version returned
  /// the same-edge-switch leaves, which left the adjacency graph
  /// disconnected while distance() reported finite cross-subtree values —
  /// GraphTopology::from_topology then failed with a misleading
  /// "disconnected" error and the directed-link count came out short.  Like
  /// route(), this now throws precondition_error up front.
  std::vector<int> neighbors(int p) const override;

  std::string name() const override;

  /// Distance model only: no processor-level adjacency exists (see
  /// neighbors()), so link-level consumers must check this before routing.
  bool has_adjacency() const override { return false; }

  double mean_distance_from(int p) const override;
  double mean_pairwise_distance() const override;
  int diameter() const override { return 2 * levels_; }

  /// Unsupported — fat-tree routes traverse switches, not processors.
  /// Throws precondition_error.
  using Topology::route;
  void route(int a, int b, std::vector<int>& path) const override;

  int arity() const { return arity_; }
  int levels() const { return levels_; }

 private:
  int arity_;
  int levels_;
  int size_;
};

}  // namespace topomap::topo
