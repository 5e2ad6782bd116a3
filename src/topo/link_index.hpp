// Dense directed-link ids and the one route walk over them.
//
// Every link-level consumer (core::link_loads, the contention attribution,
// link-load refinement, the network simulator) walks Topology::route()
// through this class.  The links out of processor u are offset(u),
// offset(u) + 1, ... in neighbors(u) order, so per-link state is a plain
// vector indexed by id.  The index describes the topology as it was at
// construction; a FaultOverlay that fails links afterwards needs a new one.
#pragma once

#include <span>
#include <vector>

#include "support/error.hpp"
#include "topo/topology.hpp"

namespace topomap::topo {

class LinkIndex {
 public:
  /// Throws precondition_error on a distance-model topology without
  /// processor-level links (FatTree).  `topo` must outlive the index.
  explicit LinkIndex(const Topology& topo);

  const Topology& topology() const { return *topo_; }

  /// Number of directed links (each undirected link counts twice).
  int size() const { return static_cast<int>(to_.size()); }

  /// Id of the first link out of u; u's links end at offset(u + 1).
  int offset(int u) const { return offset_[static_cast<std::size_t>(u)]; }

  int from(int link) const { return from_[static_cast<std::size_t>(link)]; }
  int to(int link) const { return to_[static_cast<std::size_t>(link)]; }

  /// Id of the directed link u -> v, or -1 when u and v are not linked.
  int id(int u, int v) const;

  /// The links out of u, ordered by ascending far end to().
  std::span<const int> links_by_target(int u) const {
    return {by_target_.data() + offset(u),
            static_cast<std::size_t>(offset(u + 1) - offset(u))};
  }

  /// Walk the route a -> b (Topology::route), calling on_link(id) once per
  /// hop in path order.  The node path lives in a per-thread buffer, so
  /// walks allocate nothing once it has grown, and on_link must not walk.
  template <typename OnLink>
  void walk(int a, int b, OnLink&& on_link) const {
    thread_local std::vector<int> path;
    topo_->route(a, b, path);
    for (std::size_t i = 1; i < path.size(); ++i) {
      const int link = id(path[i - 1], path[i]);
      TOPOMAP_ASSERT(link >= 0, "route step is not a physical link");
      on_link(link);
    }
  }

 private:
  const Topology* topo_;
  std::vector<int> offset_;     // per node + 1
  std::vector<int> from_, to_;  // per link id
  std::vector<int> by_target_;  // per node, its link ids sorted by to_
};

}  // namespace topomap::topo
