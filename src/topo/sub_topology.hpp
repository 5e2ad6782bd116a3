// Compact re-indexed view of a subset of another topology's processors.
//
// Strategies require |V_t| == |V_p| and processor ids 0..p-1, so mapping
// onto the alive subset of a FaultOverlay needs a topology whose size() is
// the number of survivors.  SubTopology presents nodes_[0..k-1] of the base
// as processors 0..k-1; distances/routes/adjacency are the base's, filtered
// and re-labelled (routes may pass through base nodes outside the subset —
// they are physical paths, reported in *base* ids via route_in_base()).
// Construction requires every pair in the subset to be connected in the
// base (precondition_error otherwise), so downstream code never sees an
// unreachable pair.  One base row from the first member decides it: the
// base's links are undirected, so connectivity is an equivalence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/topology.hpp"

namespace topomap::topo {

class SubTopology final : public Topology {
 public:
  /// @param base   underlying topology (kept alive via shared_ptr)
  /// @param nodes  base processor ids to expose, ascending & unique
  SubTopology(TopologyPtr base, std::vector<int> nodes);

  int size() const override { return static_cast<int>(nodes_.size()); }
  int distance(int a, int b) const override;
  /// Base adjacency restricted to the subset, in compact ids.  Processors
  /// whose base neighbors all lie outside the subset have no neighbors here
  /// even though distance() to them is finite (paths run through excluded
  /// nodes) — link-level consumers should use the base/overlay directly.
  std::vector<int> neighbors(int p) const override;
  std::string name() const override;
  bool has_adjacency() const override { return base_->has_adjacency(); }
  /// Metric units and per-link costs/health are the base's (a soft-faulted
  /// FaultOverlay keeps its weighted fixed-point plane through the compact
  /// view, so alive-subset mapping also avoids sick links).
  int distance_scale() const override { return base_->distance_scale(); }
  int link_cost(int a, int b) const override {
    return base_->link_cost(node_of(a), node_of(b));
  }
  double link_health(int a, int b) const override {
    return base_->link_health(node_of(a), node_of(b));
  }
  double mean_distance_from(int p) const override;
  /// Every entry of a row is finite, and the mean is their sum over size().
  bool mean_is_row_average() const override { return true; }
  int diameter() const override;
  /// The base route translated to compact ids.  Succeeds whenever the base
  /// route stays inside the subset (always true over a FaultOverlay's alive
  /// set); throws precondition_error if an intermediate hop is excluded —
  /// use route_in_base() for the physical path in that case.
  using Topology::route;
  void route(int a, int b, std::vector<int>& path) const override;
  void write_distance_row(int p, std::uint16_t* out) const override;

  /// The base's route between compact processors a and b, in base ids.
  std::vector<int> route_in_base(int a, int b) const;

  /// Base id of compact processor i.
  int node_of(int i) const;
  const std::vector<int>& nodes() const { return nodes_; }
  const Topology& base() const { return *base_; }

 private:
  TopologyPtr base_;
  std::vector<int> nodes_;       // compact id -> base id, ascending
  std::vector<int> compact_of_;  // base id -> compact id, -1 if excluded
};

}  // namespace topomap::topo
