// Abstract network-topology interface.
//
// A topology is the undirected "topology graph" G_p = (V_p, E_p) of the
// paper: vertices are processors 0..size()-1, edges are physical links.
// Mapping strategies only need shortest-path hop distances; the network
// simulator and link-load metrics additionally need concrete routes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace topomap::topo {

class Topology {
 public:
  virtual ~Topology() = default;

  /// Number of processors p = |V_p|.
  virtual int size() const = 0;

  /// Shortest-path distance in hops between processors a and b.
  /// distance(a, a) == 0 for all a.
  virtual int distance(int a, int b) const = 0;

  /// Directly linked processors of p (the adjacency of G_p).
  virtual std::vector<int> neighbors(int p) const = 0;

  /// Human-readable shape, e.g. "torus(8,8,8)".
  virtual std::string name() const = 0;

  /// True when neighbors()/route() describe a real processor-level link
  /// graph consistent with distance().  Distance-model topologies (FatTree,
  /// whose links attach leaves to switches) return false: their neighbors()
  /// and route() throw, and link-level operations — link loads, the network
  /// simulator, FaultOverlay link failures — are unsupported on them.
  virtual bool has_adjacency() const { return true; }

  /// Units of distance(): 1 when distances are plain hop counts (every
  /// topology here except a soft-faulted FaultOverlay).  A topology whose
  /// links carry non-uniform costs reports its fixed-point denominator —
  /// one healthy hop then costs distance_scale() units — so consumers can
  /// convert back to hop-equivalents.  The value changes only when the
  /// underlying link-cost set changes (see FaultOverlay::distance_scale),
  /// which topo::DistanceCache uses to detect that a whole plane must be
  /// re-expressed rather than incrementally repaired.
  virtual int distance_scale() const { return 1; }

  /// Cost of traversing the base link a-b, in distance_scale() units.  Only
  /// meaningful for pairs joined by a physical link; the default — uniform
  /// cost, one hop — is distance_scale().  FaultOverlay overrides this with
  /// per-link health-derived costs.
  virtual int link_cost(int, int) const { return distance_scale(); }

  /// Health of the directed link a-b in (0, 1]: the fraction of nominal
  /// bandwidth it still delivers.  1.0 everywhere by default; FaultOverlay
  /// reports degraded links' quantized health so the network simulator can
  /// derive per-link service rates from the same overlay that shapes the
  /// mapping distances.
  virtual double link_health(int, int) const { return 1.0; }

  /// Mean hop distance from p to every processor, self included:
  /// (1/|V_p|) * sum_q d(p, q).  This is the second-order expected-distance
  /// term of TopoLB.  Concrete topologies override with closed forms; the
  /// default loops over all processors.
  virtual double mean_distance_from(int p) const;

  /// True when mean_distance_from(p) is by definition the integer sum of
  /// write_distance_row(p)'s finite entries divided once by their count
  /// (0.0 for a row with none).  topo::DistanceCache then takes the mean
  /// from the row it has just written instead of asking again, which on a
  /// faulted machine would repeat the row's shortest-path search.  False
  /// for closed-form means.
  virtual bool mean_is_row_average() const { return false; }

  /// Mean distance between two independently-uniform processors (self pairs
  /// included) — the paper's E[hops] for random placement.
  virtual double mean_pairwise_distance() const;

  /// Maximum distance between any pair of processors.
  virtual int diameter() const;

  /// The route a message from a to b takes, written into `path` (which is
  /// overwritten, so many walks reuse one buffer) as the nodes [a, ..., b].
  /// Deterministic; grids route dimension-ordered, the default is a BFS
  /// shortest path.  Link consumers walk routes through topo::LinkIndex.
  virtual void route(int a, int b, std::vector<int>& path) const;

  /// The same route as a fresh vector.
  std::vector<int> route(int a, int b) const;

  /// Fill out[q] = distance(p, q) for every processor q — one row of the
  /// dense distance matrix.  The default loops over the virtual distance();
  /// concrete topologies override with batch closed forms (no per-element
  /// division/virtual dispatch), which is what makes building a
  /// topo::DistanceCache cheap.  `out` must hold size() entries; distances
  /// must fit in uint16_t (guaranteed by the 20000-node cache cap).
  virtual void write_distance_row(int p, std::uint16_t* out) const;

 protected:
  void check_node(int p) const;
};

using TopologyPtr = std::shared_ptr<const Topology>;

}  // namespace topomap::topo
