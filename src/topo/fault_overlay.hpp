// Fault-injection decorator over any Topology: failed links, failed
// processors, and *degraded* (soft-faulted) links.
//
// Real machines run for weeks while links and nodes drop out — and degrade
// long before they die: a flaky cable retrains to half rate, a congested
// adaptive route delivers a fraction of nominal bandwidth.  The overlay
// models the whole spectrum with one description.  Every link carries a
// health in (0, 1]; health 1 is the pristine link, lower health is a soft
// fault, and the hard link/node faults of the original overlay are the
// health-0 limit.  Processor ids are stable — size() stays the base size
// and dead processors keep their numbers — so mappings, caches, and traces
// taken before a fault remain addressable after it.  Semantics:
//
//  * neighbors()/route()/distance() see only the *alive* subgraph: links in
//    the failed set and links touching dead processors do not exist.
//    Degraded links still exist but cost more to cross (below).
//  * Hard faults only: distances and routes are recomputed by BFS on the
//    alive subgraph, exactly as before soft faults existed.
//  * Any link health < 1: the metric switches to a weighted-Dijkstra mode.
//    Health is quantized to a fixed-point integer link cost
//    cost = round(kHealthCostOne / health) (so a healthy link costs
//    kHealthCostOne units — one hop — and a half-rate link about twice
//    that), distances become minimal path costs, and routes follow the
//    cheapest (not fewest-hop) path, repelling traffic from sick links the
//    same way longer paths do.  With every health == 1 the weighted mode
//    never engages and the overlay is byte-identical to the hard-fault
//    BFS plane — property-tested.
//  * Asking for the distance/route of a pair the faults disconnected — or
//    of a dead endpoint — throws precondition_error.  Never UB, never a
//    hang, never a silent wrong answer.
//  * write_distance_row() writes kUnreachable (0xFFFF) for unreachable or
//    dead entries, which is how topo::DistanceCache represents and
//    incrementally repairs faulted metrics (DistanceCache::repair_*).
//  * Distance-model topologies without processor-level links (FatTree,
//    has_adjacency() == false) support processor failures only: removing a
//    leaf never changes switch-level distances between the survivors, so
//    alive-pair distances are the base's; fail_link()/degrade_link() on
//    them throws.
//
// The overlay is cheap to mutate (a set/map insert plus two entries of a
// per-link cost array) and stateless about distances: every query
// recomputes from the base adjacency, so concurrent const use from the
// parallel mapping kernels is safe and results are byte-identical for any
// thread count.  That adjacency is read through one walk
// (for_each_alive_link): the base's links, stored once at construction as
// a topo::LinkIndex CSR in neighbors() order, each with its current cost.
// Row searches, early-exit distance queries, reroutes and
// topo::connected_components all use it, and keep their frontiers, heaps
// and visit marks in per-thread scratch, so a search allocates nothing
// once its thread's buffers have grown.  version() increments on every
// mutation and is embedded in name(), letting caches key on it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "topo/link_index.hpp"
#include "topo/topology.hpp"

namespace topomap::topo {

class FaultOverlay final : public Topology {
 public:
  /// Distance value marking "no alive path" in write_distance_row() output.
  static constexpr std::uint16_t kUnreachable = 0xFFFF;
  /// Fixed-point denominator of the weighted metric: a fully-healthy link
  /// costs this many units when any soft fault is active (3 fractional
  /// bits — health resolves to ~12% steps near 1 and finer below).
  static constexpr int kHealthCostOne = 8;
  /// Largest finite plane entry; weighted path costs beyond it throw.
  static constexpr int kMaxFiniteDistance = 0xFFFE;

  explicit FaultOverlay(TopologyPtr base);

  // --- fault injection (idempotent) ---

  /// Remove the undirected link a-b.  Requires a base-topology link between
  /// a and b (and a routed base: has_adjacency()).  Supersedes any soft
  /// fault on the link; returns the cost (in the *pre-mutation*
  /// distance_scale() units) the link had while alive, which
  /// DistanceCache::repair_link_failure needs for its affected-row test.
  int fail_link(int a, int b);

  /// Remove processor p and every link touching it.  Health records of
  /// links into p are retained (they are inert while p is dead) so the
  /// plane's fixed-point units stay stable across node deaths.
  void fail_node(int p);

  /// Set the health of link a-b to `health` in (0, 1]: the link keeps
  /// existing but costs round(kHealthCostOne / health) units to cross in
  /// the weighted metric.  health == 1 restores the link to pristine.
  /// Requires an alive base link on a routed base; degrading a hard-failed
  /// link throws.  Returns the link's previous cost in the pre-mutation
  /// distance_scale() units — pass it to DistanceCache::repair_link_degrade.
  int degrade_link(int a, int b, double health);

  // --- recovery (idempotent, the inverses of the fault mutations) ---

  /// Revive dead processor p.  Its base links come back except those in
  /// the hard-failed set; health records of links into p survived the death
  /// and re-engage as-is.  Restoring an alive processor is a no-op.  Pair
  /// with DistanceCache::repair_node_restore.
  void restore_node(int p);

  /// Re-install hard-failed link a-b at full health (the hard fault
  /// destroyed any degrade record when it superseded it).  Restoring a
  /// link that is not failed is a no-op.  A dead endpoint is allowed — the
  /// restored link stays inert until the processor comes back.  Returns
  /// the link's cost in the *post-mutation* distance_scale() units, for
  /// DistanceCache::repair_link_restore.
  int restore_link(int a, int b);

  /// Restore link a-b to full health: exactly degrade_link(a, b, 1.0).
  /// Returns the previous cost in pre-mutation units, for
  /// DistanceCache::repair_link_degrade.
  int restore_link_health(int a, int b);

  // --- fault inspection ---

  bool link_failed(int a, int b) const;
  bool node_failed(int p) const { return dead_[static_cast<std::size_t>(p)] != 0; }
  bool is_alive(int p) const;
  int num_alive() const { return size_ - dead_count_; }
  int num_failed_nodes() const { return dead_count_; }
  int num_failed_links() const { return static_cast<int>(failed_links_.size()); }
  int num_degraded_links() const { return static_cast<int>(degraded_.size()); }
  bool has_faults() const {
    return dead_count_ > 0 || !failed_links_.empty() || !degraded_.empty();
  }
  /// Any link with health < 1 (the weighted-metric switch).
  bool has_soft_faults() const { return !degraded_.empty(); }
  /// Quantized health of link a-b: 1.0 when pristine, kHealthCostOne / cost
  /// for a degraded link, 0.0 when the link is hard-failed or an endpoint
  /// is dead.  This is exactly the service-rate fraction netsim derives its
  /// per-link slowdowns from, so simulation and mapping see one machine.
  double link_health(int a, int b) const override;
  /// Alive processor ids, ascending.
  std::vector<int> alive_procs() const;
  /// Monotonic mutation counter (0 for a pristine overlay).
  int version() const { return version_; }

  const Topology& base() const { return *base_; }

  /// Call visit(v, cost) for every alive link u -> v, in the base's
  /// neighbors(u) order: failed links and links into dead processors are
  /// skipped, and cost is the link's weighted cost (kHealthCostOne when
  /// healthy).  Requires has_adjacency().  Allocates nothing.
  template <typename Visit>
  void for_each_alive_link(int u, Visit&& visit) const {
    for (int l = links_->offset(u), end = links_->offset(u + 1); l < end;
         ++l) {
      const int v = links_->to(l);
      const int cost = link_cost_[static_cast<std::size_t>(l)];
      if (cost == 0 || dead_[static_cast<std::size_t>(v)]) continue;
      visit(v, cost);
    }
  }

  // --- Topology interface ---

  int size() const override { return size_; }
  /// Path cost on the alive subgraph, in distance_scale() units: hop count
  /// without soft faults, minimal health-weighted cost with them.  Throws
  /// precondition_error when an endpoint is dead or the pair is
  /// disconnected by faults.
  int distance(int a, int b) const override;
  /// kHealthCostOne while any soft fault is active, else 1.
  int distance_scale() const override {
    return degraded_.empty() ? 1 : kHealthCostOne;
  }
  /// Cost of crossing base link a-b in current distance_scale() units,
  /// whether or not the link is currently alive (callers own aliveness
  /// checks; DistanceCache's repairs probe links around dead processors).
  int link_cost(int a, int b) const override;
  /// Alive adjacency: failed links and dead endpoints are absent; a dead
  /// processor has no neighbors.  Degraded links remain present.
  std::vector<int> neighbors(int p) const override;
  std::string name() const override;
  bool has_adjacency() const override { return base_->has_adjacency(); }
  /// Mean distance from p to the alive processors it can still reach (self
  /// included).  Integer-sum based when any fault is active, so incremental
  /// DistanceCache repair reproduces it bit-exactly; 0.0 for a dead p.
  double mean_distance_from(int p) const override;
  /// With any fault active the mean above is the row average.
  bool mean_is_row_average() const override { return has_faults(); }
  /// Mean of mean_distance_from over the alive processors.
  double mean_pairwise_distance() const override;
  /// Largest finite alive-pair distance (in distance_scale() units).
  int diameter() const override;
  /// Cheapest alive route.  Keeps the base's deterministic route whenever
  /// the faults (hard or soft) do not touch it — such a route is still
  /// weighted-optimal, since every alternative crosses at least as many
  /// links at at least the healthy cost.  Otherwise reroutes by BFS
  /// (hard faults only) or Dijkstra (weighted mode).  Throws
  /// precondition_error on dead endpoints or disconnection.
  using Topology::route;
  void route(int a, int b, std::vector<int>& path) const override;
  void write_distance_row(int p, std::uint16_t* out) const override;

 private:
  /// BFS distances from src over the alive subgraph; kUnreachable elsewhere.
  void bfs_row(int src, std::uint16_t* out) const;
  /// Weighted (fixed-point) Dijkstra distances from src; kUnreachable
  /// elsewhere.  When `parent` is non-null also records a deterministic
  /// shortest-path tree (ties resolve to the predecessor that was settled
  /// first, i.e. lowest (cost, id)).  Throws when a finite path cost
  /// exceeds kMaxFiniteDistance.
  void dijkstra_row(int src, std::uint16_t* out, std::vector<int>* parent) const;
  bool route_intact(const std::vector<int>& path) const;
  /// Set the walk's cost of base link a-b in both directions (0 = failed).
  void set_link_cost(int a, int b, int cost);

  TopologyPtr base_;
  int size_ = 0;
  // The base's links (empty on a distance model), and per link id its
  // weighted cost: kHealthCostOne when healthy, the degraded cost, or 0
  // while the link is hard-failed.  Mirrors failed_links_ and degraded_.
  std::optional<LinkIndex> links_;
  std::vector<std::uint16_t> link_cost_;
  std::vector<char> dead_;
  int dead_count_ = 0;
  std::set<std::pair<int, int>> failed_links_;       // normalized a < b
  std::map<std::pair<int, int>, int> degraded_;      // normalized -> cost
  int version_ = 0;
};

}  // namespace topomap::topo
