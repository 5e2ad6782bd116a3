// HierTopoLB — multilevel (coarsen / map / uncoarsen) topology-aware
// mapping, the scale path to million-task graphs (DESIGN.md §12).
//
// Flat TopoLB keeps an O(n^2) assigned-cost matrix and the DistanceCache a
// dense O(p^2) plane, which caps direct mapping at a few thousand tasks and
// processors.  HierTopoLB lifts both limits with two hierarchies:
//
//   task side      repeated heavy-edge matching (part::coarsen_once) shrinks
//                  G_0 -> G_1 -> ... -> G_M until G_M fits TopoLB's comfort
//                  zone;
//   machine side   when p exceeds `flat_proc_cap`, the processor graph is
//                  contracted the same way into node groups whose pairwise
//                  distances are the *real* base-topology distances between
//                  representative processors — so the coarse solve still
//                  optimizes the true metric, just at node granularity.
//
// The coarsest graph is partitioned onto the nodes (MultilevelPartitioner +
// graph::quotient_graph), mapped with TopoLB on a real topo::DistanceCache
// plane, polished with RefineTopoLB, and then projected back level by
// level.  Every projection level runs a bounded deterministic swap pass
// (core/swap_kernel.hpp) over the crossing edges, so quality is recovered
// where it is cheap; machine nodes are split child-by-child under
// capacity-proportional quotas with distance-preference ordering.
//
// The strategy accepts n >= p (bijective when n == p <= flat_proc_cap,
// weight-balanced many-to-one otherwise) and is byte-identical for any
// TOPOMAP_THREADS at a fixed seed: all matching/partitioning is
// sequential-by-construction and the swap passes use a parallel
// filter + sequential accept schedule whose decisions never depend on
// thread count.
#pragma once

#include "core/strategy.hpp"
#include "graph/task_graph.hpp"

namespace topomap::core {

struct HierOptions {
  /// Largest machine mapped directly: with p <= cap the coarse solve runs
  /// on the real topology; above it the machine side is contracted to at
  /// most this many nodes first.  Must stay within the DistanceCache node
  /// ceiling (20000).
  int flat_proc_cap = 2048;
  /// Square bypass: at n == p <= this cap the hierarchy is pure overhead
  /// (no task coarsening would trigger and the flat solver fits), so the
  /// machine side is left uncontracted and the pipeline degenerates to
  /// TopoLB + bounded refinement on the real plane — matching flat
  /// quality exactly where flat still runs.  Must stay within the
  /// DistanceCache node ceiling (20000); the O(p^2) solve state makes
  /// values much beyond 4096 expensive.
  int flat_square_cap = 4096;
  /// Task coarsening stops near `coarsen_factor * (coarse node count)`
  /// vertices, so the coarsest partition has a few tasks per node to work
  /// with.
  static constexpr int coarsen_factor = 4;
  /// Bounded swap passes after each task-side projection level (0 disables
  /// level refinement entirely — the pure-projection mode the exactness
  /// property test relies on).
  int refine_passes = 1;
  /// RefineTopoLB sweeps over the coarsest (square) mapping; 0 disables.
  int coarse_refine_passes = 4;
  /// "+refine": full RefineTopoLB when the final mapping is square and the
  /// machine small enough, extra finest-level swap passes otherwise.
  bool final_refine = false;
};

/// Vertex count and hop-bytes after each task-side projection level (first
/// entry = the coarsest graph, last = G_0).  Hop-bytes are measured on the
/// coarse node plane until the machine side is split.
struct HierLevelStats {
  int vertices = 0;
  double hop_bytes = 0.0;
};

struct HierResult {
  /// task -> processor, the strategy output.
  Mapping mapping;
  /// G_0 task -> coarsest group id (composition of every matching level).
  std::vector<int> coarse_assignment;
  /// coarsest group -> coarse node (== processor when no machine
  /// contraction happened).
  Mapping coarse_mapping;
  /// The coarsest quotient graph the groups were mapped with.
  graph::TaskGraph quotient;
  int task_levels = 0;        ///< task-side contraction rounds
  int topo_levels = 0;        ///< machine-side contraction rounds
  double coarse_hop_bytes = 0.0;  ///< quotient hop-bytes after coarse solve
  std::vector<HierLevelStats> trajectory;
  int swaps = 0;              ///< accepted swaps across all bounded passes
};

/// Run the full pipeline.  Requires n >= p >= 1 and, when p >
/// opt.flat_proc_cap, a topology with processor-level adjacency
/// (Topology::has_adjacency) so the machine side can be contracted.
HierResult hier_map(const graph::TaskGraph& g, const topo::Topology& topo,
                    Rng& rng, const HierOptions& opt = {},
                    const CacheHandlePtr& cache = nullptr);

/// Strategy adaptor ("hier" / "hier+refine" specs).
class HierTopoLB final : public MappingStrategy {
 public:
  explicit HierTopoLB(HierOptions options = {},
                      CacheHandlePtr cache = nullptr);

  Mapping map(const graph::TaskGraph& g, const topo::Topology& topo,
              Rng& rng) const override;
  std::string name() const override;
  bool supports_oversubscription() const override { return true; }

  const HierOptions& options() const { return options_; }

 private:
  HierOptions options_;
  CacheHandlePtr cache_;  // shared across a composition; may be null
};

}  // namespace topomap::core
