// Exact-optimal mapping oracle: branch-and-bound minimization of hop-bytes
// over injective task -> processor assignments.
//
// Every heuristic in src/core is sold on *relative* wins (vs. random, vs.
// the previous strategy).  This solver supplies the missing ground truth on
// small instances: the provably minimal hop-bytes, against which CI bounds
// each strategy's optimality gap (tests/test_optimal_oracle.cpp,
// bench/ablation_optimality_gap.cpp, scripts/bench_gate.sh).
//
// Search.  Tasks are ordered once, by descending total communication (ties
// to the lower id), and placed depth-first; at each depth the free
// processors are tried in ascending order of the exact incremental cost to
// the already-placed neighbours (ties to the lower processor id).  A node
// is cut when an *admissible* lower bound on any completion reaches the
// incumbent:
//
//   bound = cost(placed edges)                              (exact)
//         + sum over unplaced tasks u with placed neighbours of
//             min over free q of  sum_nb bytes(u,nb) * d(P(nb), q)
//         + sorted-pair bound on edges with both endpoints unplaced
//
// The middle (cross) term is the larger of two admissible prices: each
// frontier task at its individually cheapest free processor (tasks may
// share a processor), or the k smallest per-processor column minima for k
// frontier tasks (the frontier occupies k distinct processors).  The last
// term is the sorted partial-assignment bound: an injective assignment
// sends distinct edges to distinct processor pairs, so pairing the
// suffix's byte weights in descending order with the smallest pairwise
// distances in ascending order (rearrangement inequality) bounds any
// completion from below — priced against the free processors when the free
// set is small, the whole machine otherwise.  On a clique mapped onto the
// whole machine both terms are exact, so the cost plateau prunes at the
// root instead of exploding factorially.
//
// Symmetry.  The root branching (first task's processor) is restricted to
// canonical representatives under the machine's automorphism group:
// vertex-transitive machines (torus, hypercube) pin the first task to
// processor 0, meshes restrict each open dimension's coordinate to the
// lower half (reflection), wrapped dimensions to 0 (translation).  A
// pristine FaultOverlay is unwrapped to its base for seed detection; any
// real fault disables the pruning (faults break the symmetry).
//
// Determinism.  Root subtrees are searched independently (each with its own
// incumbent seeded from a deterministic greedy upper bound) on the
// support::parallel pool and merged in ascending root order with a strict
// comparison, so the mapping, the optimal value, and the node counts are
// byte-identical at any thread count.  All distances come from one
// topo::DistanceCache plane.
//
// Limits.  Instances beyond OptimalOptions::max_tasks (default 12) throw
// precondition_error up front; a search that exhausts its node budget
// throws precondition_error instead of silently returning a non-optimum.
// Unreachable processor pairs (faulted overlays) price as +infinity, so a
// partitioned machine that cannot host the communication graph throws
// "no feasible placement" rather than returning a broken mapping.
#pragma once

#include "core/mapping.hpp"
#include "core/strategy.hpp"
#include "graph/task_graph.hpp"
#include "support/rng.hpp"
#include "topo/topology.hpp"

namespace topomap::core {

struct OptimalOptions {
  /// Hard instance-size cap: more tasks throw precondition_error.  The
  /// factorial search space makes ~12 the practical ceiling.
  int max_tasks = 12;
  /// Total branch-and-bound node budget (task->processor assignments
  /// tried), split evenly across the root branches.  Exhausting a root's
  /// share throws precondition_error — never a silent non-optimum.
  long long node_budget = 20'000'000;
  /// Restrict the first task's placement to automorphism representatives
  /// (tori/meshes/hypercubes on pristine machines).  Off explores every
  /// usable root — the equivalence the oracle tests assert.
  bool symmetry = true;
};

struct OptimalResult {
  /// Injective task -> processor assignment attaining the minimum.
  Mapping mapping;
  /// The provably minimal hop-bytes, recomputed over the task-graph edge
  /// list in its canonical order (comparable to core::hop_bytes).
  double hop_bytes = 0.0;
  /// Assignments tried across all root subtrees (thread-count invariant).
  long long nodes = 0;
  /// Subtrees cut by the admissible bound.
  long long pruned = 0;
  /// First-task placements after symmetry pruning.
  int root_candidates = 0;
};

/// Exact minimum-hop-bytes assignment of g onto `topo` (or onto the alive
/// processors when `topo` is a topo::FaultOverlay).  Requires
/// 1 <= g.num_vertices() <= usable processors and
/// g.num_vertices() <= options.max_tasks.
OptimalResult find_optimal_mapping(const graph::TaskGraph& g,
                                   const topo::Topology& topo,
                                   const OptimalOptions& options = {});

/// MappingStrategy facade over find_optimal_mapping so the oracle can ride
/// every spec-driven harness (make_strategy("optimal"), the CLI, the
/// invariance suites).  Accepts n <= p (injective; bijective at n == p).
/// The oracle reads its own dense distance plane and takes no CacheHandle.
class OptimalLB final : public MappingStrategy {
 public:
  explicit OptimalLB(OptimalOptions options = {})
      : options_(options) {}

  Mapping map(const graph::TaskGraph& g, const topo::Topology& topo,
              Rng& rng) const override;
  std::string name() const override { return "OptimalLB"; }

 private:
  OptimalOptions options_;
};

}  // namespace topomap::core
