// Multilevel graph partitioner — the METIS substitute (DESIGN.md S3).
//
// k-way partitioning by recursive bisection.  Each bisection is multilevel:
//
//   1. COARSEN   — heavy-edge matching: visit vertices in random order and
//                  match each with the unmatched neighbour sharing the
//                  heaviest edge (subject to a weight cap that keeps
//                  balance achievable); contract matched pairs.  Repeat
//                  until the graph is small or stops shrinking.
//   2. INITIAL   — greedy graph growing on the coarsest graph: grow a
//                  region from a random seed, always absorbing the frontier
//                  vertex with the best cut gain, until the target side
//                  weight is reached.  Several trials, best cut wins.
//   3. UNCOARSEN — project the bisection one level up and improve it with
//                  Fiduccia–Mattheyses-style passes: move boundary vertices
//                  by best gain under the balance constraint, with
//                  hill-climbing and rollback to the best seen prefix.
//
// The same family of techniques as METIS (Karypis & Kumar), which is what
// the paper uses for phase 1.
#pragma once

#include "partition/partition.hpp"

namespace topomap::part {

/// One level of a coarsening hierarchy: the contracted graph plus the
/// fine-vertex -> coarse-vertex map that produced it.
struct CoarseLevel {
  graph::TaskGraph coarse;
  std::vector<int> fine_to_coarse;
};

/// One round of heavy-edge-matching contraction (the partitioner's COARSEN
/// step, also the task-side coarsener of core::HierTopoLB).  Vertices are
/// visited in rng-permutation order and matched with the unmatched
/// neighbour sharing the heaviest edge, subject to `weight_cap` on the
/// combined vertex weight.  Returns false (and leaves `out` untouched)
/// when matching stalls (< 5% shrinkage).  Fully sequential and therefore
/// byte-identical for any TOPOMAP_THREADS given a fixed rng state.
bool coarsen_once(const graph::TaskGraph& g, double weight_cap, Rng& rng,
                  CoarseLevel* out);

class MultilevelPartitioner final : public Partitioner {
 public:
  PartitionResult partition(const graph::TaskGraph& g, int k,
                            Rng& rng) const override;
  std::string name() const override { return "MultilevelPartition"; }

  /// One balanced 2-way split: returns 0/1 sides with side 0 targeting
  /// `left_fraction` of the total vertex weight.  Exposed for tests.
  std::vector<int> bisect(const graph::TaskGraph& g, double left_fraction,
                          Rng& rng) const;
};

}  // namespace topomap::part
