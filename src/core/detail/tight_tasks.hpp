// Internal: the tight-pair rule that lets RefineTopoLB skip, without any
// arithmetic, every swap between two tasks that already sit one hop from
// all their partners.
//
// Call a task t *tight* under a mapping m when every edge of t spans exactly
// one hop of the plane, d(m[t], m[j]) == h, where h is
// DistanceCache::scale(): 1 on hop planes and kHealthCostOne units on a
// soft-faulted overlay's weighted plane.  h is the least distance two
// distinct processors can have on every plane the refiner reads (hop
// counts, healthy or degraded link costs of at least h units, restrictions
// of either, kUnreachable between components); tests/test_refine.cpp
// checks it on every family.
//
// For two tight tasks a, b on processors pa != pb, swap_delta_dist sums
// bytes * (d(pb, pj) - d(pa, pj)) over a's edges to j != b, and the mirror
// over b's edges.  a is tight, so d(pa, pj) == h; the mapping is
// one-to-one and j != b, so pj != pb and d(pb, pj) >= h.  Edge bytes are
// positive (TaskGraph::Builder requires it), so each such term is bytes
// times a nonnegative integer, computed as a nonnegative double.  A sum of
// nonnegative doubles is nonnegative in any rounding, so the computed delta
// is >= 0 whether the weights are integral or not, and the sweep (which
// accepts only deltas below -1e-12) would reject the pair.
// The rule changes what is computed, never which swap is taken.
//
// Swap-dense random starts have few tight tasks, so the rule skips little
// there; it pays on near-perfect embeddings, where almost every task is
// tight and the sweep would otherwise test every pair.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "core/distance_provider.hpp"
#include "core/mapping.hpp"
#include "graph/task_graph.hpp"

namespace topomap::core::detail {

class TightTasks {
 public:
  /// Tightness of every task of `g` under `m` on a plane whose least
  /// distance between distinct processors is `one_hop`.
  template <class D>
  TightTasks(const graph::TaskGraph& g, const CachedDistance<D>& dist,
             const Mapping& m, int one_hop)
      : n_(g.num_vertices()),
        one_hop_(one_hop),
        loose_(static_cast<std::size_t>((n_ + 63) / 64), 0) {
    for (int t = 0; t < n_; ++t) update(g, dist, m, t);
  }

  bool tight(int t) const {
    return (loose_[static_cast<std::size_t>(t / 64)] >> (t % 64) & 1u) == 0;
  }

  /// The least loose task >= `from`, or the task count when none is.
  int next_loose(int from) const {
    if (from >= n_) return n_;
    std::size_t w = static_cast<std::size_t>(from / 64);
    std::uint64_t bits = loose_[w] & (~std::uint64_t{0} << (from % 64));
    while (bits == 0) {
      if (++w == loose_.size()) return n_;
      bits = loose_[w];
    }
    return static_cast<int>(w * 64) + std::countr_zero(bits);
  }

  /// Account for tasks a and b having just exchanged processors in `m`:
  /// their edges, and so the tightness of both and of every neighbour,
  /// changed length.
  template <class D>
  void swapped(const graph::TaskGraph& g, const CachedDistance<D>& dist,
               const Mapping& m, int a, int b) {
    for (const int t : {a, b}) {
      update(g, dist, m, t);
      for (const graph::Edge& e : g.edges_of(t)) update(g, dist, m, e.neighbor);
    }
  }

 private:
  template <class D>
  void update(const graph::TaskGraph& g, const CachedDistance<D>& dist,
              const Mapping& m, int t) {
    const D* row = dist.row(m[static_cast<std::size_t>(t)]);
    bool tight = true;
    for (const graph::Edge& e : g.edges_of(t)) {
      if (static_cast<int>(row[m[static_cast<std::size_t>(e.neighbor)]]) !=
          one_hop_) {
        tight = false;
        break;
      }
    }
    const std::uint64_t bit = std::uint64_t{1} << (t % 64);
    std::uint64_t& w = loose_[static_cast<std::size_t>(t / 64)];
    w = tight ? (w & ~bit) : (w | bit);
  }

  int n_;
  int one_hop_;
  std::vector<std::uint64_t> loose_;  // bit t set: task t is loose
};

}  // namespace topomap::core::detail
