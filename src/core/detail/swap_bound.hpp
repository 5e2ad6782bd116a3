// Internal: the lower bound that lets RefineTopoLB skip a swap pair
// without computing its delta.
//
// For tasks a, b on processors pa, pb with D = d(pa, pb), swap_delta_dist
// sums bytes * (d(pb, pj) - d(pa, pj)) over a's edges to j != b, and the
// mirror over b's edges.  In a metric (symmetric, triangle inequality)
// d(pb, pj) >= D - d(pa, pj), so each of a's terms is at least
// bytes * (D - 2 d(pa, pj)), and the delta is at least
//   (W_a + W_b) * D - 2 * (C_a + C_b),
// where W_t is the sum of the bytes on t's edges and C_t the sum of
// bytes * d(m[t], m[j]) over them.  W and C keep the a-b edge although the
// delta leaves it out: its bound term bytes * (D - 2D) is negative, so
// keeping it only lowers the bound.  The same inequality bounds every
// term's magnitude by bytes * D.
//
// Every plane the refiner reads is such a metric: hop and weighted
// shortest-path distances (a soft-faulted FaultOverlay's costs are
// positive integers and never saturate: costs past kMaxFiniteDistance
// throw), restrictions of them (SubTopology, hier's representative
// plane), and kUnreachable = 0xFFFF between components or at dead
// processors, which keeps the triangle inequality: when d(x, z) is
// 0xFFFF, no y shares a component with both x and z, so d(x, y) or
// d(y, z) is 0xFFFF too.  A byte plane's sentinel 0xFF obeys the same
// argument, and its entries stay below dmax = 0xFFFF.
// tests/test_refine.cpp checks symmetry and the triangle inequality on
// every family.
//
// A pair is skipped when fl(fl(w_a + w_b) * D) >= fl(fl(c_a + c_b) * k),
// with w_t the computed W_t and c_t an upper bound on C_t; a skipped
// pair's computed delta is then >= 0 (up to underflow, far inside the
// sweep's acceptance threshold of -1e-12).  Two regimes set k and c:
//
// * Exact: every edge weight is an integer and 2 * sum(W) * dmax <= 2^53,
//   dmax the largest entry of a plane at either width (0xFFFF).  Then
//   every product and partial sum here and in swap_delta_dist is an
//   integer of at most 2^53, so all of it is exact: k = 2, c_t = C_t,
//   and a bound of exactly 0 skips.
// * Rounded: otherwise.  The computed delta lies within
//   gamma(2g + 1) * (W_a + W_b) * D of the exact one, for maximum degree
//   g and gamma(k) = k u / (1 - k u), u = eps / 2, and w_t is at most
//   gamma(g) * W_t above W_t.  k = 2 * (1 + (3g + 16) eps) covers those
//   errors and the four roundings of the test with room to spare.  c_t
//   stays an upper bound by construction: a fresh derivation multiplies
//   the computed sum of nonnegative terms by 1 + (g + 2) eps, and when a
//   neighbour moves, the change bytes * diff is added together with
//   4 eps * (c_t + |bytes * diff|), which exceeds the rounding of the
//   product and of the sum.  The margins only grow c_t, so drift across
//   sweeps loosens the bound and never breaks it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/distance_provider.hpp"
#include "core/mapping.hpp"
#include "graph/task_graph.hpp"

namespace topomap::core::detail {

class SwapBound {
 public:
  /// W_t and the upper bound on C_t of one task.
  struct Task {
    double w;
    double c;
  };

  template <class D>
  SwapBound(const graph::TaskGraph& g, const CachedDistance<D>& dist,
            const Mapping& m)
      : tasks_(static_cast<std::size_t>(g.num_vertices())) {
    int max_degree = 0;
    bool integral = true;
    double total = 0.0;
    for (int t = 0; t < g.num_vertices(); ++t) {
      max_degree = std::max(max_degree, g.degree(t));
      double w = 0.0;
      for (const graph::Edge& e : g.edges_of(t)) {
        w += e.bytes;
        integral = integral && std::floor(e.bytes) == e.bytes;
      }
      tasks_[static_cast<std::size_t>(t)].w = w;
      total += w;
    }
    constexpr double kMaxDistance = std::numeric_limits<std::uint16_t>::max();
    if (!(integral && 2.0 * total * kMaxDistance <= 0x1p53)) {
      constexpr double eps = std::numeric_limits<double>::epsilon();
      k_ = 2.0 * (1.0 + (3.0 * max_degree + 16.0) * eps);
      derive_margin_ = 1.0 + (max_degree + 2.0) * eps;
      drift_ = 4.0 * eps;
    }
    for (int t = 0; t < g.num_vertices(); ++t)
      tasks_[static_cast<std::size_t>(t)].c = derive(g, dist, m, t);
  }

  const Task& operator[](int t) const {
    return tasks_[static_cast<std::size_t>(t)];
  }

  /// True when the pair's computed swap_delta_dist is provably >= 0;
  /// `d` is the distance between the two tasks' processors.
  bool skips(const Task& a, const Task& b, int d) const {
    return (a.w + b.w) * static_cast<double>(d) >= (a.c + b.c) * k_;
  }

  /// Account for tasks a and b having just exchanged processors in `m`.
  template <class D>
  void swapped(const graph::TaskGraph& g, const CachedDistance<D>& dist,
               const Mapping& m, int a, int b) {
    moved(g, dist, m, a, b);
    moved(g, dist, m, b, a);
    tasks_[static_cast<std::size_t>(a)].c = derive(g, dist, m, a);
    tasks_[static_cast<std::size_t>(b)].c = derive(g, dist, m, b);
  }

 private:
  /// An upper bound on C_t under m.
  template <class D>
  double derive(const graph::TaskGraph& g, const CachedDistance<D>& dist,
                const Mapping& m, int t) const {
    const D* row = dist.row(m[static_cast<std::size_t>(t)]);
    double c = 0.0;
    for (const graph::Edge& e : g.edges_of(t))
      c += e.bytes *
           static_cast<double>(row[m[static_cast<std::size_t>(e.neighbor)]]);
    return c * derive_margin_;
  }

  /// Updates the bound of every neighbour of t but `other` for t's move
  /// from m[other] (its old processor) to m[t].
  template <class D>
  void moved(const graph::TaskGraph& g, const CachedDistance<D>& dist,
             const Mapping& m, int t, int other) {
    const D* now = dist.row(m[static_cast<std::size_t>(t)]);
    const D* was = dist.row(m[static_cast<std::size_t>(other)]);
    for (const graph::Edge& e : g.edges_of(t)) {
      if (e.neighbor == other) continue;  // the a-b edge keeps its length
      const int pj = m[static_cast<std::size_t>(e.neighbor)];
      const double change = e.bytes * static_cast<double>(now[pj] - was[pj]);
      double& c = tasks_[static_cast<std::size_t>(e.neighbor)].c;
      c = (c + change) + drift_ * (c + std::abs(change));
    }
  }

  std::vector<Task> tasks_;
  // The exact regime's values; the constructor widens them when rounding.
  double k_ = 2.0;
  double derive_margin_ = 1.0;
  double drift_ = 0.0;
};

}  // namespace topomap::core::detail
