// TopoLB (paper §4.1–4.4) — the paper's primary contribution.
//
// Iteratively select the unplaced task whose placement is most *critical*
// and put it on its cheapest free processor.  Criticality of task t is
//
//     gain(t) = F_avg(t) - F_min(t)
//
// where F_avg / F_min are the average / minimum of the estimation function
// f_est(t, q, P) over the free processors q: a task whose best spot is much
// better than a typical spot must be pinned down now, because waiting risks
// losing that spot.
//
// The estimation function approximates t's eventual contribution to
// hop-bytes.  Writing A(t, q) for the exact contribution of t's *placed*
// neighbours ( sum c_tj * d(q, P(t_j)) ) and U(t) for the total bytes to
// *unplaced* neighbours:
//
//   first order   f = A(t, q)
//   second order  f = A(t, q) + U(t) * meandist_Vp(q)      (paper default)
//   third order   f = A(t, q) + U(t) * meandist_free_k(q)
//
// meandist_Vp(q) is the static mean distance from q to every processor;
// meandist_free_k(q) is the mean distance from q to the processors still
// free at cycle k.  Second order costs O(p * |E_t|) total; third order
// costs O(p^2) per cycle = O(p^3) total (paper §4.4), which is why second
// order is the production default.
//
// Tie-breaking (unspecified in the paper, documented in DESIGN.md): task
// ties by larger total communication then lower id; processor ties by
// lower id.  Gain comparisons use a relative epsilon so the tie rules do
// not depend on floating-point noise.  The algorithm is fully
// deterministic, for any support::parallel thread count.
#pragma once

#include <utility>

#include "core/strategy.hpp"

namespace topomap::core {

enum class EstimationOrder { kFirst = 1, kSecond = 2, kThird = 3 };

class TopoLB final : public MappingStrategy {
 public:
  explicit TopoLB(EstimationOrder order = EstimationOrder::kSecond,
                  CacheHandlePtr cache = nullptr)
      : order_(order), cache_(std::move(cache)) {}

  Mapping map(const graph::TaskGraph& g, const topo::Topology& topo,
              Rng& rng) const override;
  std::string name() const override;

  EstimationOrder order() const { return order_; }

 private:
  EstimationOrder order_;
  CacheHandlePtr cache_;  // shared across a composition; may be null
};

}  // namespace topomap::core
