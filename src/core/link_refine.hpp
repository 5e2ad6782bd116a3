// Link-load-aware swap refinement (extension beyond the paper).
//
// Hop-bytes is a *sum* over links: it cannot distinguish a mapping that
// spreads traffic evenly from one that piles the same hop-bytes onto a few
// hot links.  Our Fig-11 reproduction surfaces exactly this (see
// EXPERIMENTS.md): TopoLB's hop-optimal embedding of an 8x8 stencil in a
// (4,4,4) *mesh* doubles up messages on some links.  LinkRefine fixes such
// cases by hill-climbing on the L2 norm of per-link loads (sum of squared
// link bytes under deterministic routing), which preferentially unloads
// the hottest links while leaving total hop-bytes approximately conserved.
#pragma once

#include "core/strategy.hpp"

namespace topomap::core {

struct LinkRefineResult {
  Mapping mapping;
  int swaps = 0;
  int passes = 0;
  double l2_before = 0.0;   ///< sum of squared per-link bytes
  double l2_after = 0.0;
  double max_before = 0.0;  ///< busiest-link bytes
  double max_after = 0.0;
};

/// Sweep task pairs, accepting swaps that strictly reduce the L2 link-load
/// norm.  Requires a one-to-one mapping and a routed topology.
/// The L2 norm is monotonically non-increasing; the busiest-link load
/// usually (not provably) drops with it.
LinkRefineResult refine_link_load(const graph::TaskGraph& g,
                                  const topo::Topology& topo,
                                  const Mapping& m, int max_passes = 4);

/// Strategy adaptor: run `base`, then up to kMaxPasses link-load sweeps.
class LinkRefinedStrategy final : public MappingStrategy {
 public:
  static constexpr int kMaxPasses = 4;

  explicit LinkRefinedStrategy(StrategyPtr base);

  Mapping map(const graph::TaskGraph& g, const topo::Topology& topo,
              Rng& rng) const override;
  std::string name() const override;

 private:
  StrategyPtr base_;
};

}  // namespace topomap::core
