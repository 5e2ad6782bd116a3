// Simulated-annealing mapper — the "physical optimization" comparator
// class from the paper's related work (Bollinger & Midkiff's process
// annealing; Orduña et al.'s randomized search).
//
// The paper's position is that such methods "produce high-quality
// solutions (better than heuristic algorithms)" but "tend to be very
// slow"; AnnealingLB lets the repository reproduce that trade-off
// quantitatively (see bench/ablation_physical_opt).
//
// Standard Metropolis scheme over pair-swaps of the mapping:
//   energy  E(P)    = hop-bytes(P)
//   move            = swap the processors of two random tasks
//   accept          = delta < 0, or with probability exp(-delta / T)
//   schedule        = 60 epochs of 8n proposals each, cooling
//                     geometrically by 0.9 per epoch from T0 = 1.5 x the
//                     mean |delta| of random moves
// Keeps the best mapping ever visited.
#pragma once

#include "core/strategy.hpp"

namespace topomap::core {

struct AnnealingOptions {
  /// Start from this strategy's result instead of a random mapping
  /// (null = random start).
  StrategyPtr warm_start;
};

class AnnealingLB final : public MappingStrategy {
 public:
  explicit AnnealingLB(AnnealingOptions options = {},
                       CacheHandlePtr cache = nullptr);

  Mapping map(const graph::TaskGraph& g, const topo::Topology& topo,
              Rng& rng) const override;
  std::string name() const override;

 private:
  AnnealingOptions options_;
  CacheHandlePtr cache_;  // shared across a composition; may be null
};

}  // namespace topomap::core
