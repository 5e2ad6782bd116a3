// RefineTopoLB (paper §5.2.3) — pairwise-swap refinement.
//
// Given an existing one-to-one mapping, repeatedly sweep over task pairs
// and swap their processors whenever that strictly reduces hop-bytes; stop
// when a full sweep finds no improving swap or after max_passes sweeps.
// The paper applies it after TopoLB for a further ~12% reduction on the
// LeanMD workloads.
#pragma once

#include "core/strategy.hpp"

namespace topomap::topo {
class DistanceCache;
}

namespace topomap::core {

struct RefineResult {
  Mapping mapping;
  int swaps = 0;          ///< accepted swaps across all sweeps
  int passes = 0;         ///< sweeps performed (including the final clean one)
  double hop_bytes_before = 0.0;
  double hop_bytes_after = 0.0;
};

/// Refine `m` in place-semantics (returns the improved copy).  The result's
/// hop-bytes are monotonically non-increasing in the number of sweeps.
/// Each sweep is the sequential first-improvement pass over the O(p^2)
/// pairs, on the calling thread; it skips the pairs a metric lower bound
/// proves cannot improve (core/detail/swap_bound.hpp).  Results are
/// byte-identical for either distance mode.
/// `cache` (optional) is a prebuilt distance matrix for `topo`; when given
/// with kCached mode the sweep reuses it instead of building its own.
RefineResult refine_mapping(const graph::TaskGraph& g,
                            const topo::Topology& topo, const Mapping& m,
                            int max_passes = 8,
                            DistanceMode mode = DistanceMode::kCached,
                            const topo::DistanceCache* cache = nullptr);

/// Change in hop-bytes if tasks a and b exchanged processors under m
/// (negative = improvement).  Exposed for tests.
double swap_delta(const graph::TaskGraph& g, const topo::Topology& topo,
                  const Mapping& m, int a, int b);

/// Strategy adaptor: run `base`, then RefineTopoLB.
class RefinedStrategy final : public MappingStrategy {
 public:
  RefinedStrategy(StrategyPtr base, int max_passes = 8,
                  DistanceMode mode = DistanceMode::kCached,
                  CacheHandlePtr cache = nullptr);

  Mapping map(const graph::TaskGraph& g, const topo::Topology& topo,
              Rng& rng) const override;
  std::string name() const override;

 private:
  StrategyPtr base_;
  int max_passes_;
  DistanceMode mode_;
  CacheHandlePtr cache_;  // shared across a composition; may be null
};

}  // namespace topomap::core
