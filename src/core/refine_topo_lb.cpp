#include "core/refine_topo_lb.hpp"

#include <cstdint>
#include <memory>
#include <utility>

#include "core/cache_handle.hpp"
#include "core/detail/swap_bound.hpp"
#include "core/distance_provider.hpp"
#include "core/metrics.hpp"
#include "core/swap_kernel.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "topo/distance_cache.hpp"

namespace topomap::core {

namespace {

/// One first-improvement sweep over all pairs (a, b), a < b, in row-major
/// order: the first pair whose swap lowers hop-bytes by more than 1e-12 is
/// swapped, and the sweep goes on from the next pair under the new mapping.
///
/// A pair that detail::SwapBound skips has a computed delta >= 0, so it
/// would be rejected anyway; only the pairs the bound cannot skip pay for
/// swap_delta_dist.  The test costs one plane load and a few scalar loads
/// against a's hoisted distance row, which a swap moves and so re-hoists.
template <class Dist>
bool sweep_once(const graph::TaskGraph& g, const Dist& dist, Mapping& m,
                detail::SwapBound& bound, int* swaps) {
  const int n = static_cast<int>(m.size());
  bool improved = false;
  for (int a = 0; a < n; ++a) {
    std::uint64_t evals = 0;
    int b = a + 1;
    while (b < n) {  // once per run of pairs between accepted swaps
      const auto row = dist.row(m[static_cast<std::size_t>(a)]);
      const detail::SwapBound::Task& ta = bound[a];
      for (; b < n; ++b) {
        if (bound.skips(ta, bound[b], row[m[static_cast<std::size_t>(b)]]))
          continue;
        ++evals;
        if (detail::swap_delta_dist(g, dist, m, a, b) < -1e-12) break;
      }
      if (b == n) break;
      std::swap(m[static_cast<std::size_t>(a)], m[static_cast<std::size_t>(b)]);
      bound.swapped(g, dist, m, a, b);
      ++*swaps;
      OBS_COUNTER_ADD("refine/swap_accepts", 1);
      improved = true;
      ++b;
    }
    const auto visited = static_cast<std::uint64_t>(n - 1 - a);
    OBS_COUNTER_ADD("refine/swap_attempts", visited);
    OBS_COUNTER_ADD("refine/delta_evals", evals);
    OBS_COUNTER_ADD("refine/pairs_skipped", visited - evals);
  }
  return improved;
}

template <class Dist>
RefineResult run_refine(const graph::TaskGraph& g, const Dist& dist,
                        double hb_before, const Mapping& m, int max_passes) {
  OBS_SPAN("refine/run");
  RefineResult result;
  result.mapping = m;
  result.hop_bytes_before = hb_before;
  detail::SwapBound bound(g, dist, result.mapping);
  for (int pass = 0; pass < max_passes; ++pass) {
    ++result.passes;
    if (!sweep_once(g, dist, result.mapping, bound, &result.swaps)) break;
  }
  return result;
}

}  // namespace

double swap_delta(const graph::TaskGraph& g, const topo::Topology& topo,
                  const Mapping& m, int a, int b) {
  return detail::swap_delta_dist(g, detail::VirtualDistance{topo}, m, a, b);
}

RefineResult refine_mapping(const graph::TaskGraph& g,
                            const topo::Topology& topo, const Mapping& m,
                            int max_passes, DistanceMode mode,
                            const topo::DistanceCache* cache) {
  TOPOMAP_REQUIRE(max_passes >= 1, "need at least one sweep");
  TOPOMAP_REQUIRE(is_one_to_one(m, topo), "refiner needs a one-to-one mapping");
  TOPOMAP_REQUIRE(static_cast<int>(m.size()) == g.num_vertices(),
                  "mapping size mismatch");
  TOPOMAP_REQUIRE(cache == nullptr || cache->size() == topo.size(),
                  "prebuilt distance cache does not match the topology");

  RefineResult result;
  if (mode == DistanceMode::kVirtual) {
    result = run_refine(g, detail::VirtualDistance{topo},
                        hop_bytes(g, topo, m), m, max_passes);
    result.hop_bytes_after = hop_bytes(g, topo, result.mapping);
  } else {
    std::shared_ptr<const topo::DistanceCache> owned;
    if (cache == nullptr) {
      owned = std::make_shared<const topo::DistanceCache>(topo);
      cache = owned.get();
    }
    result = run_refine(g, detail::CachedDistance{*cache},
                        hop_bytes(g, *cache, m), m, max_passes);
    result.hop_bytes_after = hop_bytes(g, *cache, result.mapping);
  }
  TOPOMAP_ASSERT(result.hop_bytes_after <= result.hop_bytes_before + 1e-6,
                 "refinement must never worsen hop-bytes");
  return result;
}

RefinedStrategy::RefinedStrategy(StrategyPtr base, int max_passes,
                                 DistanceMode mode, CacheHandlePtr cache)
    : base_(std::move(base)),
      max_passes_(max_passes),
      mode_(mode),
      cache_(std::move(cache)) {
  TOPOMAP_REQUIRE(base_ != nullptr, "base strategy is null");
  TOPOMAP_REQUIRE(max_passes_ >= 1, "need at least one sweep");
}

Mapping RefinedStrategy::map(const graph::TaskGraph& g,
                             const topo::Topology& topo, Rng& rng) const {
  const Mapping base = base_->map(g, topo, rng);
  if (mode_ == DistanceMode::kCached && cache_) {
    const auto shared = cache_->get(topo);
    return refine_mapping(g, topo, base, max_passes_, mode_, shared.get())
        .mapping;
  }
  return refine_mapping(g, topo, base, max_passes_, mode_).mapping;
}

std::string RefinedStrategy::name() const {
  return base_->name() + "+RefineTopoLB";
}

}  // namespace topomap::core
