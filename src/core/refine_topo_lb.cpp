#include "core/refine_topo_lb.hpp"

#include <cstdint>
#include <memory>
#include <utility>

#include "core/cache_handle.hpp"
#include "core/detail/swap_bound.hpp"
#include "core/detail/tight_tasks.hpp"
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
/// Two exact rules spare pairs whose computed delta is provably >= 0, which
/// the sweep would reject anyway, so neither changes which swap is taken.
/// When a is tight (core/detail/tight_tasks.hpp), the sweep walks only the
/// loose b, in the same ascending order: two tight tasks never swap.  Each
/// walked pair then goes through detail::SwapBound, and only the pairs it
/// cannot skip pay for swap_delta_dist.  The bound's test costs one plane
/// load and a few scalar loads against a's hoisted distance row, which a
/// swap moves and so re-hoists.
template <class D>
bool sweep_once(const graph::TaskGraph& g,
                const detail::CachedDistance<D>& dist, Mapping& m,
                detail::SwapBound& bound, detail::TightTasks& tight,
                int* swaps) {
  const int n = static_cast<int>(m.size());
  bool improved = false;
  for (int a = 0; a < n; ++a) {
    std::uint64_t evals = 0;
    int b = a + 1;
    while (b < n) {  // once per run of pairs between accepted swaps
      const D* row = dist.row(m[static_cast<std::size_t>(a)]);
      const detail::SwapBound::Task& ta = bound[a];
      const auto improves = [&](int c) {
        if (bound.skips(ta, bound[c], row[m[static_cast<std::size_t>(c)]]))
          return false;
        ++evals;
        return detail::swap_delta_dist(g, dist, m, a, c) < -1e-12;
      };
      if (tight.tight(a)) {
        for (b = tight.next_loose(b); b < n && !improves(b);)
          b = tight.next_loose(b + 1);
      } else {
        while (b < n && !improves(b)) ++b;
      }
      if (b == n) break;
      std::swap(m[static_cast<std::size_t>(a)], m[static_cast<std::size_t>(b)]);
      bound.swapped(g, dist, m, a, b);
      tight.swapped(g, dist, m, a, b);
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

}  // namespace

double swap_delta(const graph::TaskGraph& g, const topo::Topology& topo,
                  const Mapping& m, int a, int b) {
  return detail::swap_delta_dist(g, detail::VirtualDistance{topo}, m, a, b);
}

RefineResult refine_mapping(const graph::TaskGraph& g,
                            const topo::Topology& topo, const Mapping& m,
                            int max_passes, const topo::DistanceCache* cache) {
  TOPOMAP_REQUIRE(max_passes >= 1, "need at least one sweep");
  TOPOMAP_REQUIRE(is_one_to_one(m, topo), "refiner needs a one-to-one mapping");
  TOPOMAP_REQUIRE(static_cast<int>(m.size()) == g.num_vertices(),
                  "mapping size mismatch");
  TOPOMAP_REQUIRE(cache == nullptr || cache->size() == topo.size(),
                  "prebuilt distance cache does not match the topology");

  std::shared_ptr<const topo::DistanceCache> owned;
  if (cache == nullptr) {
    owned = std::make_shared<const topo::DistanceCache>(topo);
    cache = owned.get();
  }
  RefineResult result;
  result.mapping = m;
  result.hop_bytes_before = hop_bytes(g, *cache, m);
  cache->visit([&](auto tag) {
    OBS_SPAN("refine/run");
    const detail::CachedDistance<decltype(tag)> dist{*cache};
    detail::SwapBound bound(g, dist, result.mapping);
    detail::TightTasks tight(g, dist, result.mapping, cache->scale());
    for (int pass = 0; pass < max_passes; ++pass) {
      ++result.passes;
      if (!sweep_once(g, dist, result.mapping, bound, tight, &result.swaps))
        break;
    }
  });
  result.hop_bytes_after = hop_bytes(g, *cache, result.mapping);
  TOPOMAP_ASSERT(result.hop_bytes_after <= result.hop_bytes_before + 1e-6,
                 "refinement must never worsen hop-bytes");
  return result;
}

RefinedStrategy::RefinedStrategy(StrategyPtr base, CacheHandlePtr cache)
    : base_(std::move(base)), cache_(std::move(cache)) {
  TOPOMAP_REQUIRE(base_ != nullptr, "base strategy is null");
}

Mapping RefinedStrategy::map(const graph::TaskGraph& g,
                             const topo::Topology& topo, Rng& rng) const {
  const Mapping base = base_->map(g, topo, rng);
  const auto plane = obtain_cache(cache_, topo);
  return refine_mapping(g, topo, base, kMaxPasses, plane.get()).mapping;
}

std::string RefinedStrategy::name() const {
  return base_->name() + "+RefineTopoLB";
}

}  // namespace topomap::core
