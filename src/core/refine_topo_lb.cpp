#include "core/refine_topo_lb.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/cache_handle.hpp"
#include "core/detail/swap_bound.hpp"
#include "core/distance_provider.hpp"
#include "core/metrics.hpp"
#include "core/swap_kernel.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "topo/distance_cache.hpp"

namespace topomap::core {

namespace {

constexpr int kPairGrain = 256;    // swap-delta evaluations per chunk
constexpr int kMaxBlockRows = 64;  // speculation window cap (see sweep below)

struct PairAB {
  int a, b;
};

/// Tests the pairs (r, b) of rows [r0, hi), b > r, in visit order, starting
/// at b = b0 on row r0, and appends those the bound cannot skip to `pairs`.
/// Returns how many pairs it tested.
template <class Dist>
std::uint64_t collect(const Dist& dist, const Mapping& m,
                      const detail::SwapBound& bound, int r0, int b0, int hi,
                      std::vector<PairAB>& pairs) {
  const int n = static_cast<int>(m.size());
  const std::size_t before = pairs.size();
  std::uint64_t tested = 0;
  for (int r = r0; r < hi; ++r) {
    const auto row = dist.row(m[static_cast<std::size_t>(r)]);
    const detail::SwapBound::Task& tr = bound[r];
    const int first = r == r0 ? b0 : r + 1;
    tested += static_cast<std::uint64_t>(n - first);
    for (int b = first; b < n; ++b)
      if (!bound.skips(tr, bound[b], row[m[static_cast<std::size_t>(b)]]))
        pairs.push_back({r, b});
  }
  OBS_COUNTER_ADD("refine/pairs_skipped", tested - (pairs.size() - before));
  return tested;
}

/// One first-improvement sweep over all pairs (a, b), a < b, exactly
/// reproducing the sequential visit order and accept decisions.
///
/// A pair that detail::SwapBound skips has a computed delta >= 0, so the
/// sequential sweep would reject it too; only the pairs the bound cannot
/// skip are collected and evaluated.  The test costs one plane load and a
/// few scalar loads against a hoisted row.
///
/// The evaluation is parallelised *speculatively*: deltas for the
/// collected pairs of a block of rows are evaluated concurrently against
/// the current mapping (each pair writes only its own slot), then the
/// pairs are walked in sequential order.  An accepted swap invalidates
/// every not-yet-visited delta and bound test conservatively, so the
/// remaining suffix of the block is re-collected and re-evaluated before
/// the walk continues — every delta and every skip that is *acted on* was
/// therefore computed against the exact mapping the sequential algorithm
/// would see, and the arithmetic inside swap_delta_dist is a fixed
/// sequential loop, so accept decisions (and the final mapping) are
/// byte-identical to the sequential sweep for any thread count.
///
/// The block height adapts to the swap rate: it starts at one row, doubles
/// after every swap-free block (capped at kMaxBlockRows) and resets to one
/// row when a block accepts a swap.  Late passes — where swaps are rare and
/// the sweep is pure evaluation — run at full width; early swap-dense
/// passes pay at most one wasted evaluation per accepted swap.  The
/// schedule depends only on accept decisions, never on thread count.
template <class Dist>
bool sweep_once(const graph::TaskGraph& g, const Dist& dist, Mapping& m,
                detail::SwapBound& bound, int* swaps) {
  const int n = static_cast<int>(m.size());
  std::vector<PairAB> pairs;
  std::vector<double> deltas;

  // Deltas of the collected pairs from index lo on; refine/delta_evals
  // counts every swap_delta_dist call, the re-collected suffixes included.
  const auto evaluate = [&](std::size_t lo) {
    const int count = static_cast<int>(pairs.size() - lo);
    OBS_COUNTER_ADD("refine/delta_evals", count);
    deltas.resize(pairs.size());
    support::parallel_for(count, kPairGrain, [&](int begin, int end) {
      for (int i = begin; i < end; ++i) {
        const PairAB& pr = pairs[lo + static_cast<std::size_t>(i)];
        deltas[lo + static_cast<std::size_t>(i)] =
            detail::swap_delta_dist(g, dist, m, pr.a, pr.b);
      }
    });
  };

  bool improved = false;
  int block = 1;
  int a = 0;
  while (a < n) {
    const int hi = std::min(a + block, n);
    pairs.clear();
    const std::uint64_t attempts = collect(dist, m, bound, a, a + 1, hi, pairs);
    OBS_COUNTER_ADD("refine/swap_attempts", attempts);
    evaluate(0);

    bool block_swapped = false;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (!(deltas[i] < -1e-12)) continue;
      const PairAB pr = pairs[i];
      std::swap(m[static_cast<std::size_t>(pr.a)],
                m[static_cast<std::size_t>(pr.b)]);
      bound.swapped(g, dist, m, pr.a, pr.b);
      ++*swaps;
      OBS_COUNTER_ADD("refine/swap_accepts", 1);
      improved = true;
      block_swapped = true;
      pairs.resize(i + 1);
      collect(dist, m, bound, pr.a, pr.b + 1, hi, pairs);
      evaluate(i + 1);
    }
    a = hi;
    block = block_swapped ? 1 : std::min(block * 2, kMaxBlockRows);
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
