#include "core/annealing_lb.hpp"
#include "core/baseline_lb.hpp"
#include "core/cache_handle.hpp"
#include "core/hier_topo_lb.hpp"
#include "core/link_refine.hpp"
#include "core/optimal_lb.hpp"
#include "core/recursive_map.hpp"
#include "core/refine_topo_lb.hpp"
#include "core/strategy.hpp"
#include "core/topo_cent_lb.hpp"
#include "core/topo_lb.hpp"
#include "support/error.hpp"

namespace topomap::core {

namespace {

bool consume_suffix(std::string& spec, std::string_view suffix) {
  if (spec.size() > suffix.size() &&
      spec.compare(spec.size() - suffix.size(), suffix.size(), suffix) == 0) {
    spec.resize(spec.size() - suffix.size());
    return true;
  }
  return false;
}

// Every stage of a composition receives the same CacheHandle, so stacked
// strategies ("topolb+refine", warm-started annealing) build the O(p^2)
// distance matrix once per map() call instead of once per stage.
StrategyPtr make_with_handle(const std::string& spec_in,
                             const CacheHandlePtr& cache) {
  std::string spec = spec_in;
  // "hier+refine" must not fall into the generic RefinedStrategy wrapper:
  // refine_mapping requires a one-to-one mapping, and hier accepts n > p.
  // HierTopoLB owns its final refinement stage instead.
  if (spec == "hier")
    return std::make_shared<HierTopoLB>(HierOptions{}, cache);
  if (spec == "hier+refine") {
    HierOptions options;
    options.final_refine = true;
    return std::make_shared<HierTopoLB>(options, cache);
  }
  if (consume_suffix(spec, "+linkrefine"))
    return std::make_shared<LinkRefinedStrategy>(make_with_handle(spec, cache));
  if (consume_suffix(spec, "+refine"))
    return std::make_shared<RefinedStrategy>(make_with_handle(spec, cache),
                                             cache);
  if (spec == "random") return std::make_shared<RandomLB>();
  if (spec == "greedy") return std::make_shared<GreedyLB>();
  if (spec == "topocent") return std::make_shared<TopoCentLB>(cache);
  if (spec == "topolb")
    return std::make_shared<TopoLB>(EstimationOrder::kSecond, cache);
  if (spec == "topolb1")
    return std::make_shared<TopoLB>(EstimationOrder::kFirst, cache);
  if (spec == "topolb3")
    return std::make_shared<TopoLB>(EstimationOrder::kThird, cache);
  if (spec == "recursive") return std::make_shared<RecursiveBisectionLB>();
  // The exact oracle reads its own dense plane and ignores the cache.
  if (spec == "optimal") return std::make_shared<OptimalLB>();
  if (spec == "anneal")
    return std::make_shared<AnnealingLB>(AnnealingOptions{}, cache);
  if (spec == "anneal-warm") {
    AnnealingOptions options;
    options.warm_start =
        std::make_shared<TopoLB>(EstimationOrder::kSecond, cache);
    return std::make_shared<AnnealingLB>(options, cache);
  }
  throw precondition_error("unknown strategy spec: " + spec_in);
}

}  // namespace

StrategyPtr make_strategy(const std::string& spec_in) {
  return make_with_handle(spec_in, std::make_shared<CacheHandle>());
}

StrategyPtr make_strategy_with_handle(const std::string& spec_in,
                                      DistanceMode,
                                      const CacheHandlePtr& handle) {
  TOPOMAP_REQUIRE(handle != nullptr,
                  "make_strategy_with_handle needs a CacheHandle");
  return make_with_handle(spec_in, handle);
}

}  // namespace topomap::core
