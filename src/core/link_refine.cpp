#include "core/link_refine.hpp"

#include <algorithm>
#include <vector>

#include "core/detail/route_loads.hpp"
#include "support/error.hpp"
#include "topo/link_index.hpp"

namespace topomap::core {

namespace {

/// Per-link byte loads with an incrementally-maintained L2 norm.
class LinkLoadState {
 public:
  LinkLoadState(const graph::TaskGraph& g, const topo::LinkIndex& links,
                const Mapping& m)
      : links_(links), load_(static_cast<std::size_t>(links.size()), 0.0) {
    detail::route_edges(g, links, m,
                        [&](int, int link, double bytes) { add(link, bytes); });
  }

  /// Move one endpoint of every incident edge of `task` (except the edge
  /// to `exclude`) from `old_proc` to `new_proc`.
  void shift_edges(const graph::TaskGraph& g, const Mapping& m, int task,
                   int exclude, int old_proc, int new_proc) {
    for (const graph::Edge& e : g.edges_of(task)) {
      if (e.neighbor == exclude) continue;
      const int pj = m[static_cast<std::size_t>(e.neighbor)];
      add_route(old_proc, pj, -e.bytes / 2.0);
      add_route(pj, old_proc, -e.bytes / 2.0);
      add_route(new_proc, pj, e.bytes / 2.0);
      add_route(pj, new_proc, e.bytes / 2.0);
    }
  }

  double l2() const { return l2_; }

  double max_load() const {
    double mx = 0.0;
    for (const double bytes : load_) mx = std::max(mx, bytes);
    return mx;
  }

 private:
  void add(int link, double bytes) {
    double& slot = load_[static_cast<std::size_t>(link)];
    const double old = slot;
    slot += bytes;
    l2_ += slot * slot - old * old;
  }

  void add_route(int from, int to, double bytes) {
    links_.walk(from, to, [&](int link) { add(link, bytes); });
  }

  const topo::LinkIndex& links_;
  std::vector<double> load_;
  double l2_ = 0.0;
};

}  // namespace

LinkRefineResult refine_link_load(const graph::TaskGraph& g,
                                  const topo::Topology& topo,
                                  const Mapping& m, int max_passes) {
  TOPOMAP_REQUIRE(max_passes >= 1, "need at least one sweep");
  TOPOMAP_REQUIRE(is_one_to_one(m, topo),
                  "link refiner needs a one-to-one mapping");
  TOPOMAP_REQUIRE(static_cast<int>(m.size()) == g.num_vertices(),
                  "mapping size mismatch");

  LinkRefineResult result;
  result.mapping = m;
  const topo::LinkIndex links(topo);
  LinkLoadState state(g, links, result.mapping);
  result.l2_before = state.l2();
  result.max_before = state.max_load();
  const int n = g.num_vertices();

  for (int pass = 0; pass < max_passes; ++pass) {
    ++result.passes;
    bool improved = false;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        // Only swaps touching at least one communicating task can help.
        if (g.degree(a) == 0 && g.degree(b) == 0) continue;
        Mapping& map = result.mapping;
        const int pa = map[static_cast<std::size_t>(a)];
        const int pb = map[static_cast<std::size_t>(b)];
        const double before = state.l2();
        state.shift_edges(g, map, a, b, pa, pb);
        state.shift_edges(g, map, b, a, pb, pa);
        if (state.l2() < before - 1e-6) {
          std::swap(map[static_cast<std::size_t>(a)],
                    map[static_cast<std::size_t>(b)]);
          ++result.swaps;
          improved = true;
        } else {
          state.shift_edges(g, map, a, b, pb, pa);  // revert
          state.shift_edges(g, map, b, a, pa, pb);
        }
      }
    }
    if (!improved) break;
  }
  // Recompute the final norm from scratch: the accept/revert cycles above
  // leave tiny floating-point drift in the incremental accumulator.
  const LinkLoadState final_state(g, links, result.mapping);
  result.l2_after = final_state.l2();
  result.max_after = final_state.max_load();
  TOPOMAP_ASSERT(result.l2_after <=
                     result.l2_before * (1.0 + 1e-9) + 1e-9,
                 "link refinement must not increase the L2 norm");
  return result;
}

LinkRefinedStrategy::LinkRefinedStrategy(StrategyPtr base)
    : base_(std::move(base)) {
  TOPOMAP_REQUIRE(base_ != nullptr, "base strategy is null");
}

Mapping LinkRefinedStrategy::map(const graph::TaskGraph& g,
                                 const topo::Topology& topo, Rng& rng) const {
  const Mapping base = base_->map(g, topo, rng);
  return refine_link_load(g, topo, base, kMaxPasses).mapping;
}

std::string LinkRefinedStrategy::name() const {
  return base_->name() + "+LinkRefine";
}

}  // namespace topomap::core
