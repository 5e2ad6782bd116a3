#include "core/topo_cent_lb.hpp"

#include <limits>
#include <utility>
#include <vector>

#include "core/cache_handle.hpp"
#include "core/distance_provider.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "topo/distance_cache.hpp"

namespace topomap::core {

namespace {

template <class Dist>
Mapping run_topocent(const graph::TaskGraph& g, const Dist& dist) {
  const int n = g.num_vertices();
  Mapping m(static_cast<std::size_t>(n), kUnassigned);
  if (n == 0) return m;
  OBS_SPAN("topocent/map");
  OBS_COUNTER_ADD("topocent/placements", n);

  std::vector<char> task_placed(static_cast<std::size_t>(n), 0);
  std::vector<char> proc_used(static_cast<std::size_t>(n), 0);
  // key[t]: total bytes t exchanges with already-placed tasks.
  std::vector<double> key(static_cast<std::size_t>(n), 0.0);

  // Per-cycle scratch: the selected task's already-placed edges, in CSR
  // order, as (bytes, assigned processor).
  std::vector<std::pair<double, int>> placed_edges;
  placed_edges.reserve(16);

  for (int cycle = 0; cycle < n; ++cycle) {
    // --- task selection ---
    int best_task = -1;
    if (cycle == 0) {
      // Most communicating task overall; ties -> lowest id.
      double best = -1.0;
      for (int t = 0; t < n; ++t) {
        if (g.comm_bytes(t) > best) {
          best = g.comm_bytes(t);
          best_task = t;
        }
      }
    } else {
      // Maximum communication with the placed set; ties -> larger total
      // communication, then lowest id.  Isolated/unconnected tasks (key 0)
      // are picked last, which is exactly what we want.
      double best = -1.0;
      for (int t = 0; t < n; ++t) {
        if (task_placed[static_cast<std::size_t>(t)]) continue;
        const double k = key[static_cast<std::size_t>(t)];
        if (k > best ||
            (k == best && best_task >= 0 &&
             g.comm_bytes(t) > g.comm_bytes(best_task))) {
          best = k;
          best_task = t;
        }
      }
    }
    TOPOMAP_ASSERT(best_task >= 0, "no task selected");

    // --- processor selection: minimise first-order hop-byte cost ---
    // The dominant O(p) x |placed edges| work.  Ascending q with strict `<`
    // keeps the lowest-id processor on ties; each candidate's cost sums in
    // CSR edge order, so cached and virtual distances agree term for term.
    placed_edges.clear();
    for (const graph::Edge& e : g.edges_of(best_task))
      if (task_placed[static_cast<std::size_t>(e.neighbor)])
        placed_edges.emplace_back(e.bytes,
                                  m[static_cast<std::size_t>(e.neighbor)]);

    int best_proc = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    for (int q = 0; q < n; ++q) {
      if (proc_used[static_cast<std::size_t>(q)]) continue;
      const auto row = dist.row(q);
      double cost = 0.0;
      for (const auto& [bytes, pe] : placed_edges) cost += bytes * row[pe];
      if (cost < best_cost) {
        best_cost = cost;
        best_proc = q;
      }
    }
    TOPOMAP_ASSERT(best_proc >= 0, "no free processor");

    // --- commit and update keys ---
    m[static_cast<std::size_t>(best_task)] = best_proc;
    task_placed[static_cast<std::size_t>(best_task)] = 1;
    proc_used[static_cast<std::size_t>(best_proc)] = 1;
    for (const graph::Edge& e : g.edges_of(best_task))
      if (!task_placed[static_cast<std::size_t>(e.neighbor)])
        key[static_cast<std::size_t>(e.neighbor)] += e.bytes;
  }
  return m;
}

}  // namespace

Mapping TopoCentLB::map(const graph::TaskGraph& g, const topo::Topology& topo,
                        Rng& rng) const {
  (void)rng;  // fully deterministic given the tie-breaking rules above
  require_square(g, topo);
  if (g.num_vertices() == 0) return {};
  if (mode_ == DistanceMode::kVirtual)
    return run_topocent(g, detail::VirtualDistance{topo});
  const auto cache = obtain_cache(cache_, topo);
  return run_topocent(g, detail::CachedDistance{*cache});
}

}  // namespace topomap::core
