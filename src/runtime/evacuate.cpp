#include "runtime/evacuate.hpp"

#include <algorithm>
#include <string>

#include "core/fault_aware.hpp"
#include "core/metrics.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "topo/components.hpp"

namespace topomap::rts {

namespace {

/// Hop-bytes incident to `task` if it sat on `proc`, against the current
/// placement (unplaced neighbours contribute nothing).
double incident_cost(const graph::TaskGraph& g,
                     const topo::FaultOverlay& overlay, const core::Mapping& m,
                     int task, int proc) {
  double cost = 0.0;
  for (const graph::Edge& e : g.edges_of(task)) {
    const int q = m[static_cast<std::size_t>(e.neighbor)];
    if (q == core::kUnassigned) continue;
    cost += e.bytes * static_cast<double>(overlay.distance(proc, q));
  }
  return cost;
}

int count_migrations(const core::Mapping& before, const core::Mapping& after) {
  int moved = 0;
  for (std::size_t i = 0; i < before.size(); ++i)
    if (before[i] != after[i]) ++moved;
  return moved;
}

/// Resident-load bookkeeping for the load-aware destination score.  Inert
/// (`active == false`, no allocation) when the load term is off or the
/// overlay has no processor-level links.
struct LoadMap {
  bool active = false;
  std::vector<double> load;  // vertex weight resident on each processor

  void init(const graph::TaskGraph& g, const topo::FaultOverlay& overlay,
            const core::Mapping& m, bool on) {
    active = on;
    if (!active) return;
    load.assign(static_cast<std::size_t>(overlay.size()), 0.0);
    for (int t = 0; t < g.num_vertices(); ++t) {
      const int p = m[static_cast<std::size_t>(t)];
      if (p != core::kUnassigned)
        load[static_cast<std::size_t>(p)] += g.vertex_weight(t);
    }
  }

  void move(const graph::TaskGraph& g, int t, int from, int to) {
    if (!active) return;
    if (from != core::kUnassigned)
      load[static_cast<std::size_t>(from)] -= g.vertex_weight(t);
    if (to != core::kUnassigned)
      load[static_cast<std::size_t>(to)] += g.vertex_weight(t);
  }

  /// Vertex weight resident on p's alive neighbours.
  double neighborhood(const topo::FaultOverlay& overlay, int p) const {
    double sum = 0.0;
    for (const int q : overlay.neighbors(p))
      sum += load[static_cast<std::size_t>(q)];
    return sum;
  }
};

/// Neighbourhood resident-load imbalance (max / mean over alive
/// processors); 1.0 where the notion is undefined.
double neighborhood_imbalance(const graph::TaskGraph& g,
                              const topo::FaultOverlay& overlay,
                              const core::Mapping& m) {
  if (!overlay.has_adjacency()) return 1.0;
  LoadMap loads;
  loads.init(g, overlay, m, true);
  double sum = 0.0;
  double mx = 0.0;
  int alive = 0;
  for (const int p : overlay.alive_procs()) {
    const double l = loads.neighborhood(overlay, p);
    sum += l;
    mx = std::max(mx, l);
    ++alive;
  }
  const double mean = alive > 0 ? sum / static_cast<double>(alive) : 0.0;
  return mean > 0.0 ? mx / mean : 1.0;
}

}  // namespace

EvacuationResult evacuate(const graph::TaskGraph& g,
                          const topo::FaultOverlay& overlay,
                          const core::Mapping& previous,
                          const EvacuateOptions& options) {
  OBS_SPAN("evacuate/run");
  const int n = g.num_vertices();
  TOPOMAP_REQUIRE(static_cast<int>(previous.size()) == n,
                  "evacuate: placement size != task count");
  TOPOMAP_REQUIRE(options.refine_passes >= 0,
                  "evacuate: refine_passes must be >= 0");
  TOPOMAP_REQUIRE(options.load_weight >= 0.0,
                  "evacuate: load_weight must be >= 0");
  TOPOMAP_REQUIRE(n <= overlay.num_alive(),
                  "evacuate: " + std::to_string(n) + " tasks exceed " +
                      std::to_string(overlay.num_alive()) +
                      " alive processors on " + overlay.name());
  // Fail up front with the disconnecting fault named, instead of a bare
  // "disconnected pair" from a distance query halfway through placement.
  const topo::ComponentSplit split = topo::connected_components(overlay);
  TOPOMAP_REQUIRE(!split.partitioned(),
                  "evacuate: cannot evacuate across a network partition — " +
                      topo::describe_partition(overlay, split) +
                      "; restore connectivity first, or remap with "
                      "map_on_largest_component to quarantine the overflow");

  // Validate the previous placement (in-range, injective) and split tasks
  // into survivors and stranded; collect the free alive processors.
  std::vector<char> used(static_cast<std::size_t>(overlay.size()), 0);
  std::vector<int> stranded;
  EvacuationResult result;
  result.mapping.assign(static_cast<std::size_t>(n), core::kUnassigned);
  for (int t = 0; t < n; ++t) {
    const int p = previous[static_cast<std::size_t>(t)];
    TOPOMAP_REQUIRE(p >= 0 && p < overlay.size(),
                    "evacuate: task " + std::to_string(t) +
                        " placed out of range");
    TOPOMAP_REQUIRE(!used[static_cast<std::size_t>(p)],
                    "evacuate: previous placement is not one-to-one");
    used[static_cast<std::size_t>(p)] = 1;
    if (overlay.is_alive(p))
      result.mapping[static_cast<std::size_t>(t)] = p;
    else
      stranded.push_back(t);
  }
  result.stranded = static_cast<int>(stranded.size());

  std::vector<int> free_procs;
  for (int p : overlay.alive_procs())
    if (!used[static_cast<std::size_t>(p)]) free_procs.push_back(p);
  TOPOMAP_REQUIRE(static_cast<int>(free_procs.size()) >= result.stranded,
                  "evacuate: " + std::to_string(result.stranded) +
                      " stranded tasks but only " +
                      std::to_string(free_procs.size()) +
                      " free alive processors");

  // Place stranded tasks heaviest-communicator first: each takes the free
  // processor minimizing the destination score — its byte-weighted distance
  // to placed neighbours, plus (when load_weight > 0 and the topology has
  // links) the neighbourhood-load contention term.
  const bool use_load = options.load_weight > 0.0 && overlay.has_adjacency();
  LoadMap loads;
  loads.init(g, overlay, result.mapping, use_load);
  const auto dest_score = [&](int t, int p) {
    double score = incident_cost(g, overlay, result.mapping, t, p);
    if (use_load)
      score += options.load_weight * g.vertex_weight(t) *
               loads.neighborhood(overlay, p);
    return score;
  };
  std::stable_sort(stranded.begin(), stranded.end(), [&g](int a, int b) {
    return g.comm_bytes(a) > g.comm_bytes(b);
  });
  std::vector<char> free_taken(free_procs.size(), 0);
  for (int t : stranded) {
    int best_i = -1;
    double best_cost = 0.0;
    for (int i = 0; i < static_cast<int>(free_procs.size()); ++i) {
      if (free_taken[static_cast<std::size_t>(i)]) continue;
      const double cost =
          dest_score(t, free_procs[static_cast<std::size_t>(i)]);
      if (best_i < 0 || cost < best_cost) {
        best_i = i;
        best_cost = cost;
      }
    }
    TOPOMAP_ASSERT(best_i >= 0, "no free processor for stranded task");
    free_taken[static_cast<std::size_t>(best_i)] = 1;
    result.mapping[static_cast<std::size_t>(t)] =
        free_procs[static_cast<std::size_t>(best_i)];
    loads.move(g, t, core::kUnassigned,
               free_procs[static_cast<std::size_t>(best_i)]);
  }

  // Bounded refinement: only evacuated tasks move again.  Each sweep gives
  // every stranded task its best strict improvement among (a) relocating to
  // a still-free processor — no extra migration — and (b) swapping with any
  // other task — one extra migration, counted via refine_swaps.  Scores use
  // dest_score, so with load_weight > 0 refinement keeps trading the same
  // hop-bytes + contention objective; the moving task's own weight is
  // lifted out of the load map while its candidates are scored so it never
  // penalizes destinations adjacent to its current seat.
  for (int pass = 0; pass < options.refine_passes; ++pass) {
    bool improved = false;
    for (int t : stranded) {
      const int pt = result.mapping[static_cast<std::size_t>(t)];
      loads.move(g, t, pt, core::kUnassigned);
      const double here = dest_score(t, pt);
      // (a) best free processor.
      int best_free = -1;
      double best_delta = -1e-12;
      for (int i = 0; i < static_cast<int>(free_procs.size()); ++i) {
        if (free_taken[static_cast<std::size_t>(i)]) continue;
        const double delta =
            dest_score(t, free_procs[static_cast<std::size_t>(i)]) - here;
        if (delta < best_delta) {
          best_delta = delta;
          best_free = i;
        }
      }
      // (b) best swap partner.  Deltas exclude the t-u edge itself, whose
      // length is symmetric under the swap; both tasks' weights are lifted
      // out of the load map so each side scores the other's seat cleanly.
      int best_swap = -1;
      for (int u = 0; u < n; ++u) {
        if (u == t) continue;
        const int pu = result.mapping[static_cast<std::size_t>(u)];
        core::Mapping& m = result.mapping;
        m[static_cast<std::size_t>(t)] = core::kUnassigned;
        m[static_cast<std::size_t>(u)] = core::kUnassigned;
        loads.move(g, u, pu, core::kUnassigned);
        const double before = dest_score(t, pt) + dest_score(u, pu);
        const double after = dest_score(t, pu) + dest_score(u, pt);
        loads.move(g, u, core::kUnassigned, pu);
        m[static_cast<std::size_t>(t)] = pt;
        m[static_cast<std::size_t>(u)] = pu;
        const double delta = after - before;
        if (delta < best_delta) {
          best_delta = delta;
          best_swap = u;
          best_free = -1;
        }
      }
      if (best_swap >= 0) {
        loads.move(g, best_swap,
                   result.mapping[static_cast<std::size_t>(best_swap)], pt);
        std::swap(result.mapping[static_cast<std::size_t>(t)],
                  result.mapping[static_cast<std::size_t>(best_swap)]);
        ++result.refine_swaps;
        improved = true;
      } else if (best_free >= 0) {
        // t's old slot opens up; mark it free and take the new one.
        for (int i = 0; i < static_cast<int>(free_procs.size()); ++i)
          if (free_procs[static_cast<std::size_t>(i)] == pt)
            free_taken[static_cast<std::size_t>(i)] = 0;
        free_taken[static_cast<std::size_t>(best_free)] = 1;
        result.mapping[static_cast<std::size_t>(t)] =
            free_procs[static_cast<std::size_t>(best_free)];
        improved = true;
      }
      loads.move(g, t, core::kUnassigned,
                 result.mapping[static_cast<std::size_t>(t)]);
    }
    if (!improved) break;
  }

  result.migrations = count_migrations(previous, result.mapping);
  result.hop_bytes = core::hop_bytes(g, overlay, result.mapping);
  result.load_imbalance = neighborhood_imbalance(g, overlay, result.mapping);
  OBS_COUNTER_ADD("evacuate/calls", 1);
  OBS_COUNTER_ADD("evacuate/stranded", result.stranded);
  OBS_COUNTER_ADD("evacuate/migrations", result.migrations);
  OBS_COUNTER_ADD("evacuate/refine_swaps", result.refine_swaps);
  OBS_HISTOGRAM("evacuate/load_imbalance", result.load_imbalance);
  return result;
}

EvacuationResult evacuate(const graph::TaskGraph& g,
                          const topo::FaultOverlay& overlay,
                          const core::Mapping& previous, int refine_passes) {
  EvacuateOptions options;
  options.refine_passes = refine_passes;
  return evacuate(g, overlay, previous, options);
}

EvacuateComparison compare_evacuate_vs_remap(
    const graph::TaskGraph& g, const topo::FaultOverlay& overlay,
    const core::Mapping& previous, const core::MappingStrategy& strategy,
    Rng& rng, int refine_passes) {
  EvacuateOptions options;
  options.refine_passes = refine_passes;
  return compare_evacuate_vs_remap(g, overlay, previous, strategy, rng,
                                   options);
}

EvacuateComparison compare_evacuate_vs_remap(
    const graph::TaskGraph& g, const topo::FaultOverlay& overlay,
    const core::Mapping& previous, const core::MappingStrategy& strategy,
    Rng& rng, const EvacuateOptions& options) {
  EvacuateComparison cmp;
  cmp.evac = evacuate(g, overlay, previous, options);
  cmp.full_mapping = core::map_on_alive(strategy, g, overlay, rng);
  cmp.full_migrations = 0;
  for (std::size_t i = 0; i < previous.size(); ++i)
    if (previous[i] != cmp.full_mapping[i]) ++cmp.full_migrations;
  cmp.full_hop_bytes = core::hop_bytes(g, overlay, cmp.full_mapping);
  return cmp;
}

}  // namespace topomap::rts
