#include "runtime/dynamic_lb.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/metrics.hpp"
#include "core/refine_topo_lb.hpp"
#include "core/validate.hpp"
#include "graph/quotient.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "topo/components.hpp"
#include "topo/distance_cache.hpp"
#include "topo/fault_overlay.hpp"
#include "topo/sub_topology.hpp"

namespace topomap::rts {

namespace {

/// Multiplicatively perturb loads and edge bytes.
graph::TaskGraph drift(const graph::TaskGraph& g, double load_drift,
                       double comm_drift, Rng& rng) {
  graph::TaskGraph::Builder b(g.label());
  for (int v = 0; v < g.num_vertices(); ++v)
    b.add_vertex(g.vertex_weight(v) *
                 rng.uniform_double(1.0 - load_drift, 1.0 + load_drift));
  for (const graph::UndirectedEdge& e : g.edges())
    b.add_edge(e.a, e.b,
               e.bytes *
                   rng.uniform_double(1.0 - comm_drift, 1.0 + comm_drift));
  return std::move(b).build();
}

int count_migrations(const std::vector<int>& before,
                     const std::vector<int>& after) {
  TOPOMAP_ASSERT(before.size() == after.size(), "placement size changed");
  int moved = 0;
  for (std::size_t i = 0; i < before.size(); ++i)
    if (before[i] != after[i]) ++moved;
  return moved;
}

bool is_link_event(EventKind k) {
  return k == EventKind::kLinkFail || k == EventKind::kLinkRestore ||
         k == EventKind::kLinkDegrade || k == EventKind::kLinkRestoreHealth;
}

void check_event(const Event& ev, int epochs, const topo::Topology& topo) {
  TOPOMAP_REQUIRE(ev.epoch >= 0 && ev.epoch < epochs,
                  "event epoch out of range");
  TOPOMAP_REQUIRE(ev.a >= 0 && ev.a < topo.size(),
                  "event processor out of range");
  if (is_link_event(ev.kind)) {
    TOPOMAP_REQUIRE(ev.b >= 0 && ev.b < topo.size(),
                    "event processor out of range");
    TOPOMAP_REQUIRE(ev.a != ev.b, "link event needs two distinct endpoints");
    TOPOMAP_REQUIRE(topo.has_adjacency(),
                    "link events need a routed topology (" + topo.name() +
                        " has no processor-level links)");
  }
  if (ev.kind == EventKind::kLinkDegrade)
    TOPOMAP_REQUIRE(ev.health > 0.0 && ev.health <= 1.0,
                    "degrade health must be in (0, 1]");
}

}  // namespace

EventOutcome apply_event(topo::FaultOverlay& overlay,
                         topo::DistanceCache* plane, const Event& ev) {
  EventOutcome out;
  const int a = ev.a;
  const int b = ev.b;
  switch (ev.kind) {
    case EventKind::kNodeFail: {
      if (overlay.node_failed(a)) return out;  // idempotent
      overlay.fail_node(a);
      if (plane != nullptr)
        out.rows_repaired = plane->repair_node_failure(overlay, a);
      break;
    }
    case EventKind::kNodeRestore: {
      if (!overlay.node_failed(a)) return out;  // idempotent
      overlay.restore_node(a);
      if (plane != nullptr)
        out.rows_repaired = plane->repair_node_restore(overlay, a);
      break;
    }
    case EventKind::kLinkFail: {
      if (overlay.link_failed(a, b)) return out;  // idempotent
      const int prev = overlay.fail_link(a, b);
      // A dead endpoint makes the link inert already: no distance changes.
      if (plane != nullptr && overlay.is_alive(a) && overlay.is_alive(b))
        out.rows_repaired = plane->repair_link_failure(overlay, a, b, prev);
      break;
    }
    case EventKind::kLinkRestore: {
      if (!overlay.link_failed(a, b)) return out;  // idempotent
      const int cost = overlay.restore_link(a, b);
      if (plane != nullptr && overlay.is_alive(a) && overlay.is_alive(b))
        out.rows_repaired = plane->repair_link_restore(overlay, a, b, cost);
      break;
    }
    case EventKind::kLinkDegrade:
    case EventKind::kLinkRestoreHealth: {
      const double health =
          ev.kind == EventKind::kLinkRestoreHealth ? 1.0 : ev.health;
      if (!ev.strict && (overlay.link_failed(a, b) || !overlay.is_alive(a) ||
                         !overlay.is_alive(b)))
        return out;  // the repair crew found the link hard-dead: skip
      if (overlay.link_health(a, b) == health) return out;  // idempotent
      const int prev = overlay.degrade_link(a, b, health);
      if (plane != nullptr)
        out.rows_repaired = plane->repair_link_degrade(overlay, a, b, prev);
      break;
    }
  }
  out.applied = true;
  return out;
}

DynamicLBRun run_dynamic_lb(const graph::TaskGraph& initial,
                            const topo::Topology& topo,
                            const DynamicLBConfig& config, Rng& rng) {
  TOPOMAP_REQUIRE(config.epochs >= 1, "need at least one epoch");
  TOPOMAP_REQUIRE(config.load_drift >= 0.0 && config.load_drift < 1.0,
                  "load_drift must be in [0,1)");
  TOPOMAP_REQUIRE(config.comm_drift >= 0.0 && config.comm_drift < 1.0,
                  "comm_drift must be in [0,1)");
  TOPOMAP_REQUIRE(config.pipeline.mapper != nullptr, "pipeline needs a mapper");
  bool can_shrink = false;
  for (const Event& ev : config.events) {
    check_event(ev, config.epochs, topo);
    if (ev.kind == EventKind::kNodeFail || ev.kind == EventKind::kLinkFail)
      can_shrink = true;
  }
  TOPOMAP_REQUIRE(!can_shrink || config.pipeline.partitioner != nullptr,
                  "fault events can shrink or split the machine: the "
                  "pipeline needs a partitioner");

  // Fault-free runs skip the resilience machinery: no overlay queries,
  // no plane, no component scans, no validation.
  const bool resilient = !config.events.empty();

  DynamicLBRun run;
  graph::TaskGraph current = initial;
  std::vector<int> prev_placement;

  // Incremental state: grouping and group mapping carried across epochs.
  // square_* covers the whole machine, compact_* the active-on-primary
  // remap; each invalidates the other when its path runs.
  std::vector<int> groups;
  core::Mapping group_mapping;
  bool square_valid = false;
  bool compact_valid = false;

  // Fault state.  The overlay decorates the caller's topology (non-owning
  // view; both live for this call only); alive_view is the compact primary
  // subset every post-fault mapping runs on, rebuilt after each event.
  const auto overlay = std::make_shared<topo::FaultOverlay>(
      topo::TopologyPtr(topo::TopologyPtr{}, &topo));
  std::shared_ptr<const topo::SubTopology> alive_view;
  // Compact group mapping (group -> alive_view processor), the post-fault
  // counterpart of group_mapping.
  core::Mapping compact_mapping;

  // The runtime-owned distance plane, repaired incrementally per event and
  // cross-checked by validate_state (skipped above the dense-matrix cap).
  std::unique_ptr<topo::DistanceCache> plane;
  if (resilient && topo.size() <= 20000)
    plane = std::make_unique<topo::DistanceCache>(*overlay);

  topo::ComponentSplit split;
  if (resilient) split = topo::connected_components(*overlay);

  const int n = initial.num_vertices();
  std::vector<char> qflags(static_cast<std::size_t>(n), 0);
  std::vector<int> active_ids;  // ascending; filled only while quarantining
  int quarantined_count = 0;

  core::ValidateOptions vopts;
  vopts.plane_rows = config.resilience.plane_rows;
  vopts.check_attribution = config.resilience.check_attribution;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    OBS_SPAN("dynamic_lb/epoch");
    OBS_COUNTER_ADD("dynamic_lb/epochs", 1);
    if (epoch > 0)
      current = drift(current, config.load_drift, config.comm_drift, rng);

    DynamicEpochStats stats;
    stats.epoch = epoch;

    // --- apply this epoch's events, repairing the plane as we go ---
    bool state_changed = false;
    for (const Event& ev : config.events) {
      if (ev.epoch != epoch) continue;
      const bool skip_repair =
          plane != nullptr &&
          std::find(config.resilience.skip_repairs.begin(),
                    config.resilience.skip_repairs.end(),
                    run.events_applied) != config.resilience.skip_repairs.end();
      const EventOutcome out =
          apply_event(*overlay, skip_repair ? nullptr : plane.get(), ev);
      if (out.applied) {
        state_changed = true;
        ++run.events_applied;
        ++stats.events_applied;
        stats.plane_rows_repaired += out.rows_repaired;
        if (skip_repair) OBS_COUNTER_ADD("dynamic_lb/repairs_skipped", 1);
      } else {
        ++run.events_skipped;
        ++stats.events_skipped;
        OBS_COUNTER_ADD("dynamic_lb/events_skipped", 1);
      }
    }
    const int alive = overlay->num_alive();
    TOPOMAP_REQUIRE(alive >= 1, "every processor has failed");
    stats.alive_procs = alive;

    // --- self-validation of the repaired plane (repair-or-rebuild) ---
    if (plane != nullptr && config.resilience.validate && state_changed) {
      core::SystemState pstate;
      pstate.graph = &current;
      pstate.overlay = overlay.get();
      pstate.plane = plane.get();
      core::ValidationReport rep = core::validate_state(pstate, vopts);
      if (!rep.ok()) {
        run.violations += static_cast<int>(rep.violations.size());
        OBS_COUNTER_ADD("dynamic_lb/plane_rebuilds", 1);
        plane->rebuild(*overlay);
        ++run.plane_rebuilds;
        stats.plane_rebuilt = true;
        rep = core::validate_state(pstate, vopts);
        TOPOMAP_ASSERT(rep.ok(),
                       "distance plane still invalid after a full rebuild: " +
                           rep.summary());
      }
    }

    // --- partition bookkeeping: quarantine across minority components ---
    if (resilient && state_changed) {
      split = topo::connected_components(*overlay);
      qflags.assign(static_cast<std::size_t>(n), 0);
      active_ids.clear();
      quarantined_count = 0;
      if (split.partitioned() && !prev_placement.empty()) {
        std::vector<char> in_primary(static_cast<std::size_t>(topo.size()), 0);
        for (int p : split.primary())
          in_primary[static_cast<std::size_t>(p)] = 1;
        for (int t = 0; t < n; ++t) {
          const int p = prev_placement[static_cast<std::size_t>(t)];
          // Frozen in place: resident on an alive minority processor.
          // Stranded tasks (dead processor) stay active and get remapped.
          if (p != core::kUnassigned && overlay->is_alive(p) &&
              in_primary[static_cast<std::size_t>(p)] == 0) {
            qflags[static_cast<std::size_t>(t)] = 1;
            ++quarantined_count;
          }
        }
      }
      if (quarantined_count > 0)
        for (int t = 0; t < n; ++t)
          if (qflags[static_cast<std::size_t>(t)] == 0) active_ids.push_back(t);
    }
    stats.components = resilient ? split.count() : 1;
    stats.quarantined = quarantined_count;
    if (stats.components > 1) ++run.partitioned_epochs;
    run.max_quarantined = std::max(run.max_quarantined, quarantined_count);
    TOPOMAP_REQUIRE(
        quarantined_count < n,
        "network partition stranded every object on minority components");

    // --- placement ---
    std::vector<int> placement;
    // Grouping context handed to validate_state for this epoch.
    const std::vector<int>* v_active = nullptr;
    core::Mapping v_group_to_proc;

    const bool compact =
        overlay->num_failed_nodes() > 0 || (resilient && split.partitioned());

    // Shrunken or split machine: group the active objects into
    // primary-many parts and map onto the compact primary subset.  Scratch
    // (and any epoch whose machine changed) rebuilds grouping and mapping;
    // later incremental epochs keep both and refine the compact mapping.
    auto place_compact = [&](bool force_regroup) {
      const std::vector<int>& primary = split.primary();
      const int slots = static_cast<int>(primary.size());
      if (state_changed || alive_view == nullptr)
        alive_view = std::make_shared<const topo::SubTopology>(
            topo::TopologyPtr(topo::TopologyPtr{}, overlay.get()), primary);

      graph::Subgraph sub;
      const bool use_sub = quarantined_count > 0;
      if (use_sub) sub = graph::induced_subgraph(current, active_ids);
      const graph::TaskGraph& active = use_sub ? sub.graph : current;
      const int active_n = active.num_vertices();
      const int k = std::min(active_n, slots);

      if (config.policy == RemapPolicy::kScratch || state_changed ||
          !compact_valid || force_regroup) {
        groups = config.pipeline.partitioner->partition(active, k, rng)
                     .assignment;
        const graph::TaskGraph quotient =
            graph::quotient_graph(active, groups, slots);
        compact_mapping = config.pipeline.mapper->map(quotient, *alive_view,
                                                      rng);
        if (config.pipeline.refine_passes > 0) {
          compact_mapping =
              core::refine_mapping(quotient, *alive_view, compact_mapping,
                                   config.pipeline.refine_passes)
                  .mapping;
        }
        stats.hops_per_byte =
            core::hops_per_byte(quotient, *alive_view, compact_mapping) /
            static_cast<double>(alive_view->distance_scale());
      } else {
        const graph::TaskGraph quotient =
            graph::quotient_graph(active, groups, slots);
        compact_mapping = core::refine_mapping(quotient, *alive_view,
                                               compact_mapping,
                                               config.refine_passes)
                              .mapping;
        stats.hops_per_byte =
            core::hops_per_byte(quotient, *alive_view, compact_mapping) /
            static_cast<double>(alive_view->distance_scale());
      }
      compact_valid = true;
      square_valid = false;
      stats.load_imbalance = part::load_imbalance(active, groups, slots);

      if (use_sub) {
        placement = prev_placement;  // quarantined objects stay frozen
        for (std::size_t i = 0; i < active_ids.size(); ++i)
          placement[static_cast<std::size_t>(active_ids[i])] =
              alive_view->node_of(
                  compact_mapping[static_cast<std::size_t>(groups[i])]);
        v_active = &active_ids;
      } else {
        placement.resize(static_cast<std::size_t>(current.num_vertices()));
        for (int obj = 0; obj < current.num_vertices(); ++obj)
          placement[static_cast<std::size_t>(obj)] =
              alive_view->node_of(compact_mapping[static_cast<std::size_t>(
                  groups[static_cast<std::size_t>(obj)])]);
        v_active = nullptr;
      }
      v_group_to_proc.resize(static_cast<std::size_t>(slots));
      for (int gidx = 0; gidx < slots; ++gidx)
        v_group_to_proc[static_cast<std::size_t>(gidx)] = alive_view->node_of(
            compact_mapping[static_cast<std::size_t>(gidx)]);
    };

    // Whole machine alive and connected: the two-phase pipeline on the
    // (possibly link-faulted) overlay, or on the pristine base.
    auto place_square = [&](bool force_scratch) {
      const topo::Topology& machine =
          overlay->has_faults() ? static_cast<const topo::Topology&>(*overlay)
                                : topo;
      if (config.policy == RemapPolicy::kScratch || epoch == 0 ||
          !square_valid || force_scratch) {
        const PipelineResult out =
            run_two_phase(current, machine, config.pipeline, rng);
        placement = out.object_to_proc;
        stats.hops_per_byte =
            out.hops_per_byte / static_cast<double>(machine.distance_scale());
        stats.load_imbalance = out.load_imbalance;
        groups = out.group_of_object;
        group_mapping = out.group_mapping;
      } else {
        // Incremental: fixed grouping, refine last epoch's group mapping on
        // the drifted quotient graph.
        const graph::TaskGraph quotient =
            current.num_vertices() == topo.size()
                ? current
                : graph::quotient_graph(current, groups, topo.size());
        group_mapping = core::refine_mapping(quotient, machine, group_mapping,
                                             config.refine_passes)
                            .mapping;
        placement.resize(static_cast<std::size_t>(current.num_vertices()));
        for (int obj = 0; obj < current.num_vertices(); ++obj)
          placement[static_cast<std::size_t>(obj)] =
              group_mapping[static_cast<std::size_t>(
                  groups[static_cast<std::size_t>(obj)])];
        stats.hops_per_byte =
            core::hops_per_byte(quotient, machine, group_mapping) /
            static_cast<double>(machine.distance_scale());
        stats.load_imbalance =
            part::load_imbalance(current, groups, topo.size());
      }
      square_valid = true;
      compact_valid = false;
      v_active = nullptr;
      v_group_to_proc = group_mapping;
    };

    if (compact)
      place_compact(false);
    else
      place_square(false);

    // --- self-validation of the full system state ---
    if (resilient && config.resilience.validate) {
      core::SystemState st;
      st.graph = &current;
      st.overlay = overlay.get();
      st.placement = &placement;
      st.quarantined = &qflags;
      st.groups = &groups;
      st.active_tasks = v_active;
      st.group_mapping = &v_group_to_proc;
      // The plane was already cross-checked right after the events.
      core::ValidationReport rep = core::validate_state(st, vopts);
      if (!rep.ok()) {
        run.violations += static_cast<int>(rep.violations.size());
        OBS_COUNTER_ADD("dynamic_lb/placement_rebuilds", 1);
        if (plane != nullptr) {
          plane->rebuild(*overlay);
          ++run.plane_rebuilds;
          stats.plane_rebuilt = true;
        }
        if (compact)
          place_compact(true);
        else
          place_square(true);
        rep = core::validate_state(st, vopts);
        TOPOMAP_ASSERT(rep.ok(),
                       "system state still invalid after a from-scratch "
                       "remap: " +
                           rep.summary());
      }
    }

    stats.migrations =
        prev_placement.empty() ? 0
                               : count_migrations(prev_placement, placement);
    OBS_COUNTER_ADD("dynamic_lb/migrations", stats.migrations);
    OBS_HISTOGRAM("dynamic_lb/epoch_migrations", stats.migrations);
    OBS_SERIES_APPEND("dynamic_lb/hops_per_byte", stats.hops_per_byte);
    prev_placement = std::move(placement);
    run.history.push_back(stats);
  }
  run.final_placement = std::move(prev_placement);
  run.final_quarantined = std::move(qflags);
  return run;
}

}  // namespace topomap::rts
