#include "ops/ops.hpp"

#include <sstream>
#include <utility>

#include "core/cache_handle.hpp"
#include "core/fault_aware.hpp"
#include "graph/factory.hpp"
#include "graph/quotient.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topo/components.hpp"
#include "topo/factory.hpp"

namespace topomap::ops {

namespace {

/// Square strategies need one task per processor on a healthy machine
/// (faulted machines pad to the alive count in core::map_on_alive).
void require_fits(const graph::TaskGraph& g, const Machine& machine,
                  const core::MappingStrategy& strategy) {
  if (machine.overlay) return;
  const int n = g.num_vertices();
  const int p = machine.base->size();
  if (n != p && !(strategy.supports_oversubscription() && n > p))
    throw usage_error("workload has " + std::to_string(n) +
                      " tasks but the machine has " + std::to_string(p) +
                      " processors; use `topomap pipeline` or strategy "
                      "`hier` when tasks > procs");
}

/// The alive processors of a faulted machine, or the whole healthy one.
core::Mapping map_onto(const core::MappingStrategy& strategy,
                       const graph::TaskGraph& g, const Machine& machine,
                       Rng& rng) {
  if (machine.overlay)
    return core::map_on_alive(strategy, g, *machine.overlay, rng);
  return strategy.map(g, *machine.base, rng);
}

/// The machine's distance plane when it covers the whole machine, else null.
const topo::DistanceCache* usable_plane(const Machine& machine) {
  return machine.plane && machine.plane->size() == machine.machine().size()
             ? machine.plane.get()
             : nullptr;
}

/// A plane's per-row means summed in row order, divided by its size: the
/// arithmetic of FaultOverlay::mean_pairwise_distance over a connected
/// alive set, so a plane of exactly that set gives its double without a
/// search.
double mean_of_row_means(const topo::DistanceCache& plane) {
  double total = 0.0;
  for (int p = 0; p < plane.size(); ++p) total += plane.mean_distance_from(p);
  return total / static_cast<double>(plane.size());
}

/// A fresh CacheHandle seeded with the machine's plane, if it has one.
core::CacheHandlePtr pooled_handle(const Machine& machine) {
  auto handle = std::make_shared<core::CacheHandle>();
  if (usable_plane(machine)) handle->seed(machine.machine(), machine.plane);
  return handle;
}

}  // namespace

topo::FaultSpec Params::fault_spec() const {
  return topo::parse_fault_spec(fail_link, fail_node, degrade_link,
                                random_link_faults, random_node_faults,
                                random_degrades, fault_seed, restore_node,
                                restore_link);
}

std::shared_ptr<Machine> make_machine(const std::string& topology,
                        const topo::FaultSpec& faults) {
  auto machine = std::make_shared<Machine>();
  machine->base = topo::make_topology(topology);
  machine->overlay = topo::build_fault_overlay(machine->base, faults);
  return machine;
}

core::StrategyPtr make_pooled_strategy(const std::string& spec,
                                       const Machine& machine) {
  return core::make_strategy_with_handle(spec, core::DistanceMode::kCached,
                                         pooled_handle(machine));
}

Metrics measure(const graph::TaskGraph& g, const Machine& machine,
                const core::Mapping& m) {
  Metrics metrics;
  {
    OBS_SPAN("ops/hop_bytes");
    // Bit-identical either way; the plane spares a faulted machine one
    // shortest-path search per edge.
    const topo::DistanceCache* plane = usable_plane(machine);
    metrics.hop_bytes = plane ? core::hop_bytes(g, *plane, m)
                              : core::hop_bytes(g, machine.machine(), m);
    const double bytes = g.total_comm_bytes();
    metrics.hops_per_byte = bytes > 0.0 ? metrics.hop_bytes / bytes : 0.0;
  }
  OBS_SPAN("ops/link_loads");
  try {
    metrics.link_loads = core::link_loads(g, machine.machine(), m);
  } catch (const precondition_error&) {
    // No processor-level routes (fattree): link loads are undefined.
  }
  return metrics;
}

std::string mapping_text(const core::Mapping& m) {
  OBS_SPAN("ops/mapping_text");
  std::ostringstream os;
  for (std::size_t t = 0; t < m.size(); ++t)
    if (m[t] != core::kUnassigned) os << t << ' ' << m[t] << '\n';
  return os.str();
}

MapResult run_map(const Params& p, const MachineSource& source) {
  MapResult r;
  Rng rng(p.seed);
  {
    OBS_SPAN("ops/make_task_graph");
    r.graph = graph::make_task_graph(p.tasks, rng);
  }
  {
    OBS_SPAN("ops/acquire_machine");
    r.machine = source(p.topology, p.fault_spec());
  }
  const graph::TaskGraph& g = r.graph;
  const Machine& machine = *r.machine;
  {
    OBS_SPAN("ops/strategy_map");
    const core::CacheHandlePtr handle = pooled_handle(machine);
    const core::StrategyPtr strategy = core::make_strategy_with_handle(
        p.strategy, core::DistanceMode::kCached, handle);
    r.strategy = strategy->name();
    const topo::ComponentSplit split =
        machine.overlay ? topo::connected_components(*machine.overlay)
                        : topo::ComponentSplit{};
    if (split.partitioned() &&
        g.num_vertices() > static_cast<int>(split.primary().size())) {
      core::PartitionedMapResult pr =
          core::map_on_largest_component(*strategy, g, *machine.overlay, rng);
      r.mapping = std::move(pr.mapping);
      r.quarantined = std::move(pr.quarantined);
      r.partition_note = topo::describe_partition(*machine.overlay, split);
    } else {
      require_fits(g, machine, *strategy);
      r.mapping = map_onto(*strategy, g, machine, rng);
    }
    // A strategy that filled the plane of the whole alive set (connected,
    // so SubTopology accepted it) holds that set's per-row means.
    if (machine.overlay && machine.overlay->has_faults())
      if (const auto plane = handle->sub_plane_of(*machine.overlay);
          plane && plane->size() == machine.overlay->num_alive())
        r.random_expectation = mean_of_row_means(*plane);
  }

  if (r.quarantined.empty()) {
    r.metrics = measure(g, machine, r.mapping);
  } else {
    std::vector<int> placed;
    core::Mapping placed_mapping;
    for (int t = 0; t < g.num_vertices(); ++t) {
      const int proc = r.mapping[static_cast<std::size_t>(t)];
      if (proc == core::kUnassigned) continue;
      placed.push_back(t);
      placed_mapping.push_back(proc);
    }
    r.metrics = measure(graph::induced_subgraph(g, placed).graph, machine,
                        placed_mapping);
  }
  return r;
}

ExplainResult run_explain(const Params& p, const MachineSource& source) {
  ExplainResult r;
  Rng rng(p.seed);
  r.graph = graph::make_task_graph(p.tasks, rng);
  r.machine = source(p.topology, p.fault_spec());
  const graph::TaskGraph& g = r.graph;
  const Machine& machine = *r.machine;
  const core::StrategyPtr strategy = make_pooled_strategy(p.strategy, machine);
  r.strategy = strategy->name();

  if (p.baseline_blind && p.baseline.empty())
    throw usage_error("--baseline-blind needs --baseline=<strategy>");
  if (p.baseline_blind && machine.overlay &&
      (machine.overlay->num_failed_nodes() > 0 ||
       machine.overlay->num_failed_links() > 0))
    throw usage_error(
        "--baseline-blind supports soft faults only (a blind mapping may "
        "land on failed processors)");

  require_fits(g, machine, *strategy);
  r.mapping = map_onto(*strategy, g, machine, rng);
  core::Mapping baseline_mapping;
  if (!p.baseline.empty()) {
    const core::StrategyPtr baseline =
        make_pooled_strategy(p.baseline, machine);
    // Blind (or no faults): mapped on the pristine machine, evaluated on
    // the actual one.
    const topo::FaultOverlay pristine(machine.base);
    Rng baseline_rng(p.seed);
    baseline_mapping = core::map_on_alive(
        *baseline, g,
        machine.overlay && !p.baseline_blind ? *machine.overlay : pristine,
        baseline_rng);
  }

  try {
    r.attribution = core::attribute_link_loads(g, machine.machine(), r.mapping);
  } catch (const precondition_error& e) {
    throw usage_error(
        std::string(
            "this machine has no processor-level routes to attribute (") +
        e.what() + ")");
  }
  r.hop_bytes = core::hop_bytes(g, machine.machine(), r.mapping);
  if (!p.baseline.empty()) {
    ExplainResult::Baseline b;
    b.attribution =
        core::attribute_link_loads(g, machine.machine(), baseline_mapping);
    b.diff = core::diff_contention(b.attribution, r.attribution);
    r.baseline = std::move(b);
  }
  return r;
}

double EvacuateResult::hop_bytes_ratio() const {
  return comparison.full_hop_bytes > 0.0
             ? comparison.evac.hop_bytes / comparison.full_hop_bytes
             : 1.0;
}

EvacuateResult run_evacuate(const Params& p, const MachineSource& source) {
  const topo::FaultSpec faults = p.fault_spec();
  if (faults.empty())
    throw usage_error(
        "evacuate needs at least one fault (--fail-link/--fail-node/"
        "--degrade-link/--random-*)");
  EvacuateResult r;
  Rng rng(p.seed);
  r.graph = graph::make_task_graph(p.tasks, rng);
  r.machine = source(p.topology, faults);
  const graph::TaskGraph& g = r.graph;
  const Machine& machine = *r.machine;
  const core::StrategyPtr strategy = make_pooled_strategy(p.strategy, machine);
  r.strategy = strategy->name();

  // Map on the healthy machine first: the faults strike a running job.
  const topo::FaultOverlay healthy(machine.base);
  rts::EvacuateOptions options;
  options.refine_passes = p.refine_passes;
  options.load_weight = p.load_weight;
  const core::Mapping before = core::map_on_alive(*strategy, g, healthy, rng);
  r.hop_bytes_before = core::hop_bytes(g, *machine.base, before);
  r.comparison = rts::compare_evacuate_vs_remap(g, *machine.overlay, before,
                                                *strategy, rng, options);
  return r;
}

OptimalResult run_optimal(const Params& p, const MachineSource& source) {
  OptimalResult r;
  Rng rng(p.seed);
  r.graph = graph::make_task_graph(p.tasks, rng);
  r.machine = source(p.topology, p.fault_spec());
  const graph::TaskGraph& g = r.graph;

  core::OptimalOptions options;
  options.node_budget = p.budget;
  options.symmetry = !p.no_symmetry;
  r.search = core::find_optimal_mapping(g, r.machine->machine(), options);
  if (!p.compare.empty()) {
    const core::StrategyPtr strategy =
        make_pooled_strategy(p.compare, *r.machine);
    Rng compare_rng(p.seed);
    const core::Mapping m = map_onto(*strategy, g, *r.machine, compare_rng);
    OptimalResult::Compare c;
    c.strategy = strategy->name();
    c.hop_bytes = core::hop_bytes(g, r.machine->machine(), m);
    if (r.search.hop_bytes > 0.0) c.gap = c.hop_bytes / r.search.hop_bytes;
    r.compare = c;
  }
  return r;
}

}  // namespace topomap::ops
