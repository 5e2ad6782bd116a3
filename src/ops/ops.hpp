// ops:: — the command core behind `topomap map/explain/evacuate/optimal`
// and the topomapd request kinds of the same names.  Each run_* takes the
// typed Params (svc::Request derives from it; the CLI fills it from its
// flags) plus a MachineSource, and returns a typed result that the CLI
// renders as text and svc::Service as JSON.  Served bytes equal one-shot
// bytes because both front ends run this code.
//
// Determinism: each run_* draws from its own Rng(seed) — task graph first,
// then the mapping — and a second strategy (explain's baseline, optimal's
// compare) restarts from a fresh Rng(seed).  The machine is requested only
// after the task graph is built.
//
// Errors: malformed specs throw precondition_error; requests that do not
// apply to the machine (a square strategy on a mismatched task count,
// evacuate without a fault, a blind baseline on hard faults, attribution
// without routes) throw topomap::usage_error, exit code 1 on both paths.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/contention.hpp"
#include "core/mapping.hpp"
#include "core/metrics.hpp"
#include "core/optimal_lb.hpp"
#include "core/strategy.hpp"
#include "graph/task_graph.hpp"
#include "runtime/evacuate.hpp"
#include "topo/distance_cache.hpp"
#include "topo/fault_overlay.hpp"
#include "topo/fault_spec.hpp"
#include "topo/topology.hpp"

namespace topomap::ops {

/// One command's parameters.  Defaults are `topomap map`'s CLI defaults;
/// fields a command does not use are ignored by it.
struct Params {
  std::string tasks = "stencil2d:8x8";
  std::string topology = "torus:8x8";
  std::string strategy = "topolb";
  std::uint64_t seed = 1;

  // explain
  std::string baseline;
  bool baseline_blind = false;
  int top_k = 3;

  // evacuate
  int refine_passes = 1;
  double load_weight = 0.0;

  // optimal
  std::int64_t budget = 20000000;
  std::string compare = "topolb";
  bool no_symmetry = false;

  // Fault flag family, verbatim CLI strings/counts (topo::parse_fault_spec).
  std::string fail_link;
  std::string fail_node;
  std::string degrade_link;
  std::string restore_node;
  std::string restore_link;
  std::int64_t random_link_faults = 0;
  std::int64_t random_node_faults = 0;
  std::int64_t random_degrades = 0;
  std::uint64_t fault_seed = 42;

  /// The parsed fault request; throws precondition_error on malformed
  /// entries.
  topo::FaultSpec fault_spec() const;
};

/// A machine view: base topology, optional fault overlay, and optional
/// distance plane over whichever of the two is the machine.  With a null
/// plane strategies build their own (the CLI, or a pooled machine above
/// the dense-plane cap).
struct Machine {
  topo::TopologyPtr base;
  std::shared_ptr<topo::FaultOverlay> overlay;  // null when no faults
  std::shared_ptr<const topo::DistanceCache> plane;

  const topo::Topology& machine() const { return overlay ? *overlay : *base; }
};

using MachinePtr = std::shared_ptr<const Machine>;

/// Where a command's machine comes from: make_machine for the one-shot
/// CLI, the distance-plane pool for topomapd.
using MachineSource = std::function<MachinePtr(const std::string& topology,
                                               const topo::FaultSpec& faults)>;

/// The plane-less machine for (topology spec, faults); the overlay exists
/// only when `faults` is non-empty.  Mutable so a pool can add the plane.
std::shared_ptr<Machine> make_machine(const std::string& topology,
                                      const topo::FaultSpec& faults);

/// The strategy for `spec` on a fresh core::CacheHandle seeded with the
/// machine's plane, if any, so every stage of a composition reuses that
/// fill.  With a null plane this is exactly core::make_strategy(spec).
core::StrategyPtr make_pooled_strategy(const std::string& spec,
                                       const Machine& machine);

/// Hop-bytes, hops-per-byte and link loads of one mapping.
struct Metrics {
  double hop_bytes = 0.0;
  double hops_per_byte = 0.0;
  /// Empty when the machine has no processor-level routes (fattree).
  std::optional<core::LinkLoadStats> link_loads;
};

Metrics measure(const graph::TaskGraph& g, const topo::Topology& machine,
                const core::Mapping& m);

/// The `--output` bytes of a mapping: one "task processor" line per placed
/// task, quarantined (kUnassigned) tasks omitted.
std::string mapping_text(const core::Mapping& m);

/// What every run returns: the generated workload, the machine it ran
/// on, and the mapping strategy's name() (empty for optimal).
struct Run {
  graph::TaskGraph graph;
  MachinePtr machine;
  std::string strategy;
};

struct MapResult : Run {
  /// Per-task processor; quarantined tasks hold kUnassigned.
  core::Mapping mapping;
  /// Tasks left unplaced (ascending) when faults split the machine and
  /// the primary component is too small; partition_note describes the
  /// split.  Both empty otherwise.
  std::vector<int> quarantined;
  std::string partition_note;
  /// Over the placed tasks only.
  Metrics metrics;
};

/// Map onto the machine's alive processors, or onto its primary component
/// with the overflow quarantined when faults split it.
MapResult run_map(const Params& p, const MachineSource& source);

struct ExplainResult : Run {
  core::Mapping mapping;
  double hop_bytes = 0.0;
  core::ContentionReport attribution;
  /// Set when params.baseline names a strategy: side A of the diff is the
  /// baseline, side B the explained strategy.
  struct Baseline {
    core::ContentionReport attribution;
    core::ContentionDiff diff;
  };
  std::optional<Baseline> baseline;
};

/// Map, attribute every link's load to its contributing task pairs, and
/// diff against the optional baseline strategy (mapped on the pristine
/// machine when params.baseline_blind, evaluated on the actual one).
ExplainResult run_explain(const Params& p, const MachineSource& source);

struct EvacuateResult : Run {
  double hop_bytes_before = 0.0;
  rts::EvacuateComparison comparison;

  /// Evacuated over fully remapped hop-bytes (1 when the remap costs 0).
  double hop_bytes_ratio() const;
};

/// Map on the healthy machine, inject the faults, and compare evacuating
/// the stranded tasks against a full remap.  Needs a fault.
EvacuateResult run_evacuate(const Params& p, const MachineSource& source);

struct OptimalResult : Run {
  core::OptimalResult search;
  /// Set when params.compare names a strategy.
  struct Compare {
    std::string strategy;
    double hop_bytes = 0.0;
    double gap = 1.0;  ///< hop_bytes over the optimum (1 when it is 0)
  };
  std::optional<Compare> compare;
};

/// Branch-and-bound optimum, plus the optional compared strategy's gap.
OptimalResult run_optimal(const Params& p, const MachineSource& source);

}  // namespace topomap::ops
