// Mapping onto the alive subset of a faulted machine.
//
// Strategies require a bijection onto processors 0..p-1, so they refuse a
// FaultOverlay with dead processors (see MappingStrategy::require_square).
// map_on_alive() closes the gap: it re-indexes the alive processors into a
// compact topo::SubTopology (distances/routes still the overlay's, i.e.
// fault-rerouted), pads the task graph with zero-weight isolated tasks up
// to the alive count so the bijection precondition holds, runs the
// strategy, and translates the result back to original processor ids.
// Padding preserves strategy determinism: dummy tasks communicate nothing,
// so they absorb the left-over processors without perturbing real
// placements' cost structure.  A strategy that supports oversubscription
// (hier) also takes more tasks than alive processors, unpadded.
//
// Partition tolerance: when faults split the alive set into several
// components, mapping proceeds on the *primary* component (the largest;
// ties to the lowest processor id — topo::connected_components) as long as
// the tasks fit there.  Only when they do not fit does map_on_alive throw,
// and the error names the split; map_on_largest_component() never throws
// for capacity — it deterministically quarantines the overflow (lightest
// communicators first) and reports who was left out, which is what a
// runtime that must keep running wants.
#pragma once

#include <vector>

#include "core/mapping.hpp"
#include "core/strategy.hpp"
#include "graph/task_graph.hpp"
#include "support/rng.hpp"
#include "topo/fault_overlay.hpp"

namespace topomap::core {

/// Map g onto the alive processors of `overlay` with `strategy`.  Requires
/// 1 <= g.num_vertices() <= overlay.num_alive(); when faults split the
/// alive set the tasks must fit on the largest component
/// (precondition_error naming the partition otherwise).  Neither bound
/// applies when strategy.supports_oversubscription().  The returned
/// mapping uses the overlay's original processor ids; every assignment is
/// an alive processor and no processor is used twice.
Mapping map_on_alive(const MappingStrategy& strategy,
                     const graph::TaskGraph& g,
                     const topo::FaultOverlay& overlay, Rng& rng);

/// A partition-tolerant mapping: placed tasks live on one connected
/// component; the rest are deterministically quarantined.
struct PartitionedMapResult {
  /// Per-task processor; quarantined tasks hold kUnassigned.
  Mapping mapping;
  /// Quarantined task ids, ascending.  Empty when everything fit.
  std::vector<int> quarantined;
  /// Alive components the machine split into (1 = connected).
  int components = 1;
  /// Processors in the component the tasks were mapped onto.
  int primary_size = 0;
};

/// Map as much of g as fits onto the primary alive component of `overlay`;
/// an oversubscribing strategy places all of it there.  Otherwise, when the
/// component is smaller than the task count, the heaviest
/// communicators (total incident bytes, ties to the lower task id) keep
/// their places and the rest are quarantined — deterministic, so every
/// thread count and every retry strands the same tasks.  Requires >= 1
/// task and >= 1 alive processor.
PartitionedMapResult map_on_largest_component(const MappingStrategy& strategy,
                                              const graph::TaskGraph& g,
                                              const topo::FaultOverlay& overlay,
                                              Rng& rng);

}  // namespace topomap::core
