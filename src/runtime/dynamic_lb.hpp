// Dynamic load balancing over time (extension; the operational context of
// the paper's strategies inside Charm++).
//
// Persistent objects drift in compute load and communication volume
// between LB steps.  At every epoch the driver remaps and accounts both
// mapping quality (hops-per-byte, imbalance) and *migration cost* — the
// number of objects whose processor changed, which in Charm++ is real
// PUP-serialised data movement.
//
// Two policies:
//   * scratch     — rerun the full two-phase pipeline every epoch: best
//                   quality, but group relabelling churns placements;
//   * incremental — keep the phase-1 grouping from epoch 0 and improve the
//                   previous epoch's group mapping with RefineTopoLB
//                   sweeps: slightly worse hops-per-byte, far fewer
//                   migrations.
//
// Faults arrive at epoch boundaries as tagged events — node or link, fail,
// degrade, or recover (Event).  The runtime owns a long-lived
// topo::DistanceCache plane that it repairs incrementally after every
// event, a quarantine ledger for network partitions, and a self-validation
// loop:
//
//  * a fault that shrinks the machine regroups the objects onto the
//    compact alive subset of a topo::FaultOverlay;
//  * a fault that *splits* the machine maps the active objects onto the
//    primary (largest) component while objects resident on minority
//    components are quarantined — frozen in place, migrated nowhere —
//    until connectivity returns, at which point they are re-admitted in
//    place (their frozen processors are alive and reachable again, so
//    re-admission itself migrates nothing) and the normal remap resumes;
//  * recovery events grow the machine back; the plane follows through
//    DistanceCache::repair_*_restore;
//  * after every event batch core::validate_state cross-checks the
//    repaired plane (and after every placement, the full system state).
//    Any violation triggers the repair-or-rebuild fallback — an obs-counted
//    full plane rebuild (and a from-scratch regroup for placement
//    violations) instead of a crash.
#pragma once

#include <vector>

#include "runtime/lb_manager.hpp"
#include "topo/distance_cache.hpp"
#include "topo/fault_overlay.hpp"

namespace topomap::rts {

enum class RemapPolicy { kScratch, kIncremental };

/// What happens to the machine at an epoch boundary.
enum class EventKind {
  kNodeFail,           ///< processor a dies
  kNodeRestore,        ///< processor a comes back
  kLinkFail,           ///< link a-b hard-fails
  kLinkRestore,        ///< hard-failed link a-b returns, pristine
  kLinkDegrade,        ///< link a-b drops to `health` in (0, 1)
  kLinkRestoreHealth,  ///< degraded link a-b returns to full health
};

struct Event {
  int epoch = 0;
  EventKind kind = EventKind::kNodeFail;
  int a = 0;            ///< processor (node events) / first link endpoint
  int b = 0;            ///< second link endpoint (link events)
  double health = 1.0;  ///< kLinkDegrade only
  /// Strict events throw on preconditions the machine state violates
  /// (degrading a dead link, etc.) — right for hand-written specs.
  /// Non-strict events are *skipped* instead — right for generated chaos
  /// timelines, where a scheduled repair crew can find its link already
  /// dead for other reasons.  Idempotent no-ops (failing the dead,
  /// restoring the alive) are skipped under both.
  bool strict = true;
};

/// Apply one event to the overlay and (when non-null) incrementally repair
/// the distance plane.  Returns {applied, plane rows repaired}; see
/// Event::strict for the skip-vs-throw contract.  Exposed so the chaos
/// generator's shadow machine replays exactly the semantics the runtime
/// will.
struct EventOutcome {
  bool applied = false;
  int rows_repaired = 0;
};
EventOutcome apply_event(topo::FaultOverlay& overlay,
                         topo::DistanceCache* plane, const Event& ev);

/// Knobs of the self-validation / repair-or-rebuild loop.
struct ResilienceOptions {
  /// Run core::validate_state after every event batch and every placement.
  bool validate = true;
  /// Plane rows per check: 0 = every alive row (see ValidateOptions).
  int plane_rows = 0;
  /// Cross-check link attribution against hop-bytes where applicable.
  bool check_attribution = true;
  /// Chaos injection: ordinals (counted over *applied* events) whose
  /// incremental plane repair is silently dropped, leaving the plane stale
  /// on purpose.  Validation must catch it and trigger the rebuild
  /// fallback — this is how the soak proves the loop actually engages.
  std::vector<int> skip_repairs;
};

struct DynamicLBConfig {
  int epochs = 8;
  /// Per-epoch multiplicative drift: each vertex weight / edge byte count
  /// is scaled by uniform(1 - drift, 1 + drift).
  double load_drift = 0.3;
  double comm_drift = 0.15;
  RemapPolicy policy = RemapPolicy::kScratch;
  /// RefineTopoLB sweeps per epoch in incremental mode.
  int refine_passes = 4;
  PipelineConfig pipeline;
  /// Fault/recovery timeline, applied at epoch boundaries (before that
  /// epoch's remap) in this order.  Epochs must lie in [0, epochs); a
  /// pipeline partitioner is required once any processor can die.
  std::vector<Event> events;
  ResilienceOptions resilience;
};

struct DynamicEpochStats {
  int epoch = 0;
  /// Hop-equivalents per byte on the active quotient: the raw value is
  /// divided by the machine's distance_scale() so epochs with and without
  /// soft faults report in the same unit.
  double hops_per_byte = 0.0;
  double load_imbalance = 1.0;
  /// Objects whose processor changed relative to the previous epoch
  /// (0 for the first epoch by definition).
  int migrations = 0;
  /// Processors alive during this epoch.
  int alive_procs = 0;
  /// Connected components of the alive machine (1 = whole).
  int components = 1;
  /// Objects quarantined on minority components this epoch.
  int quarantined = 0;
  int events_applied = 0;
  int events_skipped = 0;
  /// Plane rows touched by incremental repairs this epoch.
  int plane_rows_repaired = 0;
  /// Validation caught a stale plane and rebuilt it this epoch.
  bool plane_rebuilt = false;
};

/// Everything a soak run wants to assert on.
struct DynamicLBRun {
  std::vector<DynamicEpochStats> history;
  std::vector<int> final_placement;
  std::vector<char> final_quarantined;  ///< per-object, 1 = still frozen
  int events_applied = 0;
  int events_skipped = 0;
  /// Validation-triggered incremental-to-rebuild fallbacks.
  int plane_rebuilds = 0;
  /// Individual invariant violations detected (every one was repaired; an
  /// unrepairable violation throws invariant_error instead).
  int violations = 0;
  int max_quarantined = 0;
  int partitioned_epochs = 0;
};

/// Run the drifting-workload simulation with the full event/recovery/
/// validation machinery.
DynamicLBRun run_dynamic_lb(const graph::TaskGraph& initial,
                            const topo::Topology& topo,
                            const DynamicLBConfig& config, Rng& rng);

}  // namespace topomap::rts
