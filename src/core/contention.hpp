// Contention explainability: route-based per-link attribution.
//
// core::link_loads (metrics.hpp) answers "how loaded is each link?";
// this layer answers *why*: for every directed link it records the total
// bytes plus the contributing task pairs, so a hot link can be traced back
// to the task-graph edges that route across it ("link (3,4) carries 8000 B,
// 4000 of them from pair (12,13)").  On top of the attribution it derives
// the aggregate link-load statistics the task-mapping literature evaluates
// mappings by — max/mean/L2 and a Gini imbalance coefficient — and a
// deterministic diff between two mappings of the same workload on the same
// machine ("link (3,4) dropped 8000 -> 1000 B; pairs (12,13),(12,17) moved
// off").
//
// The routes come from the one walk core::link_loads also uses: every
// task-graph edge routes both directions along Topology::route() with
// bytes/2 each way, sequentially and in edge-list order, over the dense
// link ids of topo::LinkIndex.  So the sum of per-link totals equals the
// mapping's hop-bytes (exactly so for integral byte weights, where every
// addend is exactly representable), and the report is byte-identical run
// to run and independent of the worker-pool size.
//
// Everything here is ordinary code (the obs:: class-API tier, not the
// OBS_* macro tier): computing an attribution never mutates observability
// state and does not depend on the obs::enabled() runtime switch.
#pragma once

#include <string>
#include <vector>

#include "core/mapping.hpp"
#include "graph/task_graph.hpp"
#include "support/json.hpp"
#include "topo/topology.hpp"

namespace topomap::core {

/// One task pair's share of a link's traffic.  `a` < `b` (the undirected
/// task-graph edge endpoints); `bytes` counts both directions of the pair's
/// traffic over this directed link (each direction contributes edge
/// bytes/2 per traversal).
struct LinkContributor {
  int a = 0;
  int b = 0;
  double bytes = 0.0;
};

/// A directed link with its total load and full contributor breakdown,
/// sorted by descending bytes (ties: ascending (a, b)).
struct LinkAttribution {
  int from = 0;
  int to = 0;
  double bytes = 0.0;  ///< == sum of contributors' bytes (exactly)
  std::vector<LinkContributor> contributors;
};

/// Aggregate link-load statistics over *all* directed links of the
/// topology (links carrying no traffic count as zero-load).
struct ContentionStats {
  double total_bytes = 0.0;  ///< sum over links; == hop-bytes
  double max_bytes = 0.0;
  double mean_bytes = 0.0;  ///< total / links_total
  double l2 = 0.0;          ///< sqrt(sum of squared link loads)
  double gini = 0.0;        ///< load imbalance in [0, 1); 0 = uniform
  int links_used = 0;       ///< links carrying any traffic
  int links_total = 0;
};

/// Full attribution of a mapping: per-link breakdowns (only links with
/// traffic, sorted by descending bytes, ties by ascending (from, to)) plus
/// the aggregate statistics.
struct ContentionReport {
  ContentionStats stats;
  std::vector<LinkAttribution> links;
};

/// Per-link change between two mappings of the same workload on the same
/// machine.  `moved_off` are pairs that routed over the link under A but
/// not under B; `moved_on` the reverse; `delta` == bytes_b - bytes_a.
struct LinkDelta {
  int from = 0;
  int to = 0;
  double bytes_a = 0.0;
  double bytes_b = 0.0;
  double delta = 0.0;
  std::vector<LinkContributor> moved_off;  ///< pairs leaving the link (A-only)
  std::vector<LinkContributor> moved_on;   ///< pairs arriving (B-only)
};

/// Deterministic diff between two attributions.  Only links whose byte
/// totals differ appear, sorted by descending |delta| (ties: ascending
/// (from, to)).  Antisymmetric: diff(B, A) is diff(A, B) with every delta
/// negated and moved_off/moved_on swapped.
struct ContentionDiff {
  ContentionStats stats_a;
  ContentionStats stats_b;
  std::vector<LinkDelta> links;
};

/// Route every task-graph edge over the machine (the walk core::link_loads
/// shares) and attribute each directed link's bytes to the task pairs
/// crossing it.  Requires a topology with processor-level links; throws
/// precondition_error on distance-model-only machines (FatTree).
ContentionReport attribute_link_loads(const graph::TaskGraph& g,
                                      const topo::Topology& topo,
                                      const Mapping& m);

/// Just the aggregate statistics (same routing + accumulation as
/// attribute_link_loads, without retaining per-pair breakdowns).
ContentionStats contention_stats(const graph::TaskGraph& g,
                                 const topo::Topology& topo, const Mapping& m);

/// Diff two attributions of the same workload on the same machine.
ContentionDiff diff_contention(const ContentionReport& a,
                               const ContentionReport& b);

/// Schema identity of the machine-readable contention artifact.
inline constexpr const char* kContentionSchemaName = "topomap.obs.contention";
inline constexpr int kContentionSchemaVersion = 1;

/// The JSON renderings of the contention types, written straight from the
/// structs (the same bytes in topomapd's explain result and the CLI's
/// --report artifact).  The stats object:
void write_contention_stats(support::json::Writer& w,
                            const ContentionStats& stats);

/// The report's "links" JSON array: one object per link with its total and
/// its top `top_k` contributors (plus a `pairs` count of all contributors).
void write_contention_links(support::json::Writer& w,
                            const ContentionReport& report, int top_k);

/// The diff's "links" JSON array (top_k bounds moved_off/moved_on lists).
void write_contention_diff(support::json::Writer& w,
                           const ContentionDiff& diff, int top_k);

/// Compact terminal rendering: aggregate stats, a heatmap strip of every
/// directed link's load (ramp " .:-=+*#%@" scaled by the max), and the
/// `top_links` hottest links with their top `top_k` contributing pairs.
std::string render_contention_summary(const ContentionReport& report,
                                      int top_links, int top_k);

/// Terminal rendering of a diff: per-link "8000 -> 1000 B" lines with the
/// pairs that moved off/on, hottest shifts first.
std::string render_contention_diff(const ContentionDiff& diff, int top_links,
                                   int top_k);

}  // namespace topomap::core
