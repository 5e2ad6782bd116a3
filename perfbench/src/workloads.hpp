// The benchmark's workloads.  flat-4k times the full map call a `topomap
// map` invocation makes; served-mix times client round trips against an
// in-process topomapd server.  Each traced run also reports the layers its
// own op does not pass through from fixed probes (README.md, "Per-layer
// metrics"), so every layer is measured in every traced run.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

/// A one-shot mapping problem: spec strings exactly as `topomap map`
/// takes them.  `hier` runs core::hier_map with default HierOptions (what
/// spec "hier" runs) so the traced op can read HierResult's counts.
struct OneShotSpec {
  std::string tasks;
  std::string topology;
  std::string strategy;
  bool hier = false;
};

/// What one op produced.
struct OpOutput {
  std::string mapping;  ///< rts::write_rank_mapping bytes
  double hops_per_byte = 0.0;
  double max_link_bytes = 0.0;
  int vertices = 0;
  std::int64_t edges = 0;
  int procs = 0;
  int plane_nodes = 0;  ///< side of the dense distance plane the op fills
  int task_levels = 0;
  int topo_levels = 0;
  int swaps = 0;
};

/// One full map call, from spec strings to serialized mapping.  With a
/// non-null `root`, the call is a top-level span of that name whose
/// children are the public library calls.  `via_strategy` maps hier
/// through core::make_strategy("hier") instead of core::hier_map.
OpOutput run_op(const OneShotSpec& spec, std::uint64_t seed, const char* root,
                bool via_strategy = false);

/// Traced ops of `spec` (`reps` of them) reported as the one-shot layer
/// metrics; each op's mapping bytes must equal `reference`.
void add_oneshot_companion(Result& r, const OneShotSpec& spec,
                           std::uint64_t seed, int reps,
                           const std::string& reference);

/// The hier layers, from one traced core::hier_map op of hier-262k
/// (stencil3d:64x64x64 onto torus:32x32x32, default HierOptions): hier.*
/// op layers, the standalone coarsening chain (partition.*) and
/// HierResult's counts (core.hier.*).  Checks the op against
/// make_strategy("hier") and the chain's levels against task_levels.
void add_hier_probe(Result& r, std::uint64_t seed);

/// support.pool_width2_pct: the flat-4k op at pool width 2 against width 1
/// over interleaved pairs (the only use of support::parallel's pooled
/// path); every op's bytes must match.  Restores the caller's width.
void add_pool_probe(Result& r, std::uint64_t seed);

/// A short traced served session (`rounds` rounds of the served-mix
/// schedule) reported as the svc.* layer metrics.
void add_served_companion(Result& r, const Options& opt, int rounds);

/// flat-4k: topolb, stencil2d:64x64 onto torus:16x16x16 at pool width 1.
Result run_oneshot(const Options& opt);
Result run_served(const Options& opt);

}  // namespace perfbench
