// Mapping-strategy interface, mirroring the Charm++ load-balancing strategy
// plug-in point the paper implements TopoLB/TopoCentLB behind.
//
// Strategies take the (already partitioned/coalesced) task graph with
// |V_t| == |V_p| and produce a bijective task -> processor mapping.  All
// randomness flows through the caller-provided Rng.
#pragma once

#include <memory>
#include <string>

#include "core/mapping.hpp"
#include "graph/task_graph.hpp"
#include "support/rng.hpp"
#include "topo/topology.hpp"

namespace topomap::core {

/// A one-value tag kept only so make_strategy_with_handle's three-argument
/// form, which the perfbench harness calls, keeps its signature.  Every
/// strategy reads distances from one topo::DistanceCache plane; the plane
/// itself is pinned entrywise against Topology::distance
/// (tests/test_distance_cache.cpp).
enum class DistanceMode { kCached };

/// Shared DistanceCache slot for a strategy composition (core/cache_handle.hpp).
class CacheHandle;
using CacheHandlePtr = std::shared_ptr<CacheHandle>;

class MappingStrategy {
 public:
  virtual ~MappingStrategy() = default;

  /// Produce a complete one-to-one mapping.  Requires
  /// g.num_vertices() == topo.size() (throws precondition_error otherwise)
  /// unless supports_oversubscription() — then any n >= p is accepted and
  /// the result is a balanced many-to-one mapping (bijective at n == p).
  virtual Mapping map(const graph::TaskGraph& g, const topo::Topology& topo,
                      Rng& rng) const = 0;

  virtual std::string name() const = 0;

  /// True for strategies that map more tasks than processors themselves
  /// (HierTopoLB); the CLI uses this to skip the tasks == procs check.
  virtual bool supports_oversubscription() const { return false; }

 protected:
  static void require_square(const graph::TaskGraph& g,
                             const topo::Topology& topo);
};

using StrategyPtr = std::shared_ptr<const MappingStrategy>;

/// Construct a strategy by name:
///   "random"             uniform random bijection
///   "greedy"             compute-load greedy (topology-oblivious, GreedyLB)
///   "topocent"           TopoCentLB
///   "topolb"             TopoLB, second-order estimation (paper default)
///   "topolb1"            TopoLB, first-order estimation
///   "topolb3"            TopoLB, third-order estimation
///   "recursive"          recursive dual-bisection mapper (extension)
///   "optimal"            exact branch-and-bound oracle (core/optimal_lb.hpp;
///                        <= 12 tasks, throws precondition_error beyond)
///   "hier"               multilevel coarsen/map/uncoarsen (HierTopoLB);
///                        accepts n >= p and scales to million-task graphs
///   "hier+refine"        HierTopoLB with a final refinement stage (full
///                        RefineTopoLB when square, extra bounded passes
///                        otherwise)
///   "anneal"             simulated annealing from a random start
///   "anneal-warm"        simulated annealing warm-started from TopoLB
///   "<base>+refine"      any of the above followed by RefineTopoLB
///   "<base>+linkrefine"  any of the above followed by link-load refinement
/// Every stage of a composition shares one CacheHandle, so e.g.
/// "topolb+refine" and warm-started annealing build the distance plane once
/// per map() call.
StrategyPtr make_strategy(const std::string& spec);

/// make_strategy with a caller-owned CacheHandle instead of a fresh one —
/// the topomapd service pre-seeds the handle from its svc::CachePool so
/// every request on the same machine reuses one distance-plane fill.
/// `handle` must be non-null; DistanceMode is the one-value tag above.
StrategyPtr make_strategy_with_handle(const std::string& spec, DistanceMode,
                                      const CacheHandlePtr& handle);

}  // namespace topomap::core
