#include "core/optimal_lb.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "topo/distance_cache.hpp"
#include "topo/fault_overlay.hpp"
#include "topo/hypercube.hpp"
#include "topo/torus_mesh.hpp"

namespace topomap::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Plane entries holding the unreachable sentinel price as +infinity, so
/// infeasible placements lose every comparison instead of wrapping.
template <class D>
double dist_cost(D d) {
  return d == topo::DistanceCache::kUnreachableEntry<D>
             ? kInf
             : static_cast<double>(d);
}

/// The static problem view shared (read-only) by every root subtree, on a
/// distance plane of D entries.
template <class D>
struct Instance {
  const graph::TaskGraph* g = nullptr;
  const topo::DistanceCache* plane = nullptr;
  const D* row(int q) const { return plane->row<D>(q); }
  int n = 0;  // tasks
  int p = 0;  // processors (usable marked below)
  int usable_count = 0;
  std::vector<char> usable;  // per processor: alive and assignable
  std::vector<int> order;    // depth -> task id (descending comm, ties id)
  // Per depth d: edges from order[d] to earlier-placed tasks, as
  // (earlier depth, bytes), ascending by depth — the exact incremental
  // cost terms, accumulated in one fixed order on every path.
  std::vector<std::vector<std::pair<int, double>>> back_edges;
  // suffix_pair_bound[d]: sorted partial-assignment bound on the edges
  // whose *both* endpoints sit at depth >= d.  An injective assignment
  // sends distinct edges to distinct processor pairs, so pairing the
  // suffix's byte weights (descending) with the machine's globally
  // smallest pairwise distances (ascending) never exceeds any completion's
  // cost.
  std::vector<double> suffix_pair_bound;
  // suffix_bytes_desc[d]: those same suffix byte weights, descending — used
  // to re-price the bound against the *free* processors' pair distances
  // when the free set is small enough to enumerate per node.
  std::vector<std::vector<double>> suffix_bytes_desc;
  long long per_root_budget = 0;
};

/// Mutable state of one root subtree's depth-first search.
struct Search {
  std::vector<int> assigned;  // depth -> processor
  std::vector<char> in_use;   // per processor
  double best = kInf;         // incumbent cost (strictly improving)
  std::vector<int> best_assigned;
  long long nodes = 0;
  long long pruned = 0;
  bool budget_exceeded = false;

  template <class D>
  explicit Search(const Instance<D>& in)
      : assigned(static_cast<std::size_t>(in.n), -1),
        in_use(static_cast<std::size_t>(in.p), 0) {}
};

/// Exact cost the task at `depth` adds when placed on q.
template <class D>
double incremental_cost(const Instance<D>& in, const Search& st, int depth,
                        int q) {
  double cost = 0.0;
  const D* qrow = in.row(q);
  for (const auto& [vd, bytes] : in.back_edges[static_cast<std::size_t>(depth)])
    cost += bytes * dist_cost(qrow[st.assigned[static_cast<std::size_t>(vd)]]);
  return cost;
}

/// Free sets up to this size have their pairwise distances enumerated per
/// node to re-price the suffix bound; larger sets fall back to the
/// precomputed whole-machine prefix.  Covers every n == p plateau instance
/// the cap admits while keeping the per-node work trivial.
constexpr int kFreePairLimit = 24;

/// Admissible lower bound on completing the partial assignment of depths
/// [0, d).  Three terms:
///   cross   edges between a placed and an unplaced task — the larger of
///           (a) each frontier task at its individually cheapest free
///           processor (tasks may share a processor, so admissible) and
///           (b) the k smallest per-processor column minima, k = frontier
///           tasks (the frontier occupies k *distinct* free processors, so
///           its cost is at least the k cheapest columns' minima);
///   suffix  edges with both endpoints unplaced — descending byte weights
///           priced against ascending pair distances (rearrangement bound),
///           over the free processors when the free set is small, over the
///           whole machine otherwise.
/// On a clique mapped onto the whole machine both terms are exact, so the
/// cost plateau prunes at the root instead of exploding factorially.
template <class D>
double frontier_bound(const Instance<D>& in, const Search& st, int d) {
  // --- suffix term -------------------------------------------------------
  const std::vector<double>& bytes_desc =
      in.suffix_bytes_desc[static_cast<std::size_t>(d)];
  double suffix = in.suffix_pair_bound[static_cast<std::size_t>(d)];
  const int free_count = in.usable_count - d;  // placed procs are usable
  if (!bytes_desc.empty() && free_count <= kFreePairLimit) {
    std::vector<double> free_pairs;
    std::vector<int> free_procs;
    for (int q = 0; q < in.p; ++q)
      if (!st.in_use[static_cast<std::size_t>(q)] &&
          in.usable[static_cast<std::size_t>(q)])
        free_procs.push_back(q);
    for (std::size_t i = 0; i < free_procs.size(); ++i) {
      const D* row = in.row(free_procs[i]);
      for (std::size_t j = i + 1; j < free_procs.size(); ++j) {
        const double dcost = dist_cost(row[free_procs[j]]);
        if (dcost < kInf) free_pairs.push_back(dcost);
      }
    }
    if (bytes_desc.size() > free_pairs.size()) return kInf;  // infeasible
    std::sort(free_pairs.begin(), free_pairs.end());
    double repriced = 0.0;
    for (std::size_t i = 0; i < bytes_desc.size(); ++i)
      repriced += bytes_desc[i] * free_pairs[i];
    // Free pairs are a subset of all pairs, so this is never looser.
    suffix = std::max(suffix, repriced);
  }
  double bound = suffix;

  // --- cross term --------------------------------------------------------
  // (placed-neighbour row, bytes) pairs of the frontier task under price.
  std::vector<std::pair<const D*, double>> placed;
  std::vector<double> col_min(static_cast<std::size_t>(in.p), kInf);
  double row_sum = 0.0;
  int frontier = 0;
  for (int ud = d; ud < in.n; ++ud) {
    placed.clear();
    for (const auto& [vd, bytes] : in.back_edges[static_cast<std::size_t>(ud)]) {
      if (vd >= d) continue;
      placed.emplace_back(in.row(st.assigned[static_cast<std::size_t>(vd)]),
                          bytes);
    }
    if (placed.empty()) continue;
    ++frontier;
    double best = kInf;
    for (int q = 0; q < in.p; ++q) {
      if (st.in_use[static_cast<std::size_t>(q)] ||
          !in.usable[static_cast<std::size_t>(q)])
        continue;
      double c = 0.0;
      for (const auto& [row, bytes] : placed) c += bytes * dist_cost(row[q]);
      if (c < best) best = c;
      if (c < col_min[static_cast<std::size_t>(q)])
        col_min[static_cast<std::size_t>(q)] = c;
    }
    row_sum += best;
  }
  if (frontier > 0) {
    std::vector<double> cols;
    for (int q = 0; q < in.p; ++q)
      if (!st.in_use[static_cast<std::size_t>(q)] &&
          in.usable[static_cast<std::size_t>(q)])
        cols.push_back(col_min[static_cast<std::size_t>(q)]);
    std::sort(cols.begin(), cols.end());
    double col_sum = 0.0;
    for (int k = 0; k < frontier && k < static_cast<int>(cols.size()); ++k)
      col_sum += cols[static_cast<std::size_t>(k)];
    bound += std::max(row_sum, col_sum);
  }
  return bound;
}

/// Depth-first branch and bound below an already-committed prefix of
/// depths [0, d).  Deterministic: children sorted by (incremental cost,
/// processor id), incumbent updated on strict improvement only.
template <class D>
void dfs(const Instance<D>& in, Search& st, int d, double partial) {
  if (d == in.n) {
    if (partial < st.best) {
      st.best = partial;
      st.best_assigned = st.assigned;
    }
    return;
  }
  std::vector<std::pair<double, int>> candidates;
  candidates.reserve(static_cast<std::size_t>(in.p));
  for (int q = 0; q < in.p; ++q) {
    if (st.in_use[static_cast<std::size_t>(q)] ||
        !in.usable[static_cast<std::size_t>(q)])
      continue;
    candidates.emplace_back(incremental_cost(in, st, d, q), q);
  }
  std::sort(candidates.begin(), candidates.end());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& [inc, q] = candidates[i];
    if (++st.nodes > in.per_root_budget) {
      st.budget_exceeded = true;
      return;
    }
    const double next = partial + inc;
    if (!(next < st.best)) {
      // Sorted children: every later candidate is at least as costly.
      st.pruned += static_cast<long long>(candidates.size() - i);
      return;
    }
    st.assigned[static_cast<std::size_t>(d)] = q;
    st.in_use[static_cast<std::size_t>(q)] = 1;
    const double bound = next + frontier_bound(in, st, d + 1);
    if (bound < st.best)
      dfs(in, st, d + 1, next);
    else
      ++st.pruned;
    st.in_use[static_cast<std::size_t>(q)] = 0;
    st.assigned[static_cast<std::size_t>(d)] = -1;
    if (st.budget_exceeded) return;
  }
}

/// Deterministic greedy upper bound: tasks in search order, each on the
/// free usable processor with the cheapest exact placed-edge cost (ties to
/// the lower id).  Seeds every root's incumbent so pruning bites from the
/// first node.
template <class D>
std::pair<double, std::vector<int>> greedy_upper_bound(const Instance<D>& in) {
  Search st(in);
  double total = 0.0;
  for (int d = 0; d < in.n; ++d) {
    double best = kInf;
    int best_q = -1;
    for (int q = 0; q < in.p; ++q) {
      if (st.in_use[static_cast<std::size_t>(q)] ||
          !in.usable[static_cast<std::size_t>(q)])
        continue;
      if (best_q < 0) best_q = q;  // fallback when every option is +inf
      const double c = incremental_cost(in, st, d, q);
      if (c < best) {
        best = c;
        best_q = q;
      }
    }
    TOPOMAP_ASSERT(best_q >= 0, "greedy ran out of usable processors");
    st.assigned[static_cast<std::size_t>(d)] = best_q;
    st.in_use[static_cast<std::size_t>(best_q)] = 1;
    total += best == kInf ? kInf : best;
  }
  return {total, st.assigned};
}

/// Root placements for the first task: automorphism representatives on
/// recognized pristine machines, every usable processor otherwise.
std::vector<int> symmetry_roots(const topo::Topology& topo, bool symmetry,
                                const std::vector<char>& usable) {
  std::vector<int> all;
  for (int q = 0; q < static_cast<int>(usable.size()); ++q)
    if (usable[static_cast<std::size_t>(q)]) all.push_back(q);
  if (!symmetry) return all;
  const topo::Topology* t = &topo;
  if (const auto* ov = dynamic_cast<const topo::FaultOverlay*>(t)) {
    // Any real fault breaks the base machine's symmetry.
    if (ov->num_failed_nodes() > 0 || ov->num_failed_links() > 0 ||
        ov->num_degraded_links() > 0)
      return all;
    t = &ov->base();
  }
  if (dynamic_cast<const topo::Hypercube*>(t) != nullptr)
    return {0};  // XOR-translation makes every vertex equivalent
  if (const auto* tm = dynamic_cast<const topo::TorusMesh*>(t)) {
    // Wrapped dimensions translate any coordinate to 0; open dimensions
    // reflect the upper half onto the lower.
    std::vector<std::vector<int>> allowed;
    for (int dim = 0; dim < tm->dimensions(); ++dim) {
      std::vector<int> coords_of_dim;
      if (tm->wraps(dim)) {
        coords_of_dim.push_back(0);
      } else {
        const int extent = tm->dims()[static_cast<std::size_t>(dim)];
        for (int c = 0; c <= (extent - 1) / 2; ++c) coords_of_dim.push_back(c);
      }
      allowed.push_back(std::move(coords_of_dim));
    }
    std::vector<int> roots;
    std::vector<std::size_t> pick(allowed.size(), 0);
    for (;;) {
      std::vector<int> coords(allowed.size());
      for (std::size_t i = 0; i < allowed.size(); ++i)
        coords[i] = allowed[i][pick[i]];
      roots.push_back(tm->index(coords));
      std::size_t i = 0;
      while (i < allowed.size() && ++pick[i] == allowed[i].size())
        pick[i++] = 0;
      if (i == allowed.size()) break;
    }
    std::sort(roots.begin(), roots.end());
    return roots;
  }
  return all;
}

/// The exact search on `plane`, the distance plane of `topo`, whose
/// entries are D.
template <class D>
OptimalResult search(const graph::TaskGraph& g, const topo::Topology& topo,
                     const OptimalOptions& options,
                     const topo::DistanceCache& plane) {
  OptimalResult result;
  const int n = g.num_vertices();
  Instance<D> in;
  in.g = &g;
  in.plane = &plane;
  in.n = n;
  in.p = topo.size();

  in.usable.assign(static_cast<std::size_t>(in.p), 1);
  int usable_count = in.p;
  if (const auto* ov = dynamic_cast<const topo::FaultOverlay*>(&topo)) {
    usable_count = ov->num_alive();
    for (int q = 0; q < in.p; ++q)
      in.usable[static_cast<std::size_t>(q)] = ov->is_alive(q) ? 1 : 0;
  }
  TOPOMAP_REQUIRE(n <= usable_count,
                  "workload has " + std::to_string(n) + " tasks but only " +
                      std::to_string(usable_count) +
                      " usable processors");
  in.usable_count = usable_count;

  // Search order: descending total communication, ties to the lower id.
  in.order.resize(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) in.order[static_cast<std::size_t>(t)] = t;
  std::sort(in.order.begin(), in.order.end(), [&g](int a, int b) {
    if (g.comm_bytes(a) != g.comm_bytes(b))
      return g.comm_bytes(a) > g.comm_bytes(b);
    return a < b;
  });
  std::vector<int> depth_of(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d)
    depth_of[static_cast<std::size_t>(in.order[static_cast<std::size_t>(d)])] =
        d;

  in.back_edges.resize(static_cast<std::size_t>(n));
  // Per edge: the lower of its two depths, with its bytes — the edge joins
  // the "both endpoints unplaced" suffix for every frontier depth <= lo.
  std::vector<std::pair<int, double>> edge_lo;
  for (const graph::UndirectedEdge& e : g.edges()) {
    const int da = depth_of[static_cast<std::size_t>(e.a)];
    const int db = depth_of[static_cast<std::size_t>(e.b)];
    const int lo = std::min(da, db);
    const int hi = std::max(da, db);
    in.back_edges[static_cast<std::size_t>(hi)].emplace_back(lo, e.bytes);
    edge_lo.emplace_back(lo, e.bytes);
  }
  for (auto& edges : in.back_edges) std::sort(edges.begin(), edges.end());

  // Ascending finite pairwise distances between distinct usable processors
  // (each unordered pair once) — the price list of the sorted bound.
  std::vector<double> pair_dist;
  for (int a = 0; a < in.p; ++a) {
    if (!in.usable[static_cast<std::size_t>(a)]) continue;
    const D* row = in.row(a);
    for (int b = a + 1; b < in.p; ++b) {
      if (!in.usable[static_cast<std::size_t>(b)]) continue;
      const double dcost = dist_cost(row[b]);
      if (dcost < kInf) pair_dist.push_back(dcost);
    }
  }
  std::sort(pair_dist.begin(), pair_dist.end());
  in.suffix_pair_bound.assign(static_cast<std::size_t>(n) + 1, 0.0);
  in.suffix_bytes_desc.resize(static_cast<std::size_t>(n) + 1);
  for (int d = 0; d <= n; ++d) {
    std::vector<double>& bytes_desc =
        in.suffix_bytes_desc[static_cast<std::size_t>(d)];
    for (const auto& [lo, bytes] : edge_lo)
      if (lo >= d) bytes_desc.push_back(bytes);
    std::sort(bytes_desc.begin(), bytes_desc.end(), std::greater<>());
    if (bytes_desc.size() > pair_dist.size()) {
      // More suffix edges than finite pairs: no completion is feasible.
      in.suffix_pair_bound[static_cast<std::size_t>(d)] = kInf;
      continue;
    }
    double bound = 0.0;
    for (std::size_t i = 0; i < bytes_desc.size(); ++i)
      bound += bytes_desc[i] * pair_dist[i];
    in.suffix_pair_bound[static_cast<std::size_t>(d)] = bound;
  }

  const auto [greedy_cost, greedy_assigned] = greedy_upper_bound(in);
  const std::vector<int> roots =
      symmetry_roots(topo, options.symmetry, in.usable);
  TOPOMAP_ASSERT(!roots.empty(), "no root candidates");
  in.per_root_budget = std::max<long long>(
      1, options.node_budget / static_cast<long long>(roots.size()));

  // Independent deterministic searches per root, merged in ascending root
  // order with strict improvement — byte-identical at any thread count.
  struct RootOutcome {
    double best = kInf;
    std::vector<int> assigned;
    long long nodes = 0;
    long long pruned = 0;
    bool budget_exceeded = false;
  };
  std::vector<RootOutcome> outcomes(roots.size());
  support::parallel_for(static_cast<int>(roots.size()), 1,
                        [&](int begin, int end) {
    for (int r = begin; r < end; ++r) {
      const int root = roots[static_cast<std::size_t>(r)];
      Search st(in);
      st.best = greedy_cost;
      st.nodes = 1;  // the root assignment itself
      st.assigned[0] = root;
      st.in_use[static_cast<std::size_t>(root)] = 1;
      const double bound = frontier_bound(in, st, 1);
      if (bound < st.best)
        dfs(in, st, 1, 0.0);
      else
        ++st.pruned;
      RootOutcome& out = outcomes[static_cast<std::size_t>(r)];
      out.best = st.best;
      out.assigned = std::move(st.best_assigned);
      out.nodes = st.nodes;
      out.pruned = st.pruned;
      out.budget_exceeded = st.budget_exceeded;
    }
  });

  double best = greedy_cost;
  std::vector<int> best_assigned = greedy_assigned;
  for (std::size_t r = 0; r < outcomes.size(); ++r) {
    const RootOutcome& out = outcomes[r];
    result.nodes += out.nodes;
    result.pruned += out.pruned;
    if (out.budget_exceeded)
      throw precondition_error(
          "optimal search exhausted its node budget (" +
          std::to_string(in.per_root_budget) + " nodes for root " +
          std::to_string(roots[r]) + " of " + std::to_string(roots.size()) +
          "); raise OptimalOptions::node_budget or shrink the instance");
    if (out.best < best) {
      best = out.best;
      best_assigned = out.assigned;
    }
  }
  TOPOMAP_REQUIRE(best < kInf,
                  "no feasible placement: the machine's usable processors "
                  "cannot host the communication graph (partitioned?)");

  result.mapping.assign(static_cast<std::size_t>(n), kUnassigned);
  for (int d = 0; d < n; ++d)
    result.mapping[static_cast<std::size_t>(
        in.order[static_cast<std::size_t>(d)])] =
        best_assigned[static_cast<std::size_t>(d)];
  // Canonical value: recomputed over the edge list in its stored order, so
  // it compares exactly against core::hop_bytes / brute-force enumeration.
  result.hop_bytes = hop_bytes(g, plane, result.mapping);
  result.root_candidates = static_cast<int>(roots.size());
  OBS_COUNTER_ADD("optimal/nodes", result.nodes);
  OBS_COUNTER_ADD("optimal/pruned", result.pruned);
  OBS_COUNTER_ADD("optimal/maps", 1);
  return result;
}

}  // namespace

OptimalResult find_optimal_mapping(const graph::TaskGraph& g,
                                   const topo::Topology& topo,
                                   const OptimalOptions& options) {
  const int n = g.num_vertices();
  if (n == 0) return {};
  TOPOMAP_REQUIRE(n <= options.max_tasks,
                  "exact search is factorial: " + std::to_string(n) +
                      " tasks exceed the max_tasks cap of " +
                      std::to_string(options.max_tasks));
  OBS_SPAN("optimal/map");

  const topo::DistanceCache plane(topo);
  return plane.visit([&](auto tag) {
    return search<decltype(tag)>(g, topo, options, plane);
  });
}

Mapping OptimalLB::map(const graph::TaskGraph& g, const topo::Topology& topo,
                       Rng& rng) const {
  (void)rng;  // exact: tie-breaks are structural, never random
  TOPOMAP_REQUIRE(g.num_vertices() <= topo.size(),
                  "more tasks than processors");
  return find_optimal_mapping(g, topo, options_).mapping;
}

}  // namespace topomap::core
