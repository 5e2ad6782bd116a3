#include "partition/multilevel.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "graph/quotient.hpp"
#include "support/error.hpp"

namespace topomap::part {

namespace {

using graph::Edge;
using graph::TaskGraph;

/// Stop coarsening once a bisection's working graph has at most this many
/// vertices.
constexpr int kCoarsenTarget = 64;
/// Independent greedy-growing trials for the initial bisection.
constexpr int kInitialTrials = 6;
/// Maximum FM passes per uncoarsening level.
constexpr int kFmPasses = 4;
/// Per-side balance tolerance: a side may exceed its target weight by this
/// fraction.
constexpr double kEpsilon = 0.08;

}  // namespace

// ---------------------------------------------------------------------------
// Coarsening: heavy-edge matching (public — shared with core::HierTopoLB).
// ---------------------------------------------------------------------------

bool coarsen_once(const TaskGraph& g, double weight_cap, Rng& rng,
                  CoarseLevel* out) {
  const int n = g.num_vertices();
  std::vector<int> match(static_cast<std::size_t>(n), -1);
  const std::vector<int> order = rng.permutation(n);
  int coarse_count = 0;
  for (int v : order) {
    if (match[static_cast<std::size_t>(v)] != -1) continue;
    int best = -1;
    double best_bytes = -1.0;
    for (const Edge& e : g.edges_of(v)) {
      if (match[static_cast<std::size_t>(e.neighbor)] != -1) continue;
      if (g.vertex_weight(v) + g.vertex_weight(e.neighbor) > weight_cap)
        continue;
      if (e.bytes > best_bytes) {
        best_bytes = e.bytes;
        best = e.neighbor;
      }
    }
    if (best >= 0) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    } else {
      match[static_cast<std::size_t>(v)] = v;  // matched with itself
    }
  }

  std::vector<int> fine_to_coarse(static_cast<std::size_t>(n), -1);
  for (int v = 0; v < n; ++v) {
    if (fine_to_coarse[static_cast<std::size_t>(v)] != -1) continue;
    const int partner = match[static_cast<std::size_t>(v)];
    fine_to_coarse[static_cast<std::size_t>(v)] = coarse_count;
    fine_to_coarse[static_cast<std::size_t>(partner)] = coarse_count;
    ++coarse_count;
  }
  if (coarse_count > static_cast<int>(0.95 * n)) return false;

  out->coarse = graph::quotient_graph(g, fine_to_coarse, coarse_count);
  out->fine_to_coarse = std::move(fine_to_coarse);
  return true;
}

namespace {

// ---------------------------------------------------------------------------
// FM-style bisection refinement with rollback.
// ---------------------------------------------------------------------------

struct FmContext {
  const TaskGraph& g;
  const std::vector<double>& w;
  double max_side[2];  // allowed weight per side
};

/// One FM pass.  Returns true if the cut strictly improved.
bool fm_pass(const FmContext& ctx, std::vector<int>& side) {
  const int n = ctx.g.num_vertices();
  std::vector<double> gain(static_cast<std::size_t>(n), 0.0);
  double side_weight[2] = {0.0, 0.0};
  for (int v = 0; v < n; ++v)
    side_weight[side[static_cast<std::size_t>(v)]] +=
        ctx.w[static_cast<std::size_t>(v)];
  for (int v = 0; v < n; ++v)
    for (const Edge& e : ctx.g.edges_of(v))
      gain[static_cast<std::size_t>(v)] +=
          (side[static_cast<std::size_t>(e.neighbor)] !=
           side[static_cast<std::size_t>(v)])
              ? e.bytes
              : -e.bytes;

  std::vector<char> locked(static_cast<std::size_t>(n), 0);
  std::vector<int> moved;
  moved.reserve(static_cast<std::size_t>(n));
  double cum = 0.0, best_cum = 0.0;
  int best_prefix = 0;

  for (int step = 0; step < n; ++step) {
    int best = -1;
    double best_gain = -std::numeric_limits<double>::infinity();
    for (int v = 0; v < n; ++v) {
      if (locked[static_cast<std::size_t>(v)]) continue;
      const int to = 1 - side[static_cast<std::size_t>(v)];
      if (side_weight[to] + ctx.w[static_cast<std::size_t>(v)] >
          ctx.max_side[to])
        continue;  // would overload the receiving side
      if (gain[static_cast<std::size_t>(v)] > best_gain) {
        best_gain = gain[static_cast<std::size_t>(v)];
        best = v;
      }
    }
    if (best < 0) break;

    const int from = side[static_cast<std::size_t>(best)];
    side[static_cast<std::size_t>(best)] = 1 - from;
    side_weight[from] -= ctx.w[static_cast<std::size_t>(best)];
    side_weight[1 - from] += ctx.w[static_cast<std::size_t>(best)];
    locked[static_cast<std::size_t>(best)] = 1;
    moved.push_back(best);
    cum += best_gain;
    for (const Edge& e : ctx.g.edges_of(best)) {
      if (locked[static_cast<std::size_t>(e.neighbor)]) continue;
      // `best` switched sides: edges to its old side become cut (gain up
      // by 2*bytes for those neighbours), edges to the new side uncut.
      const int nb_side = side[static_cast<std::size_t>(e.neighbor)];
      gain[static_cast<std::size_t>(e.neighbor)] +=
          (nb_side == from) ? 2.0 * e.bytes : -2.0 * e.bytes;
    }
    if (cum > best_cum + 1e-12) {
      best_cum = cum;
      best_prefix = static_cast<int>(moved.size());
    }
    // Hill-climbing: keep moving past zero-gain plateaus; rollback handles
    // the rest.
  }

  // Roll back the moves after the best prefix.
  for (int i = static_cast<int>(moved.size()) - 1; i >= best_prefix; --i) {
    const int v = moved[static_cast<std::size_t>(i)];
    side[static_cast<std::size_t>(v)] = 1 - side[static_cast<std::size_t>(v)];
  }
  return best_cum > 1e-12;
}

void fm_refine(const TaskGraph& g, const std::vector<double>& w,
               std::vector<int>& side, double target_left) {
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  FmContext ctx{g, w,
                {target_left * total * (1.0 + kEpsilon),
                 (1.0 - target_left) * total * (1.0 + kEpsilon)}};
  for (int pass = 0; pass < kFmPasses; ++pass)
    if (!fm_pass(ctx, side)) break;
}

// ---------------------------------------------------------------------------
// Initial bisection by greedy graph growing.
// ---------------------------------------------------------------------------

std::vector<int> grow_bisection(const TaskGraph& g,
                                const std::vector<double>& w,
                                double target_left, Rng& rng) {
  const int n = g.num_vertices();
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  const double target_weight = target_left * total;

  std::vector<int> best_side;
  double best_cut = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < kInitialTrials; ++trial) {
    std::vector<int> side(static_cast<std::size_t>(n), 1);
    // conn[v]: bytes from v into the growing region minus bytes outward.
    std::vector<double> conn(static_cast<std::size_t>(n), 0.0);
    double grown = 0.0;
    int seed = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
    while (grown < target_weight) {
      // Prefer frontier vertices (positive connectivity); fall back to the
      // seed / any remaining vertex for disconnected graphs.
      int pick = -1;
      double best_conn = -std::numeric_limits<double>::infinity();
      for (int v = 0; v < n; ++v) {
        if (side[static_cast<std::size_t>(v)] == 0) continue;
        if (conn[static_cast<std::size_t>(v)] > best_conn) {
          best_conn = conn[static_cast<std::size_t>(v)];
          pick = v;
        }
      }
      if (pick < 0) break;  // everything absorbed
      if (grown == 0.0) pick = seed;
      // Overshoot control: stop before adding if that lands closer to the
      // target than adding would.
      const double wv = w[static_cast<std::size_t>(pick)];
      if (grown > 0.0 && grown + wv - target_weight > target_weight - grown)
        break;
      side[static_cast<std::size_t>(pick)] = 0;
      grown += wv;
      for (const Edge& e : g.edges_of(pick))
        conn[static_cast<std::size_t>(e.neighbor)] += 2.0 * e.bytes;
    }
    fm_refine(g, w, side, target_left);
    const double cut = edge_cut(g, side);
    if (cut < best_cut) {
      best_cut = cut;
      best_side = std::move(side);
    }
  }
  return best_side;
}

}  // namespace

std::vector<int> MultilevelPartitioner::bisect(const graph::TaskGraph& g,
                                               double left_fraction,
                                               Rng& rng) const {
  TOPOMAP_REQUIRE(left_fraction > 0.0 && left_fraction < 1.0,
                  "left_fraction must be in (0,1)");
  const int n = g.num_vertices();
  if (n == 0) return {};

  // Build the coarsening hierarchy.
  std::vector<CoarseLevel> levels;
  const TaskGraph* cur = &g;
  const double side_fraction = std::min(left_fraction, 1.0 - left_fraction);
  while (cur->num_vertices() > kCoarsenTarget) {
    const std::vector<double> cur_w = balance_weights(*cur);
    const double total = std::accumulate(cur_w.begin(), cur_w.end(), 0.0);
    CoarseLevel level;
    // No coarse vertex may exceed ~half of the smaller side's target, so
    // balance stays achievable after contraction.
    if (!coarsen_once(*cur, 0.5 * side_fraction * total, rng, &level)) break;
    levels.push_back(std::move(level));
    cur = &levels.back().coarse;
  }

  // Initial bisection on the coarsest graph.
  std::vector<double> w = balance_weights(*cur);
  std::vector<int> side = grow_bisection(*cur, w, left_fraction, rng);

  // Uncoarsen with refinement at every level.
  for (int li = static_cast<int>(levels.size()) - 1; li >= 0; --li) {
    const TaskGraph& finer = (li == 0) ? g : levels[static_cast<std::size_t>(li - 1)].coarse;
    std::vector<int> fine_side(static_cast<std::size_t>(finer.num_vertices()));
    const auto& map = levels[static_cast<std::size_t>(li)].fine_to_coarse;
    for (int v = 0; v < finer.num_vertices(); ++v)
      fine_side[static_cast<std::size_t>(v)] =
          side[static_cast<std::size_t>(map[static_cast<std::size_t>(v)])];
    side = std::move(fine_side);
    const std::vector<double> fw = balance_weights(finer);
    fm_refine(finer, fw, side, left_fraction);
  }
  return side;
}

namespace {

void recurse(const MultilevelPartitioner& partitioner, const TaskGraph& g,
             const std::vector<int>& to_original, int k, int part_offset,
             Rng& rng, std::vector<int>& out) {
  const int n = g.num_vertices();
  if (k <= 1) {
    for (int v = 0; v < n; ++v)
      out[static_cast<std::size_t>(to_original[static_cast<std::size_t>(v)])] =
          part_offset;
    return;
  }
  if (n <= k) {
    // Degenerate: at most one vertex per part.
    for (int v = 0; v < n; ++v)
      out[static_cast<std::size_t>(to_original[static_cast<std::size_t>(v)])] =
          part_offset + v;
    return;
  }
  const int k_left = k / 2;
  const double left_fraction =
      static_cast<double>(k_left) / static_cast<double>(k);
  const std::vector<int> side = partitioner.bisect(g, left_fraction, rng);

  for (int which : {0, 1}) {
    std::vector<int> members;
    for (int v = 0; v < n; ++v)
      if (side[static_cast<std::size_t>(v)] == which) members.push_back(v);
    const graph::Subgraph sub = graph::induced_subgraph(g, members);
    std::vector<int> sub_to_original(sub.local_to_parent.size());
    for (std::size_t i = 0; i < sub.local_to_parent.size(); ++i)
      sub_to_original[i] = to_original[static_cast<std::size_t>(
          sub.local_to_parent[i])];
    recurse(partitioner, sub.graph, sub_to_original,
            which == 0 ? k_left : k - k_left,
            which == 0 ? part_offset : part_offset + k_left, rng, out);
  }
}

}  // namespace

PartitionResult MultilevelPartitioner::partition(const graph::TaskGraph& g,
                                                 int k, Rng& rng) const {
  TOPOMAP_REQUIRE(k >= 1, "need at least one part");
  PartitionResult result;
  result.num_parts = k;
  result.assignment.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<int> identity(static_cast<std::size_t>(g.num_vertices()));
  std::iota(identity.begin(), identity.end(), 0);
  recurse(*this, g, identity, k, 0, rng, result.assignment);
  return result;
}

}  // namespace topomap::part
