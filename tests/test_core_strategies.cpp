// Mapping-strategy tests: bijectivity invariants across families (TEST_P),
// paper-shape quality checks, refiner monotonicity, factory parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "core/baseline_lb.hpp"
#include "core/detail/gain_select.hpp"
#include "core/detail/row_minima.hpp"
#include "core/fault_aware.hpp"
#include "core/metrics.hpp"
#include "core/refine_topo_lb.hpp"
#include "core/topo_cent_lb.hpp"
#include "core/topo_lb.hpp"
#include "graph/builders.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"
#include "topo/torus_mesh.hpp"

namespace topomap::core {
namespace {

using graph::stencil_2d;
using graph::TaskGraph;
using topo::make_topology;
using topo::TorusMesh;

TEST(TopoLB, MapsStencilOntoMatchingTorusNearOptimally) {
  // Paper Fig. 2: TopoLB maps a 2D-mesh pattern onto a 2D-torus of the same
  // size almost optimally (hops-per-byte ~= 1).
  const auto g = stencil_2d(8, 8, 1.0);
  const TorusMesh t = TorusMesh::torus({8, 8});
  Rng rng(1);
  const Mapping m = TopoLB().map(g, t, rng);
  EXPECT_TRUE(is_one_to_one(m, t));
  const double hpb = hops_per_byte(g, t, m);
  EXPECT_LT(hpb, 1.6);  // near-optimal; random would be ~4.0
  EXPECT_LT(hpb, expected_random_hops(t) / 2.0);
}

TEST(TopoLB, SubgraphCaseMeshIntoLargerTorus) {
  // Paper Fig. 4: an (8,8) 2D-mesh is a subgraph of a (4,4,4) 3D-torus, so
  // hops-per-byte can reach 1; TopoLB gets close.
  const auto g = stencil_2d(8, 8, 1.0);
  const auto t = make_topology("torus:4x4x4");
  Rng rng(1);
  const Mapping m = TopoLB().map(g, *t, rng);
  const double hpb = hops_per_byte(g, *t, m);
  EXPECT_LT(hpb, 1.8);
  EXPECT_LT(hpb, expected_random_hops(*t) / 1.5);
}

TEST(TopoLB, AllOrdersProduceValidMappings) {
  const auto g = stencil_2d(6, 6, 1.0);
  const TorusMesh t = TorusMesh::torus({6, 6});
  Rng rng(1);
  for (EstimationOrder order : {EstimationOrder::kFirst,
                                EstimationOrder::kSecond,
                                EstimationOrder::kThird}) {
    const Mapping m = TopoLB(order).map(g, t, rng);
    EXPECT_TRUE(is_one_to_one(m, t));
    EXPECT_LT(hops_per_byte(g, t, m), expected_random_hops(t));
  }
}

TEST(TopoLB, DeterministicAcrossCalls) {
  const auto g = stencil_2d(5, 5, 1.0);
  const TorusMesh t = TorusMesh::torus({5, 5});
  Rng r1(1), r2(999);  // rng is unused by TopoLB; results must match anyway
  EXPECT_EQ(TopoLB().map(g, t, r1), TopoLB().map(g, t, r2));
}

/// Offers row[i] as (row[i], qs[i]) to a depth-k RowMinima and checks the
/// buffer against the k smallest pairs of a full sort.
void expect_row_minima(const std::vector<double>& row,
                       const std::vector<int>& qs, int k) {
  std::vector<double> f(static_cast<std::size_t>(k), -1.0);
  std::vector<int> q(static_cast<std::size_t>(k), -1);
  detail::RowMinima best(f.data(), q.data(), k);
  std::vector<std::pair<double, int>> sorted;
  for (std::size_t i = 0; i < row.size(); ++i) {
    best.offer(row[i], qs[i]);
    sorted.emplace_back(row[i], qs[i]);
  }
  std::sort(sorted.begin(), sorted.end());
  const int want = std::min(k, static_cast<int>(sorted.size()));
  ASSERT_EQ(best.size(), want) << "nf " << row.size() << " k " << k;
  for (int i = 0; i < want; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    EXPECT_EQ(f[ui], sorted[ui].first) << "slot " << i;
    EXPECT_EQ(q[ui], sorted[ui].second) << "slot " << i;
  }
}

TEST(RowMinima, MatchesFullSortOnRandomRows) {
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const int nf = static_cast<int>(rng.uniform_int(1, 300));
    const int k = static_cast<int>(rng.uniform_int(1, 16));
    // Free processors are a strictly increasing subset of the machine.
    std::vector<int> qs;
    for (int q = 0; static_cast<int>(qs.size()) < nf; ++q)
      if (rng.bernoulli(0.7)) qs.push_back(q);
    // Few distinct values make heavy ties; many make them rare.
    const int levels = trial % 2 == 0 ? 4 : 1 << 20;
    std::vector<double> row(static_cast<std::size_t>(nf));
    for (double& v : row)
      v = 0.25 * static_cast<double>(rng.uniform_int(0, levels - 1));
    expect_row_minima(row, qs, k);
  }
}

TEST(RowMinima, EdgeRows) {
  const std::vector<int> q12 = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  // All-equal: the lowest processor ids win.
  expect_row_minima(std::vector<double>(12, 3.0), q12, 8);
  // Fewer free processors than K, and a single one.
  expect_row_minima({5.0, 1.0, 5.0}, {2, 7, 9}, 8);
  expect_row_minima({7.5}, {41}, 8);
  // Descending: every offer lands at the front and shifts the buffer.
  std::vector<double> desc(q12.size());
  for (std::size_t i = 0; i < desc.size(); ++i)
    desc[i] = static_cast<double>(desc.size() - i);
  expect_row_minima(desc, q12, 8);
  // Unreachable entries of a hard-faulted plane read 65535 hops, so f
  // reaches 65535 x bytes beside ordinary small values.
  const double bytes = 1024.0;
  expect_row_minima({65535.0 * bytes, 3.0 * bytes, 65535.0 * bytes, 1.0,
                     65535.0 * bytes, 65535.0 * bytes, 2.0 * bytes, 1.0,
                     65535.0 * bytes, 65535.0 * bytes, 0.0, 65535.0 * bytes},
                    q12, 8);
  expect_row_minima(std::vector<double>(12, 65535.0 * bytes), q12, 1);
}

/// One unplaced task as the selection sees it: an active row with its
/// cached gain, or a passive row with its U (the shared landscape gives the
/// gain); ids ascend, with gaps where tasks are already placed.
struct SelTask {
  int id;
  bool passive;
  double gain_or_u;
  double comm;
};

/// The shared passive landscape: F_sum = U * sum, F_min = U * min.
struct Landscape {
  double sum = 0.0;
  double nfree = 1.0;
  double min = 0.0;
};

/// The selection fold every unplaced task went through before block
/// skipping, kept verbatim as the reference.
int linear_pick(const std::vector<SelTask>& tasks, const Landscape& l) {
  int best = -1;
  double best_gain = 0.0;
  double best_comm = 0.0;
  for (const SelTask& s : tasks) {
    const double gain =
        s.passive ? s.gain_or_u * l.sum / l.nfree - s.gain_or_u * l.min
                  : s.gain_or_u;
    if (best < 0) {
      best = s.id;
      best_gain = gain;
      best_comm = s.comm;
      continue;
    }
    const double tol =
        1e-9 * std::max(1.0, std::max(std::abs(gain), std::abs(best_gain)));
    if (gain > best_gain + tol) {
      best = s.id;
      best_gain = gain;
      best_comm = s.comm;
    } else if (gain > best_gain - tol && s.comm > best_comm) {
      best = s.id;
      best_gain = std::max(best_gain, gain);
      best_comm = s.comm;
    }
  }
  return best;
}

/// TopoLB's selection: blocks of detail::kGainBlock ids in ascending order,
/// each bounded by its active gains and its passive U range and skipped
/// when GainFold::skips clears the bound.  `folded` counts the tasks folded
/// one by one.
int blocked_pick(const std::vector<SelTask>& tasks, const Landscape& l,
                 int* folded) {
  detail::GainFold fold;
  *folded = 0;
  for (std::size_t lo = 0; lo < tasks.size();) {
    const int blk = tasks[lo].id / detail::kGainBlock;
    std::size_t hi = lo;
    while (hi < tasks.size() && tasks[hi].id / detail::kGainBlock == blk) ++hi;
    detail::GainBound bound{-std::numeric_limits<double>::infinity(), 0.0};
    double u_lo = std::numeric_limits<double>::infinity(), u_hi = -u_lo;
    double comm_hi = -u_lo;
    for (std::size_t i = lo; i < hi; ++i) {
      const SelTask& s = tasks[i];
      comm_hi = std::max(comm_hi, s.comm);
      if (s.passive) {
        u_lo = std::min(u_lo, s.gain_or_u);
        u_hi = std::max(u_hi, s.gain_or_u);
      } else {
        bound.hi = std::max(bound.hi, s.gain_or_u);
        bound.abs_hi = std::max(bound.abs_hi, std::abs(s.gain_or_u));
      }
    }
    if (u_lo <= u_hi) {
      const detail::GainBound p =
          detail::passive_gain_bound(u_lo, u_hi, l.sum, l.nfree, l.min);
      bound.hi = std::max(bound.hi, p.hi);
      bound.abs_hi = std::max(bound.abs_hi, p.abs_hi);
    }
    if (!fold.skips(bound, comm_hi)) {
      for (std::size_t i = lo; i < hi; ++i) {
        const SelTask& s = tasks[i];
        fold.offer(s.id,
                   s.passive ? detail::passive_gain(s.gain_or_u, l.sum,
                                                    l.nfree, l.min)
                             : s.gain_or_u,
                   s.comm);
        ++*folded;
      }
    }
    lo = hi;
  }
  return fold.best();
}

/// Both picks agree; returns how many tasks the blocked fold folded.
int expect_same_pick(const std::vector<SelTask>& tasks, const Landscape& l) {
  int folded = 0;
  EXPECT_EQ(blocked_pick(tasks, l, &folded), linear_pick(tasks, l))
      << tasks.size() << " tasks, landscape sum " << l.sum << " nfree "
      << l.nfree << " min " << l.min;
  return folded;
}

/// Dense ids 0..n-1, all active, with the given gains and comm bytes.
std::vector<SelTask> active_tasks(const std::vector<double>& gains,
                                  const std::vector<double>& comms) {
  std::vector<SelTask> tasks;
  for (std::size_t i = 0; i < gains.size(); ++i)
    tasks.push_back({static_cast<int>(i), false, gains[i], comms[i]});
  return tasks;
}

TEST(GainSelect, PassiveBoundCoversEveryU) {
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    const double nfree = static_cast<double>(rng.uniform_int(1, 4096));
    const double min = rng.uniform_double(0.0, 8.0);
    // Drifted sums straddle nfree * min, so the slope takes either sign.
    const double rel = trial % 2 == 0 ? rng.uniform_double(-1e-14, 1e-14)
                                      : rng.uniform_double(-0.5, 0.5);
    const double sum = nfree * min * (1.0 + rel);
    const double u_lo = trial % 3 == 0 ? 0.0 : rng.uniform_double(0.0, 1e6);
    const double u_hi = u_lo + rng.uniform_double(0.0, 1e6);
    const detail::GainBound b =
        detail::passive_gain_bound(u_lo, u_hi, sum, nfree, min);
    for (int k = 0; k < 64; ++k) {
      const double u = k == 0 ? u_lo : k == 1 ? u_hi
                                              : rng.uniform_double(u_lo, u_hi);
      const double gain = detail::passive_gain(u, sum, nfree, min);
      ASSERT_LE(gain, b.hi) << u;
      ASSERT_LE(std::abs(gain), b.abs_hi) << u;
    }
  }
}

TEST(GainSelect, MatchesLinearFoldOnRandomTasks) {
  Rng rng(4242);
  long offered = 0, folded = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 600));
    Landscape l;
    l.nfree = static_cast<double>(rng.uniform_int(1, 1024));
    l.min = rng.uniform_double(0.0, 6.0);
    l.sum = l.nfree * l.min * (1.0 + rng.uniform_double(-1e-15, 0.3));
    // Few distinct gain and comm levels make heavy ties; many make them rare.
    const int levels = trial % 3 == 0 ? 3 : 1 << 20;
    const double passive_share = (trial % 4) / 3.0;
    std::vector<SelTask> tasks;
    for (int id = 0; static_cast<int>(tasks.size()) < n; ++id) {
      if (rng.bernoulli(0.3)) continue;  // already placed
      const double comm =
          trial % 5 == 0 ? 0.0
                         : 64.0 * static_cast<double>(
                                      rng.uniform_int(0, levels - 1));
      if (rng.bernoulli(passive_share)) {
        tasks.push_back({id, true, comm, comm});  // a passive U is its comm
      } else {
        const double gain =
            1e4 * static_cast<double>(rng.uniform_int(0, levels - 1)) /
                static_cast<double>(levels) -
            (trial % 7 == 0 ? 5e3 : 0.0);
        tasks.push_back({id, false, gain, comm});
      }
    }
    offered += n;
    folded += expect_same_pick(tasks, l);
  }
  // The skip path must have been taken, or the comparison shows nothing.
  EXPECT_LT(folded, offered / 2);
}

TEST(GainSelect, ToleranceChainsAreNotTransitive) {
  // Neighbouring gains sit 0.9e-9 (relative) apart: each is tied with the
  // next, but not with one two steps away, so the pick depends on fold
  // order and on when the best gain is raised.
  for (const double dir : {1.0, -1.0}) {
    for (const int comm_step : {1, -1, 0}) {
      std::vector<double> gains, comms;
      for (int i = 0; i < 300; ++i) {
        gains.push_back(1e3 * (1.0 + dir * 0.9e-9 * i));
        comms.push_back(1e4 + comm_step * ((i * 37) % 11 + i));
      }
      expect_same_pick(active_tasks(gains, comms), Landscape{});
    }
  }
  // A chain in the absolute-tolerance regime around zero.
  std::vector<double> gains, comms;
  for (int i = 0; i < 300; ++i) {
    gains.push_back(-1.5e-7 + 0.9e-9 * i * ((i % 3) ? 1.0 : -0.5));
    comms.push_back(static_cast<double>(i % 17));
  }
  expect_same_pick(active_tasks(gains, comms), Landscape{});
}

TEST(GainSelect, TieBelowANegativeBestNeedsTheMagnitudeBound) {
  // The task's gain sits exactly one best-gain tolerance below the best,
  // so the best's own tolerance calls it no tie, but the task's larger
  // magnitude widens the fold's tolerance just enough to make it one: it
  // wins on comm bytes.  Only abs_hi keeps the block bound from skipping it.
  const double best = -227122.0;
  const double gain = best - 1e-9 * 227122.0;
  const std::vector<SelTask> tasks = {{0, false, best, 1.0},
                                      {64, false, gain, 2.0}};
  EXPECT_EQ(linear_pick(tasks, Landscape{}), 64);
  EXPECT_EQ(expect_same_pick(tasks, Landscape{}), 2);
}

TEST(GainSelect, EqualGainsGoToLargerCommThenLowerId) {
  std::vector<double> rising, falling, flat;
  for (int i = 0; i < 200; ++i) {
    rising.push_back(static_cast<double>(i));
    falling.push_back(static_cast<double>(200 - i));
    flat.push_back(7.0);
  }
  const std::vector<double> gains(200, 5.0);
  // Rising comm: every block may still raise the pick, so none is skipped.
  EXPECT_EQ(expect_same_pick(active_tasks(gains, rising), Landscape{}), 200);
  EXPECT_EQ(linear_pick(active_tasks(gains, rising), Landscape{}), 199);
  // Falling or flat comm: task 0 wins, every later block is skipped.
  EXPECT_EQ(expect_same_pick(active_tasks(gains, falling), Landscape{}),
            detail::kGainBlock);
  EXPECT_EQ(expect_same_pick(active_tasks(gains, flat), Landscape{}),
            detail::kGainBlock);
  EXPECT_EQ(linear_pick(active_tasks(gains, flat), Landscape{}), 0);
}

TEST(GainSelect, DriftedPassiveSlopesAndZeroU) {
  // A vertex-transitive machine: sum == nfree * min up to drift, so every
  // passive gain is a tiny multiple of U of either sign, all tied in the
  // absolute tolerance, and comm bytes decide.
  for (const double drift : {-3e-16, 0.0, 3e-16}) {
    Landscape l;
    l.nfree = 777.0;
    l.min = 3.25;
    l.sum = l.nfree * l.min * (1.0 + drift);
    std::vector<SelTask> tasks;
    for (int id = 0; id < 400; ++id) {
      const double u = id % 9 == 0 ? 0.0 : 1e6 * (1.0 + (id * 7919) % 101);
      tasks.push_back({id, true, u, u});
    }
    expect_same_pick(tasks, l);
    // Active rows with gains just below zero join the tie.
    for (int id = 3; id < 400; id += 50) tasks[id] = {id, false, -2e-10, 5e8};
    expect_same_pick(tasks, l);
  }
  // Only zero-U tasks: every gain is zero and every comm zero, so the
  // lowest id wins and blocks after the first are skipped.
  std::vector<SelTask> zeros;
  for (int id = 5; id < 300; ++id) zeros.push_back({id, true, 0.0, 0.0});
  Landscape l;
  l.nfree = 300.0;
  l.min = 2.0;
  l.sum = 700.0;
  EXPECT_EQ(linear_pick(zeros, l), 5);
  EXPECT_EQ(expect_same_pick(zeros, l), detail::kGainBlock - 5);
}

TEST(GainSelect, SingleTaskAndFullySkippedBlocks) {
  Landscape l;
  l.nfree = 10.0;
  l.min = 1.0;
  l.sum = 25.0;
  EXPECT_EQ(expect_same_pick({{17, false, -4.0, 0.0}}, l), 1);
  EXPECT_EQ(expect_same_pick({{130, true, 3.0, 3.0}}, l), 1);
  // Task 0 dominates by gain and comm, so every later block — active or
  // passive, with gains far below or within the tolerance — is skipped.
  std::vector<SelTask> tasks = {{0, false, 1e6, 1e9}};
  for (int id = 64; id < 640; ++id) {
    if (id % 2 == 0)
      tasks.push_back({id, false, 1e6 * (1.0 - 0.5e-9 * (id % 3)), 1e8});
    else
      tasks.push_back({id, true, 1e3, 1e3});
  }
  EXPECT_EQ(linear_pick(tasks, l), 0);
  EXPECT_EQ(expect_same_pick(tasks, l), 1);
}

TEST(TopoLB, SymmetricTiesBreakDeterministically) {
  // A bidirectional ring on a torus: every task has the same degree, edge
  // weight, and total communication, so the selection gains are
  // *mathematically* equal for whole orbits of tasks — exactly the regime
  // where the old bit-exact `==` tie test silently depended on FP rounding
  // of the incrementally-maintained F_sum.  With the relative-epsilon
  // comparison the documented rule (comm bytes, then lowest id) decides,
  // so repeated runs, different seeds, and both estimation extremes must
  // agree with themselves.
  const TaskGraph g = graph::ring(16, 4.0);
  const TorusMesh t = TorusMesh::torus({4, 4});
  for (EstimationOrder order : {EstimationOrder::kFirst,
                                EstimationOrder::kSecond,
                                EstimationOrder::kThird}) {
    Rng r1(1), r2(12345);
    const Mapping m1 = TopoLB(order).map(g, t, r1);
    const Mapping m2 = TopoLB(order).map(g, t, r2);
    EXPECT_EQ(m1, m2);
    EXPECT_TRUE(is_one_to_one(m1, t));
    // A ring embeds into a torus with all-neighbour distances <= 2.
    EXPECT_LE(hops_per_byte(g, t, m1), 2.0);
  }
  // The ring is vertex-transitive, so the first selection is a pure tie
  // orbit: the lowest-id task must win and land on processor 0 (lowest-id
  // free processor of a node-transitive torus).
  Rng rng(7);
  const Mapping m = TopoLB().map(g, t, rng);
  EXPECT_EQ(m[0], 0);
}

TEST(TopoLB, RequiresSquareProblem) {
  const auto g = stencil_2d(3, 3, 1.0);
  const TorusMesh t = TorusMesh::torus({4, 4});
  Rng rng(1);
  EXPECT_THROW(TopoLB().map(g, t, rng), precondition_error);
}

TEST(TopoLB, HandlesGraphWithIsolatedVertices) {
  TaskGraph::Builder b("sparse");
  b.add_vertices(9);
  b.add_edge(0, 1, 5.0);
  b.add_edge(1, 2, 5.0);
  const TaskGraph g = std::move(b).build();
  const TorusMesh t = TorusMesh::torus({3, 3});
  Rng rng(1);
  const Mapping m = TopoLB().map(g, t, rng);
  EXPECT_TRUE(is_one_to_one(m, t));
  // The two communicating edges should land at distance 1.
  EXPECT_DOUBLE_EQ(hops_per_byte(g, t, m), 1.0);
}

TEST(TopoCentLB, QualityBetweenRandomAndTopoLB) {
  // Paper: TopoCentLB also produces small hops-per-byte, ~10% above TopoLB.
  const auto g = stencil_2d(10, 10, 1.0);
  const TorusMesh t = TorusMesh::torus({10, 10});
  Rng rng(1);
  const double cent = hops_per_byte(g, t, TopoCentLB().map(g, t, rng));
  const double rand = expected_random_hops(t);  // 5.0
  EXPECT_LT(cent, rand / 2.0);
}

TEST(TopoCentLB, PlacesHeaviestCommunicatorFirstSensibly) {
  // A star graph: the hub must end adjacent to all placed leaves early on;
  // every leaf of a 5-node star fits within distance 1 on a 5-node ring? No
  // — just assert validity and that hop-bytes beat the worst case.
  TaskGraph::Builder b("star");
  b.add_vertices(9);
  for (int leaf = 1; leaf < 9; ++leaf) b.add_edge(0, leaf, 10.0);
  const TaskGraph g = std::move(b).build();
  const TorusMesh t = TorusMesh::torus({3, 3});
  Rng rng(1);
  const Mapping m = TopoCentLB().map(g, t, rng);
  EXPECT_TRUE(is_one_to_one(m, t));
  // On a 3x3 torus every node pair is within 2 hops; a star hub with its 4
  // direct neighbours occupied by leaves gives hop-bytes 4*1 + 4*2 = 12
  // edges-bytes... just require better than the 2-hops-everywhere bound.
  EXPECT_LT(hop_bytes(g, t, m), 2.0 * g.total_comm_bytes());
}

TEST(Baselines, RandomLBIsSeededBijection) {
  const auto g = stencil_2d(6, 6, 1.0);
  const TorusMesh t = TorusMesh::torus({6, 6});
  Rng a(7), b(7), c(8);
  const Mapping ma = RandomLB().map(g, t, a);
  EXPECT_TRUE(is_one_to_one(ma, t));
  EXPECT_EQ(ma, RandomLB().map(g, t, b));
  EXPECT_NE(ma, RandomLB().map(g, t, c));
}

TEST(Baselines, GreedyLBBalancesOneTaskPerProcessor) {
  const auto g = stencil_2d(4, 4, 1.0);
  const TorusMesh t = TorusMesh::torus({4, 4});
  Rng rng(3);
  EXPECT_TRUE(is_one_to_one(GreedyLB().map(g, t, rng), t));
}

TEST(Refine, NeverWorsensAndFixesObviousSwap) {
  // Ring of 4 on a 2x2 torus mapped crosswise; refinement must reach the
  // optimum where every ring edge is one hop.
  const auto g = graph::ring(4, 10.0);
  const TorusMesh t = TorusMesh::torus({2, 2});
  const Mapping bad{0, 3, 1, 2};  // neighbours placed diagonally
  const RefineResult r = refine_mapping(g, t, bad);
  EXPECT_LE(r.hop_bytes_after, r.hop_bytes_before);
  EXPECT_DOUBLE_EQ(r.hop_bytes_after, g.total_comm_bytes());  // all 1 hop
  EXPECT_GT(r.swaps, 0);
}

TEST(Refine, SwapDeltaMatchesBruteForce) {
  Rng rng(11);
  const auto g = graph::random_graph(20, 0.3, 1.0, 8.0, rng);
  const TorusMesh t = TorusMesh::torus({4, 5});
  Mapping m = rng.permutation(20);
  const double before = hop_bytes(g, t, m);
  for (int a = 0; a < 20; ++a) {
    for (int b = a + 1; b < 20; ++b) {
      const double delta = swap_delta(g, t, m, a, b);
      Mapping swapped = m;
      std::swap(swapped[a], swapped[b]);
      EXPECT_NEAR(before + delta, hop_bytes(g, t, swapped), 1e-6)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(Refine, ImprovesRandomSubstantially) {
  const auto g = stencil_2d(8, 8, 1.0);
  const TorusMesh t = TorusMesh::torus({8, 8});
  Rng rng(2);
  const Mapping random = RandomLB().map(g, t, rng);
  const RefineResult r = refine_mapping(g, t, random, 16);
  EXPECT_LT(r.hop_bytes_after, 0.7 * r.hop_bytes_before);
}

TEST(Factory, BuildsEveryStrategyAndRefinedVariants) {
  const auto g = stencil_2d(4, 4, 1.0);
  const TorusMesh t = TorusMesh::torus({4, 4});
  Rng rng(1);
  for (const char* spec : {"random", "greedy", "topocent", "topolb",
                           "topolb1", "topolb3", "topolb+refine",
                           "topocent+refine", "random+refine"}) {
    const StrategyPtr s = make_strategy(spec);
    ASSERT_NE(s, nullptr) << spec;
    EXPECT_TRUE(is_one_to_one(s->map(g, t, rng), t)) << spec;
    EXPECT_FALSE(s->name().empty());
  }
  EXPECT_THROW(make_strategy("does-not-exist"), precondition_error);
}

// ---------------------------------------------------------------------------
// Property sweep: every strategy yields a bijection on every (graph,
// topology, seed) combination, and the topology-aware strategies never lose
// to the expected random placement on stencil workloads.
// ---------------------------------------------------------------------------
class StrategyPropertyTest
    : public ::testing::TestWithParam<std::tuple<const char*, const char*, int>> {
};

TEST_P(StrategyPropertyTest, ProducesBijectionAndSaneQuality) {
  const auto [strategy_spec, topo_spec, seed] = GetParam();
  const auto t = make_topology(topo_spec);
  Rng graph_rng(static_cast<std::uint64_t>(seed));
  // A mixed workload with the same vertex count as the topology.
  const TaskGraph g =
      graph::random_graph(t->size(), 3.0 / t->size() + 0.08, 1.0, 64.0,
                          graph_rng, /*require_connected=*/false);
  const StrategyPtr s = make_strategy(strategy_spec);
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  const Mapping m = s->map(g, *t, rng);
  ASSERT_TRUE(is_one_to_one(m, *t));
  const double hpb = hops_per_byte(g, *t, m);
  EXPECT_GE(hpb, 0.0);
  EXPECT_LE(hpb, static_cast<double>(t->diameter()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrategyPropertyTest,
    ::testing::Combine(
        ::testing::Values("random", "greedy", "topocent", "topolb", "topolb1",
                          "topolb3", "topolb+refine"),
        ::testing::Values("torus:4x4", "mesh:5x3", "torus:3x3x3",
                          "hypercube:4", "fattree:3x2"),
        ::testing::Values(1, 2, 3)));

// Topology-aware strategies must clearly beat random placement on stencil
// communication across torus shapes (the paper's central claim).
class BeatsRandomTest
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(BeatsRandomTest, TopologyAwareBeatsRandomOnStencils) {
  const auto [strategy_spec, side] = GetParam();
  const auto g = stencil_2d(side, side, 1.0);
  const TorusMesh t = TorusMesh::torus({side, side});
  Rng rng(42);
  const StrategyPtr s = make_strategy(strategy_spec);
  const double hpb = hops_per_byte(g, t, s->map(g, t, rng));
  EXPECT_LT(hpb, 0.55 * expected_random_hops(t))
      << strategy_spec << " side=" << side;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BeatsRandomTest,
    ::testing::Combine(::testing::Values("topocent", "topolb", "topolb1",
                                         "topolb3", "topolb+refine"),
                       ::testing::Values(6, 8, 10)));

// Every strategy degrades gracefully under processor faults: mapping
// directly onto a machine with dead processors is rejected up front
// (precondition_error, not a crash or a dead placement), and map_on_alive
// yields a valid alive-only injective mapping for the same strategy.
class FaultToleranceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FaultToleranceTest, RejectsDeadProcessorsAndMapsOnAliveSubset) {
  const StrategyPtr s = make_strategy(GetParam());
  auto overlay = std::make_shared<topo::FaultOverlay>(make_topology("torus:4x4"));
  overlay->fail_node(6);
  overlay->fail_node(12);  // 14 alive

  // Direct mapping onto a machine with dead processors must fail fast.
  const auto square = stencil_2d(4, 4, 1.0);  // 16 tasks
  Rng rng(1);
  EXPECT_THROW(s->map(square, *overlay, rng), precondition_error);

  // Too many tasks for the alive subset must fail fast too.
  EXPECT_THROW(map_on_alive(*s, square, *overlay, rng), precondition_error);

  // The alive subset works and never places on a dead processor.
  const auto g = stencil_2d(3, 4, 1.0);  // 12 tasks <= 14 alive
  const Mapping m = map_on_alive(*s, g, *overlay, rng);
  ASSERT_EQ(m.size(), 12u);
  std::vector<char> used(16, 0);
  for (int proc : m) {
    ASSERT_GE(proc, 0);
    ASSERT_LT(proc, 16);
    EXPECT_TRUE(overlay->is_alive(proc)) << GetParam();
    EXPECT_FALSE(used[static_cast<std::size_t>(proc)]) << GetParam();
    used[static_cast<std::size_t>(proc)] = 1;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, FaultToleranceTest,
    ::testing::Values("random", "greedy", "topocent", "topolb", "topolb1",
                      "topolb3", "recursive", "anneal", "anneal-warm",
                      "topolb+refine", "topolb+linkrefine"));

}  // namespace
}  // namespace topomap::core
