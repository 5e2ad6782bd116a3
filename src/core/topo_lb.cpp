#include "core/topo_lb.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/cache_handle.hpp"
#include "core/detail/gain_select.hpp"
#include "core/detail/row_minima.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "topo/distance_cache.hpp"

namespace topomap::core {

namespace {

// Third order's per-cycle refresh rescans every unplaced row at O(p) work
// each, the one TopoLB loop large enough to pay for the worker pool.  A
// chunk of rows touches only those rows' slots, so the result is
// byte-identical for any thread count — see support/parallel.hpp.  Every
// other step runs on the calling thread.
constexpr int kRowGrain = 8;

/// Row-minimum buffer depth.  Each row keeps its kTopK smallest (f, q)
/// pairs; when a row's argmin processor is consumed the next minimum is the
/// first still-free buffer entry, and a full O(p) rescan is needed only
/// once the buffer drains.  Correctness: a row's f values over free
/// processors change only when the row's task gains a placed neighbour
/// (step 4 rescans it then), so between rescans the free set merely
/// shrinks — and the K smallest of a set contain the minimum of every
/// subset they intersect.  On symmetric topologies nearly every row shares
/// one argmin, so without the buffer each placement forces O(p) full
/// rescans — O(p^3) total where the paper promises O(p^2 * deg).
///
/// The buffer is exact at any depth, so K trades only work: a shallower
/// buffer costs less per sweep (each insert shifts up to K entries) and
/// drains a little sooner.  Against K = 8, K = 4 rescans 483 rows instead
/// of 480 on stencil2d:16x16 -> torus:8x8x4, 8196 instead of 8147 on
/// stencil2d:64x64 -> torus:16x16x16, 11538 instead of 11520 on
/// stencil3d:16x16x16 -> torus:16x16x16 and 31305 instead of 28440 (+10%)
/// on er:1024:0.05 -> torus:16x8x8, and the cheaper inserts more than pay
/// for it: TopoLB's median wall time there went 107 -> 98 ms over 15
/// alternated runs, and on the stencils it did not move beyond the host's
/// noise (DESIGN.md, "TopoLB row-minima buffer").
constexpr int kTopK = 4;

/// All mutable algorithm state, kept in one place so the update steps after
/// each placement read like the paper's description.  Distances come from
/// one topo::DistanceCache plane, whose entries are D.
///
/// Placed-cost rows: A(t, q) sums bytes * d(p_j, q) over t's placed
/// neighbours p_j, and each row is in one of three states.  A *passive*
/// row (no placed neighbour, or never touched in third order) reads one
/// shared zero row.  A *one-term* row (one placed neighbour) is that
/// neighbour's processor's distance-plane row times the edge's bytes, and
/// stores nothing: it keeps the plane row and the byte count, and every
/// reader computes bytes * d[q].  A *materialized* row (two or more placed
/// neighbours) holds a p-wide pool row, taken at the second fold, which
/// writes fl(b1 * d1[q]) + b2 * d2[q] at every free processor, and
/// returned to a LIFO free list when the task is placed, so the next task
/// to materialize reuses a row that is still warm in cache.  A taken row
/// is never cleared, and entries at used processors are never read again.
/// Pool memory is O(p * peak tasks with >= 2 placed neighbours), far below
/// the active-row count on sparse graphs: a 4096-task 2D stencil peaks at
/// 2 pool rows (136 active rows), a 3D one at 46 (768), while a dense
/// graph still approaches one row per task (889 of 1024 for
/// er:1024:0.05).  Since 0 + x == x for x >= 0, each A(t, q) is still the
/// same sequence of `+= bytes * d` in placement order, so the values — and
/// every mapping — are those of a dense matrix.  The one-term and
/// materialized holders, kept in two lists, are the active rows step 1
/// walks, one loop per state.
///
/// Lazy rows: until a task gains its first placed neighbour its
/// A row is identically zero, so its f landscape is just
/// U(t) * meandist(q) (second order) or constant zero (first order) — a
/// scaled copy of one shared vector.  Such rows carry no per-row state;
/// their minimum lives in one global (meandist, q)-ascending order with a
/// skip-consumed head, and their F_sum is U(t) * sum of free meandists.
/// This removes the initial O(p^2) scan and, crucially, the lockstep
/// buffer-drain storm on symmetric topologies where every passive row
/// would otherwise refill at once.  A row activates (full rescan into its
/// top-K buffer) the first time step 4 touches it.  Third order refreshes
/// every row each cycle, so there the lazy path is disabled.
template <class D>
struct TopoLBState {
  TopoLBState(const graph::TaskGraph& graph_in,
              const topo::DistanceCache& plane_in, EstimationOrder order_in)
      : g(graph_in), plane(plane_in), order(order_in), n(g.num_vertices()),
        lazy(order_in != EstimationOrder::kThird) {
    const auto un = static_cast<std::size_t>(n);
    zero_row.assign(un, 0.0);
    assigned_row.assign(un, zero_row.data());
    term.assign(un, OneTerm{});
    holder_pos.assign(un, -1);
    mean_dist.resize(un);
    comm.resize(un);
    for (int t = 0; t < n; ++t)
      comm[static_cast<std::size_t>(t)] = g.comm_bytes(t);
    unplaced_bytes = comm;
    for (int q = 0; q < n; ++q)
      mean_dist[static_cast<std::size_t>(q)] = plane.mean_distance_from(q);
    if (order == EstimationOrder::kThird) {
      sum_dist_free.resize(un);
      for (int q = 0; q < n; ++q)
        sum_dist_free[static_cast<std::size_t>(q)] =
            mean_dist[static_cast<std::size_t>(q)] * static_cast<double>(n);
    }
    task_placed.assign(un, 0);
    proc_used.assign(un, 0);
    free_procs.reserve(un);
    for (int q = 0; q < n; ++q) free_procs.push_back(q);
    // Every task starts unplaced; third order's rows are all active from
    // the initial rescan below.
    blocks.resize(static_cast<std::size_t>((n + detail::kGainBlock - 1) /
                                           detail::kGainBlock));
    for (int t = 0; t < n; ++t) {
      SelectBlock& b = blocks[static_cast<std::size_t>(t / detail::kGainBlock)];
      b.unplaced |= std::uint64_t{1} << (t % detail::kGainBlock);
      if (!lazy) b.active = b.unplaced;
    }
    for (int blk = 0; blk < static_cast<int>(blocks.size()); ++blk)
      tighten(blk);
    f_sum.assign(un, 0.0);
    f_min.assign(un, 0.0);
    f_argmin.assign(un, -1);
    top_k = std::min(kTopK, n);
    top_f.assign(un * static_cast<std::size_t>(top_k), 0.0);
    top_q.assign(un * static_cast<std::size_t>(top_k), -1);
    top_head.assign(un, 0);
    top_size.assign(un, 0);
    row_active.assign(un, 0);
    mapping.assign(un, kUnassigned);
    if (lazy) {
      // Shared landscape of passive rows: zero for first order (f ==
      // assigned == 0 there), meandist for second.  Lexicographic (value,
      // q) ascending, so the head is the lowest-id processor among equal
      // values — matching the sequential first-strict-minimum scan.
      m_order.reserve(un);
      const bool second = order == EstimationOrder::kSecond;
      for (int q = 0; q < n; ++q) {
        const double mq =
            second ? mean_dist[static_cast<std::size_t>(q)] : 0.0;
        m_order.emplace_back(mq, q);
        sum_m_free += mq;
      }
      std::sort(m_order.begin(), m_order.end());
    } else {
      rescan_all_rows();
    }
  }

  /// Placed-cost sources a sweep reads A(t, q) from, one per row state
  /// and step; each computes A at one free processor q.
  struct Stored {  // a pool row, or the shared zero row
    const double* row;
    double operator()(int q) const { return row[q]; }
  };
  struct OneTerm {  // bytes * d(proc, q), stored nowhere
    const D* d = nullptr;  // the placed neighbour's plane row; null if none
    double bytes = 0.0;
    double operator()(int q) const {
      return bytes * static_cast<double>(d[q]);
    }
  };
  /// One more placed neighbour's term, added to `from` and stored in the
  /// pool row `row`: a materialized row's fold (`from` reads `row`) or a
  /// one-term row's second, which takes the row (`from` is the first term).
  template <class From>
  struct AddTerm {
    double* row;
    From from;
    const D* d;
    double bytes;
    double operator()(int q) const {
      const double a = from(q) + bytes * static_cast<double>(d[q]);
      row[q] = a;
      return a;
    }
  };

  void add_holder(std::vector<int>& list, int t) {
    holder_pos[static_cast<std::size_t>(t)] = static_cast<int>(list.size());
    list.push_back(t);
  }

  void drop_holder(std::vector<int>& list, int t) {
    const int pos = holder_pos[static_cast<std::size_t>(t)];
    list[static_cast<std::size_t>(pos)] = list.back();
    holder_pos[static_cast<std::size_t>(list.back())] = pos;
    list.pop_back();
  }

  /// Give one-term task t a pool row: the most recently released one,
  /// else a fresh one.  Either holds stale or unwritten values, which the
  /// fold that follows overwrites at every free processor.
  double* take_row(int t) {
    drop_holder(one_term, t);
    add_holder(pooled, t);
    double*& row = assigned_row[static_cast<std::size_t>(t)];
    if (free_rows.empty()) {
      row_store.push_back(std::make_unique_for_overwrite<double[]>(
          static_cast<std::size_t>(n)));
      OBS_COUNTER_ADD("topolb/pool_rows", 1);
      row = row_store.back().get();
    } else {
      row = free_rows.back();
      free_rows.pop_back();
    }
    return row;
  }

  /// Task t was placed: its pool row, if any, goes back to the top of the
  /// free list, and it leaves its holder list.
  void release_row(int t) {
    double*& row = assigned_row[static_cast<std::size_t>(t)];
    OneTerm& first = term[static_cast<std::size_t>(t)];
    if (row != zero_row.data()) {
      free_rows.push_back(row);
      row = zero_row.data();
      drop_holder(pooled, t);
    } else if (first.d != nullptr) {
      first.d = nullptr;
      drop_holder(one_term, t);
    }
  }

  /// f_est(t, q, P) for a free processor q whose placed cost A(t, q) is
  /// `assigned`, under the configured order.
  double f_est(int t, double assigned, int q) const {
    switch (order) {
      case EstimationOrder::kFirst:
        return assigned;
      case EstimationOrder::kSecond:
        return assigned + unplaced_bytes[static_cast<std::size_t>(t)] *
                              mean_dist[static_cast<std::size_t>(q)];
      case EstimationOrder::kThird:
        return assigned + unplaced_bytes[static_cast<std::size_t>(t)] *
                              sum_dist_free[static_cast<std::size_t>(q)] /
                              static_cast<double>(free_procs.size());
    }
    TOPOMAP_UNREACHABLE("estimation order is an exhaustive enum");
  }

  /// Step 1 for one active row: retire `proc` from its F_sum, using the
  /// f it had there, and note the row if its minimum lived on `proc`.
  void retire(int t, double assigned, int proc) {
    f_sum[static_cast<std::size_t>(t)] -= f_est(t, assigned, proc);
    if (f_argmin[static_cast<std::size_t>(t)] == proc) stale.push_back(t);
  }

  /// Recompute F_sum and refill row t's top-K minima buffer (see sweep_row).
  void rescan_row(int t) {
    const OneTerm& first = term[static_cast<std::size_t>(t)];
    if (first.d != nullptr)
      sweep_row(t, first);
    else
      sweep_row(t, Stored{assigned_row[static_cast<std::size_t>(t)]});
  }

  /// One sweep over the free processors in increasing q: for every q it
  /// reads A(t, q) from `a_of` (which, for an AddTerm, first folds a newly
  /// placed neighbour's term into t's pool row), computes f, adds it to
  /// F_sum and offers it to the top-K buffer.  The buffer holds the K
  /// smallest (f, q) pairs in ascending lexicographic order, so its head is
  /// the sequential scan's first-strict-minimum (smallest f; lowest q on
  /// ties).
  ///
  /// This is the hottest kernel (every step-4 touched row pays one call),
  /// so the f expression is specialized per order outside the loop —
  /// identical arithmetic to f_est, without its per-element dispatch — and
  /// each (source, order) pair gets its own loop (sweep).  The K smallest
  /// are kept sorted in place in the row's own top_f/top_q slots: most
  /// entries cost one compare against the buffer's largest f, and the
  /// finished buffer needs no sort or copy.
  template <class A>
  void sweep_row(int t, A a_of) {
    OBS_COUNTER_ADD("topolb/row_rescans", 1);
    OBS_COUNTER_ADD("topolb/f_est_evals", free_procs.size());
    const double u = unplaced_bytes[static_cast<std::size_t>(t)];
    switch (order) {
      case EstimationOrder::kFirst:
        sweep(t, a_of, [](double a, int) { return a; });
        break;
      case EstimationOrder::kSecond: {
        const double* md = mean_dist.data();
        sweep(t, a_of, [u, md](double a, int q) { return a + u * md[q]; });
        break;
      }
      case EstimationOrder::kThird: {
        const double* sdf = sum_dist_free.data();
        const double nfree = static_cast<double>(free_procs.size());
        sweep(t, a_of, [u, sdf, nfree](double a, int q) {
          return a + u * sdf[q] / nfree;
        });
        break;
      }
    }
  }

  /// The loop of sweep_row.  Flattened: GCC's size heuristics outline
  /// RowMinima::offer once a function holds several of these loops, and
  /// a loop that calls it out of line runs about a quarter slower.
  template <class A, class F>
  [[gnu::flatten]] void sweep(int t, A a_of, F f_of) {
    const int nf = static_cast<int>(free_procs.size());
    const int* const procs = free_procs.data();
    const auto base =
        static_cast<std::size_t>(t) * static_cast<std::size_t>(top_k);
    detail::RowMinima best(top_f.data() + base, top_q.data() + base, top_k);
    double sum = 0.0;
    for (int i = 0; i < nf; ++i) {
      const int q = procs[i];
      const double f = f_of(a_of(q), q);
      sum += f;
      best.offer(f, q);
    }
    const int hs = best.size();
    row_active[static_cast<std::size_t>(t)] = 1;
    top_head[static_cast<std::size_t>(t)] = 0;
    top_size[static_cast<std::size_t>(t)] = hs;
    f_sum[static_cast<std::size_t>(t)] = sum;
    f_min[static_cast<std::size_t>(t)] =
        hs > 0 ? top_f[base] : std::numeric_limits<double>::infinity();
    f_argmin[static_cast<std::size_t>(t)] = hs > 0 ? top_q[base] : -1;
  }

  /// Fold a newly placed neighbour's term into t's pool row.  The
  /// incremental orders rescan the row in the same sweep; third order only
  /// folds here, its rows all being rescanned at the next cycle's start.
  template <class From>
  void add_term(int t, AddTerm<From> a_of) {
    if (order != EstimationOrder::kThird) {
      sweep_row(t, a_of);
    } else {
      for (const int q : free_procs) (void)a_of(q);
    }
  }

  /// Row t's argmin processor was consumed: advance to the first buffered
  /// minimum that is still free, refilling with a full rescan only when the
  /// buffer is exhausted.  Between rescans the row's f values are unchanged
  /// (only rows touched in step 4 change, and those are rescanned there),
  /// so the surviving buffer entries are exact.
  void advance_row_min(int t) {
    const auto base =
        static_cast<std::size_t>(t) * static_cast<std::size_t>(top_k);
    int h = top_head[static_cast<std::size_t>(t)];
    const int sz = top_size[static_cast<std::size_t>(t)];
    while (h < sz &&
           proc_used[static_cast<std::size_t>(
               top_q[base + static_cast<std::size_t>(h)])])
      ++h;
    if (h >= sz) {
      rescan_row(t);
      return;
    }
    top_head[static_cast<std::size_t>(t)] = h;
    f_min[static_cast<std::size_t>(t)] =
        top_f[base + static_cast<std::size_t>(h)];
    f_argmin[static_cast<std::size_t>(t)] =
        top_q[base + static_cast<std::size_t>(h)];
  }

  /// Rescan every unplaced row: third order's initial scan and per-cycle
  /// refresh.  Rows are independent (each writes only its own
  /// f_sum/f_min/f_argmin slots), so they run in parallel.
  void rescan_all_rows() {
    rows.clear();
    for (int blk = 0; blk < static_cast<int>(blocks.size()); ++blk) {
      const SelectBlock& b = blocks[static_cast<std::size_t>(blk)];
      for (std::uint64_t m = b.unplaced; m != 0; m &= m - 1)
        rows.push_back(blk * detail::kGainBlock + std::countr_zero(m));
    }
    support::parallel_for(
        static_cast<int>(rows.size()), kRowGrain, [&](int begin, int end) {
          for (int i = begin; i < end; ++i)
            rescan_row(rows[static_cast<std::size_t>(i)]);
        });
  }

  /// Pick the unplaced task with maximum gain = F_avg - F_min.
  /// Ties: larger total communication, then lower id.
  ///
  /// Gains are compared with a *relative* epsilon: f_sum is maintained by
  /// incremental subtraction (place() step 1), so two mathematically equal
  /// gains can differ by O(1e-16 * magnitude) of accumulated drift — and
  /// with exact `==` the documented tie-break would fire or not depending
  /// on optimization level (FMA contraction, vectorized sum order).  Gains
  /// within the tolerance are treated as tied and fall through to the
  /// comm-bytes / lowest-id rule, which no longer depends on FP noise.
  ///
  /// The fold runs over blocks of kGainBlock task ids in ascending order
  /// and skips every block that provably cannot change its state
  /// (detail::GainFold::skips), so most tasks are never folded one by one.
  /// A block's gain bound is the larger of two parts.  Its active rows
  /// (every unplaced row in third order) have their gains computed once,
  /// bounded, and reused if the block is scanned.  Its passive rows share
  /// one landscape, so their gains are bounded from the block's U range
  /// (detail::passive_gain_bound).  That range and the block's comm-bytes
  /// maximum only loosen as tasks leave; a loose block is re-tightened when
  /// it fails the skip test, so blocks that stay skipped never pay for it.
  int select_task() {
    const double nfree = static_cast<double>(free_procs.size());
    const double m_min_free = lazy ? m_order[static_cast<std::size_t>(m_head)].first : 0.0;
    detail::GainFold fold;
    std::uint64_t evals = 0;
    double gains[detail::kGainBlock];
    for (int blk = 0; blk < static_cast<int>(blocks.size()); ++blk) {
      SelectBlock& b = blocks[static_cast<std::size_t>(blk)];
      if (b.unplaced == 0) continue;
      const int first = blk * detail::kGainBlock;
      detail::GainBound act{-std::numeric_limits<double>::infinity(), 0.0};
      for (std::uint64_t m = b.active; m != 0; m &= m - 1) {
        const int i = std::countr_zero(m);
        const auto ut = static_cast<std::size_t>(first + i);
        const double gain = detail::row_gain(f_sum[ut], f_min[ut], nfree);
        gains[i] = gain;
        act.hi = std::max(act.hi, gain);
        act.abs_hi = std::max(act.abs_hi, std::abs(gain));
      }
      const auto skips = [&] {
        detail::GainBound bound = act;
        if (b.unplaced & ~b.active) {
          const detail::GainBound p = detail::passive_gain_bound(
              b.u_lo, b.u_hi, sum_m_free, nfree, m_min_free);
          bound.hi = std::max(bound.hi, p.hi);
          bound.abs_hi = std::max(bound.abs_hi, p.abs_hi);
        }
        return fold.skips(bound, b.comm_hi);
      };
      if (skips()) continue;
      if (b.loose) {
        tighten(blk);
        if (skips()) continue;
      }
      // Ascending, as the tie-break requires.
      for (std::uint64_t m = b.unplaced; m != 0; m &= m - 1) {
        const int i = std::countr_zero(m);
        const auto ut = static_cast<std::size_t>(first + i);
        const double gain =
            (b.active >> i) & 1
                ? gains[i]
                : detail::passive_gain(unplaced_bytes[ut], sum_m_free, nfree,
                                       m_min_free);
        fold.offer(first + i, gain, comm[ut]);
        ++evals;
      }
    }
    OBS_COUNTER_ADD("topolb/select_evals", evals);
    return fold.best();
  }

  /// Shrink block blk's U range and comm-bytes maximum to its current
  /// passive and unplaced tasks.
  void tighten(int blk) {
    SelectBlock& b = blocks[static_cast<std::size_t>(blk)];
    const int first = blk * detail::kGainBlock;
    b.u_lo = std::numeric_limits<double>::infinity();
    b.u_hi = b.comm_hi = -b.u_lo;
    for (std::uint64_t m = b.unplaced; m != 0; m &= m - 1) {
      const auto ut = static_cast<std::size_t>(first + std::countr_zero(m));
      b.comm_hi = std::max(b.comm_hi, comm[ut]);
    }
    for (std::uint64_t m = b.unplaced & ~b.active; m != 0; m &= m - 1) {
      const auto ut = static_cast<std::size_t>(first + std::countr_zero(m));
      b.u_lo = std::min(b.u_lo, unplaced_bytes[ut]);
      b.u_hi = std::max(b.u_hi, unplaced_bytes[ut]);
    }
    b.loose = false;
  }

  /// Task t was placed, or (`placed` false) a neighbour of it was: update
  /// its block's masks.  The block's U range and comm-bytes maximum still
  /// cover the tasks left, only more loosely.
  void update_masks(int t, bool placed) {
    SelectBlock& b = blocks[static_cast<std::size_t>(t / detail::kGainBlock)];
    const std::uint64_t bit = std::uint64_t{1} << (t % detail::kGainBlock);
    if (!placed && (b.active & bit)) return;  // no set changed
    b.active = placed ? b.active & ~bit : b.active | bit;
    if (placed) b.unplaced &= ~bit;
    b.loose = true;
  }

  /// The free processor minimizing f_est(t, .): the row buffer's head for
  /// an active row, the shared global head for a passive one (for a
  /// passive row f is a nonnegative multiple of the shared landscape, so
  /// the (value, q)-lexicographic global minimum realizes the row
  /// minimum; a zero-communication task lands there too, any free
  /// processor being equally good at f == 0).
  int argmin_proc(int t) const {
    if (row_active[static_cast<std::size_t>(t)])
      return f_argmin[static_cast<std::size_t>(t)];
    return m_order[static_cast<std::size_t>(m_head)].second;
  }

  /// Commit task -> proc and update every cached quantity.
  void place(int task, int proc) {
    // Trajectory of the objective: edges close when their second endpoint
    // lands, so the running sum of just-closed incident edges equals the
    // final mapping's hop-bytes after the last placement.
    if (obs::enabled()) {
      const D* drow_obs = plane.row<D>(proc);
      for (const graph::Edge& e : g.edges_of(task)) {
        if (!task_placed[static_cast<std::size_t>(e.neighbor)]) continue;
        obs_hop_bytes +=
            e.bytes * static_cast<double>(drow_obs[static_cast<std::size_t>(
                          mapping[static_cast<std::size_t>(e.neighbor)])]);
      }
      OBS_SERIES_APPEND("topolb/hop_bytes_trajectory", obs_hop_bytes);
    }
    mapping[static_cast<std::size_t>(task)] = proc;
    task_placed[static_cast<std::size_t>(task)] = 1;
    update_masks(task, true);
    release_row(task);

    const bool incremental = order != EstimationOrder::kThird;

    // 1. Retire `proc` from the incremental row statistics using the *old*
    //    f values (non-neighbour rows are otherwise unchanged).  Only
    //    active rows carry per-row state, and in the incremental orders
    //    those are exactly the one-term and pool-row holders, one loop per
    //    list; passive rows are covered by the shared sum/head update in
    //    step 2.  Rows whose buffered minimum lived on `proc` are collected
    //    for step 5.
    stale.clear();
    if (incremental) {
      for (const int t : pooled)
        retire(t, assigned_row[static_cast<std::size_t>(t)][proc], proc);
      for (const int t : one_term)
        retire(t, term[static_cast<std::size_t>(t)](proc), proc);
    }

    // 2. Remove the processor from the free set; keep the passive rows'
    //    shared landscape current (head skips consumed processors in
    //    amortized O(1), the free-sum drops by the consumed entry).
    proc_used[static_cast<std::size_t>(proc)] = 1;
    const auto freed =
        std::lower_bound(free_procs.begin(), free_procs.end(), proc);
    TOPOMAP_ASSERT(freed != free_procs.end() && *freed == proc,
                   "placed processor is not free");
    free_procs.erase(freed);
    if (lazy) {
      sum_m_free -= order == EstimationOrder::kSecond
                        ? mean_dist[static_cast<std::size_t>(proc)]
                        : 0.0;
      while (m_head < n &&
             proc_used[static_cast<std::size_t>(
                 m_order[static_cast<std::size_t>(m_head)].second)])
        ++m_head;
    }

    // 3. Third order: the free-set mean distances all shift.
    const D* drow = plane.row<D>(proc);
    if (order == EstimationOrder::kThird) {
      for (const int q : free_procs)
        sum_dist_free[static_cast<std::size_t>(q)] -=
            static_cast<double>(drow[q]);
    }

    if (free_procs.empty()) return;

    // 4. Neighbours of the placed task: their unplaced->placed split moved,
    //    so their whole row changes.  This is the paper's O(p * delta(t_k))
    //    step.  Edges are merged per neighbour, so each touched row gains
    //    exactly one `+= bytes * d` term per placement.  In the incremental
    //    orders one sweep per touched row folds that term into A and
    //    rescans the row.  Third order only folds here; its rows are all
    //    rescanned at the start of the next cycle.  A row's first term is
    //    only recorded (one-term); its second takes a pool row.
    for (const graph::Edge& e : g.edges_of(task)) {
      const int t = e.neighbor;
      if (task_placed[static_cast<std::size_t>(t)]) continue;
      unplaced_bytes[static_cast<std::size_t>(t)] -= e.bytes;
      update_masks(t, false);
      double* const row = assigned_row[static_cast<std::size_t>(t)];
      OneTerm& first = term[static_cast<std::size_t>(t)];
      if (row != zero_row.data()) {
        add_term(t, AddTerm<Stored>{row, Stored{row}, drow, e.bytes});
      } else if (first.d == nullptr) {
        first = OneTerm{drow, e.bytes};
        add_holder(one_term, t);
        if (incremental) sweep_row(t, first);
      } else {
        add_term(t, AddTerm<OneTerm>{take_row(t), first, drow, e.bytes});
        first.d = nullptr;
      }
    }

    // 5. Rows whose minimum lived on the consumed processor: pop the
    //    buffered next-best (amortized O(1); full rescan only on a drained
    //    buffer).  A stale row that step 4 just rescanned advances to its
    //    fresh head — a no-op.
    for (const int t : stale) advance_row_min(t);
  }

  const graph::TaskGraph& g;
  const topo::DistanceCache& plane;
  const EstimationOrder order;
  const int n;
  const bool lazy;  // passive rows share the global landscape (not 3rd order)

  std::vector<double*> assigned_row;   // A(t, .): pool row or zero_row
  std::vector<double> zero_row;        // shared by tasks holding no row
  std::vector<OneTerm> term;           // a one-term row's term, else null d
  std::vector<std::unique_ptr<double[]>> row_store;  // every pool row
  std::vector<double*> free_rows;      // LIFO: most recently released last
  std::vector<int> one_term;    // one-term tasks, unordered
  std::vector<int> pooled;      // tasks holding a pool row, unordered
  std::vector<int> holder_pos;  // t's index in its list (stale once left)
  std::vector<double> unplaced_bytes;  // U(t)
  std::vector<double> mean_dist;       // meandist_Vp(q)
  std::vector<double> sum_dist_free;   // 3rd order: sum_{free pj} d(q, pj)
  std::vector<char> task_placed;
  std::vector<char> proc_used;
  std::vector<int> free_procs;  // ascending order is maintained
  std::vector<double> f_sum;
  std::vector<double> f_min;
  std::vector<int> f_argmin;
  int top_k = 0;               // min(kTopK, n)
  std::vector<double> top_f;   // n x top_k row-minima buffers, ascending
  std::vector<int> top_q;
  std::vector<int> top_head;   // first possibly-live buffer entry per row
  std::vector<int> top_size;   // valid entries per row
  std::vector<char> row_active;  // 0 until the row's first step-4 rescan
  // Per-placement scratch, kept to spare place() and third order's
  // per-cycle rescan their allocations.
  std::vector<int> rows;   // rescan_all_rows' row list
  std::vector<int> stale;  // step 1 -> step 5 rows
  std::vector<std::pair<double, int>> m_order;  // passive landscape, ascending
  int m_head = 0;            // first still-free entry of m_order
  double sum_m_free = 0.0;   // sum of m_order values over free processors
  double obs_hop_bytes = 0.0;  // instrumentation-only running objective
  // Selection blocks of detail::kGainBlock task ids (see select_task).
  // The masks are exact; the U range and comm-bytes maximum only bound
  // their tasks, since tasks only ever leave the passive and unplaced sets.
  struct SelectBlock {
    std::uint64_t unplaced = 0;  // bit i: task first + i is unplaced
    std::uint64_t active = 0;    // ... and holds an active row
    double u_lo = 0.0;           // covers U of the passive (unplaced &
    double u_hi = 0.0;           //   ~active) tasks
    double comm_hi = 0.0;        // covers comm bytes of unplaced tasks
    bool loose = false;          // a task left since the last tighten()
  };
  std::vector<SelectBlock> blocks;
  std::vector<double> comm;  // total comm bytes per task, for the tie rule
  Mapping mapping;
};

template <class D>
Mapping run_topolb(const graph::TaskGraph& g, const topo::DistanceCache& plane,
                   EstimationOrder order) {
  const int n = g.num_vertices();
  OBS_SPAN("topolb/map");
  TopoLBState<D> st(g, plane, order);
  for (int cycle = 0; cycle < n; ++cycle) {
    if (order == EstimationOrder::kThird && cycle > 0) {
      // Free-set averages moved last cycle; refresh every row (O(p^2)).
      st.rescan_all_rows();
    }
    int task;
    {
      OBS_SPAN("topolb/select_task");
      task = st.select_task();
    }
    TOPOMAP_ASSERT(task >= 0, "no task selected");
    const int proc = st.argmin_proc(task);
    TOPOMAP_ASSERT(proc >= 0, "no free processor for selected task");
    OBS_SPAN("topolb/place");
    st.place(task, proc);
  }
  OBS_COUNTER_ADD("topolb/placements", n);
  return st.mapping;
}

}  // namespace

Mapping TopoLB::map(const graph::TaskGraph& g, const topo::Topology& topo,
                    Rng& rng) const {
  (void)rng;  // deterministic; see tie-breaking note in the header
  require_square(g, topo);
  if (g.num_vertices() == 0) return {};
  const auto cache = obtain_cache(cache_, topo);
  return cache->visit([&](auto tag) {
    return run_topolb<decltype(tag)>(g, *cache, order_);
  });
}

std::string TopoLB::name() const {
  switch (order_) {
    case EstimationOrder::kFirst:
      return "TopoLB(first-order)";
    case EstimationOrder::kSecond:
      return "TopoLB";
    case EstimationOrder::kThird:
      return "TopoLB(third-order)";
  }
  return "TopoLB(?)";
}

}  // namespace topomap::core
