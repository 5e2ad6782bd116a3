#include "core/topo_lb.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/cache_handle.hpp"
#include "core/distance_provider.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "topo/distance_cache.hpp"

namespace topomap::core {

namespace {

// Static-chunk grains for the row-independent kernels.  Chunk boundaries
// depend only on loop size and grain (never thread count), and each chunk
// touches only its own rows/slots, so results are byte-identical for any
// thread count — see support/parallel.hpp.
constexpr int kRowGrain = 8;      // full row rescans (O(p) work per row)
constexpr int kTaskGrain = 512;   // scalar per-task updates
constexpr int kProcGrain = 2048;  // per-free-processor updates

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
constexpr int kTopK = 16;

/// All mutable algorithm state, kept in one place so the update steps after
/// each placement read like the paper's description.  `Dist` is either
/// detail::CachedDistance or detail::VirtualDistance; both run identical
/// arithmetic (core/distance_provider.hpp).
///
/// Placed-cost rows: A(t, q) lives in a pool of p-wide rows held only by
/// *active* tasks — unplaced tasks with at least one placed neighbour.  A
/// task takes a row the first time step 4 touches it (a recycled row is
/// reset to zero, a fresh one starts at zero) and returns it to a LIFO
/// free list when it is placed, so the next task to activate reuses a row
/// that is still warm in cache.  Every other task (passive, or never
/// touched in third order) reads one shared zero row.  Memory is
/// O(p * peak active rows) instead of a dense p x p matrix: a 4096-task 2D
/// stencil peaks at 136 live rows, while a dense graph approaches one row
/// per task (927 of 1024 for er:1024:0.05).  Each A(t, q) is still the
/// same sequence of `+= bytes * d` in placement order, so the values — and
/// every mapping — are those of a dense matrix.  The holders double as
/// the active-row list step 1 walks.  The pool is only mutated between
/// parallel regions.
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
template <class Dist>
struct TopoLBState {
  TopoLBState(const graph::TaskGraph& graph_in, const Dist& dist_in,
              EstimationOrder order_in)
      : g(graph_in), dist(dist_in), order(order_in), n(g.num_vertices()),
        lazy(order_in != EstimationOrder::kThird) {
    const auto un = static_cast<std::size_t>(n);
    zero_row.assign(un, 0.0);
    assigned_row.assign(un, zero_row.data());
    holder_pos.assign(un, -1);
    unplaced_bytes.resize(un);
    mean_dist.resize(un);
    for (int t = 0; t < n; ++t)
      unplaced_bytes[static_cast<std::size_t>(t)] = g.comm_bytes(t);
    for (int q = 0; q < n; ++q)
      mean_dist[static_cast<std::size_t>(q)] = dist.mean_distance_from(q);
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
    unplaced.reserve(un);
    for (int t = 0; t < n; ++t) unplaced.push_back(t);
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

  /// Task t's writable A row: the row it already holds, else the most
  /// recently released one reset to zero, else a fresh zeroed row.
  double* take_row(int t) {
    double*& row = assigned_row[static_cast<std::size_t>(t)];
    if (row != zero_row.data()) return row;
    holder_pos[static_cast<std::size_t>(t)] = static_cast<int>(holders.size());
    holders.push_back(t);
    if (free_rows.empty()) {
      row_store.push_back(std::make_unique<double[]>(
          static_cast<std::size_t>(n)));  // value-initialized: zero
      row = row_store.back().get();
    } else {
      row = free_rows.back();
      free_rows.pop_back();
      std::fill_n(row, n, 0.0);
    }
    return row;
  }

  /// Task t was placed: its row goes back to the top of the free list.
  void release_row(int t) {
    double*& row = assigned_row[static_cast<std::size_t>(t)];
    if (row == zero_row.data()) return;
    free_rows.push_back(row);
    row = zero_row.data();
    const int pos = holder_pos[static_cast<std::size_t>(t)];
    holders[static_cast<std::size_t>(pos)] = holders.back();
    holder_pos[static_cast<std::size_t>(holders.back())] = pos;
    holders.pop_back();
  }

  /// f_est(t, q, P) for a free processor q under the configured order.
  double f_est(int t, int q) const {
    const double assigned =
        assigned_row[static_cast<std::size_t>(t)][static_cast<std::size_t>(q)];
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

  /// A row of distances from one processor, as the provider hands it out.
  using DistRow = decltype(std::declval<const Dist&>().row(0));

  /// Recompute F_sum and refill row t's top-K minima buffer (see sweep_row).
  void rescan_row(int t) { sweep_row<false>(t, nullptr, 0.0); }

  /// One sweep over the free processors in increasing q.  With kFold it
  /// first folds a newly placed neighbour's term into A
  /// (A(t, q) += bytes * d(proc, q), `*drow` being proc's distance row),
  /// then, for every q, computes f, adds it to F_sum and offers it to the
  /// top-K buffer.  The buffer holds the K smallest (f, q) pairs in
  /// ascending lexicographic order, so its head is the sequential scan's
  /// first-strict-minimum (smallest f; lowest q on ties).
  ///
  /// This is the hottest kernel (every step-4 touched row pays one call),
  /// so the f expression is specialized per order outside the loop —
  /// identical arithmetic to f_est, without its per-element dispatch — and
  /// the K smallest are kept in a small max-heap.  q only grows, so a
  /// candidate beats the heap's largest (f, q) pair exactly when its f is
  /// below that pair's f: the reject test is one double compare.
  template <bool kFold>
  void sweep_row(int t, const DistRow* drow, double bytes) {
    const int nf = static_cast<int>(free_procs.size());
    OBS_COUNTER_ADD("topolb/row_rescans", 1);
    OBS_COUNTER_ADD("topolb/f_est_evals", nf);
    // Only a pool row is ever folded into; the shared zero row is read-only.
    double* const arow = assigned_row[static_cast<std::size_t>(t)];
    const double u = unplaced_bytes[static_cast<std::size_t>(t)];
    std::pair<double, int> heap[kTopK];  // max-heap: largest (f, q) at [0]
    int hs = 0;
    double thr = 0.0;  // heap[0].first once the heap is full
    double sum = 0.0;
    auto sweep = [&](auto f_of) {
      for (int i = 0; i < nf; ++i) {
        const int q = free_procs[static_cast<std::size_t>(i)];
        double a = arow[q];
        if constexpr (kFold) {
          a += bytes * static_cast<double>((*drow)[q]);
          arow[q] = a;
        }
        const double f = f_of(a, q);
        sum += f;
        if (hs == top_k) {
          if (!(f < thr)) continue;
          std::pop_heap(heap, heap + hs);
          heap[hs - 1] = {f, q};
        } else {
          heap[hs++] = {f, q};
        }
        std::push_heap(heap, heap + hs);
        if (hs == top_k) thr = heap[0].first;
      }
    };
    switch (order) {
      case EstimationOrder::kFirst:
        sweep([](double a, int) { return a; });
        break;
      case EstimationOrder::kSecond: {
        const double* md = mean_dist.data();
        sweep([u, md](double a, int q) { return a + u * md[q]; });
        break;
      }
      case EstimationOrder::kThird: {
        const double* sdf = sum_dist_free.data();
        const double nfree = static_cast<double>(nf);
        sweep([u, sdf, nfree](double a, int q) {
          return a + u * sdf[q] / nfree;
        });
        break;
      }
    }
    std::sort_heap(heap, heap + hs);  // ascending (f, q)
    const auto base =
        static_cast<std::size_t>(t) * static_cast<std::size_t>(top_k);
    for (int i = 0; i < hs; ++i) {
      top_f[base + static_cast<std::size_t>(i)] = heap[i].first;
      top_q[base + static_cast<std::size_t>(i)] = heap[i].second;
    }
    row_active[static_cast<std::size_t>(t)] = 1;
    top_head[static_cast<std::size_t>(t)] = 0;
    top_size[static_cast<std::size_t>(t)] = hs;
    f_sum[static_cast<std::size_t>(t)] = sum;
    f_min[static_cast<std::size_t>(t)] =
        hs > 0 ? heap[0].first : std::numeric_limits<double>::infinity();
    f_argmin[static_cast<std::size_t>(t)] = hs > 0 ? heap[0].second : -1;
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

  /// Rescan every unplaced row.  Rows are independent (each writes only its
  /// own f_sum/f_min/f_argmin slots), so this is the main parallel kernel of
  /// the initial scan and of third order's per-cycle refresh.
  void rescan_all_rows() {
    support::parallel_for(
        static_cast<int>(unplaced.size()), kRowGrain, [&](int begin, int end) {
          for (int i = begin; i < end; ++i)
            rescan_row(unplaced[static_cast<std::size_t>(i)]);
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
  int select_task() const {
    const double nfree = static_cast<double>(free_procs.size());
    const double m_min_free = lazy ? m_order[static_cast<std::size_t>(m_head)].first : 0.0;
    int best = -1;
    double best_gain = 0.0;
    for (const int t : unplaced) {  // ascending, as the tie-break requires
      double fsum, fmin;
      if (row_active[static_cast<std::size_t>(t)]) {
        fsum = f_sum[static_cast<std::size_t>(t)];
        fmin = f_min[static_cast<std::size_t>(t)];
      } else {
        const double u = unplaced_bytes[static_cast<std::size_t>(t)];
        fsum = u * sum_m_free;
        fmin = u * m_min_free;
      }
      const double gain = fsum / nfree - fmin;
      if (best < 0) {
        best = t;
        best_gain = gain;
        continue;
      }
      const double tol =
          1e-9 * std::max(1.0, std::max(std::abs(gain), std::abs(best_gain)));
      if (gain > best_gain + tol) {
        best = t;
        best_gain = gain;
      } else if (gain > best_gain - tol &&
                 g.comm_bytes(t) > g.comm_bytes(best)) {
        best = t;
        best_gain = std::max(best_gain, gain);
      }
    }
    return best;
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
    OBS_ONLY(if (::topomap::obs::enabled()) {
      const auto drow_obs = dist.row(proc);
      for (const graph::Edge& e : g.edges_of(task)) {
        if (!task_placed[static_cast<std::size_t>(e.neighbor)]) continue;
        obs_hop_bytes +=
            e.bytes * static_cast<double>(drow_obs[static_cast<std::size_t>(
                          mapping[static_cast<std::size_t>(e.neighbor)])]);
      }
      OBS_SERIES_APPEND("topolb/hop_bytes_trajectory", obs_hop_bytes);
    })
    mapping[static_cast<std::size_t>(task)] = proc;
    task_placed[static_cast<std::size_t>(task)] = 1;
    release_row(task);
    unplaced.erase(
        std::lower_bound(unplaced.begin(), unplaced.end(), task));

    const bool incremental = order != EstimationOrder::kThird;

    // 1. Retire `proc` from the incremental row statistics using the *old*
    //    f values (non-neighbour rows are otherwise unchanged).  Only
    //    active rows carry per-row state, and in the incremental orders
    //    those are exactly the pool-row holders; passive rows are covered
    //    by the shared sum/head update in step 2.  Each row touches only
    //    its own slots — row-parallel.  Rows whose buffered minimum lived
    //    on `proc` land in per-chunk stale buckets for step 5, which
    //    treats each row independently, so bucket order is immaterial.
    stale.clear();
    if (incremental) {
      const int na = static_cast<int>(holders.size());
      const int chunks = support::parallel_chunk_count(na, kTaskGrain);
      if (stale_chunks.size() < static_cast<std::size_t>(chunks))
        stale_chunks.resize(static_cast<std::size_t>(chunks));
      support::parallel_for_chunks(
          na, kTaskGrain, [&](int chunk, int begin, int end) {
            auto& bucket = stale_chunks[static_cast<std::size_t>(chunk)];
            bucket.clear();
            for (int i = begin; i < end; ++i) {
              const int t = holders[static_cast<std::size_t>(i)];
              f_sum[static_cast<std::size_t>(t)] -= f_est(t, proc);
              if (f_argmin[static_cast<std::size_t>(t)] == proc)
                bucket.push_back(t);
            }
          });
      for (int c = 0; c < chunks; ++c) {
        const auto& bucket = stale_chunks[static_cast<std::size_t>(c)];
        stale.insert(stale.end(), bucket.begin(), bucket.end());
      }
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
    const auto drow = dist.row(proc);
    const int nfree = static_cast<int>(free_procs.size());
    if (order == EstimationOrder::kThird) {
      support::parallel_for(nfree, kProcGrain, [&](int begin, int end) {
        for (int i = begin; i < end; ++i) {
          const int q = free_procs[static_cast<std::size_t>(i)];
          sum_dist_free[static_cast<std::size_t>(q)] -=
              static_cast<double>(drow[q]);
        }
      });
    }

    if (free_procs.empty()) return;

    // 4. Neighbours of the placed task: their unplaced->placed split moved,
    //    so their whole row changes.  This is the paper's O(p * delta(t_k))
    //    step.  U(t) drops for every touched task and each takes its pool
    //    row first, outside any parallel region.  Edges are merged per
    //    neighbour, so each row gains exactly one `+= bytes * d` term per
    //    placement.  In the incremental orders one sweep per touched row
    //    folds that term into A and rescans the row (parallel over rows; a
    //    sweep reads and writes only its own row's data).  Third order only
    //    folds here (parallel over free processors); its rows are all
    //    rescanned at the start of the next cycle.
    touched.clear();
    for (const graph::Edge& e : g.edges_of(task)) {
      if (task_placed[static_cast<std::size_t>(e.neighbor)]) continue;
      unplaced_bytes[static_cast<std::size_t>(e.neighbor)] -= e.bytes;
      take_row(e.neighbor);
      touched.push_back(e);
    }
    if (incremental) {
      support::parallel_for(
          static_cast<int>(touched.size()), 1, [&](int begin, int end) {
            for (int i = begin; i < end; ++i) {
              const graph::Edge& e = touched[static_cast<std::size_t>(i)];
              sweep_row<true>(e.neighbor, &drow, e.bytes);
            }
          });
    } else {
      for (const graph::Edge& e : touched) {
        double* const arow =
            assigned_row[static_cast<std::size_t>(e.neighbor)];
        support::parallel_for(nfree, kProcGrain, [&](int begin, int end) {
          for (int i = begin; i < end; ++i) {
            const int q = free_procs[static_cast<std::size_t>(i)];
            arow[q] += e.bytes * static_cast<double>(drow[q]);
          }
        });
      }
    }

    // 5. Rows whose minimum lived on the consumed processor: pop the
    //    buffered next-best (amortized O(1); full rescan only on a drained
    //    buffer).  A stale row that step 4 just rescanned advances to its
    //    fresh head — a no-op.
    if (incremental) {
      support::parallel_for(
          static_cast<int>(stale.size()), kTaskGrain, [&](int begin, int end) {
            for (int i = begin; i < end; ++i)
              advance_row_min(stale[static_cast<std::size_t>(i)]);
          });
    }
  }

  const graph::TaskGraph& g;
  const Dist dist;
  const EstimationOrder order;
  const int n;
  const bool lazy;  // passive rows share the global landscape (not 3rd order)

  std::vector<double*> assigned_row;   // A(t, .): pool row or zero_row
  std::vector<double> zero_row;        // shared by tasks holding no row
  std::vector<std::unique_ptr<double[]>> row_store;  // every pool row
  std::vector<double*> free_rows;      // LIFO: most recently released last
  std::vector<int> holders;     // tasks holding a pool row, unordered
  std::vector<int> holder_pos;  // t's index in holders (stale once released)
  std::vector<double> unplaced_bytes;  // U(t)
  std::vector<double> mean_dist;       // meandist_Vp(q)
  std::vector<double> sum_dist_free;   // 3rd order: sum_{free pj} d(q, pj)
  std::vector<char> task_placed;
  std::vector<char> proc_used;
  std::vector<int> free_procs;  // ascending order is maintained
  std::vector<int> unplaced;    // ascending order is maintained
  std::vector<double> f_sum;
  std::vector<double> f_min;
  std::vector<int> f_argmin;
  int top_k = 0;               // min(kTopK, n)
  std::vector<double> top_f;   // n x top_k row-minima buffers, ascending
  std::vector<int> top_q;
  std::vector<int> top_head;   // first possibly-live buffer entry per row
  std::vector<int> top_size;   // valid entries per row
  std::vector<char> row_active;  // 0 until the row's first step-4 rescan
  // Per-placement scratch, kept to spare place() its allocations.
  std::vector<int> stale;                      // step 1 -> step 5 rows
  std::vector<std::vector<int>> stale_chunks;  // step 1's per-chunk buckets
  std::vector<graph::Edge> touched;            // step 4: (task, edge bytes)
  std::vector<std::pair<double, int>> m_order;  // passive landscape, ascending
  int m_head = 0;            // first still-free entry of m_order
  double sum_m_free = 0.0;   // sum of m_order values over free processors
  double obs_hop_bytes = 0.0;  // instrumentation-only running objective
  Mapping mapping;
};

template <class Dist>
Mapping run_topolb(const graph::TaskGraph& g, const Dist& dist,
                   EstimationOrder order) {
  const int n = g.num_vertices();
  OBS_SPAN("topolb/map");
  TopoLBState<Dist> st(g, dist, order);
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
  if (mode_ == DistanceMode::kVirtual)
    return run_topolb(g, detail::VirtualDistance{topo}, order_);
  const auto cache = obtain_cache(cache_, topo);
  return run_topolb(g, detail::CachedDistance{*cache}, order_);
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
