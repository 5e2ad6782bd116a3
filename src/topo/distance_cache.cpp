#include "topo/distance_cache.hpp"

#include <algorithm>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "topo/fault_overlay.hpp"
#include "topo/sub_topology.hpp"

namespace topomap::topo {

namespace {
constexpr std::uint16_t kUnreachable = FaultOverlay::kUnreachable;
constexpr std::size_t kHugePage = std::size_t{2} << 20;
}  // namespace

namespace detail {

void* allocate_plane(std::size_t bytes) {
  if (bytes < kHugePage) return ::operator new(bytes);
  void* p = ::operator new(bytes, std::align_val_t{kHugePage});
#if defined(__linux__)
  // Advice only (a kernel without transparent huge pages ignores it): one
  // fault per 2 MiB instead of per 4 KiB page, and fewer TLB misses in the
  // row-pointer kernels.  Only whole 2 MiB extents can become huge pages.
  ::madvise(p, bytes & ~(kHugePage - 1), MADV_HUGEPAGE);
#endif
  return p;
}

void deallocate_plane(void* p, std::size_t bytes) noexcept {
  if (bytes < kHugePage)
    ::operator delete(p);
  else
    ::operator delete(p, std::align_val_t{kHugePage});
}

}  // namespace detail

DistanceCache::DistanceCache(const Topology& topo) {
  allocate(topo.size());
  rebuild_all(topo);
}

DistanceCache::DistanceCache(const SubTopology& sub,
                             const DistanceCache& base_plane) {
  TOPOMAP_REQUIRE(base_plane.size() == sub.base().size() &&
                      base_plane.scale() == sub.distance_scale(),
                  "gathered plane: base plane does not match " + sub.name());
  allocate(sub.size());
  OBS_SPAN("distcache/gather");
  OBS_COUNTER_ADD("distcache/rows_gathered", n_);
  const std::vector<int>& nodes = sub.nodes();
  fill_rows(sub, [&](int p, std::uint16_t* out) {
    const std::uint16_t* src =
        base_plane.row(nodes[static_cast<std::size_t>(p)]);
    for (int q = 0; q < n_; ++q)
      out[q] = src[nodes[static_cast<std::size_t>(q)]];
  });
}

void DistanceCache::allocate(int n) {
  TOPOMAP_REQUIRE(n >= 1, "distance cache needs >= 1 processor");
  TOPOMAP_REQUIRE(n <= 20000,
                  "topology too large for a dense distance matrix");
  n_ = n;
  const auto un = static_cast<std::size_t>(n_);
  dist_.resize(un * un);
  mean_dist_.resize(un);
  row_sum_.resize(un);
  row_reach_.resize(un);
  row_max_.resize(un);
}

template <typename FillRow>
void DistanceCache::fill_rows(const Topology& topo, FillRow&& fill_row) {
  scale_ = topo.distance_scale();
  const bool row_average_means = topo.mean_is_row_average();
  const auto un = static_cast<std::size_t>(n_);
  // Rows are independent: fill in parallel, reduce per-chunk diameters in
  // ascending chunk order (max is order-free; kept ordered for form).
  const int grain = 16;
  const int chunks = support::parallel_chunk_count(n_, grain);
  std::vector<int> chunk_max(static_cast<std::size_t>(chunks), 0);
  support::parallel_for_chunks(n_, grain, [&](int chunk, int begin, int end) {
    int mx = 0;
    for (int p = begin; p < end; ++p) {
      fill_row(p, dist_.data() + static_cast<std::size_t>(p) * un);
      recompute_row_stats(p);
      mean_dist_[static_cast<std::size_t>(p)] =
          row_average_means ? row_average(p) : topo.mean_distance_from(p);
      mx = std::max(mx, row_max_[static_cast<std::size_t>(p)]);
    }
    chunk_max[static_cast<std::size_t>(chunk)] = mx;
  });
  diameter_ = 0;
  for (int c = 0; c < chunks; ++c)
    diameter_ = std::max(diameter_, chunk_max[static_cast<std::size_t>(c)]);
}

void DistanceCache::rebuild_all(const Topology& topo) {
  OBS_SPAN("distcache/rebuild_all");
  OBS_COUNTER_ADD("distcache/builds", 1);
  OBS_COUNTER_ADD("distcache/rows_built", n_);
  fill_rows(topo, [&topo](int p, std::uint16_t* out) {
    topo.write_distance_row(p, out);
  });
}

bool DistanceCache::rescale_if_needed(const FaultOverlay& overlay) {
  if (overlay.distance_scale() == scale_) return false;
  OBS_COUNTER_ADD("distcache/rescale_rebuilds", 1);
  // The plane's units changed (first soft fault engaged the weighted
  // metric, or the last degraded link vanished): every finite entry
  // re-expresses, so an all-rows rebuild is the incremental repair.  No
  // aggregate-based mean refresh afterwards — rebuild_all stores the
  // overlay's own mean values, exactly like a fresh build.
  rebuild_all(overlay);
  return true;
}

void DistanceCache::recompute_rows(const FaultOverlay& overlay,
                                   const std::vector<int>& rows) {
  const int m = static_cast<int>(rows.size());
  OBS_COUNTER_ADD("distcache/repairs", 1);
  OBS_COUNTER_ADD("distcache/rows_repaired", m);
  const auto un = static_cast<std::size_t>(n_);
  support::parallel_for(m, 4, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      const int s = rows[static_cast<std::size_t>(i)];
      overlay.write_distance_row(s, dist_.data() +
                                        static_cast<std::size_t>(s) * un);
      recompute_row_stats(s);
    }
  });
}

void DistanceCache::recompute_row_stats(int p) {
  const std::uint16_t* r = row(p);
  const auto up = static_cast<std::size_t>(p);
  // Fast path, one branch-free pass that vectorizes: with no unreachable
  // entry every entry counts, and n <= 20000 entries below 2^16 keep the
  // sum below 2^32.
  std::uint32_t sum32 = 0;
  std::uint16_t max16 = 0;
  for (int q = 0; q < n_; ++q) {
    sum32 += r[q];
    max16 = std::max(max16, r[q]);
  }
  if (max16 != kUnreachable) {
    row_sum_[up] = sum32;
    row_reach_[up] = n_;
    row_max_[up] = max16;
    return;
  }
  long long sum = 0;
  int reach = 0;
  int mx = 0;
  for (int q = 0; q < n_; ++q) {
    const std::uint16_t d = r[q];
    if (d == kUnreachable) continue;
    sum += d;
    ++reach;
    mx = std::max(mx, static_cast<int>(d));
  }
  row_sum_[up] = sum;
  row_reach_[up] = reach;
  row_max_[up] = mx;
}

double DistanceCache::row_average(int p) const {
  const auto up = static_cast<std::size_t>(p);
  return row_reach_[up] > 0 ? static_cast<double>(row_sum_[up]) /
                                  static_cast<double>(row_reach_[up])
                            : 0.0;
}

void DistanceCache::refresh_means_and_diameter() {
  // A fresh build on the faulted overlay stores
  // FaultOverlay::mean_distance_from = row_sum / row_reach (one integer sum,
  // one division), so recomputing every mean from the exact aggregates makes
  // the repaired cache bit-identical to that rebuild — including rows whose
  // matrix entries did not change but whose stored mean predates the first
  // fault (closed-form base means).
  for (int p = 0; p < n_; ++p)
    mean_dist_[static_cast<std::size_t>(p)] = row_average(p);
  diameter_ = 0;
  for (int p = 0; p < n_; ++p)
    diameter_ = std::max(diameter_, row_max_[static_cast<std::size_t>(p)]);
}

int DistanceCache::repair_link_failure(const FaultOverlay& overlay, int a,
                                       int b, int prev_cost) {
  TOPOMAP_REQUIRE(overlay.size() == n_,
                  "repair_link_failure: overlay size mismatch");
  TOPOMAP_REQUIRE(a >= 0 && a < n_ && b >= 0 && b < n_ && a != b,
                  "repair_link_failure: bad link endpoints");
  TOPOMAP_REQUIRE(overlay.link_failed(a, b),
                  "repair_link_failure: link " + std::to_string(a) + "-" +
                      std::to_string(b) + " is not failed in the overlay");
  if (rescale_if_needed(overlay)) return n_;
  // The cost the link carried while alive, in this plane's units (a healthy
  // hop by default).  A link of cost c lies on a shortest path from s iff
  // d(s,a) and d(s,b) are both finite and differ by exactly c — the BFS
  // level property, generalized to the weighted plane.  Rows failing that
  // test cannot change; the test reads two cached values per row.
  const int cost = prev_cost > 0 ? prev_cost : scale_;
  std::vector<int> affected;
  for (int s = 0; s < n_; ++s) {
    const std::uint16_t* r = row(s);
    const std::uint16_t da = r[a];
    const std::uint16_t db = r[b];
    if (da == kUnreachable || db == kUnreachable) continue;
    const int diff = da > db ? da - db : db - da;
    if (diff == cost) affected.push_back(s);
  }
  recompute_rows(overlay, affected);
  refresh_means_and_diameter();
  return static_cast<int>(affected.size());
}

int DistanceCache::repair_node_failure(const FaultOverlay& overlay, int p) {
  TOPOMAP_REQUIRE(overlay.size() == n_,
                  "repair_node_failure: overlay size mismatch");
  TOPOMAP_REQUIRE(p >= 0 && p < n_, "repair_node_failure: bad processor id");
  TOPOMAP_REQUIRE(overlay.node_failed(p),
                  "repair_node_failure: processor " + std::to_string(p) +
                      " is not failed in the overlay");
  if (rescale_if_needed(overlay)) return n_;
  const auto un = static_cast<std::size_t>(n_);
  const auto up = static_cast<std::size_t>(p);

  // p's surviving DAG-successor candidates: its base neighbors that are
  // still alive over still-present links, with the cost each link carries
  // in this plane (the overlay retains health records of links into dead
  // processors precisely so this probe sees pre-death costs).  Empty for
  // distance-model bases (fat-tree), where removing a leaf never perturbs
  // survivor distances.
  std::vector<int> succ;
  std::vector<int> succ_cost;
  if (overlay.base().has_adjacency()) {
    for (int q : overlay.base().neighbors(p)) {
      if (!overlay.is_alive(q) || overlay.link_failed(p, q)) continue;
      succ.push_back(q);
      succ_cost.push_back(overlay.link_cost(p, q));
    }
  }

  std::vector<int> recompute;  // rows where p was interior to the SP DAG
  for (int s = 0; s < n_; ++s) {
    if (s == p) continue;
    std::uint16_t* r = dist_.data() + static_cast<std::size_t>(s) * un;
    const std::uint16_t dp = r[up];
    if (dp == kUnreachable) continue;  // p was never reachable: row unchanged
    bool interior = false;
    for (std::size_t i = 0; i < succ.size(); ++i) {
      const int q = succ[i];
      if (static_cast<int>(r[q]) == static_cast<int>(dp) + succ_cost[i]) {
        interior = true;
        break;
      }
    }
    if (interior) {
      recompute.push_back(s);
    } else {
      // p was a leaf of s's shortest-path DAG: no survivor's distance ran
      // through it, so only s's entry for p goes away.
      r[up] = kUnreachable;
      const auto us = static_cast<std::size_t>(s);
      row_sum_[us] -= dp;
      row_reach_[us] -= 1;
      if (static_cast<int>(dp) == row_max_[us]) recompute_row_stats(s);
    }
  }

  // p's own row: dead source, everything unreachable.
  std::fill(dist_.begin() + up * un, dist_.begin() + (up + 1) * un,
            kUnreachable);
  row_sum_[up] = 0;
  row_reach_[up] = 0;
  row_max_[up] = 0;

  recompute_rows(overlay, recompute);
  refresh_means_and_diameter();
  return static_cast<int>(recompute.size());
}

int DistanceCache::repair_link_degrade(const FaultOverlay& overlay, int a,
                                       int b, int prev_cost) {
  TOPOMAP_REQUIRE(overlay.size() == n_,
                  "repair_link_degrade: overlay size mismatch");
  TOPOMAP_REQUIRE(a >= 0 && a < n_ && b >= 0 && b < n_ && a != b,
                  "repair_link_degrade: bad link endpoints");
  TOPOMAP_REQUIRE(!overlay.link_failed(a, b),
                  "repair_link_degrade: link " + std::to_string(a) + "-" +
                      std::to_string(b) +
                      " has hard-failed; use repair_link_failure");
  TOPOMAP_REQUIRE(prev_cost > 0, "repair_link_degrade: prev_cost must be the "
                                 "value degrade_link returned");
  if (rescale_if_needed(overlay)) return n_;
  const int new_cost = overlay.link_cost(a, b);
  if (new_cost == prev_cost) return 0;  // quantized to the same cost: no-op
  // Affected-row oracle, O(1) per row from the cached plane:
  //  * cost increase — only rows that had the link on a shortest path
  //    (|d(s,a) - d(s,b)| == prev_cost) can worsen;
  //  * cost decrease — only rows where the cheaper link now undercuts the
  //    stored metric (|d(s,a) - d(s,b)| > new_cost; equality would only add
  //    an alternative equal-cost path, leaving distances unchanged).
  std::vector<int> affected;
  for (int s = 0; s < n_; ++s) {
    const std::uint16_t* r = row(s);
    const std::uint16_t da = r[a];
    const std::uint16_t db = r[b];
    if (da == kUnreachable || db == kUnreachable) continue;
    const int diff = da > db ? da - db : db - da;
    const bool hit = new_cost > prev_cost ? diff == prev_cost
                                          : diff > new_cost;
    if (hit) affected.push_back(s);
  }
  recompute_rows(overlay, affected);
  refresh_means_and_diameter();
  return static_cast<int>(affected.size());
}

int DistanceCache::repair_node_restore(const FaultOverlay& overlay, int p) {
  TOPOMAP_REQUIRE(overlay.size() == n_,
                  "repair_node_restore: overlay size mismatch");
  TOPOMAP_REQUIRE(p >= 0 && p < n_, "repair_node_restore: bad processor id");
  TOPOMAP_REQUIRE(overlay.is_alive(p),
                  "repair_node_restore: processor " + std::to_string(p) +
                      " is still failed in the overlay");
  if (rescale_if_needed(overlay)) return n_;
  if (!overlay.has_faults()) {
    // The restore returned the overlay to pristine: a fresh build stores the
    // base topology's closed-form means, which the integer aggregates cannot
    // reproduce bit-for-bit — rebuild instead of patching.
    rebuild_all(overlay);
    return n_;
  }
  OBS_COUNTER_ADD("distcache/repairs", 1);
  const auto un = static_cast<std::size_t>(n_);
  const auto up = static_cast<std::size_t>(p);

  // One fresh row for the revived processor; every other change derives
  // from it: a path gained by the restore crosses p (at most once — costs
  // are positive), so new_d(s, q) = min(old, d(p, s) + d(p, q)) exactly.
  std::vector<std::uint16_t> row_p(un);
  overlay.write_distance_row(p, row_p.data());
  std::copy(row_p.begin(), row_p.end(), dist_.begin() + up * un);
  recompute_row_stats(p);

  const int grain = 16;
  const int chunks = support::parallel_chunk_count(n_, grain);
  std::vector<int> chunk_changed(static_cast<std::size_t>(chunks), 0);
  support::parallel_for_chunks(n_, grain, [&](int chunk, int begin, int end) {
    int rows_changed = 0;
    for (int s = begin; s < end; ++s) {
      if (s == p) continue;
      const int dp = row_p[static_cast<std::size_t>(s)];
      if (dp == kUnreachable) continue;  // s cannot reach p: row unchanged
      std::uint16_t* r = dist_.data() + static_cast<std::size_t>(s) * un;
      bool changed = false;
      for (int q = 0; q < n_; ++q) {
        const int dq = row_p[static_cast<std::size_t>(q)];
        if (dq == kUnreachable) continue;
        const int cand = dp + dq;
        const int old = r[q];
        if (cand < old) {
          r[q] = static_cast<std::uint16_t>(cand);
          changed = true;
        } else if (old == kUnreachable) {
          TOPOMAP_REQUIRE(false,
                          "repair_node_restore: path cost overflows the "
                          "fixed-point uint16 plane");
        }
      }
      if (changed) {
        recompute_row_stats(s);
        ++rows_changed;
      }
    }
    chunk_changed[static_cast<std::size_t>(chunk)] = rows_changed;
  });
  int total = 0;
  for (int c : chunk_changed) total += c;
  OBS_COUNTER_ADD("distcache/rows_repaired", total + 1);
  refresh_means_and_diameter();
  return total;
}

int DistanceCache::repair_link_restore(const FaultOverlay& overlay, int a,
                                       int b, int cost) {
  TOPOMAP_REQUIRE(overlay.size() == n_,
                  "repair_link_restore: overlay size mismatch");
  TOPOMAP_REQUIRE(a >= 0 && a < n_ && b >= 0 && b < n_ && a != b,
                  "repair_link_restore: bad link endpoints");
  TOPOMAP_REQUIRE(!overlay.link_failed(a, b),
                  "repair_link_restore: link " + std::to_string(a) + "-" +
                      std::to_string(b) + " is still failed in the overlay");
  TOPOMAP_REQUIRE(cost > 0, "repair_link_restore: cost must be the value "
                            "restore_link returned");
  if (rescale_if_needed(overlay)) return n_;
  // A restored link with a dead endpoint is inert until the processor
  // returns; no distance can change.
  if (!overlay.is_alive(a) || !overlay.is_alive(b)) return 0;
  if (!overlay.has_faults()) {
    rebuild_all(overlay);  // pristine again: see repair_node_restore
    return n_;
  }
  OBS_COUNTER_ADD("distcache/repairs", 1);
  const auto un = static_cast<std::size_t>(n_);

  // Pre-restore endpoint rows: a path gained by the restore crosses the new
  // edge exactly once (positive costs), so with the *old* metric
  //   new_d(s, q) = min(old, d(s,a) + c + d(b,q), d(s,b) + c + d(a,q)).
  // Affected-row oracle from two cached reads: rows with both endpoints
  // reachable and |d(s,a) - d(s,b)| <= c gain nothing (triangle inequality
  // makes both candidates >= old); rows reaching exactly one endpoint may
  // gain entries across the edge.
  const std::vector<std::uint16_t> old_ra(row(a), row(a) + n_);
  const std::vector<std::uint16_t> old_rb(row(b), row(b) + n_);

  const int grain = 16;
  const int chunks = support::parallel_chunk_count(n_, grain);
  std::vector<int> chunk_changed(static_cast<std::size_t>(chunks), 0);
  support::parallel_for_chunks(n_, grain, [&](int chunk, int begin, int end) {
    int rows_changed = 0;
    for (int s = begin; s < end; ++s) {
      const int da = old_ra[static_cast<std::size_t>(s)];
      const int db = old_rb[static_cast<std::size_t>(s)];
      const bool fa = da != kUnreachable;
      const bool fb = db != kUnreachable;
      if (!fa && !fb) continue;  // s reaches neither endpoint
      if (fa && fb) {
        const int diff = da > db ? da - db : db - da;
        if (diff <= cost) continue;
      }
      std::uint16_t* r = dist_.data() + static_cast<std::size_t>(s) * un;
      bool changed = false;
      for (int q = 0; q < n_; ++q) {
        int cand = kUnreachable;
        const int qa = old_ra[static_cast<std::size_t>(q)];
        const int qb = old_rb[static_cast<std::size_t>(q)];
        if (fa && qb != kUnreachable) cand = da + cost + qb;
        if (fb && qa != kUnreachable) cand = std::min(cand, db + cost + qa);
        const int old = r[q];
        if (cand < old) {
          r[q] = static_cast<std::uint16_t>(cand);
          changed = true;
        } else if (old == kUnreachable && cand != kUnreachable &&
                   cand > static_cast<int>(FaultOverlay::kMaxFiniteDistance)) {
          TOPOMAP_REQUIRE(false,
                          "repair_link_restore: path cost overflows the "
                          "fixed-point uint16 plane");
        }
      }
      if (changed) {
        recompute_row_stats(s);
        ++rows_changed;
      }
    }
    chunk_changed[static_cast<std::size_t>(chunk)] = rows_changed;
  });
  int total = 0;
  for (int c : chunk_changed) total += c;
  OBS_COUNTER_ADD("distcache/rows_repaired", total);
  refresh_means_and_diameter();
  return total;
}

void DistanceCache::rebuild(const Topology& topo) {
  TOPOMAP_REQUIRE(topo.size() == n_, "rebuild: topology size mismatch");
  rebuild_all(topo);
}

}  // namespace topomap::topo
