#include "core/validate.hpp"

#include <cmath>
#include <set>
#include <sstream>

#include "core/contention.hpp"
#include "core/metrics.hpp"
#include "support/error.hpp"
#include "topo/components.hpp"

namespace topomap::core {

namespace {

std::string at_task(int t) { return "task " + std::to_string(t); }

void check_placement(const SystemState& st, const topo::ComponentSplit& split,
                     std::vector<std::string>& out) {
  const graph::TaskGraph& g = *st.graph;
  const topo::FaultOverlay& overlay = *st.overlay;
  const Mapping& m = *st.placement;
  const int n = g.num_vertices();
  if (static_cast<int>(m.size()) != n) {
    out.push_back("placement has " + std::to_string(m.size()) +
                  " entries for " + std::to_string(n) + " tasks");
    return;
  }
  if (st.quarantined != nullptr &&
      static_cast<int>(st.quarantined->size()) != n) {
    out.push_back("quarantine flags have " +
                  std::to_string(st.quarantined->size()) + " entries for " +
                  std::to_string(n) + " tasks");
    return;
  }
  // Component id per alive processor, for the one-component check.
  std::vector<int> comp_of(static_cast<std::size_t>(overlay.size()), -1);
  for (int c = 0; c < split.count(); ++c)
    for (int p : split.components[static_cast<std::size_t>(c)])
      comp_of[static_cast<std::size_t>(p)] = c;

  int active_comp = -1;
  for (int t = 0; t < n; ++t) {
    const int p = m[static_cast<std::size_t>(t)];
    const bool frozen =
        st.quarantined != nullptr && (*st.quarantined)[static_cast<std::size_t>(t)] != 0;
    if (p == kUnassigned) {
      // Only a quarantined task may be unplaced.
      if (!frozen) out.push_back(at_task(t) + " is active but unplaced");
      continue;
    }
    if (p < 0 || p >= overlay.size()) {
      out.push_back(at_task(t) + " placed on out-of-range processor " +
                    std::to_string(p));
      continue;
    }
    if (!overlay.is_alive(p)) {
      out.push_back(at_task(t) + " placed on dead processor " +
                    std::to_string(p));
      continue;
    }
    if (frozen) continue;  // quarantined: any alive processor is legal
    const int c = comp_of[static_cast<std::size_t>(p)];
    if (active_comp == -1) active_comp = c;
    if (c != active_comp)
      out.push_back(at_task(t) + " is active on processor " +
                    std::to_string(p) + " in component " + std::to_string(c) +
                    " while other active tasks sit in component " +
                    std::to_string(active_comp));
  }
}

void check_groups(const SystemState& st, std::vector<std::string>& out) {
  const topo::FaultOverlay& overlay = *st.overlay;
  const std::vector<int>& groups = *st.groups;
  const Mapping& gm = *st.group_mapping;
  const int num_groups = static_cast<int>(gm.size());
  // Capacity is structural: one group per processor.  The group mapping
  // must be injective over alive processors, and every active task must
  // sit exactly where its group does.
  std::set<int> used;
  for (int gidx = 0; gidx < num_groups; ++gidx) {
    const int p = gm[static_cast<std::size_t>(gidx)];
    if (p < 0 || p >= overlay.size() || !overlay.is_alive(p)) {
      out.push_back("group " + std::to_string(gidx) +
                    " mapped to dead/out-of-range processor " +
                    std::to_string(p));
      continue;
    }
    if (!used.insert(p).second)
      out.push_back("processor " + std::to_string(p) +
                    " hosts more than one group (capacity violated)");
  }
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const int t = st.active_tasks != nullptr
                      ? (*st.active_tasks)[i]
                      : static_cast<int>(i);
    const int gidx = groups[i];
    if (gidx < 0 || gidx >= num_groups) {
      out.push_back(at_task(t) + " in out-of-range group " +
                    std::to_string(gidx));
      continue;
    }
    if (st.placement != nullptr &&
        t < static_cast<int>(st.placement->size())) {
      const int p = (*st.placement)[static_cast<std::size_t>(t)];
      if (p != gm[static_cast<std::size_t>(gidx)])
        out.push_back(at_task(t) + " placed on processor " +
                      std::to_string(p) + " but its group " +
                      std::to_string(gidx) + " lives on " +
                      std::to_string(gm[static_cast<std::size_t>(gidx)]));
    }
  }
}

void check_plane(const SystemState& st, const ValidateOptions& opts,
                 std::vector<std::string>& out) {
  const topo::FaultOverlay& overlay = *st.overlay;
  const topo::DistanceCache& plane = *st.plane;
  if (plane.size() != overlay.size()) {
    out.push_back("plane size " + std::to_string(plane.size()) +
                  " != machine size " + std::to_string(overlay.size()));
    return;
  }
  if (plane.scale() != overlay.distance_scale()) {
    out.push_back("plane scale " + std::to_string(plane.scale()) +
                  " != overlay scale " +
                  std::to_string(overlay.distance_scale()));
    return;
  }
  const std::vector<int> alive = overlay.alive_procs();
  std::vector<int> rows;
  if (opts.plane_rows <= 0 ||
      opts.plane_rows >= static_cast<int>(alive.size())) {
    rows = alive;
  } else {
    // Evenly-spaced alive rows, deterministic.
    const int k = opts.plane_rows;
    const int m = static_cast<int>(alive.size());
    for (int i = 0; i < k; ++i)
      rows.push_back(alive[static_cast<std::size_t>(
          k == 1 ? 0 : static_cast<long long>(i) * (m - 1) / (k - 1))]);
  }
  std::vector<std::uint16_t> fresh(static_cast<std::size_t>(overlay.size()));
  // A fresh overlay row against the plane's row of D entries, whose
  // sentinel stands for the overlay's kUnreachable.
  const auto same_row = [&](auto tag, int p) {
    using D = decltype(tag);
    const D* row = plane.row<D>(p);
    for (std::size_t q = 0; q < fresh.size(); ++q) {
      const int want = fresh[q] == topo::FaultOverlay::kUnreachable
                           ? topo::DistanceCache::kUnreachableEntry<D>
                           : fresh[q];
      if (row[q] != want) return false;
    }
    return true;
  };
  for (int p : rows) {
    overlay.write_distance_row(p, fresh.data());
    if (!plane.visit([&](auto tag) { return same_row(tag, p); })) {
      out.push_back("plane row " + std::to_string(p) +
                    " differs from a fresh rebuild (stale repair?)");
      continue;
    }
    const double want = overlay.mean_distance_from(p);
    if (plane.mean_distance_from(p) != want)
      out.push_back("plane mean for row " + std::to_string(p) +
                    " differs from a fresh rebuild");
  }
}

void check_attribution(const SystemState& st, std::vector<std::string>& out) {
  const graph::TaskGraph& g = *st.graph;
  const topo::FaultOverlay& overlay = *st.overlay;
  const Mapping& m = *st.placement;
  // Applicable only where routes exist and mean "hops": routed base, no
  // weighted metric, every task placed, no quarantine (an edge between an
  // active task and one frozen on a minority component has no route).
  if (!overlay.base().has_adjacency() || overlay.has_soft_faults()) return;
  if (st.quarantined != nullptr)
    for (char f : *st.quarantined)
      if (f != 0) return;
  for (int p : m)
    if (p == kUnassigned) return;
  const double hb = hop_bytes(g, overlay, m);
  const ContentionStats stats = contention_stats(g, overlay, m);
  const double tol = 1e-9 * std::max(1.0, std::abs(hb));
  if (std::abs(stats.total_bytes - hb) > tol)
    out.push_back("link attribution total " +
                  std::to_string(stats.total_bytes) +
                  " does not sum to hop-bytes " + std::to_string(hb));
}

}  // namespace

std::string ValidationReport::summary() const {
  if (violations.empty()) return "ok";
  std::ostringstream os;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) os << "; ";
    os << violations[i];
  }
  return os.str();
}

ValidationReport validate_state(const SystemState& state,
                                const ValidateOptions& opts) {
  TOPOMAP_REQUIRE(state.graph != nullptr && state.overlay != nullptr,
                  "validate_state: graph and overlay are required");
  TOPOMAP_REQUIRE(state.groups == nullptr || state.group_mapping != nullptr,
                  "validate_state: groups need a group_mapping");
  ValidationReport report;
  const topo::ComponentSplit split = topo::connected_components(*state.overlay);
  if (split.count() == 0) {
    report.violations.push_back("no alive processors");
    return report;
  }
  if (state.placement != nullptr) check_placement(state, split, report.violations);
  if (state.groups != nullptr) check_groups(state, report.violations);
  if (state.plane != nullptr) check_plane(state, opts, report.violations);
  if (state.placement != nullptr && opts.check_attribution &&
      report.violations.empty())
    check_attribution(state, report.violations);
  return report;
}

}  // namespace topomap::core
