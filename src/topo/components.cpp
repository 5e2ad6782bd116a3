#include "topo/components.hpp"

#include <algorithm>
#include <sstream>

#include "topo/fault_overlay.hpp"

namespace topomap::topo {

ComponentSplit connected_components(const FaultOverlay& overlay) {
  const int n = overlay.size();
  ComponentSplit split;
  if (!overlay.base().has_adjacency()) {
    // Distance model: every alive pair remains connected at the switch
    // level, so the alive set is one component (or none).
    std::vector<int> alive = overlay.alive_procs();
    if (!alive.empty()) split.components.push_back(std::move(alive));
    return split;
  }
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<int> frontier, next;
  for (int seed = 0; seed < n; ++seed) {
    if (seen[static_cast<std::size_t>(seed)] || !overlay.is_alive(seed))
      continue;
    // BFS in ascending discovery order; the member list is sorted after so
    // the output is independent of traversal order anyway.
    std::vector<int> members{seed};
    seen[static_cast<std::size_t>(seed)] = 1;
    frontier.assign(1, seed);
    while (!frontier.empty()) {
      next.clear();
      for (const int u : frontier) {
        overlay.for_each_alive_link(u, [&](int v, int) {
          if (seen[static_cast<std::size_t>(v)]) return;
          seen[static_cast<std::size_t>(v)] = 1;
          members.push_back(v);
          next.push_back(v);
        });
      }
      frontier.swap(next);
    }
    std::sort(members.begin(), members.end());
    split.components.push_back(std::move(members));
  }
  // Primary first: largest component, ties to the lowest member id.  The
  // seed loop already yields ascending first-member ids, so a stable sort
  // on size alone keeps the tie-break.
  std::stable_sort(split.components.begin(), split.components.end(),
                   [](const std::vector<int>& x, const std::vector<int>& y) {
                     return x.size() > y.size();
                   });
  return split;
}

std::string describe_partition(const FaultOverlay& overlay,
                               const ComponentSplit& split) {
  std::ostringstream os;
  os << "the alive machine is split into " << split.count()
     << " components (sizes";
  for (const auto& c : split.components) os << ' ' << c.size();
  os << ") by " << overlay.num_failed_nodes() << " dead processors and "
     << overlay.num_failed_links() << " failed links on " << overlay.name();
  return os.str();
}

}  // namespace topomap::topo
