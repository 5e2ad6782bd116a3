#include "topo/link_index.hpp"

#include <algorithm>
#include <numeric>

namespace topomap::topo {

LinkIndex::LinkIndex(const Topology& topo) : topo_(&topo) {
  TOPOMAP_REQUIRE(topo.has_adjacency(),
                  "link-level operations need processor-level links; " +
                      topo.name() + " is a distance model only");
  const int n = topo.size();
  offset_.reserve(static_cast<std::size_t>(n) + 1);
  offset_.push_back(0);
  for (int u = 0; u < n; ++u) {
    for (const int v : topo.neighbors(u)) {
      from_.push_back(u);
      to_.push_back(v);
    }
    offset_.push_back(static_cast<int>(to_.size()));
  }
  by_target_.resize(to_.size());
  std::iota(by_target_.begin(), by_target_.end(), 0);
  for (int u = 0; u < n; ++u)
    std::sort(by_target_.begin() + offset(u), by_target_.begin() + offset(u + 1),
              [this](int x, int y) { return to(x) < to(y); });
}

int LinkIndex::id(int u, int v) const {
  TOPOMAP_REQUIRE(u >= 0 && u < static_cast<int>(offset_.size()) - 1,
                  "link source out of range");
  // A linear scan: route walks call this once per hop, and a grid node
  // has at most 2 * ndims links, where a binary search costs more.
  const int last = offset(u + 1);
  for (int l = offset(u); l < last; ++l)
    if (to(l) == v) return l;
  return -1;
}

}  // namespace topomap::topo
