#include "topo/topology.hpp"

#include <algorithm>
#include <deque>

#include "support/error.hpp"

namespace topomap::topo {

void Topology::check_node(int p) const {
  TOPOMAP_REQUIRE(p >= 0 && p < size(), "processor index out of range");
}

double Topology::mean_distance_from(int p) const {
  check_node(p);
  const int n = size();
  long long total = 0;
  for (int q = 0; q < n; ++q) total += distance(p, q);
  return static_cast<double>(total) / static_cast<double>(n);
}

double Topology::mean_pairwise_distance() const {
  const int n = size();
  double total = 0.0;
  for (int p = 0; p < n; ++p) total += mean_distance_from(p);
  return total / static_cast<double>(n);
}

int Topology::diameter() const {
  const int n = size();
  int best = 0;
  for (int p = 0; p < n; ++p)
    for (int q = p + 1; q < n; ++q) best = std::max(best, distance(p, q));
  return best;
}

std::vector<int> Topology::route(int a, int b) const {
  std::vector<int> path;
  route(a, b, path);
  return path;
}

void Topology::route(int a, int b, std::vector<int>& path) const {
  check_node(a);
  check_node(b);
  path.assign(1, b);
  if (a == b) return;
  std::vector<int> parent(static_cast<std::size_t>(size()), -1);
  std::deque<int> frontier{a};
  parent[static_cast<std::size_t>(a)] = a;
  while (!frontier.empty()) {
    const int u = frontier.front();
    frontier.pop_front();
    for (int v : neighbors(u)) {
      if (parent[static_cast<std::size_t>(v)] != -1) continue;
      parent[static_cast<std::size_t>(v)] = u;
      if (v == b) {
        for (int cur = b; cur != a;) {
          cur = parent[static_cast<std::size_t>(cur)];
          path.push_back(cur);
        }
        std::reverse(path.begin(), path.end());
        return;
      }
      frontier.push_back(v);
    }
  }
  TOPOMAP_UNREACHABLE("topology graph is disconnected");
}

void Topology::write_distance_row(int p, std::uint16_t* out) const {
  check_node(p);
  const int n = size();
  for (int q = 0; q < n; ++q)
    out[q] = static_cast<std::uint16_t>(distance(p, q));
}

}  // namespace topomap::topo
