#include "topo/fault_overlay.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <sstream>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace topomap::topo {

namespace {

std::pair<int, int> norm_link(int a, int b) {
  return a < b ? std::pair<int, int>{a, b} : std::pair<int, int>{b, a};
}

}  // namespace

FaultOverlay::FaultOverlay(TopologyPtr base)
    : base_(std::move(base)) {
  TOPOMAP_REQUIRE(base_ != nullptr, "FaultOverlay: base topology is null");
  size_ = base_->size();
  dead_.assign(static_cast<std::size_t>(size_), 0);
}

int FaultOverlay::fail_link(int a, int b) {
  check_node(a);
  check_node(b);
  TOPOMAP_REQUIRE(a != b, "fail_link: self-link " + std::to_string(a));
  TOPOMAP_REQUIRE(base_->has_adjacency(),
                  "fail_link: " + base_->name() +
                      " is a distance model without processor-level links; "
                      "only processor failures are supported on it");
  const auto nb = base_->neighbors(a);
  TOPOMAP_REQUIRE(std::find(nb.begin(), nb.end(), b) != nb.end(),
                  "fail_link: no link " + std::to_string(a) + "-" +
                      std::to_string(b) + " in " + base_->name());
  const auto key = norm_link(a, b);
  // Cost the link carried while alive, in pre-mutation plane units.
  const int pre_scale = distance_scale();
  int prev = pre_scale;
  if (const auto it = degraded_.find(key); it != degraded_.end()) {
    prev = it->second;
    degraded_.erase(it);  // the hard fault supersedes the soft one
    ++version_;
    failed_links_.insert(key);
    OBS_COUNTER_ADD("faultoverlay/link_failures", 1);
    return prev;
  }
  if (failed_links_.insert(key).second) {
    ++version_;
    OBS_COUNTER_ADD("faultoverlay/link_failures", 1);
  }
  return prev;
}

void FaultOverlay::fail_node(int p) {
  check_node(p);
  if (dead_[static_cast<std::size_t>(p)]) return;
  dead_[static_cast<std::size_t>(p)] = 1;
  ++dead_count_;
  ++version_;
  OBS_COUNTER_ADD("faultoverlay/node_failures", 1);
}

int FaultOverlay::degrade_link(int a, int b, double health) {
  check_node(a);
  check_node(b);
  TOPOMAP_REQUIRE(a != b, "degrade_link: self-link " + std::to_string(a));
  TOPOMAP_REQUIRE(base_->has_adjacency(),
                  "degrade_link: " + base_->name() +
                      " is a distance model without processor-level links; "
                      "link health is undefined on it");
  const auto nb = base_->neighbors(a);
  TOPOMAP_REQUIRE(std::find(nb.begin(), nb.end(), b) != nb.end(),
                  "degrade_link: no link " + std::to_string(a) + "-" +
                      std::to_string(b) + " in " + base_->name());
  TOPOMAP_REQUIRE(!link_failed(a, b),
                  "degrade_link: link " + std::to_string(a) + "-" +
                      std::to_string(b) + " has hard-failed (health 0); "
                      "links cannot be revived");
  TOPOMAP_REQUIRE(is_alive(a) && is_alive(b),
                  "degrade_link: an endpoint of " + std::to_string(a) + "-" +
                      std::to_string(b) + " has failed");
  TOPOMAP_REQUIRE(health > 0.0 && health <= 1.0,
                  "degrade_link: health must be in (0, 1], got " +
                      std::to_string(health));
  // Quantize to the fixed-point cost.  Costs rounding back to one healthy
  // hop (health above ~0.94) are normalized to pristine, so the weighted
  // mode only engages when some link is measurably sick.
  const long long cost_ll =
      std::llround(static_cast<double>(kHealthCostOne) / health);
  TOPOMAP_REQUIRE(cost_ll <= kMaxFiniteDistance,
                  "degrade_link: health " + std::to_string(health) +
                      " is too low to represent; use fail_link");
  const int cost = std::max(kHealthCostOne, static_cast<int>(cost_ll));

  const auto key = norm_link(a, b);
  const int pre_scale = distance_scale();
  const auto it = degraded_.find(key);
  const int prev = it != degraded_.end() ? it->second : pre_scale;
  if (cost == kHealthCostOne) {
    // Restored to full health.
    if (it != degraded_.end()) {
      degraded_.erase(it);
      ++version_;
    }
    return prev;
  }
  if (it != degraded_.end()) {
    if (it->second != cost) {
      it->second = cost;
      ++version_;
      OBS_COUNTER_ADD("faultoverlay/link_degrades", 1);
    }
  } else {
    degraded_.emplace(key, cost);
    ++version_;
    OBS_COUNTER_ADD("faultoverlay/link_degrades", 1);
  }
  return prev;
}

void FaultOverlay::restore_node(int p) {
  check_node(p);
  if (!dead_[static_cast<std::size_t>(p)]) return;
  dead_[static_cast<std::size_t>(p)] = 0;
  --dead_count_;
  ++version_;
  OBS_COUNTER_ADD("faultoverlay/node_restores", 1);
}

int FaultOverlay::restore_link(int a, int b) {
  check_node(a);
  check_node(b);
  TOPOMAP_REQUIRE(a != b, "restore_link: self-link " + std::to_string(a));
  TOPOMAP_REQUIRE(base_->has_adjacency(),
                  "restore_link: " + base_->name() +
                      " is a distance model without processor-level links");
  const auto nb = base_->neighbors(a);
  TOPOMAP_REQUIRE(std::find(nb.begin(), nb.end(), b) != nb.end(),
                  "restore_link: no link " + std::to_string(a) + "-" +
                      std::to_string(b) + " in " + base_->name());
  if (failed_links_.erase(norm_link(a, b)) != 0) {
    ++version_;
    OBS_COUNTER_ADD("faultoverlay/link_restores", 1);
  }
  return link_cost(a, b);
}

int FaultOverlay::restore_link_health(int a, int b) {
  return degrade_link(a, b, 1.0);
}

bool FaultOverlay::link_failed(int a, int b) const {
  return failed_links_.count(norm_link(a, b)) != 0;
}

double FaultOverlay::link_health(int a, int b) const {
  if (link_failed(a, b) || dead_[static_cast<std::size_t>(a)] ||
      dead_[static_cast<std::size_t>(b)])
    return 0.0;
  const auto it = degraded_.find(norm_link(a, b));
  if (it == degraded_.end()) return 1.0;
  return static_cast<double>(kHealthCostOne) /
         static_cast<double>(it->second);
}

int FaultOverlay::link_cost(int a, int b) const {
  if (degraded_.empty()) return 1;
  const auto it = degraded_.find(norm_link(a, b));
  return it != degraded_.end() ? it->second : kHealthCostOne;
}

int FaultOverlay::weighted_cost(int u, int v) const {
  const auto it = degraded_.find(norm_link(u, v));
  return it != degraded_.end() ? it->second : kHealthCostOne;
}

bool FaultOverlay::is_alive(int p) const {
  check_node(p);
  return dead_[static_cast<std::size_t>(p)] == 0;
}

std::vector<int> FaultOverlay::alive_procs() const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(num_alive()));
  for (int p = 0; p < size_; ++p)
    if (!dead_[static_cast<std::size_t>(p)]) out.push_back(p);
  return out;
}

int FaultOverlay::distance(int a, int b) const {
  TOPOMAP_REQUIRE(is_alive(a), "distance: processor " + std::to_string(a) +
                                   " has failed");
  TOPOMAP_REQUIRE(is_alive(b), "distance: processor " + std::to_string(b) +
                                   " has failed");
  if (!has_faults() || !base_->has_adjacency()) return base_->distance(a, b);
  if (a == b) return 0;
  if (!degraded_.empty()) {
    // Weighted mode: early-exit Dijkstra (settle b, return its cost).
    using Item = std::pair<std::uint32_t, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
    std::vector<std::uint16_t> dist(static_cast<std::size_t>(size_),
                                    kUnreachable);
    dist[static_cast<std::size_t>(a)] = 0;
    pq.push({0, a});
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d != dist[static_cast<std::size_t>(u)]) continue;
      if (u == b) return static_cast<int>(d);
      for (int v : base_->neighbors(u)) {
        if (dead_[static_cast<std::size_t>(v)]) continue;
        if (link_failed(u, v)) continue;
        const std::uint32_t nd = d + static_cast<std::uint32_t>(
                                         weighted_cost(u, v));
        TOPOMAP_REQUIRE(nd <= kMaxFiniteDistance,
                        "distance: weighted path cost overflows the "
                        "fixed-point uint16 plane on " + name());
        if (nd < dist[static_cast<std::size_t>(v)]) {
          dist[static_cast<std::size_t>(v)] = static_cast<std::uint16_t>(nd);
          pq.push({nd, v});
        }
      }
    }
    TOPOMAP_REQUIRE(false, "distance: processors " + std::to_string(a) +
                               " and " + std::to_string(b) +
                               " are disconnected by faults in " + name());
  }
  // Early-exit BFS from a; stateless so concurrent use is safe.
  std::vector<std::uint16_t> dist(static_cast<std::size_t>(size_),
                                  kUnreachable);
  std::vector<int> frontier{a}, next;
  dist[static_cast<std::size_t>(a)] = 0;
  int depth = 0;
  while (!frontier.empty()) {
    ++depth;
    next.clear();
    for (int u : frontier) {
      for (int v : base_->neighbors(u)) {
        if (dead_[static_cast<std::size_t>(v)]) continue;
        if (dist[static_cast<std::size_t>(v)] != kUnreachable) continue;
        if (link_failed(u, v)) continue;
        if (v == b) return depth;
        dist[static_cast<std::size_t>(v)] = static_cast<std::uint16_t>(depth);
        next.push_back(v);
      }
    }
    frontier.swap(next);
  }
  TOPOMAP_REQUIRE(false, "distance: processors " + std::to_string(a) + " and " +
                             std::to_string(b) +
                             " are disconnected by faults in " + name());
  return -1;  // unreachable
}

std::vector<int> FaultOverlay::neighbors(int p) const {
  check_node(p);
  if (dead_[static_cast<std::size_t>(p)]) return {};
  std::vector<int> out = base_->neighbors(p);
  if (dead_count_ == 0 && failed_links_.empty()) return out;
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](int q) {
                             return dead_[static_cast<std::size_t>(q)] != 0 ||
                                    link_failed(p, q);
                           }),
            out.end());
  return out;
}

std::string FaultOverlay::name() const {
  std::ostringstream os;
  os << "faults(nodes=" << dead_count_ << ",links=" << failed_links_.size()
     << ",deg=" << degraded_.size() << ",v=" << version_ << ") over "
     << base_->name();
  return os.str();
}

double FaultOverlay::mean_distance_from(int p) const {
  check_node(p);
  if (dead_[static_cast<std::size_t>(p)]) return 0.0;
  if (!has_faults()) return base_->mean_distance_from(p);
  // Integer sum over reachable alive processors (self included), divided
  // once — exactly the arithmetic DistanceCache repair maintains, so a
  // repaired cache and a fresh build agree bit-for-bit.
  std::vector<std::uint16_t> row(static_cast<std::size_t>(size_));
  write_distance_row(p, row.data());
  long long sum = 0;
  int reach = 0;
  for (int q = 0; q < size_; ++q) {
    if (row[static_cast<std::size_t>(q)] == kUnreachable) continue;
    sum += row[static_cast<std::size_t>(q)];
    ++reach;
  }
  return reach > 0 ? static_cast<double>(sum) / static_cast<double>(reach)
                   : 0.0;
}

double FaultOverlay::mean_pairwise_distance() const {
  if (!has_faults()) return base_->mean_pairwise_distance();
  const int alive = num_alive();
  if (alive == 0) return 0.0;
  double total = 0.0;
  for (int p = 0; p < size_; ++p)
    if (!dead_[static_cast<std::size_t>(p)]) total += mean_distance_from(p);
  return total / static_cast<double>(alive);
}

int FaultOverlay::diameter() const {
  if (!has_faults()) return base_->diameter();
  int best = 0;
  std::vector<std::uint16_t> row(static_cast<std::size_t>(size_));
  for (int p = 0; p < size_; ++p) {
    if (dead_[static_cast<std::size_t>(p)]) continue;
    write_distance_row(p, row.data());
    for (int q = 0; q < size_; ++q) {
      const std::uint16_t d = row[static_cast<std::size_t>(q)];
      if (d != kUnreachable && static_cast<int>(d) > best)
        best = static_cast<int>(d);
    }
  }
  return best;
}

bool FaultOverlay::route_intact(const std::vector<int>& path) const {
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (dead_[static_cast<std::size_t>(path[i])]) return false;
    if (i > 0 && link_failed(path[i - 1], path[i])) return false;
    // In weighted mode a route touching a degraded link may no longer be
    // cheapest; a degrade-free min-hop route always is (every alternative
    // crosses at least as many links, each at least the healthy cost).
    if (i > 0 && !degraded_.empty() &&
        degraded_.count(norm_link(path[i - 1], path[i])) != 0)
      return false;
  }
  return true;
}

void FaultOverlay::route(int a, int b, std::vector<int>& path) const {
  TOPOMAP_REQUIRE(is_alive(a),
                  "route: processor " + std::to_string(a) + " has failed");
  TOPOMAP_REQUIRE(is_alive(b),
                  "route: processor " + std::to_string(b) + " has failed");
  // Keep the base's deterministic (e.g. dimension-ordered) route whenever
  // the faults do not touch it, so fault-free pairs see unchanged paths.
  base_->route(a, b, path);
  if (!has_faults() || route_intact(path)) return;
  std::vector<int> parent(static_cast<std::size_t>(size_), -1);
  bool found = false;
  if (!degraded_.empty()) {
    // Cheapest route by Dijkstra with a deterministic parent tree.
    std::vector<std::uint16_t> dist(static_cast<std::size_t>(size_));
    dijkstra_row(a, dist.data(), &parent);
    found = dist[static_cast<std::size_t>(b)] != kUnreachable;
  } else {
    // BFS with parent tracking over the alive subgraph.
    std::vector<int> frontier{a}, next;
    parent[static_cast<std::size_t>(a)] = a;
    while (!frontier.empty() && !found) {
      next.clear();
      for (int u : frontier) {
        for (int v : base_->neighbors(u)) {
          if (dead_[static_cast<std::size_t>(v)]) continue;
          if (parent[static_cast<std::size_t>(v)] != -1) continue;
          if (link_failed(u, v)) continue;
          parent[static_cast<std::size_t>(v)] = u;
          if (v == b) {
            found = true;
            break;
          }
          next.push_back(v);
        }
        if (found) break;
      }
      frontier.swap(next);
    }
  }
  TOPOMAP_REQUIRE(found, "route: processors " + std::to_string(a) + " and " +
                             std::to_string(b) +
                             " are disconnected by faults in " + name());
  path.clear();
  for (int v = b; v != a; v = parent[static_cast<std::size_t>(v)])
    path.push_back(v);
  path.push_back(a);
  std::reverse(path.begin(), path.end());
}

void FaultOverlay::write_distance_row(int p, std::uint16_t* out) const {
  check_node(p);
  if (dead_[static_cast<std::size_t>(p)]) {
    std::fill(out, out + size_, kUnreachable);
    return;
  }
  if (!has_faults()) {
    base_->write_distance_row(p, out);
    return;
  }
  if (!base_->has_adjacency()) {
    // Distance model (no links to fail): alive-pair distances are the
    // base's; dead columns become unreachable.
    base_->write_distance_row(p, out);
    for (int q = 0; q < size_; ++q)
      if (dead_[static_cast<std::size_t>(q)]) out[q] = kUnreachable;
    return;
  }
  if (!degraded_.empty()) {
    dijkstra_row(p, out, nullptr);
    return;
  }
  bfs_row(p, out);
}

void FaultOverlay::bfs_row(int src, std::uint16_t* out) const {
  std::fill(out, out + size_, kUnreachable);
  std::vector<int> frontier{src}, next;
  out[src] = 0;
  std::uint16_t depth = 0;
  while (!frontier.empty()) {
    ++depth;
    next.clear();
    for (int u : frontier) {
      for (int v : base_->neighbors(u)) {
        if (dead_[static_cast<std::size_t>(v)]) continue;
        if (out[v] != kUnreachable) continue;
        if (link_failed(u, v)) continue;
        out[v] = depth;
        next.push_back(v);
      }
    }
    frontier.swap(next);
  }
}

void FaultOverlay::dijkstra_row(int src, std::uint16_t* out,
                                std::vector<int>* parent) const {
  std::fill(out, out + size_, kUnreachable);
  if (parent != nullptr)
    std::fill(parent->begin(), parent->end(), -1);
  using Item = std::pair<std::uint32_t, int>;  // (cost, node): deterministic
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  out[src] = 0;
  if (parent != nullptr) (*parent)[static_cast<std::size_t>(src)] = src;
  pq.push({0, src});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != out[u]) continue;  // stale heap entry
    for (int v : base_->neighbors(u)) {
      if (dead_[static_cast<std::size_t>(v)]) continue;
      if (link_failed(u, v)) continue;
      const std::uint32_t nd =
          d + static_cast<std::uint32_t>(weighted_cost(u, v));
      TOPOMAP_REQUIRE(nd <= kMaxFiniteDistance,
                      "weighted path cost overflows the fixed-point uint16 "
                      "plane on " + name());
      if (nd < out[v]) {
        out[v] = static_cast<std::uint16_t>(nd);
        if (parent != nullptr) (*parent)[static_cast<std::size_t>(v)] = u;
        pq.push({nd, v});
      }
    }
  }
}

}  // namespace topomap::topo
