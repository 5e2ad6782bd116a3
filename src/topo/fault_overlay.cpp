#include "topo/fault_overlay.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace topomap::topo {

namespace {

std::pair<int, int> norm_link(int a, int b) {
  return a < b ? std::pair<int, int>{a, b} : std::pair<int, int>{b, a};
}

/// One thread's search buffers.  The overlay is queried concurrently from
/// the pool's workers, so each thread keeps its own and every search
/// reuses them.  An early-exit query marks the nodes it reaches with the
/// current epoch instead of clearing an O(p) array first.
struct SearchScratch {
  using Item = std::pair<std::uint32_t, int>;  // (cost, node)
  std::vector<int> frontier, next;
  std::vector<Item> heap;  // min-heap on (cost, node): deterministic order
  std::vector<int> parent;
  std::vector<std::uint16_t> row;
  std::vector<std::uint32_t> mark;  // mark[v] == epoch: v reached
  std::vector<std::uint16_t> dist;  // valid where marked
  std::uint32_t epoch = 0;

  /// Start a marked search over n nodes: no node is reached yet.
  void begin_marks(int n) {
    if (mark.size() < static_cast<std::size_t>(n)) {
      mark.resize(static_cast<std::size_t>(n), 0);
      dist.resize(static_cast<std::size_t>(n));
    }
    if (++epoch == 0) {
      std::fill(mark.begin(), mark.end(), 0);
      epoch = 1;
    }
  }
  bool reached(int v) const {
    return mark[static_cast<std::size_t>(v)] == epoch;
  }
  void reach(int v, std::uint32_t d) {
    mark[static_cast<std::size_t>(v)] = epoch;
    dist[static_cast<std::size_t>(v)] = static_cast<std::uint16_t>(d);
  }

  // The std::priority_queue<Item, vector, greater> operations, on a
  // buffer that outlives the search.
  void push(Item item) {
    heap.push_back(item);
    std::push_heap(heap.begin(), heap.end(), std::greater<Item>{});
  }
  Item pop() {
    std::pop_heap(heap.begin(), heap.end(), std::greater<Item>{});
    const Item top = heap.back();
    heap.pop_back();
    return top;
  }
};

SearchScratch& scratch() {
  thread_local SearchScratch s;
  return s;
}

}  // namespace

FaultOverlay::FaultOverlay(TopologyPtr base)
    : base_(std::move(base)) {
  TOPOMAP_REQUIRE(base_ != nullptr, "FaultOverlay: base topology is null");
  size_ = base_->size();
  dead_.assign(static_cast<std::size_t>(size_), 0);
  if (base_->has_adjacency()) {
    links_.emplace(*base_);
    link_cost_.assign(static_cast<std::size_t>(links_->size()),
                      kHealthCostOne);
  }
}

void FaultOverlay::set_link_cost(int a, int b, int cost) {
  const int ab = links_->id(a, b);
  const int ba = links_->id(b, a);
  TOPOMAP_ASSERT(ab >= 0 && ba >= 0, "base link is not undirected");
  link_cost_[static_cast<std::size_t>(ab)] = static_cast<std::uint16_t>(cost);
  link_cost_[static_cast<std::size_t>(ba)] = static_cast<std::uint16_t>(cost);
}

int FaultOverlay::fail_link(int a, int b) {
  check_node(a);
  check_node(b);
  TOPOMAP_REQUIRE(a != b, "fail_link: self-link " + std::to_string(a));
  TOPOMAP_REQUIRE(base_->has_adjacency(),
                  "fail_link: " + base_->name() +
                      " is a distance model without processor-level links; "
                      "only processor failures are supported on it");
  TOPOMAP_REQUIRE(links_->id(a, b) >= 0,
                  "fail_link: no link " + std::to_string(a) + "-" +
                      std::to_string(b) + " in " + base_->name());
  set_link_cost(a, b, 0);
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
  TOPOMAP_REQUIRE(links_->id(a, b) >= 0,
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
  set_link_cost(a, b, cost);

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
  TOPOMAP_REQUIRE(links_->id(a, b) >= 0,
                  "restore_link: no link " + std::to_string(a) + "-" +
                      std::to_string(b) + " in " + base_->name());
  if (failed_links_.erase(norm_link(a, b)) != 0) {
    // The hard fault had superseded any degrade: back at full health.
    set_link_cost(a, b, kHealthCostOne);
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
  SearchScratch& s = scratch();
  s.begin_marks(size_);
  s.reach(a, 0);
  if (!degraded_.empty()) {
    // Weighted mode: early-exit Dijkstra (settle b, return its cost).
    s.heap.clear();
    s.push({0, a});
    while (!s.heap.empty()) {
      const auto [d, u] = s.pop();
      if (d != s.dist[static_cast<std::size_t>(u)]) continue;
      if (u == b) return static_cast<int>(d);
      for_each_alive_link(u, [&](int v, int cost) {
        const std::uint32_t nd = d + static_cast<std::uint32_t>(cost);
        TOPOMAP_REQUIRE(nd <= kMaxFiniteDistance,
                        "distance: weighted path cost overflows the "
                        "fixed-point uint16 plane on " + name());
        if (!s.reached(v) || nd < s.dist[static_cast<std::size_t>(v)]) {
          s.reach(v, nd);
          s.push({nd, v});
        }
      });
    }
    TOPOMAP_REQUIRE(false, "distance: processors " + std::to_string(a) +
                               " and " + std::to_string(b) +
                               " are disconnected by faults in " + name());
  }
  // Early-exit BFS from a.
  s.frontier.assign(1, a);
  int depth = 0;
  bool found = false;
  while (!s.frontier.empty()) {
    ++depth;
    s.next.clear();
    for (const int u : s.frontier) {
      for_each_alive_link(u, [&](int v, int) {
        if (s.reached(v)) return;
        if (v == b) found = true;
        s.reach(v, static_cast<std::uint32_t>(depth));
        s.next.push_back(v);
      });
      if (found) return depth;
    }
    s.frontier.swap(s.next);
  }
  TOPOMAP_REQUIRE(false, "distance: processors " + std::to_string(a) + " and " +
                             std::to_string(b) +
                             " are disconnected by faults in " + name());
  return -1;  // unreachable
}

std::vector<int> FaultOverlay::neighbors(int p) const {
  check_node(p);
  if (dead_[static_cast<std::size_t>(p)]) return {};
  if (!links_) return base_->neighbors(p);  // distance model: throws
  std::vector<int> out;
  for_each_alive_link(p, [&](int q, int) { out.push_back(q); });
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
    if (i == 0) continue;
    // A failed link costs 0 and a degraded one more than a healthy hop.
    // In weighted mode a route touching a degraded link may no longer be
    // cheapest; a degrade-free min-hop route always is (every alternative
    // crosses at least as many links, each at least the healthy cost).
    const int link = links_->id(path[i - 1], path[i]);
    TOPOMAP_ASSERT(link >= 0, "base route step is not a physical link");
    if (link_cost_[static_cast<std::size_t>(link)] != kHealthCostOne)
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
  SearchScratch& s = scratch();
  s.parent.assign(static_cast<std::size_t>(size_), -1);
  bool found = false;
  if (!degraded_.empty()) {
    // Cheapest route by Dijkstra with a deterministic parent tree.
    s.row.resize(static_cast<std::size_t>(size_));
    dijkstra_row(a, s.row.data(), &s.parent);
    found = s.row[static_cast<std::size_t>(b)] != kUnreachable;
  } else {
    // BFS with parent tracking over the alive subgraph.
    s.frontier.assign(1, a);
    s.parent[static_cast<std::size_t>(a)] = a;
    while (!s.frontier.empty() && !found) {
      s.next.clear();
      for (const int u : s.frontier) {
        for_each_alive_link(u, [&](int v, int) {
          if (found || s.parent[static_cast<std::size_t>(v)] != -1) return;
          s.parent[static_cast<std::size_t>(v)] = u;
          if (v == b) found = true;
          s.next.push_back(v);
        });
        if (found) break;
      }
      s.frontier.swap(s.next);
    }
  }
  TOPOMAP_REQUIRE(found, "route: processors " + std::to_string(a) + " and " +
                             std::to_string(b) +
                             " are disconnected by faults in " + name());
  path.clear();
  for (int v = b; v != a; v = s.parent[static_cast<std::size_t>(v)])
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
  OBS_COUNTER_ADD("faultoverlay/row_searches", 1);
  if (!degraded_.empty()) {
    dijkstra_row(p, out, nullptr);
    return;
  }
  bfs_row(p, out);
}

void FaultOverlay::bfs_row(int src, std::uint16_t* out) const {
  std::fill(out, out + size_, kUnreachable);
  SearchScratch& s = scratch();
  s.frontier.assign(1, src);
  out[src] = 0;
  std::uint16_t depth = 0;
  while (!s.frontier.empty()) {
    ++depth;
    s.next.clear();
    for (const int u : s.frontier) {
      for_each_alive_link(u, [&](int v, int) {
        if (out[v] != kUnreachable) return;
        out[v] = depth;
        s.next.push_back(v);
      });
    }
    s.frontier.swap(s.next);
  }
}

void FaultOverlay::dijkstra_row(int src, std::uint16_t* out,
                                std::vector<int>* parent) const {
  std::fill(out, out + size_, kUnreachable);
  if (parent != nullptr)
    std::fill(parent->begin(), parent->end(), -1);
  SearchScratch& s = scratch();
  s.heap.clear();
  out[src] = 0;
  if (parent != nullptr) (*parent)[static_cast<std::size_t>(src)] = src;
  s.push({0, src});
  while (!s.heap.empty()) {
    const auto [d, u] = s.pop();
    if (d != out[u]) continue;  // stale heap entry
    for_each_alive_link(u, [&](int v, int cost) {
      const std::uint32_t nd = d + static_cast<std::uint32_t>(cost);
      TOPOMAP_REQUIRE(nd <= kMaxFiniteDistance,
                      "weighted path cost overflows the fixed-point uint16 "
                      "plane on " + name());
      if (nd < out[v]) {
        out[v] = static_cast<std::uint16_t>(nd);
        if (parent != nullptr) (*parent)[static_cast<std::size_t>(v)] = u;
        s.push({nd, v});
      }
    });
  }
}

}  // namespace topomap::topo
