#include "topo/sub_topology.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"

namespace topomap::topo {

SubTopology::SubTopology(TopologyPtr base, std::vector<int> nodes)
    : base_(std::move(base)), nodes_(std::move(nodes)) {
  TOPOMAP_REQUIRE(base_ != nullptr, "SubTopology: base topology is null");
  TOPOMAP_REQUIRE(!nodes_.empty(), "SubTopology: empty node subset");
  TOPOMAP_REQUIRE(std::is_sorted(nodes_.begin(), nodes_.end()) &&
                      std::adjacent_find(nodes_.begin(), nodes_.end()) ==
                          nodes_.end(),
                  "SubTopology: node subset must be ascending and unique");
  TOPOMAP_REQUIRE(nodes_.front() >= 0 && nodes_.back() < base_->size(),
                  "SubTopology: node id out of range for " + base_->name());
  compact_of_.assign(static_cast<std::size_t>(base_->size()), -1);
  for (int i = 0; i < size(); ++i)
    compact_of_[static_cast<std::size_t>(nodes_[static_cast<std::size_t>(i)])] =
        i;
  // Verify pairwise connectivity up front, so strategies never see a
  // disconnected pair mid-kernel.  Links are undirected, so connectivity is
  // an equivalence: every pair is connected iff the first member reaches
  // all members, and one row names the same first failing pair a row per
  // member would.
  std::vector<std::uint16_t> row(static_cast<std::size_t>(base_->size()));
  base_->write_distance_row(node_of(0), row.data());
  for (int j = 0; j < size(); ++j) {
    TOPOMAP_REQUIRE(
        row[static_cast<std::size_t>(node_of(j))] != 0xFFFF,
        "SubTopology: processors " + std::to_string(node_of(0)) + " and " +
            std::to_string(node_of(j)) + " are disconnected in " +
            base_->name());
  }
}

int SubTopology::node_of(int i) const {
  check_node(i);
  return nodes_[static_cast<std::size_t>(i)];
}

int SubTopology::distance(int a, int b) const {
  return base_->distance(node_of(a), node_of(b));
}

std::vector<int> SubTopology::neighbors(int p) const {
  std::vector<int> out;
  for (int q : base_->neighbors(node_of(p))) {
    const int c = compact_of_[static_cast<std::size_t>(q)];
    if (c >= 0) out.push_back(c);
  }
  return out;
}

std::string SubTopology::name() const {
  std::ostringstream os;
  os << "sub(" << size() << "/" << base_->size() << ") of " << base_->name();
  return os.str();
}

double SubTopology::mean_distance_from(int p) const {
  std::vector<std::uint16_t> row(static_cast<std::size_t>(size()));
  write_distance_row(p, row.data());
  long long sum = 0;
  for (int q = 0; q < size(); ++q) sum += row[static_cast<std::size_t>(q)];
  return static_cast<double>(sum) / static_cast<double>(size());
}

int SubTopology::diameter() const {
  int best = 0;
  std::vector<std::uint16_t> row(static_cast<std::size_t>(size()));
  for (int p = 0; p < size(); ++p) {
    write_distance_row(p, row.data());
    for (int q = 0; q < size(); ++q)
      best = std::max(best, static_cast<int>(row[static_cast<std::size_t>(q)]));
  }
  return best;
}

void SubTopology::route(int a, int b, std::vector<int>& path) const {
  // Expressible only when the base route stays inside the subset — true by
  // construction when the base is a FaultOverlay over the alive processors
  // (routes never visit dead nodes).  Excluded intermediate hops mean the
  // compact ids cannot describe the path; callers then need route_in_base().
  base_->route(node_of(a), node_of(b), path);
  for (int& hop : path) {
    const int c = compact_of_[static_cast<std::size_t>(hop)];
    TOPOMAP_REQUIRE(c >= 0,
                    "SubTopology::route: base route passes through excluded "
                    "processor " + std::to_string(hop) +
                        "; use route_in_base()");
    hop = c;
  }
}

std::vector<int> SubTopology::route_in_base(int a, int b) const {
  return base_->route(node_of(a), node_of(b));
}

void SubTopology::write_distance_row(int p, std::uint16_t* out) const {
  std::vector<std::uint16_t> row(static_cast<std::size_t>(base_->size()));
  base_->write_distance_row(node_of(p), row.data());
  for (int q = 0; q < size(); ++q)
    out[q] = row[static_cast<std::size_t>(
        nodes_[static_cast<std::size_t>(q)])];
}

}  // namespace topomap::topo
