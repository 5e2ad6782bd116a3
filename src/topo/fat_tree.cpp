#include "topo/fat_tree.hpp"

#include <cmath>
#include <sstream>

#include "support/error.hpp"

namespace topomap::topo {

FatTree::FatTree(int arity, int levels) : arity_(arity), levels_(levels) {
  TOPOMAP_REQUIRE(arity >= 2, "fat-tree arity must be >= 2");
  TOPOMAP_REQUIRE(levels >= 1, "fat-tree needs at least one level");
  double sz = std::pow(static_cast<double>(arity), levels);
  TOPOMAP_REQUIRE(sz <= (1 << 24), "fat-tree too large");
  size_ = 1;
  for (int i = 0; i < levels; ++i) size_ *= arity;
}

int FatTree::distance(int a, int b) const {
  check_node(a);
  check_node(b);
  if (a == b) return 0;
  // Find the number of *trailing-to-leading* base-k digits that agree,
  // starting from the most significant digit.  Equivalently: divide both
  // addresses by k until they land under the same switch subtree.
  int up = 0;
  while (a != b) {
    a /= arity_;
    b /= arity_;
    ++up;
  }
  return 2 * up;
}

std::vector<int> FatTree::neighbors(int p) const {
  check_node(p);
  throw precondition_error(
      "FatTree::neighbors: fat-tree links attach leaves to switches, which "
      "are not processors, so no processor-level adjacency can realise the "
      "2*(L-lcp) switch-hop distances (leaves under one edge switch are "
      "already 2 hops apart); use a grid or graph topology for "
      "adjacency-level experiments");
}

std::string FatTree::name() const {
  std::ostringstream os;
  os << "fattree(k=" << arity_ << ",L=" << levels_ << ')';
  return os.str();
}

double FatTree::mean_distance_from(int) const {
  return mean_pairwise_distance();  // leaf-transitive: same from every node
}

double FatTree::mean_pairwise_distance() const {
  // E[dist] = 2 * sum_{j=1}^{L} P(lowest common switch is at level >= j)
  //         = 2 * sum_{j=1}^{L} (1 - k^{-j}) ... computed directly instead:
  // P(lcp >= j) = k^{-j}; E[lcp] = sum_{j=1}^{L} k^{-j}.
  double e_lcp = 0.0, pow_k = 1.0;
  for (int j = 1; j <= levels_; ++j) {
    pow_k *= arity_;
    e_lcp += 1.0 / pow_k;
  }
  return 2.0 * (static_cast<double>(levels_) - e_lcp);
}

void FatTree::route(int, int, std::vector<int>&) const {
  throw precondition_error(
      "FatTree::route: fat-tree paths traverse switches, which are not "
      "processors; use a grid topology for link-level experiments");
}

}  // namespace topomap::topo
