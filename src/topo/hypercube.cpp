#include "topo/hypercube.hpp"

#include <bit>
#include <sstream>

#include "support/error.hpp"

namespace topomap::topo {

Hypercube::Hypercube(int dim) : dim_(dim) {
  TOPOMAP_REQUIRE(dim >= 0 && dim <= 24, "hypercube dimension out of range");
}

int Hypercube::distance(int a, int b) const {
  check_node(a);
  check_node(b);
  return std::popcount(static_cast<unsigned>(a ^ b));
}

std::vector<int> Hypercube::neighbors(int p) const {
  check_node(p);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(dim_));
  for (int d = 0; d < dim_; ++d) out.push_back(p ^ (1 << d));
  return out;
}

std::string Hypercube::name() const {
  std::ostringstream os;
  os << "hypercube(" << dim_ << ')';
  return os.str();
}

double Hypercube::mean_distance_from(int) const {
  // By symmetry every node sees the same distribution: expected Hamming
  // distance to a uniform node is d/2.
  return static_cast<double>(dim_) / 2.0;
}

double Hypercube::mean_pairwise_distance() const {
  return static_cast<double>(dim_) / 2.0;
}

void Hypercube::write_distance_row(int p, std::uint16_t* out) const {
  check_node(p);
  const int n = size();
  for (int q = 0; q < n; ++q)
    out[q] = static_cast<std::uint16_t>(
        std::popcount(static_cast<unsigned>(p ^ q)));
}

void Hypercube::route(int a, int b, std::vector<int>& path) const {
  check_node(a);
  check_node(b);
  path.assign(1, a);
  int cur = a;
  for (int d = 0; d < dim_; ++d) {
    const int bit = 1 << d;
    if ((cur & bit) != (b & bit)) {
      cur ^= bit;
      path.push_back(cur);
    }
  }
}

}  // namespace topomap::topo
