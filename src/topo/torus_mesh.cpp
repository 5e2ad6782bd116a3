#include "topo/torus_mesh.hpp"

#include <cmath>
#include <numeric>
#include <sstream>

#include "support/error.hpp"

namespace topomap::topo {

TorusMesh::TorusMesh(std::vector<int> dims, std::vector<bool> wrap)
    : dims_(std::move(dims)), wrap_(std::move(wrap)) {
  TOPOMAP_REQUIRE(!dims_.empty(), "torus/mesh needs at least one dimension");
  TOPOMAP_REQUIRE(dims_.size() == wrap_.size(),
                  "dims and wrap flags differ in length");
  size_ = 1;
  stride_.resize(dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    TOPOMAP_REQUIRE(dims_[d] >= 1, "dimension extent must be >= 1");
    stride_[d] = size_;
    TOPOMAP_REQUIRE(size_ <= (1 << 30) / dims_[d], "topology too large");
    size_ *= dims_[d];
  }
}

TorusMesh TorusMesh::torus(std::vector<int> dims) {
  std::vector<bool> wrap(dims.size(), true);
  return TorusMesh(std::move(dims), std::move(wrap));
}

TorusMesh TorusMesh::mesh(std::vector<int> dims) {
  std::vector<bool> wrap(dims.size(), false);
  return TorusMesh(std::move(dims), std::move(wrap));
}

std::vector<int> TorusMesh::coords(int p) const {
  check_node(p);
  std::vector<int> c(dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    c[d] = p % dims_[d];
    p /= dims_[d];
  }
  return c;
}

int TorusMesh::index(const std::vector<int>& c) const {
  TOPOMAP_REQUIRE(c.size() == dims_.size(), "coordinate arity mismatch");
  int p = 0;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    TOPOMAP_REQUIRE(c[d] >= 0 && c[d] < dims_[d], "coordinate out of range");
    p += c[d] * stride_[d];
  }
  return p;
}

int TorusMesh::dim_distance(int dim, int x, int y) const {
  const int s = dims_[static_cast<std::size_t>(dim)];
  const int direct = std::abs(x - y);
  return wrap_[static_cast<std::size_t>(dim)] ? std::min(direct, s - direct)
                                              : direct;
}

int TorusMesh::dim_step(int dim, int x, int y) const {
  const int s = dims_[static_cast<std::size_t>(dim)];
  if (!wrap_[static_cast<std::size_t>(dim)]) return y > x ? 1 : -1;
  const int fwd = ((y - x) % s + s) % s;  // steps in +1 direction
  const int bwd = s - fwd;
  if (fwd < bwd) return 1;
  if (fwd > bwd) return -1;
  return -1;  // tie on even spans: deterministic choice
}

int TorusMesh::distance(int a, int b) const {
  check_node(a);
  check_node(b);
  int total = 0;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    const int s = dims_[d];
    const int xa = (a / stride_[d]) % s;
    const int xb = (b / stride_[d]) % s;
    total += dim_distance(static_cast<int>(d), xa, xb);
  }
  return total;
}

std::vector<int> TorusMesh::neighbors(int p) const {
  check_node(p);
  std::vector<int> out;
  out.reserve(2 * dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    const int s = dims_[d];
    if (s == 1) continue;
    const int x = (p / stride_[d]) % s;
    const int base = p - x * stride_[d];
    // -1 direction
    if (x > 0)
      out.push_back(base + (x - 1) * stride_[d]);
    else if (wrap_[d] && s > 2)
      out.push_back(base + (s - 1) * stride_[d]);
    // +1 direction
    if (x < s - 1)
      out.push_back(base + (x + 1) * stride_[d]);
    else if (wrap_[d] && s > 2)
      out.push_back(base + 0 * stride_[d]);
    // Note: wrapped spans of 2 naturally yield a single neighbour in this
    // dimension (the wraparound link coincides with the direct one).
  }
  return out;
}

std::string TorusMesh::name() const {
  std::ostringstream os;
  bool all_wrap = true, none_wrap = true;
  for (bool w : wrap_) (w ? none_wrap : all_wrap) = false;
  os << (all_wrap ? "torus" : none_wrap ? "mesh" : "hybrid") << '(';
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    if (d) os << ',';
    os << dims_[d];
    if (!all_wrap && !none_wrap) os << (wrap_[d] ? 'w' : 'o');
  }
  os << ')';
  return os.str();
}

double TorusMesh::mean_distance_from(int p) const {
  check_node(p);
  double total = 0.0;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    const double s = dims_[d];
    if (wrap_[d]) {
      // Independent of position: (1/s) * sum_k min(k, s-k).
      const auto si = dims_[d];
      total += (si % 2 == 0) ? s / 4.0 : (s * s - 1.0) / (4.0 * s);
    } else {
      const int x = (p / stride_[d]) % dims_[d];
      const double left = static_cast<double>(x) * (x + 1) / 2.0;
      const double right =
          static_cast<double>(dims_[d] - 1 - x) * (dims_[d] - x) / 2.0;
      total += (left + right) / s;
    }
  }
  return total;
}

double TorusMesh::mean_pairwise_distance() const {
  double total = 0.0;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    const double s = dims_[d];
    const int si = dims_[d];
    if (wrap_[d])
      total += (si % 2 == 0) ? s / 4.0 : (s * s - 1.0) / (4.0 * s);
    else
      total += (s * s - 1.0) / (3.0 * s);  // E|X-Y| for iid uniform
  }
  return total;
}

int TorusMesh::diameter() const {
  int total = 0;
  for (std::size_t d = 0; d < dims_.size(); ++d)
    total += wrap_[d] ? dims_[d] / 2 : dims_[d] - 1;
  return total;
}

void TorusMesh::write_distance_row(int p, std::uint16_t* out) const {
  check_node(p);
  const auto ndims = dims_.size();
  // dim_table[d][y] = distance along dimension d from p's coordinate to y.
  std::vector<std::vector<int>> dim_table(ndims);
  {
    int rest = p;
    for (std::size_t d = 0; d < ndims; ++d) {
      const int s = dims_[d];
      const int x = rest % s;
      rest /= s;
      dim_table[d].resize(static_cast<std::size_t>(s));
      for (int y = 0; y < s; ++y)
        dim_table[d][static_cast<std::size_t>(y)] =
            dim_distance(static_cast<int>(d), x, y);
    }
  }
  // Build the row by block replication: fill the innermost dimension's
  // stretch once (plus every outer dimension's contribution at coordinate
  // 0), then for each outer dimension copy the block s-1 times shifted by
  // that dimension's delta against coordinate 0.  One add per entry with
  // sequential stores — this runs inside the DistanceCache build over all
  // p, so the constant matters.
  {
    int outer0 = 0;
    for (std::size_t d = 1; d < ndims; ++d) outer0 += dim_table[d][0];
    const auto& t0 = dim_table[0];
    const int s0 = dims_[0];
    for (int y = 0; y < s0; ++y)
      out[y] = static_cast<std::uint16_t>(t0[static_cast<std::size_t>(y)] +
                                          outer0);
  }
  int len = dims_[0];
  for (std::size_t d = 1; d < ndims; ++d) {
    const auto& table = dim_table[d];
    const int s = dims_[d];
    for (int y = 1; y < s; ++y) {
      const int delta = table[static_cast<std::size_t>(y)] - table[0];
      std::uint16_t* dst = out + static_cast<std::ptrdiff_t>(y) * len;
      for (int i = 0; i < len; ++i)
        dst[i] = static_cast<std::uint16_t>(out[i] + delta);
    }
    len *= s;
  }
}

void TorusMesh::route(int a, int b, std::vector<int>& path) const {
  check_node(a);
  check_node(b);
  path.assign(1, a);
  // Stride arithmetic: correcting dimension d moves only d's coordinate,
  // so the shortest-way step chosen at the start holds for every hop.
  // distance(a, b), summed from the coordinates the walk computes anyway.
  int length = 0;
  int cur = a;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    const int s = dims_[d];
    const int stride = stride_[d];
    int x = (a / stride) % s;
    const int y = (b / stride) % s;
    length += dim_distance(static_cast<int>(d), x, y);
    const int step = dim_step(static_cast<int>(d), x, y);
    while (x != y) {
      const int next = x + step < 0 ? s - 1 : x + step == s ? 0 : x + step;
      cur += (next - x) * stride;
      x = next;
      path.push_back(cur);
    }
  }
  TOPOMAP_ASSERT(static_cast<int>(path.size()) == length + 1,
                 "dimension-ordered route is not shortest");
}

}  // namespace topomap::topo
