#include "topo/factory.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "support/error.hpp"
#include "support/split.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fat_tree.hpp"
#include "topo/hypercube.hpp"
#include "topo/torus_mesh.hpp"

namespace topomap::topo {

namespace {

/// The field `s` of topology spec `spec` as one whole base-10 integer.
int parse_int(const std::string& s, const std::string& what,
              const std::string& spec) {
  TOPOMAP_REQUIRE(!s.empty(), "empty " + what + " in topology spec " + spec);
  std::size_t pos = 0;
  int v = 0;
  try {
    v = std::stoi(s, &pos);
  } catch (const std::exception&) {
    throw precondition_error("bad " + what + " '" + s +
                             "' in topology spec " + spec);
  }
  TOPOMAP_REQUIRE(pos == s.size(),
                  "bad " + what + " '" + s + "' in topology spec " + spec);
  return v;
}

}  // namespace

TopologyPtr make_topology(const std::string& spec) {
  const auto colon = spec.find(':');
  TOPOMAP_REQUIRE(colon != std::string::npos,
                  "topology spec must look like kind:params, got: " + spec);
  const std::string kind = spec.substr(0, colon);
  const std::string params = spec.substr(colon + 1);

  if (kind == "torus" || kind == "mesh") {
    std::vector<int> dims;
    for (const auto& part : split_fields(params, 'x'))
      dims.push_back(parse_int(part, "extent", spec));
    return kind == "torus"
               ? std::make_shared<TorusMesh>(TorusMesh::torus(dims))
               : std::make_shared<TorusMesh>(TorusMesh::mesh(dims));
  }
  if (kind == "hybrid") {
    std::vector<int> dims;
    std::vector<bool> wrap;
    for (auto part : split_fields(params, 'x')) {
      TOPOMAP_REQUIRE(!part.empty(), "empty extent in topology spec " + spec);
      const char suffix = part.back();
      TOPOMAP_REQUIRE(suffix == 'w' || suffix == 'o',
                      "hybrid extents need a w/o suffix: " + part);
      wrap.push_back(suffix == 'w');
      part.pop_back();
      dims.push_back(parse_int(part, "extent", spec));
    }
    return std::make_shared<TorusMesh>(dims, wrap);
  }
  if (kind == "hypercube")
    return std::make_shared<Hypercube>(parse_int(params, "dimension", spec));
  if (kind == "dragonfly")
    return std::make_shared<GraphTopology>(
        make_dragonfly(parse_int(params, "routers-per-group", spec)));
  if (kind == "fattree") {
    const auto parts = split_fields(params, 'x');
    TOPOMAP_REQUIRE(parts.size() == 2,
                    "fattree spec is fattree:<k>x<L>, got " + spec);
    return std::make_shared<FatTree>(parse_int(parts[0], "arity", spec),
                                     parse_int(parts[1], "levels", spec));
  }
  throw precondition_error("unknown topology kind: " + kind);
}

std::vector<int> balanced_dims(int p, int num_dims) {
  TOPOMAP_REQUIRE(p >= 1, "processor count must be positive");
  TOPOMAP_REQUIRE(num_dims >= 1, "need at least one dimension");
  // Greedy: repeatedly peel off the largest factor <= ceil(p^(1/k)).
  std::vector<int> dims;
  int remaining = p;
  for (int d = num_dims; d >= 1; --d) {
    if (d == 1) {
      dims.push_back(remaining);
      break;
    }
    const double target =
        std::pow(static_cast<double>(remaining), 1.0 / static_cast<double>(d));
    int best = 1;
    const int hi = std::max(1, static_cast<int>(std::ceil(target)) + 1);
    for (int f = 1; f <= std::min(hi, remaining); ++f)
      if (remaining % f == 0) best = f;
    dims.push_back(best);
    remaining /= best;
  }
  std::sort(dims.begin(), dims.end(), std::greater<int>());
  return dims;
}

bool is_perfect_square(int p) {
  if (p < 0) return false;
  const int r = static_cast<int>(std::lround(std::sqrt(double(p))));
  return r * r == p;
}

bool is_perfect_cube(int p) {
  if (p < 0) return false;
  const int r = static_cast<int>(std::lround(std::cbrt(double(p))));
  return r * r * r == p;
}

}  // namespace topomap::topo
