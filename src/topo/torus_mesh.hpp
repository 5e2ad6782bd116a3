// N-dimensional torus / mesh topology with closed-form distances and
// dimension-ordered routing.
//
// Each dimension independently either wraps around (torus) or not (mesh),
// so a single class models 2D/3D meshes, tori, and mixed shapes like the
// BlueGene/L partitions the paper evaluates on.
#pragma once

#include <string>
#include <vector>

#include "topo/topology.hpp"

namespace topomap::topo {

class TorusMesh final : public Topology {
 public:
  /// @param dims  per-dimension extents, each >= 1; size() = prod(dims)
  /// @param wrap  per-dimension wraparound flags (same length as dims)
  TorusMesh(std::vector<int> dims, std::vector<bool> wrap);

  /// All dimensions wrap (a k-ary n-cube).
  static TorusMesh torus(std::vector<int> dims);
  /// No dimension wraps.
  static TorusMesh mesh(std::vector<int> dims);

  int size() const override { return size_; }
  int distance(int a, int b) const override;
  std::vector<int> neighbors(int p) const override;
  std::string name() const override;
  double mean_distance_from(int p) const override;
  double mean_pairwise_distance() const override;
  int diameter() const override;

  /// Dimension-ordered route: correct dimension 0 first (taking the short
  /// way around on wrapped dimensions, lower direction on ties), then 1, ...
  using Topology::route;
  void route(int a, int b, std::vector<int>& path) const override;

  /// Batch row fill for DistanceCache: per-dimension distance tables plus a
  /// mixed-radix odometer make it O(1) per entry, no division.
  void write_distance_row(int p, std::uint16_t* out) const override;

  int dimensions() const { return static_cast<int>(dims_.size()); }
  const std::vector<int>& dims() const { return dims_; }
  bool wraps(int dim) const { return wrap_[static_cast<std::size_t>(dim)]; }

  /// Mixed-radix coordinate <-> linear index conversions.  Dimension 0 is
  /// the fastest-varying (least-significant) coordinate.
  std::vector<int> coords(int p) const;
  int index(const std::vector<int>& coords) const;

 private:
  /// Distance along one dimension between coordinates x and y.
  int dim_distance(int dim, int x, int y) const;
  /// Signed step (+1/-1) that moves x toward y along `dim` on the shortest
  /// way (ties broken toward -1 on wrapped even spans).
  int dim_step(int dim, int x, int y) const;

  std::vector<int> dims_;
  std::vector<bool> wrap_;
  std::vector<int> stride_;
  int size_ = 0;
};

}  // namespace topomap::topo
