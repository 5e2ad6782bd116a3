// Shared DistanceCache across a strategy composition.
//
// A composed strategy like "topolb+refine" or warm-started annealing runs
// two or three kernels over the *same* topology inside one map() call; each
// used to build its own O(p^2) DistanceCache.  make_strategy now creates a
// single CacheHandle per top-level composition and threads it through every
// stage, so the matrix is built once per (topology, name) and reused.
//
// The handle keys on the topology's address *and* its name(): address alone
// is unsafe (a mutated FaultOverlay keeps its address), but FaultOverlay
// embeds a version counter in name(), so injecting a fault between map()
// calls invalidates the entry and the next get() rebuilds on the faulted
// metric.  get() hands out shared_ptrs, so a rebuild never invalidates a
// cache an in-flight kernel still holds.
//
// A seeded plane (a served machine's pooled one) also serves the alive
// sub-machine a faulted map runs on: when get() is asked for a
// topo::SubTopology over the seeded topology, still under the seeded name,
// it cuts the sub-machine's plane out of the seeded rows instead of
// searching every row again.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "topo/distance_cache.hpp"
#include "topo/sub_topology.hpp"
#include "topo/topology.hpp"

namespace topomap::core {

class CacheHandle {
 public:
  /// The cache for `topo`, built on first use and whenever the keyed
  /// (address, name) pair changes.  A SubTopology over the seeded topology
  /// gets its plane gathered from the seeded one.
  std::shared_ptr<const topo::DistanceCache> get(const topo::Topology& topo) {
    std::lock_guard<std::mutex> lock(mu_);
    std::string name = topo.name();
    if (cache_ && key_ == &topo && key_name_ == name) {
      OBS_COUNTER_ADD("distcache/handle_hits", 1);
      return cache_;
    }
    OBS_COUNTER_ADD("distcache/handle_misses", 1);
    const auto* sub = dynamic_cast<const topo::SubTopology*>(&topo);
    if (sub && seed_ && &sub->base() == seed_key_ &&
        sub->base().name() == seed_name_)
      cache_ = std::make_shared<const topo::DistanceCache>(*sub, *seed_);
    else
      cache_ = std::make_shared<const topo::DistanceCache>(topo);
    key_ = &topo;
    key_name_ = std::move(name);
    sub_base_ = sub ? &sub->base() : nullptr;
    sub_base_name_ = sub ? sub->base().name() : std::string();
    return cache_;
  }

  /// The plane get() last handed out, when it was for a SubTopology over
  /// `base` and `base` still has the name it had then; null otherwise.
  /// What a faulted map's strategy filled for the alive sub-machine, for
  /// callers that want more from those rows after the map.
  std::shared_ptr<const topo::DistanceCache> sub_plane_of(
      const topo::Topology& base) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!cache_ || sub_base_ != &base || sub_base_name_ != base.name())
      return nullptr;
    return cache_;
  }

  /// Pre-key the handle with an externally built cache for `topo`
  /// (svc::CachePool shares one DistanceCache across requests on the same
  /// machine).  The next get(topo) hits as long as the identity+name key
  /// still matches; a fault injected in between changes name() and falls
  /// back to a rebuild as usual.  The seed also stays the source of every
  /// later SubTopology-over-`topo` plane.  Requires
  /// cache->size() == topo.size().
  void seed(const topo::Topology& topo,
            std::shared_ptr<const topo::DistanceCache> cache) {
    TOPOMAP_REQUIRE(cache && cache->size() == topo.size(),
                    "seeded cache does not match the topology");
    std::lock_guard<std::mutex> lock(mu_);
    key_ = seed_key_ = &topo;
    key_name_ = seed_name_ = topo.name();
    cache_ = seed_ = std::move(cache);
    sub_base_ = nullptr;
    sub_base_name_.clear();
  }

 private:
  std::mutex mu_;
  const topo::Topology* key_ = nullptr;
  std::string key_name_;
  std::shared_ptr<const topo::DistanceCache> cache_;
  // When key_ is a SubTopology: its base and the base's name at get().
  const topo::Topology* sub_base_ = nullptr;
  std::string sub_base_name_;
  // The seeded plane and its key, kept when cache_ moves on to a
  // sub-machine.
  const topo::Topology* seed_key_ = nullptr;
  std::string seed_name_;
  std::shared_ptr<const topo::DistanceCache> seed_;
};

using CacheHandlePtr = std::shared_ptr<CacheHandle>;

/// The cache a kernel should use: the handle's shared one when present,
/// otherwise a private single-use build (strategies constructed directly,
/// without make_strategy).
inline std::shared_ptr<const topo::DistanceCache> obtain_cache(
    const CacheHandlePtr& handle, const topo::Topology& topo) {
  if (handle) return handle->get(topo);
  return std::make_shared<const topo::DistanceCache>(topo);
}

}  // namespace topomap::core
