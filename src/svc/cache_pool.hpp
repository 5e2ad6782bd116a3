// svc::CachePool — the daemon's shared machine/distance-plane pool.
//
// Every request names a machine (topology spec + fault flag family).
// Building that machine view is the expensive, perfectly shareable part of
// serving: the topology object, the FaultOverlay with its fault
// application and random draws, and above all the O(p^2) DistanceCache
// plane fill.  The pool shares all three across concurrent requests, keyed
// by svc::machine_key — the canonical (topology, parsed-fault-spec)
// identity that is the server-side analogue of core::CacheHandle's
// identity+fault-version key (a request with one more fault has a
// different key, so stale planes can never serve a changed machine).
//
// Concurrency: one build per key, ever.  The first acquirer of a key
// builds under a per-entry latch while later acquirers block on it and
// then share the result — so a burst of requests on the same machine costs
// exactly one plane fill ("topology-affine batching" at the cache layer).
// A failed build propagates its exception to every waiter and leaves no
// entry behind, so the next acquire retries.
//
// Bounding: LRU with a fixed entry capacity.  Eviction only drops the
// pool's reference — entries are shared_ptr-held, so in-flight requests
// keep their machine alive.  Hits/misses/evictions are counted both in
// always-on pool stats (served via the `status` request and the load
// bench) and as obs:: counters (svc/cache_hits, svc/cache_misses,
// svc/cache_evictions) in instrumented builds.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "ops/ops.hpp"
#include "topo/fault_spec.hpp"

namespace topomap::svc {

struct CachePoolStats {
  std::uint64_t hits = 0;      ///< acquire found the key (incl. coalesced
                               ///< waits on an in-flight build)
  std::uint64_t misses = 0;    ///< acquire had to build
  std::uint64_t evictions = 0; ///< LRU drops
  std::uint64_t entries = 0;   ///< currently pooled
  std::uint64_t capacity = 0;
};

class CachePool {
 public:
  /// `capacity` >= 1: distinct machines kept warm.
  explicit CachePool(std::size_t capacity = 8);

  /// The pooled machine for (topology_spec, faults), building it on first
  /// use: ops::make_machine plus its distance plane (null when the machine
  /// exceeds the dense-plane cap — kernels then build their own).
  /// Deterministic: the entry an acquire returns is byte-identical to a
  /// private build of the same specs (build_fault_overlay draws from its
  /// own seeded Rng).  Throws what the builders throw — unknown topology
  /// specs, fault rejections, timed restores — without caching the
  /// failure.
  ops::MachinePtr acquire(const std::string& topology_spec,
                          const topo::FaultSpec& faults);

  CachePoolStats stats() const;

 private:
  struct Slot {
    ops::MachinePtr entry;              // set once the build finished
    bool building = true;
    std::exception_ptr error;           // set when the build failed
    std::condition_variable ready;
  };
  using SlotPtr = std::shared_ptr<Slot>;

  void touch_lru(const std::string& key);  // requires mu_ held

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::map<std::string, SlotPtr> slots_;
  std::list<std::string> lru_;  // front = most recently used
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace topomap::svc
