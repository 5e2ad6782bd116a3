#include "svc/cache_pool.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "svc/protocol.hpp"

namespace topomap::svc {

namespace {

ops::MachinePtr build_entry(const std::string& topology_spec,
                            const topo::FaultSpec& faults) {
  const std::shared_ptr<ops::Machine> entry =
      ops::make_machine(topology_spec, faults);
  try {
    entry->plane =
        std::make_shared<const topo::DistanceCache>(entry->machine());
  } catch (const precondition_error&) {
    // Machine above the dense-plane cap (huge hierarchical targets):
    // serve it plane-less; kernels build their own scoped caches.
    entry->plane = nullptr;
  }
  return entry;
}

}  // namespace

CachePool::CachePool(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

void CachePool::touch_lru(const std::string& key) {
  const auto it = std::find(lru_.begin(), lru_.end(), key);
  if (it != lru_.end()) lru_.splice(lru_.begin(), lru_, it);
}

ops::MachinePtr CachePool::acquire(const std::string& topology_spec,
                                   const topo::FaultSpec& faults) {
  const std::string key = machine_key(topology_spec, faults);
  std::unique_lock<std::mutex> lock(mu_);
  if (const auto it = slots_.find(key); it != slots_.end()) {
    // Present or in flight: either way the fill is shared, count a hit.
    ++hits_;
    OBS_COUNTER_ADD("svc/cache_hits", 1);
    SlotPtr slot = it->second;
    slot->ready.wait(lock, [&] { return !slot->building; });
    if (slot->error) std::rethrow_exception(slot->error);
    touch_lru(key);
    return slot->entry;
  }
  ++misses_;
  OBS_COUNTER_ADD("svc/cache_misses", 1);
  SlotPtr slot = std::make_shared<Slot>();
  slots_[key] = slot;
  lock.unlock();

  ops::MachinePtr entry;
  std::exception_ptr error;
  try {
    entry = build_entry(topology_spec, faults);
  } catch (...) {
    error = std::current_exception();
  }

  lock.lock();
  slot->building = false;
  if (error) {
    // Propagate to every waiter and forget the key so a later acquire
    // retries instead of serving a poisoned entry forever.
    slot->error = error;
    slots_.erase(key);
    slot->ready.notify_all();
    std::rethrow_exception(error);
  }
  slot->entry = entry;
  lru_.push_front(key);
  slot->ready.notify_all();
  while (lru_.size() > capacity_) {
    slots_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
    OBS_COUNTER_ADD("svc/cache_evictions", 1);
  }
  return entry;
}

CachePoolStats CachePool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CachePoolStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.capacity = capacity_;
  return s;
}

}  // namespace topomap::svc
