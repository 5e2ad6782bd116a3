// obs::Registry — named monotonic counters, log-bucketed histograms, and
// ordered numeric series for the whole stack.
//
// Instrumentation sites (mapping kernels, DistanceCache repairs, the
// network simulator, the runtime drivers, the daemon) record through the
// OBS_* macros in obs/obs.hpp.  The macros are compiled into every build
// and guarded by one relaxed atomic-bool load (obs::enabled()), so with
// recording off the hot loops pay one predictable branch per site.
// Recording only *observes* — no instrumented kernel reads anything back
// from the registry — so enabling telemetry can never change a mapping
// result or break support::parallel's byte-identity contract.
//
// Concurrency & determinism: counters and histograms are recorded into
// *thread-local shards* (one uncontended mutex lock per record; the mutex
// exists only so snapshots can read a live shard safely).  A snapshot
// merges every shard per name into one sorted map.  Counter sums are
// integers, and histogram merges are per-bucket count additions over
// *fixed* bucket boundaries plus a count/sum/min/max merge
// (obs/histogram.hpp), so the merged snapshot is independent of which
// worker thread happened to run which parallel_for chunk: the same run
// records the same multiset of values per name no matter the thread
// count, and the merge is order-free for every field except FP sums —
// which instrumentation keeps integral-valued for exactly this reason
// (tests/test_obs.cpp asserts snapshot equality across 1/2/8-thread
// pools).  Worker threads destroyed by set_num_threads() retire their
// shard into the registry on exit, so no sample is ever lost.
//
// Series (ordered trajectories, e.g. TopoLB's per-iteration hop-bytes) are
// append-only and must be fed from one thread at a time per name — true of
// every current site, which all append from the sequential driver loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.hpp"

namespace topomap::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Runtime switch.  Starts true iff the TOPOMAP_OBS environment variable is
/// set to a value other than "0"/"" — so a binary records nothing until a
/// CLI flag, a bench hook, or the environment asks for it.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Monotonic nanoseconds from a process-local steady_clock epoch.  All span
/// timestamps and ad-hoc timings share this base.
std::uint64_t now_ns();

class Registry {
 public:
  /// The process-wide registry.  Deliberately leaked so worker-thread
  /// shard destructors can retire into it at any point of shutdown.
  static Registry& instance();

  // --- recording (any thread) ---
  void add(std::string_view name, std::uint64_t delta);
  void observe(std::string_view name, double value);  ///< histogram sample

  // --- recording (one thread per name) ---
  void append_series(std::string_view name, double value);

  // --- snapshots (any thread; merge all shards) ---
  std::map<std::string, std::uint64_t> counters() const;
  std::map<std::string, Histogram> histograms() const;
  std::map<std::string, std::vector<double>> series() const;

  /// Single counter value, 0 when never touched.  Snapshot-priced; for
  /// tests and tools, not hot paths.
  std::uint64_t counter(std::string_view name) const;

  /// Drop every counter, histogram, and series (all shards included).
  void reset();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Internal (public only for the thread-exit hook in registry.cpp).
  struct Shard;
  void retire_shard(Shard* shard);

 private:
  Registry() = default;
  Shard& local_shard();

  struct Impl;
  Impl* impl();  // lazily built; storage lives in registry.cpp
};

}  // namespace topomap::obs
