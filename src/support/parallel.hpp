// Deterministic shared-memory parallelism for the few loops that pay for it.
//
// A single process-wide worker pool executes `parallel_for` loops with
// *static chunking*: the iteration space [0, n) is split into fixed chunks
// of `grain` indices, so chunk boundaries depend only on (n, grain) — never
// on the number of worker threads.  Workers pull chunk indices from an
// atomic counter, but every chunk writes only to its own slice (or its own
// per-chunk accumulator slot, reduced by the caller in ascending chunk
// order), so results are byte-identical for any thread count, including 1.
// See DESIGN.md §"Distance-plane engine".
//
// The pooled layers are those whose regions carry milliseconds of
// independent work: the distance-plane fill and its fault repairs
// (topo/distance_cache.cpp), HierTopoLB's machine split, edge-swap
// filter and hop-byte sums, OptimalLB's root split, and third-order
// TopoLB's per-cycle rescan of every row.  The greedy and swap kernels of
// the paper (TopoLB's placement steps, TopoCentLB, RefineTopoLB) are
// sequential: one placement or one swap at a time, microseconds each, so a
// pool dispatch per step costs more than it saves.
//
// The pool size comes from TOPOMAP_THREADS (env) or hardware concurrency,
// and can be changed at runtime with set_num_threads().  With one thread —
// or when called from inside a worker — loops run inline with zero
// synchronization overhead.
#pragma once

#include <functional>

namespace topomap::support {

/// Current worker count (>= 1).  First call initializes the pool from the
/// TOPOMAP_THREADS environment variable, defaulting to hardware concurrency.
int num_threads();

/// Resize the pool.  n >= 1; n == 1 disables all threading.  Not
/// thread-safe against concurrent parallel_for calls — call from the main
/// thread between parallel regions (tests and benches do).
void set_num_threads(int n);

/// Number of chunks `parallel_for` will create for an n-sized loop with the
/// given grain (both clamped to >= 1).  Callers allocating per-chunk
/// accumulator slots size them with this.
int parallel_chunk_count(int n, int grain);

/// Marks the current thread as an execution context whose parallel_for
/// calls run inline, exactly as if the pool had one thread.  The process
/// pool has a single in-flight job slot, so two threads submitting pooled
/// loops concurrently is not supported — request-level concurrency (the
/// topomapd worker threads, each running an independent mapping kernel)
/// instead pins each request to its own thread with an InlineScope.  The
/// determinism contract makes this free of result skew: inline execution
/// is byte-identical to any pool width.  Scopes nest; the destructor
/// restores the previous state.
class InlineScope {
 public:
  InlineScope();
  ~InlineScope();
  InlineScope(const InlineScope&) = delete;
  InlineScope& operator=(const InlineScope&) = delete;

 private:
  bool prev_;
};

namespace detail {

/// True when loops must run inline on the calling thread: a single-worker
/// pool, or a nested call from inside a pool chunk.  The templates below
/// check this first, so the inline path pays no std::function allocation;
/// only the pooled path type-erases the body.
bool use_inline();

/// Pooled execution of body(chunk, begin, end); n > 0, grain >= 1.
void run_pooled(int n, int grain,
                const std::function<void(int, int, int)>& body);

}  // namespace detail

/// Run body(chunk, begin, end) for every chunk of [0, n), where
/// [begin, end) is chunk `chunk`'s index range.  Chunks may run
/// concurrently and in any order; the caller's thread participates.  The
/// first exception thrown by any chunk is rethrown on the calling thread
/// after the loop drains.  Reentrant calls from inside a chunk run inline.
template <class Body>
void parallel_for_chunks(int n, int grain, Body&& body) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  if (detail::use_inline()) {
    const int chunks = (n + grain - 1) / grain;
    for (int c = 0; c < chunks; ++c) {
      const int begin = c * grain;
      const int end = begin + grain < n ? begin + grain : n;
      body(c, begin, end);
    }
    return;
  }
  detail::run_pooled(n, grain, std::function<void(int, int, int)>(
                                   [&body](int c, int begin, int end) {
                                     body(c, begin, end);
                                   }));
}

/// parallel_for_chunks without the chunk index: body(begin, end).
template <class Body>
void parallel_for(int n, int grain, Body&& body) {
  parallel_for_chunks(
      n, grain, [&body](int, int begin, int end) { body(begin, end); });
}

}  // namespace topomap::support
