// svc::FlightRecorder — an always-cheap, fixed-capacity, lock-free ring of
// recent request-lifecycle events, for post-mortems of a stalled or slow
// daemon.
//
// Unlike the obs:: plane, the recorder is *always on* (it is not behind
// the TOPOMAP_OBS build gate): a stuck daemon in an uninstrumented build
// must still be debuggable.  The cost budget that buys is one relaxed
// fetch_add, one compare-exchange and a handful of stores per event — no
// locks, no allocation, no syscalls — so recording never backpressures
// the request path.
//
// Concurrency: a per-slot seqlock.  Writers take a sequence number by
// atomically advancing the cursor, claim its slot by moving the slot's
// version to odd (write in progress), store the payload as relaxed atomic
// words, and publish an even version.  The claim is lap-safe: a writer
// whose slot is still held by a writer one lap behind waits out that
// writer's few stores, and a writer whose slot a newer lap already owns
// drops its (already out-of-window) event, so two writers never
// interleave on one slot.  snapshot() walks the
// last `capacity` sequence numbers and keeps only slots whose version is
// stable and matches the expected sequence — an event being overwritten
// mid-read is skipped, not torn.  The recorder is a diagnostic ring: under
// heavy concurrent writes a snapshot is the *recent* history, not an
// atomic cut.
//
// Dumps: `topomap client --kind=flight` returns to_json() (schema
// "topomap.svc.flight" v1, validated by svc/metrics.hpp); SIGUSR1 makes
// topomapd write dump_text() to stderr via the server's self-pipe, so the
// handler itself stays async-signal-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/json.hpp"

namespace topomap::svc {

namespace json = ::topomap::support::json;

/// One lifecycle event.  Strings are fixed-size NUL-padded arrays so the
/// event is a fixed block of 64-bit words, stored into the ring as relaxed
/// atomics (no allocation inside the ring).
struct FlightEvent {
  std::uint64_t seq = 0;     ///< global event number (0-based)
  std::uint64_t t_ns = 0;    ///< obs::now_ns() steady-clock timestamp
  std::uint64_t dur_ns = 0;  ///< stage duration; 0 for point events
  char corr[16] = {};        ///< correlation id
  char kind[12] = {};        ///< request kind ("map", "status", ...)
  char stage[12] = {};       ///< accept|enqueue|dequeue|acquire|serialize|
                             ///< done|error
};

class FlightRecorder {
 public:
  /// Capacity is rounded up to a power of two (minimum 8).
  explicit FlightRecorder(std::size_t capacity = 256);

  /// Record one event (any thread, lock-free).  Strings longer than the
  /// slot fields are truncated.
  void record(std::string_view corr, std::string_view kind,
              std::string_view stage, std::uint64_t t_ns,
              std::uint64_t dur_ns = 0);

  /// The stable recent events, oldest first.  Slots being overwritten
  /// concurrently are skipped.
  std::vector<FlightEvent> snapshot() const;

  /// Total events ever recorded (recorded - capacity have been dropped).
  std::uint64_t total_recorded() const {
    return cursor_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const { return slots_.size(); }

  /// Schema-versioned document: {"schema":"topomap.svc.flight",
  /// "schema_version":1,"capacity","recorded","events":[...]}.
  json::Value to_json() const;

  /// Human-readable dump, one line per event (SIGUSR1 path).
  void dump_text(std::ostream& os) const;

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

 private:
  static constexpr std::size_t kSlotWords =
      sizeof(FlightEvent) / sizeof(std::uint64_t);
  static_assert(sizeof(FlightEvent) % sizeof(std::uint64_t) == 0 &&
                    std::is_trivially_copyable_v<FlightEvent>,
                "FlightEvent must copy as whole 64-bit words");

  struct Slot {
    std::atomic<std::uint64_t> version{0};  ///< odd while being written
    std::atomic<std::uint64_t> words[kSlotWords]{};  ///< the FlightEvent
  };

  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;
  std::atomic<std::uint64_t> cursor_{0};
};

}  // namespace topomap::svc
