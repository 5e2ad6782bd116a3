// svc::Service — topomapd's request executor.
//
// One Service instance serves every connection: it owns the shared
// svc::CachePool and turns protocol Requests into response documents.  The
// mapping kinds run the ops:: command core — the functions `topomap map/
// explain/evacuate/optimal` call — with the pool as the machine source, so
// served bytes equal one-shot bytes by construction; the service adds only
// acquire timing, lifecycle telemetry and JSON rendering, which writes the
// typed ops:: result straight to bytes through json::Writer.  handle() is
// respond() parsed back, so in-process and served results are one code
// path.  Concurrency keeps that contract: each request draws from its own
// Rng(seed) inside ops::, and respond() runs mapping kernels' parallel
// regions inline on the serving thread (support::InlineScope) — every
// parallel kernel is byte-identical at any thread count, so request-level
// concurrency is the only concurrency and workers never contend for the
// pool's job slot.
//
// Request-lifecycle telemetry: every request carries a correlation id —
// minted by the server when the request is accepted off the wire, or by
// respond() itself for direct (in-process) calls — and its stage timings
// (queue-wait → cache-pool acquire → kernel → serialize) feed per-kind
// obs::Histograms ("svc/<kind>/<stage>_us"), the always-on
// svc::FlightRecorder ring, and the optional JSONL EventLog.  Timing only
// *observes*, so served bytes are identical with telemetry on or off.  The
// histogram feeds are compiled into every build and fed only while
// obs::enabled() (one relaxed load per request when off); the flight
// recorder and per-kind counters are always on and allocation-free per
// event.
//
// Errors: anything a request throws becomes a structured error response
// carrying the exit-code taxonomy category (svc/protocol.hpp), so the
// client exits with the one-shot command's code.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <variant>

#include "svc/cache_pool.hpp"
#include "svc/event_log.hpp"
#include "svc/flight.hpp"
#include "svc/protocol.hpp"

namespace topomap::svc {

struct ServiceOptions {
  /// Distinct machines the CachePool keeps warm.
  std::size_t cache_capacity = 8;
  /// When non-empty, every request writes an obs::Report artifact to
  /// <report_dir>/req-<sanitized id>.json (per-request --stats analogue).
  std::string report_dir;
  /// Flight-recorder ring capacity (rounded up to a power of two).
  std::size_t flight_capacity = 256;
  /// When non-empty, append one JSONL line per completed request here.
  std::string event_log_path;
  /// Event-log rotation threshold (FILE -> FILE.1 when exceeded).
  std::size_t event_log_max_bytes = 1u << 20;
};

/// Per-request lifecycle context the server threads through the queue:
/// the correlation id minted at accept plus the enqueue/dequeue
/// timestamps (obs::now_ns domain) that define the queue-wait stage.
/// Direct (in-process) calls use a default context: respond() mints the
/// correlation id and reports no queue wait.
struct RequestContext {
  std::string corr;
  std::uint64_t enqueue_ns = 0;
  std::uint64_t dequeue_ns = 0;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});

  /// Execute one request and render its response document: the bytes the
  /// server sends.  The kernel's end is the flight recorder's `done` (or
  /// `error`) event; rendering the typed result straight to bytes is the
  /// `serialize` stage after it, so no result tree is built.  Never
  /// throws: failures come back as structured error responses with the
  /// taxonomy category.
  std::string respond(const Request& req, const RequestContext& ctx = {});

  /// respond()'s document parsed back, so in-process and served results
  /// are equal by construction.  Never throws.
  Response handle(const Request& req, const RequestContext& ctx = {});

  /// A service-unique correlation id ("r-<n>").  The server mints one per
  /// request at accept; respond() mints its own when the context has none.
  std::string mint_correlation_id();

  /// The always-on lifecycle event ring (the server records its
  /// accept/enqueue events here too).
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }

  /// Install the live queue-depth probe for metrics snapshots (the server
  /// owns the queue; 0 when unset, e.g. direct in-process use).
  void set_queue_depth_probe(std::function<std::size_t()> probe);

  /// The topomap.svc.metrics v1 snapshot document (also the result of a
  /// `metrics` request).
  json::Value metrics_snapshot() const;

  CachePoolStats cache_stats() const { return pool_.stats(); }

  /// Event-log rotations so far (0 when no --event-log).
  std::size_t event_log_rotations() const { return event_log_.rotations(); }

 private:
  /// Stage timings for one in-flight request, threaded through the run_*
  /// paths so the pool-acquire stage can be attributed exactly.
  struct Lifecycle {
    const char* kind = "";
    std::string corr;
    bool ok = false;
    std::uint64_t queue_wait_ns = 0;
    std::uint64_t acquire_ns = 0;
    std::uint64_t t_start_ns = 0;
    std::uint64_t total_ns = 0;  ///< start to the kernel's end

    /// The kernel stage: handler time not spent acquiring pooled machine
    /// state (rendering comes after it, as the serialize stage).
    std::uint64_t kernel_ns() const {
      return total_ns >= acquire_ns ? total_ns - acquire_ns : 0;
    }
  };

  /// What a request's kernel returns: a typed ops:: result, or the small
  /// snapshot tree of status, metrics and flight.
  using Outcome = std::variant<ops::MapResult, ops::ExplainResult,
                               ops::EvacuateResult, ops::OptimalResult,
                               json::Value>;

  Outcome dispatch(const Request& req, Lifecycle& lc);
  json::Value run_status() const;
  ops::MachinePtr acquire_timed(const std::string& topology,
                                const topo::FaultSpec& faults,
                                Lifecycle& lc);
  /// The pool as an ops::MachineSource, acquire time charged to `lc`.
  ops::MachineSource pooled(Lifecycle& lc);
  /// The kernel's end: the flight `done`/`error` event and stage
  /// histograms.
  void record_done(const Lifecycle& lc);
  /// After rendering: request counters, the event-log line, the report.
  void finish_request(const Request& req, const Lifecycle& lc);
  void write_report(const Request& req, bool ok) const;

  ServiceOptions options_;
  CachePool pool_;
  FlightRecorder flight_;
  EventLog event_log_;
  std::function<std::size_t()> queue_depth_probe_;
  std::atomic<std::uint64_t> next_corr_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> served_by_kind_[kNumRequestKinds] = {};
  std::atomic<std::uint64_t> failed_by_kind_[kNumRequestKinds] = {};
};

}  // namespace topomap::svc
