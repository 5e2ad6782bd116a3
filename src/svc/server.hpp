// svc::Server — topomapd's connection and scheduling layer.
//
// Listens on a unix-domain socket (and optionally TCP on localhost behind
// the same framing), reads framed JSON requests, and executes them on a
// fixed worker pool over a *bounded* queue:
//
//   * Backpressure: when the queue is full, connection readers block
//     instead of buffering — a flood of requests stalls at the sockets,
//     bounding daemon memory.  Malformed frames/requests are answered
//     inline with structured error responses (framing desync closes the
//     connection, since the byte stream can no longer be trusted).
//   * Topology-affine batching: each worker prefers the queued request
//     whose machine key matches the one it just served, so a burst of
//     same-machine requests drains back-to-back through the warm CachePool
//     entry while other machines' requests go to other workers.  Combined
//     with the pool's build coalescing, N queued requests on one machine
//     cost one distance-plane fill.
//   * Responses carry the request id and may complete out of order across
//     a pipelined connection; per-connection writes are serialized.
//
// Request lifecycle telemetry: the server mints a correlation id the
// moment a request parses off the wire and threads it — with enqueue/
// dequeue timestamps — through the queue to Service::respond, so the
// queue-wait stage is attributed exactly.  The worker sends the bytes
// respond() rendered (its serialize stage), outside the connection write
// lock.  See svc/service.hpp for the full stage breakdown.
//
// Shutdown: stop() is async-signal-safe (one write to a self-pipe).  The
// sequence drains cleanly — stop accepting, EOF every connection, finish
// every queued request, join the workers — so a SIGTERM'd daemon exits 0
// with no request dropped.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "svc/frame.hpp"
#include "svc/service.hpp"

namespace topomap::svc {

struct ServerOptions {
  /// Unix-domain socket path; bound fresh (a stale file is replaced).
  std::string socket_path;
  /// TCP listener on 127.0.0.1:<port> speaking the same framing; 0 = off.
  /// Server::start throws precondition_error outside 0..65535.
  int tcp_port = 0;
  /// Worker threads executing requests.
  std::size_t workers = 4;
  /// Bounded request-queue depth; readers block when it is full.
  std::size_t queue_capacity = 64;
  /// Per-frame payload cap.
  std::size_t max_payload = kDefaultMaxPayload;
  ServiceOptions service;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the accept loop and workers.  Returns once the
  /// listeners are live (a client may connect immediately).  Throws
  /// io_error when binding fails.
  void start();

  /// Request shutdown.  Async-signal-safe: may be called from a SIGTERM/
  /// SIGINT handler.
  void stop();

  /// Ask the accept loop to dump the flight-recorder ring to stderr.
  /// Async-signal-safe (one self-pipe write) — topomapd calls this from
  /// its SIGUSR1 handler.
  void request_flight_dump();

  /// Wait for the clean-shutdown drain to finish (accept loop, readers,
  /// workers all joined).  Call after stop(); also harmless after a start()
  /// that already stopped.
  void join();

  /// Pool statistics passthrough (the load bench reads hit rates here when
  /// running the server in-process).
  CachePoolStats cache_stats() const;

  /// The request executor (telemetry state: flight recorder, metrics
  /// snapshot, event-log rotations).  Valid for the server's lifetime.
  Service& service();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace topomap::svc
