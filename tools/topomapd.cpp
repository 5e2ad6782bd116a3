// topomapd — the mapping-as-a-service daemon.
//
// Serves topomap.svc.request documents (map / explain / evacuate / optimal
// / status) over a unix-domain socket, optionally mirrored on a localhost
// TCP port, with a bounded request queue, a fixed worker pool, and a
// shared distance-plane cache across concurrent requests (src/svc/).
//
//   topomapd --socket=/tmp/topomapd.sock --workers=4 &
//   topomap client --kind=map --tasks=stencil2d:8x8 --topology=torus:8x8
//
// Telemetry: every request is traced through its lifecycle (queue-wait →
// acquire → kernel → serialize) into per-kind histograms served by the
// `metrics` request kind (`topomap client --kind=metrics`, `topomap top`).
// A fixed-size flight recorder of recent lifecycle events is always on:
// SIGUSR1 dumps it to stderr, and the `flight` request kind returns it as
// JSON.  --event-log=FILE appends one JSONL line per request with
// size-based rotation (FILE -> FILE.1).  --trace/--stats write the usual
// obs artifacts at shutdown and switch recording on, as TOPOMAP_OBS=1 does.
//
// SIGTERM/SIGINT trigger a clean drain: stop accepting, finish every
// queued request, exit 0.  Exit codes follow the topomap taxonomy:
// 0 success, 1 usage, 2 invalid input, 3 invariant violation, 4 I/O
// failure (e.g. the socket path cannot be bound).
#include <csignal>
#include <fstream>
#include <iostream>

#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "svc/server.hpp"

namespace {

topomap::svc::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->stop();  // one self-pipe write
}

void on_sigusr1(int) {
  if (g_server != nullptr) g_server->request_flight_dump();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace topomap;
  CliParser cli(
      "serve topology-aware mapping requests over a unix socket "
      "(optionally TCP) with a shared distance-plane cache");
  cli.add_option("socket", "unix-domain socket path to listen on",
                 "/tmp/topomapd.sock");
  cli.add_option("tcp-port",
                 "also listen on 127.0.0.1:<port> with the same framing "
                 "(0 = unix socket only)",
                 "0");
  cli.add_option("workers", "request worker threads", "4");
  cli.add_option("queue",
                 "bounded request-queue depth (readers block when full)",
                 "64");
  cli.add_option("cache",
                 "distinct machines kept warm in the distance-plane pool",
                 "8");
  cli.add_option("report-dir",
                 "write one obs::Report artifact per request here ('' = off)",
                 "");
  cli.add_option("event-log",
                 "append one JSONL lifecycle line per request here ('' = "
                 "off)",
                 "");
  cli.add_option("event-log-max-bytes",
                 "rotate the event log (FILE -> FILE.1) past this size",
                 "1048576");
  cli.add_option("flight-capacity",
                 "flight-recorder ring size (recent lifecycle events; "
                 "SIGUSR1 dumps it)",
                 "256");
  cli.add_option("trace",
                 "write Chrome-trace JSON of request spans at shutdown", "");
  cli.add_option("stats",
                 "write an obs::Report JSON (counters/histograms) at "
                 "shutdown",
                 "");
  try {
    if (!cli.parse(argc, argv)) return 0;

    // Sizes and ports are range-checked before any narrowing cast, so a
    // negative count or an oversized port is rejected instead of wrapping.
    const auto count = [&cli](const std::string& name) {
      const std::int64_t v = cli.integer(name);
      TOPOMAP_REQUIRE(v >= 0, "--" + name + " must be non-negative");
      return static_cast<std::size_t>(v);
    };
    svc::ServerOptions options;
    options.socket_path = cli.str("socket");
    if (const std::int64_t port = cli.integer("tcp-port"); port != 0)
      options.tcp_port = svc::checked_tcp_port(port, "--tcp-port");
    options.workers = count("workers");
    options.queue_capacity = count("queue");
    options.service.cache_capacity = count("cache");
    options.service.report_dir = cli.str("report-dir");
    options.service.event_log_path = cli.str("event-log");
    options.service.event_log_max_bytes = count("event-log-max-bytes");
    options.service.flight_capacity = count("flight-capacity");
    const std::string trace_path = cli.str("trace");
    const std::string stats_path = cli.str("stats");
    TOPOMAP_REQUIRE(options.queue_capacity >= 1,
                    "--queue must be at least 1");
    TOPOMAP_REQUIRE(options.service.flight_capacity >= 1,
                    "--flight-capacity must be at least 1");

    if (!trace_path.empty() || !stats_path.empty()) obs::set_enabled(true);

    // write_frame uses MSG_NOSIGNAL, but ignore SIGPIPE globally anyway so
    // a vanished client can never kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    svc::Server server(options);
    server.start();
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::signal(SIGUSR1, on_sigusr1);
    std::cout << "topomapd listening on " << options.socket_path;
    if (options.tcp_port > 0)
      std::cout << " and 127.0.0.1:" << options.tcp_port;
    std::cout << " (" << options.workers << " workers, queue "
              << options.queue_capacity << ", cache "
              << options.service.cache_capacity << ")" << std::endl;
    server.join();
    g_server = nullptr;
    if (!stats_path.empty()) {
      obs::Report report;
      report.set_meta("command", "topomapd");
      report.capture();
      report.write_file(stats_path);
      std::cout << "stats written to " << stats_path << "\n";
    }
    if (!trace_path.empty()) {
      std::ofstream os(trace_path);
      obs::Tracer::instance().write_chrome_trace(os);
      std::cout << "trace written to " << trace_path << "\n";
    }
    std::cout << "topomapd: clean shutdown" << std::endl;
    return 0;
  } catch (const precondition_error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const invariant_error& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return 3;
  } catch (const io_error& e) {
    std::cerr << "I/O error: " << e.what() << "\n";
    return 4;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
