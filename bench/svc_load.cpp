// Load harness for topomapd: an in-process svc::Server hammered by N
// concurrent clients cycling through a mixed request workload (map /
// explain / evacuate / optimal / status) over a fixed set of machines.
//
// Two tables go to bench_results/:
//
//   svc_load        per-kind request counts plus p50/p99 client-observed
//                   latency, estimated from obs::Histogram (the same
//                   log-bucketed quantiles the daemon's metrics snapshot
//                   reports — samples land in microsecond buckets, so the
//                   bench and `topomap top` agree on methodology).  The
//                   latency columns are named *_ms_wall so
//                   scripts/bench_compare.py keeps them in the committed
//                   BENCH_mapping.json as informational columns but never
//                   fails the gate on them (machine speed is not a
//                   regression).  The ok/requests counts ARE gated: every
//                   request must succeed deterministically.
//
//   svc_load_cache  svc::CachePool counters for the run.  Misses equal the
//                   number of distinct machine keys no matter how the
//                   concurrent clients interleave (per-key build latching),
//                   the workload keeps distinct machines under the pool
//                   capacity so evictions are exactly 0, and hit_rate is
//                   therefore a deterministic, gated cache-sharing bound.
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "obs/histogram.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"

using namespace topomap;

namespace {

// The same machine mix the service tests use: four distinct pool keys
// (torus:4x4, mesh:4x4, torus:4x4+fail-node, torus:3x3), all well under
// the default pool capacity.
std::vector<svc::Request> mixed_workload(int count) {
  std::vector<svc::Request> reqs;
  reqs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    svc::Request req;
    req.id = "load-" + std::to_string(i);
    req.seed = static_cast<std::uint64_t>(1 + i % 3);
    switch (i % 5) {
      case 0:
        req.kind = svc::RequestKind::kMap;
        req.tasks = "stencil2d:4x4";
        req.topology = (i % 10 == 0) ? "torus:4x4" : "mesh:4x4";
        req.strategy = "topolb+refine";
        break;
      case 1:
        req.kind = svc::RequestKind::kExplain;
        req.tasks = "stencil2d:4x4";
        req.topology = "torus:4x4";
        req.strategy = "topolb";
        req.baseline = "random";
        break;
      case 2:
        req.kind = svc::RequestKind::kEvacuate;
        req.tasks = "stencil2d:3x4";
        req.topology = "torus:4x4";
        req.strategy = "topolb";
        // A temporary, not a literal: gcc 12 misreads the inlined
        // literal assign at -O3 as an overlapping memcpy (-Wrestrict).
        req.fail_node = std::string("5");
        break;
      case 3:
        req.kind = svc::RequestKind::kOptimal;
        req.tasks = "stencil2d:3x3";
        req.topology = "torus:3x3";
        req.compare = "topolb";
        break;
      default:
        req.kind = svc::RequestKind::kStatus;
        break;
    }
    reqs.push_back(std::move(req));
  }
  return reqs;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "topomapd load test: concurrent clients, mixed request kinds, "
      "shared distance-plane pool");
  cli.add_option("clients", "concurrent client connections", "8");
  cli.add_option("requests", "total requests across all clients", "80");
  cli.add_option("workers", "server worker threads", "4");
  cli.add_option("seed", "workload seed offset (request seeds cycle 1..3)",
                 "1");
  if (!cli.parse(argc, argv)) return 0;
  const int clients = cli.integer_as<int>("clients");
  const int total = cli.integer_as<int>("requests");
  bench::preamble("topomapd load (mixed kinds, shared cache pool)",
                  static_cast<std::uint64_t>(cli.integer("seed")));

  svc::ServerOptions options;
  options.socket_path =
      "/tmp/topomap-svc-load-" + std::to_string(::getpid()) + ".sock";
  options.workers = cli.integer_as<std::size_t>("workers");
  svc::Server server(options);
  server.start();

  const std::vector<svc::Request> reqs = mixed_workload(total);

  // One latency histogram per request kind (plus the overall one), one
  // connection per client, work-stealing over the shared request list.
  // Samples are microseconds: obs::Histogram's bucket 0 absorbs values
  // below 1.0, so sub-millisecond latencies need the finer unit.
  std::map<std::string, obs::Histogram> latency;
  std::map<std::string, std::int64_t> sent, succeeded;
  obs::Histogram overall;
  for (const svc::Request& r : reqs) {
    latency[svc::to_string(r.kind)];
    ++sent[svc::to_string(r.kind)];
  }
  std::mutex agg_mu;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  const double t_all = bench::timed([&] {
    for (int c = 0; c < clients; ++c)
      threads.emplace_back([&] {
        svc::Client client = svc::Client::connect_unix(options.socket_path);
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= reqs.size()) break;
          const auto t0 = std::chrono::steady_clock::now();
          const svc::Response resp = client.call(reqs[i]);
          const double us =
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
          std::lock_guard<std::mutex> lock(agg_mu);
          latency[svc::to_string(reqs[i].kind)].add(us);
          overall.add(us);
          if (resp.ok) ++succeeded[svc::to_string(reqs[i].kind)];
        }
      });
    for (std::thread& t : threads) t.join();
  });

  const svc::CachePoolStats cache = server.cache_stats();
  server.stop();
  server.join();

  Table table("request latency by kind (" + std::to_string(clients) +
                  " clients, " + std::to_string(options.workers) +
                  " workers)",
              {"kind", "requests", "ok", "p50_ms_wall", "p99_ms_wall"}, 3);
  std::int64_t ok_total = 0;
  for (auto& [kind, hist] : latency) {
    table.add_row({kind, sent[kind], succeeded[kind],
                   hist.quantile(0.5) / 1000.0,
                   hist.quantile(0.99) / 1000.0});
    ok_total += succeeded[kind];
  }
  table.add_row({std::string("all"), static_cast<std::int64_t>(reqs.size()),
                 ok_total, overall.quantile(0.5) / 1000.0,
                 overall.quantile(0.99) / 1000.0});
  bench::emit(table, "svc_load");

  const std::int64_t acquires =
      static_cast<std::int64_t>(cache.hits + cache.misses);
  Table cache_table(
      "distance-plane pool sharing across concurrent requests",
      {"clients", "requests", "cache_hits", "cache_misses",
       "cache_evictions", "hit_rate", "throughput_rps_wall"},
      4);
  cache_table.add_row(
      {static_cast<std::int64_t>(clients),
       static_cast<std::int64_t>(reqs.size()),
       static_cast<std::int64_t>(cache.hits),
       static_cast<std::int64_t>(cache.misses),
       static_cast<std::int64_t>(cache.evictions),
       acquires > 0 ? static_cast<double>(cache.hits) /
                          static_cast<double>(acquires)
                    : 0.0,
       t_all > 0.0 ? static_cast<double>(reqs.size()) / t_all : 0.0});
  bench::emit(cache_table, "svc_load_cache");

  std::cout << "\nhit_rate and the miss count are deterministic (misses == "
               "distinct machines);\nthe *_wall columns are informational "
               "and never gate.\n";
  return 0;
}
