// Service telemetry plane coverage: the topomap.svc.metrics /
// topomap.svc.flight schemas (round-trip + strict negatives), Prometheus
// exposition, per-stage histograms with recording on, flight-recorder
// wraparound, event-log rotation at the size boundary, and the daemon e2e
// contracts — correlation-id uniqueness under 64 in-flight requests with
// the event log and concurrent metrics polling active, while served
// mapping bytes stay byte-identical to a serial run.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "svc/client.hpp"
#include "svc/event_log.hpp"
#include "svc/flight.hpp"
#include "svc/metrics.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"

namespace {

using namespace topomap;
using svc::json::Value;

std::string unique_path(const char* tag, const char* suffix) {
  return "/tmp/topomap-telemetry-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + suffix;
}

/// The mixed request set from test_svc.cpp's concurrency suite: four kinds
/// over a handful of machines/seeds, all deterministic.
std::vector<svc::Request> mixed_requests(int count) {
  std::vector<svc::Request> reqs;
  reqs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    svc::Request req;
    req.id = "req-" + std::to_string(i);
    req.seed = static_cast<std::uint64_t>(1 + i % 3);
    switch (i % 4) {
      case 0:
        req.kind = svc::RequestKind::kMap;
        req.tasks = "stencil2d:4x4";
        req.topology = (i % 8 == 0) ? "torus:4x4" : "mesh:4x4";
        req.strategy = "topolb";
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
        req.fail_node = "5";
        break;
      default:
        req.kind = svc::RequestKind::kOptimal;
        req.tasks = "stencil2d:3x3";
        req.topology = "torus:3x3";
        req.compare = "topolb";
        break;
    }
    reqs.push_back(std::move(req));
  }
  return reqs;
}

// ---------------------------------------------------------------- metrics

TEST(SvcMetrics, SnapshotValidatesAndListsEveryRequestKind) {
  svc::Service service;
  svc::Request req;
  req.id = "m";
  req.kind = svc::RequestKind::kMap;
  req.tasks = "stencil2d:4x4";
  req.topology = "torus:4x4";
  ASSERT_TRUE(service.handle(req).ok);

  svc::Request metrics;
  metrics.id = "metrics";
  metrics.kind = svc::RequestKind::kMetrics;
  const svc::Response resp = service.handle(metrics);
  ASSERT_TRUE(resp.ok) << resp.error.message;
  svc::validate_metrics_snapshot(resp.result);  // strict schema round-trip

  const Value& by_kind = resp.result.at("requests").at("by_kind");
  // Every kind is always present, exercised or not — a deterministic key
  // set is what makes two runs' snapshots comparable.
  EXPECT_EQ(by_kind.members().size(),
            static_cast<std::size_t>(svc::kNumRequestKinds));
  EXPECT_EQ(by_kind.at("map").at("served").as_number(), 1.0);
  EXPECT_EQ(by_kind.at("flight").at("served").as_number(), 0.0);
  // The metrics request snapshots state *before* it completes itself.
  EXPECT_EQ(resp.result.at("requests").at("served").as_number(), 1.0);
  EXPECT_EQ(resp.result.at("pool").at("misses").as_number(), 1.0);
  EXPECT_EQ(resp.result.at("bucket_scheme").at("buckets").as_number(),
            static_cast<double>(obs::Histogram::kBucketCount));
}

TEST(SvcMetrics, DeterministicFieldsAreByteIdenticalAcrossSerialRuns) {
  auto run = [] {
    svc::Service service;
    for (const svc::Request& r : mixed_requests(16))
      EXPECT_TRUE(service.handle(r).ok);
    const Value snap = service.metrics_snapshot();
    svc::validate_metrics_snapshot(snap);
    // The deterministic slice: request counts, pool hit/miss/evict, and
    // the bucket-scheme descriptor.  queue_depth and the histogram
    // contents are timing-derived and excluded by contract.
    return snap.at("requests").dump() + "|" + snap.at("pool").dump() + "|" +
           snap.at("bucket_scheme").dump();
  };
  EXPECT_EQ(run(), run());
}

TEST(SvcMetrics, QueueDepthComesFromTheInstalledProbe) {
  svc::Service service;
  EXPECT_EQ(service.metrics_snapshot().at("queue_depth").as_number(), 0.0);
  service.set_queue_depth_probe([] { return std::size_t{3}; });
  EXPECT_EQ(service.metrics_snapshot().at("queue_depth").as_number(), 3.0);
}

// With recording on, every served request feeds its per-stage latency
// histograms, and the metrics snapshot carries them.
TEST(SvcMetrics, RecordingOnPopulatesPerStageHistograms) {
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  svc::Service service;
  for (int seed = 1; seed <= 3; ++seed) {
    svc::Request req;
    req.id = "m" + std::to_string(seed);
    req.kind = svc::RequestKind::kMap;
    req.tasks = "stencil2d:4x4";
    req.topology = "torus:4x4";
    req.seed = static_cast<std::uint64_t>(seed);
    ASSERT_TRUE(service.handle(req).ok);
  }
  const Value snap = service.metrics_snapshot();
  obs::set_enabled(false);
  obs::Registry::instance().reset();
  obs::Tracer::instance().reset();
  svc::validate_metrics_snapshot(snap);
  const Value& hists = snap.at("histograms");
  for (const char* name :
       {"svc/map/total_us", "svc/map/acquire_us", "svc/map/kernel_us"}) {
    const Value* h = hists.find(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->at("count").as_number(), 3.0) << name;
  }
}

TEST(SvcMetrics, ValidatorRejectsMalformedSnapshots) {
  svc::Service service;
  const Value good = service.metrics_snapshot();
  svc::validate_metrics_snapshot(good);

  {
    Value bad = good;
    bad.set("surprise", 1);  // unknown top-level key
    EXPECT_THROW(svc::validate_metrics_snapshot(bad), precondition_error);
  }
  {
    Value bad = good;
    bad.set("schema", "topomap.svc.other");
    EXPECT_THROW(svc::validate_metrics_snapshot(bad), precondition_error);
  }
  {
    Value bad = good;
    bad.set("queue_depth", -1);
    EXPECT_THROW(svc::validate_metrics_snapshot(bad), precondition_error);
  }
  {
    Value bad = good;
    Value pool = bad.at("pool");
    pool.set("hits", 1.5);  // non-integer count
    bad.set("pool", std::move(pool));
    EXPECT_THROW(svc::validate_metrics_snapshot(bad), precondition_error);
  }
  {
    // Histogram whose bucket counts do not sum to its count.
    Value bad = good;
    Value h = Value::object();
    h.set("count", 3);
    h.set("sum", 6.0);
    h.set("min", 2.0);
    h.set("max", 2.0);
    h.set("mean", 2.0);
    h.set("p50", 2.0);
    h.set("p90", 2.0);
    h.set("p99", 2.0);
    Value buckets = Value::array();
    Value triple = Value::array();
    triple.push_back(2.0);
    triple.push_back(2.25);
    triple.push_back(2);  // 2 != count 3
    buckets.push_back(std::move(triple));
    h.set("buckets", std::move(buckets));
    Value hists = Value::object();
    hists.set("svc/map/total_us", std::move(h));
    bad.set("histograms", std::move(hists));
    EXPECT_THROW(svc::validate_metrics_snapshot(bad), precondition_error);
  }
}

TEST(SvcMetrics, PrometheusExpositionCarriesCountersAndGauges) {
  svc::Service service;
  svc::Request req;
  req.id = "m";
  req.kind = svc::RequestKind::kMap;
  req.tasks = "stencil2d:4x4";
  req.topology = "torus:4x4";
  ASSERT_TRUE(service.handle(req).ok);

  const std::string text =
      svc::metrics_to_prometheus(service.metrics_snapshot());
  EXPECT_NE(text.find("topomap_requests_served_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("topomap_requests_by_kind_total{kind=\"map\","
                      "outcome=\"served\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE topomap_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("topomap_pool_events_total{event=\"misses\"} 1\n"),
            std::string::npos);

  Value bad = Value::object();
  bad.set("schema", "nope");
  EXPECT_THROW((void)svc::metrics_to_prometheus(bad), precondition_error);
}

// ----------------------------------------------------------------- flight

TEST(SvcFlight, RingWrapsAroundKeepingTheMostRecentEvents) {
  svc::FlightRecorder ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 20; ++i)
    ring.record("r-" + std::to_string(i), "map", "done",
                static_cast<std::uint64_t>(100 + i),
                static_cast<std::uint64_t>(i));
  EXPECT_EQ(ring.total_recorded(), 20u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);  // only the last capacity events survive
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12u + i);
    EXPECT_STREQ(events[i].stage, "done");
    EXPECT_EQ(std::string(events[i].corr),
              "r-" + std::to_string(12 + i));
  }
  const Value doc = ring.to_json();
  svc::validate_flight_snapshot(doc);  // schema round-trip
  EXPECT_EQ(doc.at("capacity").as_number(), 8.0);
  EXPECT_EQ(doc.at("recorded").as_number(), 20.0);
}

// Writers lapping a tiny ring many times over while readers snapshot it:
// every event a snapshot returns must be one writer's whole event, never a
// mix of two.  Each writer derives every field from one value k, so a torn
// slot shows up as fields that disagree.  Under TSan this is also the
// seqlock's race check.
TEST(SvcFlight, LappingWritersNeverTearAnEventUnderConcurrentSnapshots) {
  svc::FlightRecorder ring(8);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> done{false};
  auto reader = [&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto events = ring.snapshot();
      for (std::size_t i = 0; i < events.size(); ++i) {
        const svc::FlightEvent& ev = events[i];
        if (i > 0) {
          ASSERT_GT(ev.seq, events[i - 1].seq);
        }
        const std::uint64_t k = ev.t_ns;
        ASSERT_EQ(ev.dur_ns, 3 * k + 1);
        ASSERT_EQ(std::string(ev.corr), std::to_string(k));
        ASSERT_EQ(std::string(ev.kind), k % 2 ? "map" : "status");
        ASSERT_EQ(std::string(ev.stage), std::to_string(k % 97));
      }
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) readers.emplace_back(reader);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&ring, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const auto k = static_cast<std::uint64_t>(w) * kPerWriter +
                       static_cast<std::uint64_t>(i);
        ring.record(std::to_string(k), k % 2 ? "map" : "status",
                    std::to_string(k % 97), k, 3 * k + 1);
      }
    });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(ring.total_recorded(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  // Quiescent ring: the last capacity sequence numbers, each whole.
  const auto tail = ring.snapshot();
  ASSERT_EQ(tail.size(), ring.capacity());
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].seq, ring.total_recorded() - ring.capacity() + i);
    EXPECT_EQ(std::string(tail[i].corr), std::to_string(tail[i].t_ns));
  }
}

TEST(SvcFlight, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(svc::FlightRecorder(1).capacity(), 8u);  // floor
  EXPECT_EQ(svc::FlightRecorder(9).capacity(), 16u);
  EXPECT_EQ(svc::FlightRecorder(64).capacity(), 64u);
}

TEST(SvcFlight, OverlongFieldsAreTruncatedNotOverflowed) {
  svc::FlightRecorder ring(8);
  ring.record(std::string(100, 'c'), std::string(100, 'k'),
              std::string(100, 's'), 1, 2);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 1u);
  // Fixed-size char arrays keep the record path allocation-free; long
  // names truncate with the NUL terminator intact.
  EXPECT_EQ(std::string(events[0].corr).size(),
            sizeof(events[0].corr) - 1);
  EXPECT_EQ(std::string(events[0].kind).size(),
            sizeof(events[0].kind) - 1);
}

TEST(SvcFlight, ValidatorRejectsMalformedSnapshots) {
  svc::FlightRecorder ring(8);
  ring.record("r-1", "map", "done", 10, 5);
  Value good = ring.to_json();
  svc::validate_flight_snapshot(good);

  {
    Value bad = good;
    bad.set("extra", 1);
    EXPECT_THROW(svc::validate_flight_snapshot(bad), precondition_error);
  }
  {
    Value bad = good;
    Value ev = Value::object();
    ev.set("seq", 0);
    ev.set("t_ns", 1);
    ev.set("dur_ns", 0);
    ev.set("corr", "");  // empty correlation id
    ev.set("kind", "map");
    ev.set("stage", "done");
    Value events = Value::array();
    events.push_back(std::move(ev));
    bad.set("events", std::move(events));
    EXPECT_THROW(svc::validate_flight_snapshot(bad), precondition_error);
  }
  {
    // Descending seq order.
    Value bad = good;
    Value events = Value::array();
    for (int seq : {5, 3}) {
      Value ev = Value::object();
      ev.set("seq", seq);
      ev.set("t_ns", 1);
      ev.set("dur_ns", 0);
      ev.set("corr", "r-1");
      ev.set("kind", "map");
      ev.set("stage", "done");
      events.push_back(std::move(ev));
    }
    bad.set("events", std::move(events));
    EXPECT_THROW(svc::validate_flight_snapshot(bad), precondition_error);
  }
}

TEST(SvcFlight, ServiceFlightRequestReturnsValidSnapshot) {
  svc::Service service;
  svc::Request req;
  req.id = "m";
  req.kind = svc::RequestKind::kMap;
  req.tasks = "stencil2d:4x4";
  req.topology = "torus:4x4";
  ASSERT_TRUE(service.handle(req).ok);

  svc::Request flight;
  flight.id = "f";
  flight.kind = svc::RequestKind::kFlight;
  const svc::Response resp = service.handle(flight);
  ASSERT_TRUE(resp.ok) << resp.error.message;
  svc::validate_flight_snapshot(resp.result);
  // Direct handle() calls record acquire + done; the map request must
  // appear with its minted correlation id.
  bool saw_map_done = false;
  for (const Value& ev : resp.result.at("events").items())
    if (ev.at("kind").as_string() == "map" &&
        ev.at("stage").as_string() == "done") {
      saw_map_done = true;
      EXPECT_EQ(ev.at("corr").as_string().rfind("r-", 0), 0u);
    }
  EXPECT_TRUE(saw_map_done);
}

// -------------------------------------------------------------- event log

TEST(SvcEventLog, RotatesExactlyAtTheSizeBoundary) {
  const std::string path = unique_path("rotate", ".jsonl");
  const std::string rotated = path + ".1";
  std::remove(path.c_str());
  std::remove(rotated.c_str());

  {
    svc::EventLog log;
    log.open(path, /*max_bytes=*/100);
    ASSERT_TRUE(log.active());
    const std::string line(60, 'a');  // 61 bytes with the newline
    log.append(line);
    EXPECT_EQ(log.rotations(), 0u);  // 61 <= 100: no rotation
    log.append(line);                // 61 + 61 > 100: rotate first
    EXPECT_EQ(log.rotations(), 1u);

    std::ifstream old_file(rotated);
    ASSERT_TRUE(old_file.good());
    std::string got;
    std::getline(old_file, got);
    EXPECT_EQ(got, line);  // the rotated file holds the pre-rotation line

    std::ifstream current(path);
    std::getline(current, got);
    EXPECT_EQ(got, line);
    EXPECT_FALSE(std::getline(current, got));  // exactly one line
  }
  std::remove(path.c_str());
  std::remove(rotated.c_str());
}

TEST(SvcEventLog, OversizedSingleLineIsStillWritten) {
  const std::string path = unique_path("oversize", ".jsonl");
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  {
    svc::EventLog log;
    log.open(path, /*max_bytes=*/10);
    log.append(std::string(50, 'x'));  // larger than max_bytes on its own
    EXPECT_EQ(log.rotations(), 0u);    // an empty log never rotates first
    std::ifstream f(path);
    std::string got;
    std::getline(f, got);
    EXPECT_EQ(got.size(), 50u);
  }
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(SvcEventLog, InactiveByDefaultAndOpenFailureThrows) {
  svc::EventLog log;
  EXPECT_FALSE(log.active());
  log.append("dropped");  // no-op, not a crash
  svc::EventLog bad;
  EXPECT_THROW(bad.open("/nonexistent-dir/x/y.jsonl", 1000), io_error);
}

// ----------------------------------------------------------------- daemon

// The tentpole e2e contract: 64 in-flight requests against the daemon with
// the event log enabled and a metrics poller running concurrently must (a)
// serve byte-identical responses to a serial single-threaded execution,
// and (b) log exactly one lifecycle line per request, every correlation id
// unique.
TEST(SvcServer, CorrelationIdsUniqueAndBytesIdenticalWithTelemetryActive) {
  const std::vector<svc::Request> reqs = mixed_requests(64);

  // Serial ground truth: a fresh Service, no telemetry options.
  std::vector<std::string> expected;
  {
    svc::Service serial;
    for (const svc::Request& r : reqs)
      expected.push_back(serial.handle(r).to_json().dump());
  }

  const std::string log_path = unique_path("corr", ".jsonl");
  std::remove(log_path.c_str());
  std::remove((log_path + ".1").c_str());

  svc::ServerOptions options;
  options.socket_path = unique_path("corr", ".sock");
  options.workers = 8;
  options.queue_capacity = 16;  // backpressure engages under the burst
  options.service.event_log_path = log_path;
  options.service.flight_capacity = 32;  // smaller than the event count:
                                         // the ring wraps mid-run
  svc::Server server(options);
  server.start();
  {
    constexpr int kClients = 8;
    std::vector<std::string> got(reqs.size());
    std::atomic<std::size_t> next{0};
    std::atomic<bool> polling{true};
    // Concurrent metrics poller: telemetry reads must never perturb
    // served bytes.
    std::thread poller([&] {
      svc::Client client = svc::Client::connect_unix(options.socket_path);
      svc::Request metrics;
      metrics.id = "poll";
      metrics.kind = svc::RequestKind::kMetrics;
      while (polling.load()) {
        const svc::Response resp = client.call(metrics);
        ASSERT_TRUE(resp.ok) << resp.error.message;
        svc::validate_metrics_snapshot(resp.result);
      }
    });
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        svc::Client client = svc::Client::connect_unix(options.socket_path);
        for (std::size_t i = next.fetch_add(1); i < reqs.size();
             i = next.fetch_add(1))
          got[i] = client.call(reqs[i]).to_json().dump();
      });
    }
    for (auto& t : clients) t.join();
    polling.store(false);
    poller.join();
    for (std::size_t i = 0; i < reqs.size(); ++i)
      EXPECT_EQ(got[i], expected[i]) << "request " << reqs[i].id;

    // The flight ring survived the wraparound and still validates.
    svc::Client client = svc::Client::connect_unix(options.socket_path);
    svc::Request flight;
    flight.id = "f";
    flight.kind = svc::RequestKind::kFlight;
    const svc::Response fresp = client.call(flight);
    ASSERT_TRUE(fresp.ok) << fresp.error.message;
    svc::validate_flight_snapshot(fresp.result);
    EXPECT_LE(fresp.result.at("events").size(), 32u);
  }
  server.stop();
  server.join();

  // One event-log line per request, every correlation id unique.
  std::ifstream log(log_path);
  ASSERT_TRUE(log.good());
  std::set<std::string> corrs;
  std::map<std::string, int> lines_per_id;
  std::string line;
  while (std::getline(log, line)) {
    const Value doc = Value::parse(line);
    const std::string corr = doc.at("corr").as_string();
    EXPECT_TRUE(corrs.insert(corr).second) << "duplicate corr " << corr;
    EXPECT_TRUE(doc.at("ok").as_bool());
    EXPECT_GE(doc.at("total_us").as_number(),
              doc.at("kernel_us").as_number());
    ++lines_per_id[doc.at("id").as_string()];
  }
  for (const svc::Request& r : reqs)
    EXPECT_EQ(lines_per_id[r.id], 1) << r.id;

  std::remove(log_path.c_str());
  std::remove((log_path + ".1").c_str());
}

}  // namespace
