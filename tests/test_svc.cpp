// topomapd service coverage: framing (round-trip, truncation, oversize,
// garbage), protocol schema validation, CachePool determinism and
// invalidation, and end-to-end daemon runs over a real unix socket where
// concurrent clients must observe byte-identical responses to a serial,
// single-threaded execution of the same requests.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cache_handle.hpp"
#include "core/fault_aware.hpp"
#include "core/strategy.hpp"
#include "graph/factory.hpp"
#include "gtest/gtest.h"
#include "runtime/rank_reorder.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "svc/cache_pool.hpp"
#include "svc/client.hpp"
#include "svc/frame.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "topo/distance_cache.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"

namespace {

using namespace topomap;

// ---------------------------------------------------------------- framing

TEST(SvcFrame, EncodeDecodeRoundTrip) {
  const std::string payload = R"({"hello":"world"})";
  const std::string frame = svc::encode_frame(payload);
  ASSERT_EQ(frame.size(), svc::kFrameHeaderSize + payload.size());
  EXPECT_EQ(frame.substr(0, 4), "TMP1");

  svc::FrameDecoder dec;
  dec.feed(frame);
  const auto got = dec.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_TRUE(dec.idle());
  EXPECT_FALSE(dec.next().has_value());
}

TEST(SvcFrame, DecoderHandlesByteDribbleAndPipelining) {
  const std::string a = svc::encode_frame("first");
  const std::string b = svc::encode_frame("");
  const std::string c = svc::encode_frame(std::string(1000, 'x'));
  const std::string wire = a + b + c;
  svc::FrameDecoder dec;
  std::vector<std::string> out;
  for (char byte : wire) {
    dec.feed(std::string_view(&byte, 1));
    while (auto p = dec.next()) out.push_back(*p);
  }
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "first");
  EXPECT_EQ(out[1], "");
  EXPECT_EQ(out[2], std::string(1000, 'x'));
  EXPECT_TRUE(dec.idle());
}

TEST(SvcFrame, DecoderRejectsGarbageImmediately) {
  svc::FrameDecoder dec;
  EXPECT_THROW(dec.feed("GET / HTTP/1.1\r\n"), precondition_error);
  svc::FrameDecoder dec2;
  // Even a single wrong byte is enough — no length is ever trusted.
  EXPECT_THROW(dec2.feed("X"), precondition_error);
}

TEST(SvcFrame, DecoderRejectsOversizedDeclaration) {
  svc::FrameDecoder dec(/*max_payload=*/16);
  std::string header = "TMP1";
  header += '\x00';
  header += '\x00';
  header += '\x00';
  header += '\x11';  // 17 > 16
  EXPECT_THROW(dec.feed(header), precondition_error);
}

TEST(SvcFrame, DecoderTruncationIsVisibleAsNotIdle) {
  svc::FrameDecoder dec;
  const std::string frame = svc::encode_frame("abcdef");
  dec.feed(frame.substr(0, frame.size() - 2));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.idle());  // mid-frame: a close here is a protocol error
}

TEST(SvcFrame, SocketReadRejectsTruncatedAndGarbageFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Clean EOF at a frame boundary -> false.
  {
    const std::string frame = svc::encode_frame("payload");
    ASSERT_EQ(::send(fds[0], frame.data(), frame.size(), 0),
              static_cast<ssize_t>(frame.size()));
    std::string payload;
    EXPECT_TRUE(svc::read_frame(fds[1], payload));
    EXPECT_EQ(payload, "payload");
    ::close(fds[0]);
    EXPECT_FALSE(svc::read_frame(fds[1], payload));
    ::close(fds[1]);
  }
  // Mid-payload EOF -> io_error.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  {
    const std::string frame = svc::encode_frame("payload");
    ASSERT_EQ(::send(fds[0], frame.data(), frame.size() - 3, 0),
              static_cast<ssize_t>(frame.size() - 3));
    ::close(fds[0]);
    std::string payload;
    EXPECT_THROW(svc::read_frame(fds[1], payload), io_error);
    ::close(fds[1]);
  }
  // Garbage magic -> precondition_error.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  {
    std::string junk = "NOPE";
    junk.append(3, '\0');
    junk += '\x04';
    junk += "abcd";
    ASSERT_EQ(::send(fds[0], junk.data(), junk.size(), 0),
              static_cast<ssize_t>(junk.size()));
    std::string payload;
    EXPECT_THROW(svc::read_frame(fds[1], payload), precondition_error);
    ::close(fds[0]);
    ::close(fds[1]);
  }
}

// --------------------------------------------------------------- protocol

TEST(SvcProtocol, RequestRoundTripsThroughJson) {
  svc::Request req;
  req.id = "r-42";
  req.kind = svc::RequestKind::kExplain;
  req.tasks = "stencil2d:4x4";
  req.topology = "torus:4x4";
  req.strategy = "topolb+refine";
  req.seed = 9;
  req.baseline = "random";
  req.top_k = 5;
  req.degrade_link = "0:1:0.5";
  const svc::Request back = svc::Request::from_json(req.to_json());
  EXPECT_EQ(back.id, "r-42");
  EXPECT_EQ(back.kind, svc::RequestKind::kExplain);
  EXPECT_EQ(back.tasks, "stencil2d:4x4");
  EXPECT_EQ(back.strategy, "topolb+refine");
  EXPECT_EQ(back.seed, 9u);
  EXPECT_EQ(back.baseline, "random");
  EXPECT_EQ(back.top_k, 5);
  EXPECT_EQ(back.degrade_link, "0:1:0.5");
  // Full fidelity: re-serialization is byte-identical.
  EXPECT_EQ(req.to_json().dump(), back.to_json().dump());
}

TEST(SvcProtocol, StrictValidationRejectsMalformedRequests) {
  auto parse = [](const std::string& text) {
    return svc::Request::from_json(svc::json::Value::parse(text));
  };
  // Wrong schema name / version, missing id, unknown kind.
  EXPECT_THROW(parse(R"({"schema":"nope","schema_version":1})"),
               precondition_error);
  EXPECT_THROW(
      parse(R"({"schema":"topomap.svc.request","schema_version":2,)"
            R"("id":"x","kind":"status"})"),
      precondition_error);
  EXPECT_THROW(parse(R"({"schema":"topomap.svc.request","schema_version":1,)"
                     R"("kind":"status"})"),
               precondition_error);
  EXPECT_THROW(parse(R"({"schema":"topomap.svc.request","schema_version":1,)"
                     R"("id":"x","kind":"frobnicate"})"),
               precondition_error);
  // Unknown parameter key and mistyped values must not pass silently.
  EXPECT_THROW(parse(R"({"schema":"topomap.svc.request","schema_version":1,)"
                     R"("id":"x","kind":"map","params":{"tasx":"y"}})"),
               precondition_error);
  EXPECT_THROW(parse(R"({"schema":"topomap.svc.request","schema_version":1,)"
                     R"("id":"x","kind":"map","params":{"seed":"one"}})"),
               precondition_error);
  EXPECT_THROW(parse(R"({"schema":"topomap.svc.request","schema_version":1,)"
                     R"("id":"x","kind":"map","params":{"top_k":1.5}})"),
               precondition_error);
  // An integer beyond its field's type is rejected, not wrapped (2^32 + 1
  // would read as top_k 1).
  EXPECT_THROW(parse(R"({"schema":"topomap.svc.request","schema_version":1,)"
                     R"("id":"x","kind":"map","params":{"top_k":4294967297}})"),
               precondition_error);
}

TEST(SvcProtocol, ErrorMappingFollowsExitCodeTaxonomy) {
  auto category_of = [](std::exception_ptr e) {
    return svc::make_error_response("id", e).error.category;
  };
  EXPECT_EQ(category_of(std::make_exception_ptr(usage_error("u"))),
            "usage");
  EXPECT_EQ(category_of(std::make_exception_ptr(precondition_error("p"))),
            "precondition");
  EXPECT_EQ(category_of(std::make_exception_ptr(invariant_error("i"))),
            "invariant");
  EXPECT_EQ(category_of(std::make_exception_ptr(io_error("o"))), "io");
  EXPECT_EQ(svc::exit_code_for("usage"), 1);
  EXPECT_EQ(svc::exit_code_for("precondition"), 2);
  EXPECT_EQ(svc::exit_code_for("invariant"), 3);
  EXPECT_EQ(svc::exit_code_for("io"), 4);
  // A response survives its own wire round-trip.
  const svc::Response err =
      svc::make_error_response("id", std::make_exception_ptr(io_error("x")));
  const svc::Response back =
      svc::Response::from_json(svc::json::Value::parse(err.to_json().dump()));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error.category, "io");
  EXPECT_EQ(back.error.message, "x");
}

TEST(SvcProtocol, MachineKeySeparatesMachinesNotSeeds) {
  auto key = [](const char* topo, const svc::Request& r) {
    return svc::machine_key(topo, r.fault_spec());
  };
  svc::Request plain;
  // No faults: the key is the topology spec itself, seed-independent.
  svc::Request other_seed = plain;
  other_seed.fault_seed = 7;
  EXPECT_EQ(key("torus:4x4", plain), key("torus:4x4", other_seed));
  EXPECT_NE(key("torus:4x4", plain), key("mesh:4x4", plain));
  // Explicit faults change the key; the fault seed still does not.
  svc::Request failed = plain;
  failed.fail_node = "3";
  svc::Request failed_other_seed = failed;
  failed_other_seed.fault_seed = 7;
  EXPECT_NE(key("torus:4x4", plain), key("torus:4x4", failed));
  EXPECT_EQ(key("torus:4x4", failed), key("torus:4x4", failed_other_seed));
  // Random draws make the seed part of the machine identity.
  svc::Request random = plain;
  random.random_link_faults = 2;
  svc::Request random_other_seed = random;
  random_other_seed.fault_seed = 7;
  EXPECT_NE(key("torus:4x4", random), key("torus:4x4", random_other_seed));
}

// -------------------------------------------------------------- CachePool

TEST(SvcCachePool, HitsMissesAndEvictionsAreDeterministic) {
  svc::CachePool pool(/*capacity=*/2);
  const topo::FaultSpec none;
  const auto a1 = pool.acquire("torus:4x4", none);
  const auto a2 = pool.acquire("torus:4x4", none);
  EXPECT_EQ(a1.get(), a2.get());  // shared, not rebuilt
  ASSERT_TRUE(a1->plane != nullptr);
  EXPECT_EQ(a1->plane->size(), 16);
  const auto b = pool.acquire("mesh:4x4", none);
  EXPECT_NE(a1.get(), b.get());
  svc::CachePoolStats s = pool.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 2u);
  // Third distinct machine evicts the LRU one (torus was touched last by
  // a2's hit... order: torus MRU after hit, then mesh MRU; LRU is torus?
  // No: touch order is torus(a1), torus(a2 hit), mesh(b) -> LRU = torus.
  const auto c = pool.acquire("hypercube:4", none);
  s = pool.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  // The evicted machine rebuilds on next acquire; survivors still hit.
  const auto b2 = pool.acquire("mesh:4x4", none);
  EXPECT_EQ(b.get(), b2.get());
  const auto a3 = pool.acquire("torus:4x4", none);
  EXPECT_NE(a1.get(), a3.get());
  s = pool.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 4u);
  // Evicted entries stay alive for holders (shared_ptr semantics).
  EXPECT_EQ(a1->plane->size(), 16);
}

TEST(SvcCachePool, FaultSpecsKeySeparateEntriesAndFaultedPlanes) {
  svc::CachePool pool(8);
  const topo::FaultSpec none;
  svc::Request failed;
  failed.fail_node = "5";
  const auto healthy = pool.acquire("torus:4x4", none);
  const auto faulted = pool.acquire("torus:4x4", failed.fault_spec());
  EXPECT_NE(healthy.get(), faulted.get());
  ASSERT_TRUE(faulted->overlay != nullptr);
  EXPECT_EQ(faulted->overlay->num_failed_nodes(), 1);
  EXPECT_EQ(faulted->machine().size(), 16);
  // The faulted plane was built over the overlay metric, not the base.
  ASSERT_TRUE(faulted->plane != nullptr);
  EXPECT_EQ(pool.stats().misses, 2u);
  EXPECT_EQ(pool.stats().hits, 0u);
}

TEST(SvcCachePool, ConcurrentAcquiresCoalesceIntoOneBuild) {
  svc::CachePool pool(4);
  const topo::FaultSpec none;
  constexpr int kThreads = 8;
  std::vector<ops::MachinePtr> got(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i)
      threads.emplace_back([&pool, &got, &none, i] {
        got[static_cast<std::size_t>(i)] = pool.acquire("torus:6x6", none);
      });
    for (auto& t : threads) t.join();
  }
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(got[0].get(), got[i].get());
  const svc::CachePoolStats s = pool.stats();
  // Exactly one build ever, no matter the interleaving: misses counts the
  // distinct keys, everything else coalesced into hits.
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(SvcCachePool, FailedBuildsAreNotCachedAndRetryCleanly) {
  svc::CachePool pool(4);
  const topo::FaultSpec none;
  EXPECT_THROW(pool.acquire("not-a-topology:9", none), precondition_error);
  EXPECT_THROW(pool.acquire("not-a-topology:9", none), precondition_error);
  const svc::CachePoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 2u);  // the failure was not poisoned into the pool
  EXPECT_EQ(s.entries, 0u);
  // The pool still works after failures.
  EXPECT_EQ(pool.acquire("torus:4x4", none)->machine().size(), 16);
}

TEST(SvcCachePool, FaultVersionInvalidatesSeededHandle) {
  // The per-request CacheHandle is seeded with the pooled plane; a fault
  // injected afterwards changes the overlay's name() (version counter) and
  // must force a rebuild instead of serving the stale metric.
  auto base = topo::make_topology("torus:4x4");
  topo::FaultOverlay overlay(base);
  auto plane = std::make_shared<const topo::DistanceCache>(overlay);
  core::CacheHandle handle;
  handle.seed(overlay, plane);
  EXPECT_EQ(handle.get(overlay).get(), plane.get());
  overlay.degrade_link(0, 1, 0.5);
  const auto rebuilt = handle.get(overlay);
  EXPECT_NE(rebuilt.get(), plane.get());
  EXPECT_EQ(rebuilt->size(), 16);
}

// ------------------------------------------------------------ service e2e

/// The mixed request set used by the concurrency tests: four kinds over a
/// handful of machines/seeds, all deterministic.
// The uint64_t seeds travel as JSON numbers up to 2^53 and as digit
// strings above it, where a double would round them.
TEST(SvcProtocol, SeedsAbove2To53TravelAsDigitStrings) {
  svc::Request req;
  req.id = "s";
  req.kind = svc::RequestKind::kMap;
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1} << 53, (std::uint64_t{1} << 53) + 1,
        ~std::uint64_t{0}}) {
    req.seed = seed;
    req.fault_seed = seed;
    const std::string text = req.to_json().dump();
    const bool above = seed > (std::uint64_t{1} << 53);
    const std::string digits = std::to_string(seed);
    EXPECT_NE(text.find("\"seed\":" + (above ? "\"" + digits + "\""
                                               : digits)),
              std::string::npos)
        << text;
    const svc::Request back =
        svc::Request::from_json(svc::json::Value::parse(text));
    EXPECT_EQ(back.seed, seed);
    EXPECT_EQ(back.fault_seed, seed);
    EXPECT_EQ(back.to_json().dump(), text);
  }
  auto seed_of = [](const std::string& value) {
    return svc::Request::from_json(svc::json::Value::parse(
               R"({"schema":"topomap.svc.request","schema_version":1,)"
               R"("id":"x","kind":"map","params":{"seed":)" +
               value + "}}"))
        .seed;
  };
  EXPECT_EQ(seed_of(R"("7")"), 7u);
  EXPECT_EQ(seed_of(R"("18446744073709551615")"), ~std::uint64_t{0});
  for (const char* bad : {R"("-1")", R"("1e3")", R"("")", R"("+5")",
                          R"(" 5")", R"("5 ")", R"("0x10")",
                          R"("18446744073709551616")", "-1", "1.5",
                          "18446744073709551615"}) {
    try {
      (void)seed_of(bad);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find("'seed'"), std::string::npos)
          << bad << ": " << e.what();
    }
  }
}

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

std::string unique_socket_path(const char* tag) {
  return "/tmp/topomap-test-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

TEST(SvcService, MapResponseMatchesDirectLibraryExecution) {
  svc::Service service;
  svc::Request req;
  req.id = "m";
  req.kind = svc::RequestKind::kMap;
  req.tasks = "stencil2d:4x4";
  req.topology = "torus:4x4";
  req.strategy = "topolb+refine";
  req.seed = 3;
  const svc::Response resp = service.handle(req);
  ASSERT_TRUE(resp.ok) << resp.error.message;

  // The same computation straight through the library, no svc:: involved.
  Rng rng(3);
  const graph::TaskGraph g = graph::make_task_graph("stencil2d:4x4", rng);
  const auto topo = topo::make_topology("torus:4x4");
  const core::Mapping m =
      core::make_strategy("topolb+refine")->map(g, *topo, rng);
  std::ostringstream os;
  rts::write_rank_mapping(os, m);
  EXPECT_EQ(resp.result.at("mapping").as_string(), os.str());
  EXPECT_EQ(resp.result.at("strategy").as_string(), "TopoLB+RefineTopoLB");
}

TEST(SvcService, UsageErrorsKeepCliExitCodeSemantics) {
  svc::Service service;
  svc::Request req;
  req.id = "bad";
  req.kind = svc::RequestKind::kMap;
  req.tasks = "stencil2d:3x3";  // 9 tasks on 16 processors: CLI exits 1
  req.topology = "torus:4x4";
  const svc::Response resp = service.handle(req);
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.error.category, "usage");
  EXPECT_EQ(svc::exit_code_for(resp.error.category), 1);

  svc::Request bad_spec = req;
  bad_spec.tasks = "stencil2d:4x4";
  bad_spec.strategy = "frobnicate";  // CLI exits 2
  const svc::Response resp2 = service.handle(bad_spec);
  ASSERT_FALSE(resp2.ok);
  EXPECT_EQ(resp2.error.category, "precondition");
}

/// FNV-1a (64-bit) of a response's wire bytes.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// One fixed-seed request per mapping kind, each with its response's wire
/// hash and size.  The hashes were recorded from the snprintf/strtod codec
/// with deep-copying envelopes; any codec or envelope change must keep
/// them.  The map runs on a node- and soft-faulted machine (fractional
/// hop-bytes), the explain on the served-mix shape (~210 KB of links).
struct PinnedResponse {
  svc::Request req;
  std::size_t bytes;
  std::uint64_t hash;
};

std::vector<PinnedResponse> pinned_responses() {
  std::vector<PinnedResponse> pins(4);
  svc::Request& map = pins[0].req;
  map.id = "pin-map";
  map.kind = svc::RequestKind::kMap;
  map.tasks = "stencil2d:7x9";
  map.topology = "torus:8x8";
  map.strategy = "topolb+refine";
  map.seed = 3;
  map.fail_node = "9";
  map.degrade_link = "0:1:0.5";
  pins[0].bytes = 881;
  pins[0].hash = 0x52395c72f6a49183ull;
  svc::Request& explain = pins[1].req;
  explain.id = "pin-explain";
  explain.kind = svc::RequestKind::kExplain;
  explain.tasks = "stencil3d:4x4x8";
  explain.topology = "torus:4x4x8";
  explain.strategy = "topolb";
  explain.baseline = "random";
  explain.seed = 5;
  pins[1].bytes = 209984;
  pins[1].hash = 0x4c9f438f1fb2d970ull;
  svc::Request& evacuate = pins[2].req;
  evacuate.id = "pin-evacuate";
  evacuate.kind = svc::RequestKind::kEvacuate;
  evacuate.tasks = "stencil2d:7x8";
  evacuate.topology = "torus:8x8";
  evacuate.strategy = "topolb";
  evacuate.fail_node = "5,12";
  evacuate.seed = 2;
  pins[2].bytes = 865;
  pins[2].hash = 0x333284add74daa2aull;
  svc::Request& optimal = pins[3].req;
  optimal.id = "pin-optimal";
  optimal.kind = svc::RequestKind::kOptimal;
  optimal.tasks = "stencil2d:3x3";
  optimal.topology = "torus:3x3";
  optimal.seed = 1;
  pins[3].bytes = 352;
  pins[3].hash = 0xa6d6f2e5348426a5ull;
  return pins;
}

TEST(SvcProtocol, ResponseBytesArePinnedThroughBothEnvelopeOverloads) {
  svc::Service service;
  for (const PinnedResponse& pin : pinned_responses()) {
    svc::Response resp = service.handle(pin.req);
    ASSERT_TRUE(resp.ok) << pin.req.id << ": " << resp.error.message;
    const std::string copied = resp.to_json().dump();
    EXPECT_EQ(copied.size(), pin.bytes) << pin.req.id;
    EXPECT_EQ(fnv1a(copied), pin.hash) << pin.req.id;
    const std::string moved = std::move(resp).to_json().dump();
    EXPECT_EQ(moved, copied) << pin.req.id;
    // Decoding a kept document (copied in) and a temporary one (moved in)
    // yields the same response again.
    const svc::json::Value doc = svc::json::Value::parse(moved);
    EXPECT_EQ(svc::Response::from_json(doc).to_json().dump(), copied)
        << pin.req.id;
    EXPECT_EQ(svc::Response::from_json(svc::json::Value::parse(moved))
                  .to_json()
                  .dump(),
              copied)
        << pin.req.id;
  }
}

/// Zero every flight event's timestamps, the one part of a flight
/// snapshot two identical request histories do not share.
std::string without_times(const std::string& flight_response) {
  svc::json::Value doc = svc::json::Value::parse(flight_response);
  svc::json::Value& events = *doc.find("result")->find("events");
  svc::json::Value zeroed = svc::json::Value::array();
  for (svc::json::Value ev : events.items()) {
    ev.set("t_ns", 0);
    ev.set("dur_ns", 0);
    zeroed.push_back(std::move(ev));
  }
  events = std::move(zeroed);
  return doc.dump();
}

TEST(SvcService, RespondBytesEqualTheHandledResponseDumpForEveryKind) {
  std::vector<svc::Request> reqs;
  for (const PinnedResponse& pin : pinned_responses()) reqs.push_back(pin.req);
  svc::Request bad = reqs[0];  // map with an unknown strategy: an error
  bad.id = "bad";
  bad.strategy = "frobnicate";
  reqs.push_back(bad);
  for (const auto kind : {svc::RequestKind::kStatus, svc::RequestKind::kMetrics,
                          svc::RequestKind::kFlight}) {
    svc::Request r;
    r.id = svc::to_string(kind);
    r.kind = kind;
    reqs.push_back(r);
  }
  // Two services with one request history: what respond() renders is
  // what handle() returns, dumped again, and Response::dump writes the
  // bytes of its own tree in both forms.
  svc::Service rendering, handling;
  for (const svc::Request& r : reqs) {
    const std::string bytes = rendering.respond(r);
    const svc::Response resp = handling.handle(r);
    const std::string handled = resp.to_json().dump();
    EXPECT_EQ(resp.dump(), handled) << r.id;
    EXPECT_EQ(resp.dump(2), resp.to_json().dump(2)) << r.id;
    if (r.kind == svc::RequestKind::kFlight) {
      EXPECT_EQ(without_times(bytes), without_times(handled));
      EXPECT_NE(bytes.find("\"serialize\""), std::string::npos);
    } else {
      EXPECT_EQ(bytes, handled) << r.id;
    }
  }
  EXPECT_NE(rendering.respond(bad).find("\"status\":\"error\""),
            std::string::npos);
}

TEST(SvcServer, PinnedResponsesSurviveTheWireByteForByte) {
  svc::ServerOptions options;
  options.socket_path = unique_socket_path("pins");
  options.workers = 2;
  svc::Server server(options);
  server.start();
  {
    svc::Client client = svc::Client::connect_unix(options.socket_path);
    for (const PinnedResponse& pin : pinned_responses()) {
      const svc::Response resp = client.call(pin.req);
      ASSERT_TRUE(resp.ok) << pin.req.id << ": " << resp.error.message;
      const std::string bytes = resp.to_json().dump();
      EXPECT_EQ(bytes.size(), pin.bytes) << pin.req.id;
      EXPECT_EQ(fnv1a(bytes), pin.hash) << pin.req.id;
    }
  }
  server.stop();
  server.join();
}

// Served == one-shot for seeds a double cannot hold: the served random
// map equals ops::run_map's (the `topomap map` path) for the same seed, and
// 2^53 + 1 is not served as 2^53.
TEST(SvcServer, SeedsAbove2To53AreServedUnrounded) {
  svc::ServerOptions options;
  options.socket_path = unique_socket_path("seeds");
  options.workers = 1;
  svc::Server server(options);
  server.start();
  {
    svc::Client client = svc::Client::connect_unix(options.socket_path);
    svc::Request req;
    req.kind = svc::RequestKind::kMap;
    req.tasks = "stencil2d:4x4";
    req.topology = "torus:4x4";
    req.strategy = "random";
    std::vector<std::string> served;
    for (const std::uint64_t seed :
         {std::uint64_t{1} << 53, (std::uint64_t{1} << 53) + 1,
          ~std::uint64_t{0}}) {
      req.id = std::to_string(seed);
      req.seed = seed;
      const svc::Response resp = client.call(req);
      ASSERT_TRUE(resp.ok) << seed << ": " << resp.error.message;
      served.push_back(resp.result.at("mapping").as_string());
      EXPECT_EQ(served.back(),
                ops::mapping_text(ops::run_map(req, ops::make_machine).mapping))
          << seed;
    }
    EXPECT_NE(served[0], served[1]);
  }
  server.stop();
  server.join();
}

TEST(SvcServer, ConcurrentClientsAreByteIdenticalToSerialExecution) {
  const std::vector<svc::Request> reqs = mixed_requests(64);

  // Serial ground truth: a fresh single-threaded Service.
  std::vector<std::string> expected;
  {
    svc::Service serial;
    for (const svc::Request& r : reqs)
      expected.push_back(serial.handle(r).to_json().dump());
  }

  svc::ServerOptions options;
  options.socket_path = unique_socket_path("e2e");
  options.workers = 8;
  options.queue_capacity = 16;  // smaller than the request count:
                                // backpressure engages under the burst
  svc::Server server(options);
  server.start();
  {
    constexpr int kClients = 8;
    std::vector<std::string> got(reqs.size());
    std::atomic<std::size_t> next{0};
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
    for (std::size_t i = 0; i < reqs.size(); ++i)
      EXPECT_EQ(got[i], expected[i]) << "request " << reqs[i].id;
  }
  // The shared pool must actually have been shared: far fewer fills than
  // requests, and a deterministic miss count (one per distinct machine:
  // torus:4x4, mesh:4x4, torus:4x4+fault, torus:3x3).
  const svc::CachePoolStats s = server.cache_stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_GT(s.hits, 0u);
  server.stop();
  server.join();
}

TEST(SvcServer, MalformedTrafficGetsStructuredErrorsNotHangs) {
  svc::ServerOptions options;
  options.socket_path = unique_socket_path("err");
  options.workers = 2;
  svc::Server server(options);
  server.start();
  {
    svc::Client client = svc::Client::connect_unix(options.socket_path);
    // Valid frame, invalid JSON -> error response, connection stays alive.
    svc::Request ping;
    ping.id = "ok";
    ping.kind = svc::RequestKind::kStatus;
    const svc::Response r1 = client.call(ping);
    EXPECT_TRUE(r1.ok);
  }
  {
    // Raw socket speaking garbage framing: one error response, then EOF.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  options.socket_path.c_str());
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string junk = "HELO topomapd\n";
    ASSERT_EQ(::send(fd, junk.data(), junk.size(), 0),
              static_cast<ssize_t>(junk.size()));
    std::string payload;
    ASSERT_TRUE(svc::read_frame(fd, payload));
    const svc::Response resp =
        svc::Response::from_json(svc::json::Value::parse(payload));
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error.category, "precondition");
    // The server hangs up after a framing desync: next read is EOF.
    EXPECT_FALSE(svc::read_frame(fd, payload));
    ::close(fd);
  }
  {
    // Well-framed JSON that fails schema validation: error response with
    // the offending id echoed, connection still usable afterwards.
    svc::Client client = svc::Client::connect_unix(options.socket_path);
    svc::Request bad;
    bad.id = "schema-bad";
    svc::json::Value doc = bad.to_json();
    doc.set("kind", "frobnicate");
    // Hand-roll the call: Client::call() would reject client-side.
    const svc::Response resp = [&] {
      const int cfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                    options.socket_path.c_str());
      EXPECT_EQ(::connect(cfd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)),
                0);
      svc::write_frame(cfd, doc.dump());
      std::string payload;
      EXPECT_TRUE(svc::read_frame(cfd, payload));
      ::close(cfd);
      return svc::Response::from_json(svc::json::Value::parse(payload));
    }();
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.id, "schema-bad");
    EXPECT_EQ(resp.error.category, "precondition");
    // The first client connection still works.
    svc::Request ping;
    ping.id = "still-alive";
    ping.kind = svc::RequestKind::kStatus;
    EXPECT_TRUE(client.call(ping).ok);
  }
  server.stop();
  server.join();
}

TEST(SvcServer, OutOfRangeTcpPortsAreRejectedNotWrapped) {
  // 65537 would bind port 1 through a uint16_t cast; it must be refused
  // before any socket exists.
  for (const int port : {65537, -1}) {
    svc::ServerOptions options;
    options.socket_path = unique_socket_path("badport");
    options.tcp_port = port;
    svc::Server server(options);
    EXPECT_THROW(server.start(), precondition_error) << port;
    EXPECT_NE(::access(options.socket_path.c_str(), F_OK), 0) << port;
  }
  EXPECT_EQ(svc::checked_tcp_port(65535, "p"), 65535);
  EXPECT_THROW(svc::checked_tcp_port(0, "p"), precondition_error);
  EXPECT_THROW(svc::checked_tcp_port(70000, "p"), precondition_error);
  EXPECT_THROW(svc::Client::connect_tcp("127.0.0.1", 70000),
               precondition_error);
}

TEST(SvcServer, OptionalTcpListenerSpeaksTheSameFraming) {
  svc::ServerOptions options;
  options.socket_path = unique_socket_path("tcp");
  options.workers = 2;
  options.tcp_port = 38461;  // fixed test port; skip if taken
  svc::Server server(options);
  try {
    server.start();
  } catch (const io_error& e) {
    GTEST_SKIP() << "TCP port unavailable: " << e.what();
  }
  {
    svc::Client tcp = svc::Client::connect_tcp("127.0.0.1", options.tcp_port);
    svc::Client unixc = svc::Client::connect_unix(options.socket_path);
    svc::Request req;
    req.id = "t";
    req.kind = svc::RequestKind::kMap;
    req.tasks = "stencil2d:4x4";
    req.topology = "torus:4x4";
    const svc::Response a = tcp.call(req);
    const svc::Response b = unixc.call(req);
    ASSERT_TRUE(a.ok) << a.error.message;
    // Byte-identical across transports.
    EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  }
  server.stop();
  server.join();
}

}  // namespace
