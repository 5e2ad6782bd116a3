// served-mix: an in-process topomapd (svc::Server, 2 workers) driven by a
// closed loop of one svc::Client connection over a unix socket.  One
// request is in flight at a time: with two, the process keeps two vCPUs
// busy and hypervisor steal on the second swings its latencies with host
// load (README.md, "Noise").  For the same reason a session's client and
// server threads share one CPU.
//
// The request schedule is generated from the benchmark seed and repeats in
// rounds of kRound requests.  Each block of 10 holds 5 map, 1 explain,
// 1 evacuate, 1 optimal, 1 status and 1 cold request in a seeded order; the
// four hot kinds each use one pooled machine, and every cold request is a
// map on a machine with random node faults under a fresh fault seed.  With
// every hot machine touched in every block, at most two cold entries enter
// the 8-entry pool between two touches of a hot one (LRU would need five),
// so the hot machines stay resident and every round costs exactly the same
// pool hits, misses and evictions.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "core/metrics.hpp"
#include "graph/factory.hpp"
#include "obs/registry.hpp"
#include "runtime/rank_reorder.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "svc/client.hpp"
#include "svc/frame.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"
#include "topo/fault_spec.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace svc = topomap::svc;
namespace json = topomap::support::json;
using topomap::Rng;

constexpr int kWorkers = 2;
constexpr int kBlocksPerRound = 10;
constexpr int kRound = 10 * kBlocksPerRound;  // requests per round
constexpr int kVariants = 2;                  // request seeds per hot kind
constexpr int kColdNodeFaults = 4;
constexpr int kWarmColds = 4;  // fills the pool to its capacity of 8
constexpr std::int64_t kMinRequests = 1000;  // p99 with >= 10 samples beyond
constexpr std::int64_t kWarmIndexBase = 1000000000;

enum MixKind { kMap, kExplain, kEvacuate, kOptimal, kStatus, kCold };
const char* const kKindNames[] = {"map",     "explain", "evacuate",
                                  "optimal", "status",  "cold"};

struct Template {
  MixKind kind;
  svc::Request req;
  std::string reference;  ///< served result bytes; empty for status/cold

  bool cold() const { return kind == kCold; }
};

struct Plan {
  std::uint64_t seed = 1;
  std::vector<Template> templates;
  std::vector<int> round;  ///< template index per round position

  /// The request sent as global schedule position `index`.
  svc::Request request(std::int64_t index) const {
    const Template& t = templates[static_cast<std::size_t>(
        round[static_cast<std::size_t>(index % kRound)])];
    svc::Request req = t.req;
    char id[24];
    std::snprintf(id, sizeof id, "q%lld", static_cast<long long>(index));
    req.id = id;
    if (t.cold()) req.fault_seed = cold_fault_seed(index);
    return req;
  }

  /// Distinct for every index of a run (indices stay below 2^31), so every
  /// cold request is a miss.  Kept below 2^53 for any seed: the protocol
  /// carries it as a JSON number, which holds integers exactly only up to
  /// there.
  std::uint64_t cold_fault_seed(std::int64_t index) const {
    return (seed % (std::uint64_t{1} << 21)) << 31 |
           static_cast<std::uint64_t>(index);
  }
};

Plan make_plan(std::uint64_t seed) {
  Plan plan;
  plan.seed = seed;
  Rng rng(seed);
  const auto request_seed = [&] { return 1 + rng.uniform(1000000); };
  const std::string failed_node = std::to_string(rng.uniform(128));

  // templates[kind * kVariants + v] for the four hot kinds.
  for (int v = 0; v < kVariants; ++v) {
    svc::Request r;
    r.kind = svc::RequestKind::kMap;
    r.tasks = "stencil2d:16x16";
    r.topology = "torus:8x8x4";
    r.strategy = "topolb+refine";
    r.seed = request_seed();
    plan.templates.push_back({kMap, r, {}});
  }
  for (int v = 0; v < kVariants; ++v) {
    svc::Request r;
    r.kind = svc::RequestKind::kExplain;
    r.tasks = "stencil3d:4x4x8";
    r.topology = "torus:4x4x8";
    r.strategy = "topolb";
    r.baseline = "random";
    r.seed = request_seed();
    plan.templates.push_back({kExplain, r, {}});
  }
  for (int v = 0; v < kVariants; ++v) {
    svc::Request r;
    r.kind = svc::RequestKind::kEvacuate;
    r.tasks = "stencil2d:15x8";
    r.topology = "torus:16x8";
    r.strategy = "topolb";
    r.fail_node = failed_node;
    r.seed = request_seed();
    plan.templates.push_back({kEvacuate, r, {}});
  }
  for (int v = 0; v < kVariants; ++v) {
    svc::Request r;
    r.kind = svc::RequestKind::kOptimal;
    r.tasks = "stencil2d:3x3";
    r.topology = "torus:3x3";
    r.seed = request_seed();
    plan.templates.push_back({kOptimal, r, {}});
  }
  {
    svc::Request r;
    r.kind = svc::RequestKind::kStatus;
    plan.templates.push_back({kStatus, r, {}});
  }
  {
    svc::Request r;
    r.kind = svc::RequestKind::kMap;
    r.tasks = "stencil2d:15x16";
    r.topology = "torus:8x8x4";
    r.strategy = "topolb+refine";
    r.random_node_faults = kColdNodeFaults;
    r.seed = request_seed();
    plan.templates.push_back({kCold, r, {}});
  }

  // The shares are synthetic: no recorded topomapd traffic exists.  Map is
  // half of it so that op_p50_ms lands inside the map latency cluster
  // rather than on the edge between two kinds.
  const int block[] = {kMap,      kMap,     kMap,    kMap,    kMap,
                       kExplain, kEvacuate, kOptimal, kStatus, kCold};
  for (int b = 0; b < kBlocksPerRound; ++b) {
    std::vector<int> entries;
    for (int kind : block) {
      if (kind == kStatus) entries.push_back(4 * kVariants);
      else if (kind == kCold) entries.push_back(4 * kVariants + 1);
      else
        entries.push_back(kind * kVariants +
                          static_cast<int>(rng.uniform(kVariants)));
    }
    for (std::size_t i = entries.size() - 1; i > 0; --i)
      std::swap(entries[i], entries[rng.uniform(i + 1)]);
    plan.round.insert(plan.round.end(), entries.begin(), entries.end());
  }
  return plan;
}

/// Reference bytes of every hot template, from an in-process
/// svc::Service::handle (the served ≡ in-process contract).  Computed after
/// set-up time is read: it is the benchmark's checking work, not set-up.
void compute_references(Plan& plan, Result& r) {
  svc::Service reference;
  for (Template& t : plan.templates) {
    if (t.cold() || t.kind == kStatus) continue;
    svc::Request req = t.req;
    req.id = "ref";
    const svc::Response resp = reference.handle(req);
    r.check(resp.ok, "reference request failed: " + resp.error.message);
    t.reference = resp.result.dump();
  }
}

bool acquires(const Template& t) { return t.kind != kStatus; }

/// Cold responses are checked for validity: every task on an alive
/// processor of the faulted machine, and hops-per-byte recomputed from the
/// returned mapping equal to the reported value.
bool cold_valid(const svc::Request& req, const svc::Response& resp) {
  Rng rng(req.seed);
  const topomap::graph::TaskGraph g =
      topomap::graph::make_task_graph(req.tasks, rng);
  const auto overlay = topomap::topo::build_fault_overlay(
      topomap::topo::make_topology(req.topology), req.fault_spec());
  std::istringstream is(resp.result.at("mapping").as_string());
  const topomap::core::Mapping m = topomap::rts::read_rank_mapping(is);
  if (static_cast<int>(m.size()) != g.num_vertices()) return false;
  for (int p : m)
    if (p < 0 || p >= overlay->size() || !overlay->is_alive(p)) return false;
  return topomap::core::hops_per_byte(g, *overlay, m) ==
         resp.result.at("hops_per_byte").as_number();
}

/// One timed request.  Responses are checked as they arrive, outside the
/// timed call, and not kept (an explain reply is ~0.4 MB of JSON).
struct Sample {
  std::int64_t index = 0;
  double rtt_us = 0.0;
  bool ok = false;
  double encode_us = 0.0;  ///< traced sessions only
  double decode_us = 0.0;  ///< traced sessions only
};

/// Server-side stage timings of one request.  The event log names each
/// correlation id's request; the flight recorder gives the stage durations
/// at nanosecond resolution (the log rounds them to whole microseconds,
/// too coarse for the microsecond-scale stages).
struct Stages {
  std::int64_t index = -1;
  std::string kind;
  double queue_wait_us = 0.0;
  double acquire_us = 0.0;
  double kernel_us = 0.0;
  double total_us = 0.0;
};

class Session {
 public:
  /// Start the server and run set-up: one warm-up request per template
  /// over the wire plus enough cold requests to fill the pool.  The
  /// responses are kept and checked by check_warmups(), so that set-up
  /// time can be read before any checking.
  Session(const Plan& plan, const Options& opt, bool traced, Result& r)
      : plan_(plan), traced_(traced), r_(r) {
    const std::string tag = std::to_string(::getpid()) + "-" +
                            std::to_string(next_session_++);
    svc::ServerOptions so;
    so.socket_path = opt.work_dir + "/sock-" + tag;
    so.workers = kWorkers;
    if (traced) {
      event_log_ = opt.work_dir + "/events-" + tag + ".jsonl";
      so.service.event_log_path = event_log_;
      so.service.event_log_max_bytes = std::size_t{1} << 30;
      so.service.flight_capacity = std::size_t{1} << 17;
    }
    socket_ = so.socket_path;
    server_ = std::make_unique<svc::Server>(so);
    server_->start();

    // Cold entries first, hot machines last: the pool ends full with the
    // hot machines most recently used, so every timed cold request evicts
    // a cold entry.
    svc::Client client = svc::Client::connect_unix(socket_);
    std::int64_t warm = kWarmIndexBase;
    const auto send = [&](const Template& tmpl) {
      svc::Request req = tmpl.req;
      req.id = "w" + std::to_string(warm);
      if (tmpl.cold()) req.fault_seed = plan_.cold_fault_seed(warm);
      ++warm;
      svc::Response resp = client.call(req);
      warmups_.push_back({&tmpl, std::move(req), std::move(resp)});
    };
    for (const Template& t : plan_.templates)
      for (int c = 0; t.cold() && c < kWarmColds; ++c) send(t);
    for (const Template& t : plan_.templates)
      if (!t.cold()) send(t);
  }

  ~Session() { stop(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Check the warm-up responses against the plan's references, which
  /// must be computed by now.
  void check_warmups() {
    for (const Warmup& w : warmups_)
      r_.check(check(*w.t, w.req, w.resp),
               "warm-up request " + w.req.id + " failed its output check");
    warmups_.clear();
  }

  /// Closed loop of one client over whole rounds: runs until `seconds`
  /// have passed and at least `min_requests` completed.  Responses are
  /// checked between requests, outside the timed calls.  The warm-up
  /// responses are checked first.
  void run(double seconds, std::int64_t min_requests) {
    check_warmups();
    before_ = server_->cache_stats();
    svc::Client client = svc::Client::connect_unix(socket_);
    const auto start = Clock::now();
    for (std::int64_t i = 0;; ++i) {
      // Stop only on a round boundary, so every round's pool traffic is
      // whole.
      if (i % kRound == 0 && i >= min_requests &&
          ms_between(start, Clock::now()) >= seconds * 1000.0)
        break;
      const svc::Request req = plan_.request(i);
      const auto t0 = Clock::now();
      const svc::Response resp = client.call(req);
      Sample sample{i, ms_between(t0, Clock::now()) * 1000.0,
                    check(templ(i), req, resp)};
      if (traced_) time_codec(req, resp, &sample);
      samples_.push_back(sample);
    }
    after_ = server_->cache_stats();
    rounds_ = static_cast<std::int64_t>(samples_.size()) / kRound;
  }

  /// Check every timed response; counts attempted/failed into the result.
  void check_samples() {
    for (const Sample& s : samples_) {
      ++r_.attempted;
      if (!s.ok) {
        ++r_.failed;
        r_.check(false, "request q" + std::to_string(s.index) +
                            " failed its output check");
      }
    }
    // Pool behaviour repeats exactly: every cold request misses and evicts
    // one cold entry, every other acquiring request hits.
    std::int64_t hot = 0, cold = 0;
    for (int idx : plan_.round) {
      const Template& t = plan_.templates[static_cast<std::size_t>(idx)];
      if (t.cold()) ++cold;
      else if (acquires(t)) ++hot;
    }
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<std::int64_t>(b - a);
    };
    r_.check(delta(before_.hits, after_.hits) == hot * rounds_ &&
                 delta(before_.misses, after_.misses) == cold * rounds_ &&
                 delta(before_.evictions, after_.evictions) == cold * rounds_,
             "pool hits/misses/evictions differ from the schedule's");
  }

  /// Stop the server (drains and joins); idempotent.
  void stop() {
    if (stopped_ || !server_) return;
    stopped_ = true;
    server_->stop();
    server_->join();
  }

  /// Per-request server stages of the timed requests (traced sessions).
  std::vector<Stages> stages() {
    stop();
    std::map<std::string, Stages> by_corr;
    std::ifstream is(event_log_);
    for (std::string line; std::getline(is, line);) {
      const json::Value doc = json::Value::parse(line);
      const std::string& id = doc.at("id").as_string();
      if (id.empty() || id[0] != 'q') continue;
      Stages s;
      s.index = std::stoll(id.substr(1));
      s.kind = doc.at("kind").as_string();
      by_corr[doc.at("corr").as_string()] = s;
    }
    std::remove(event_log_.c_str());
    const svc::FlightRecorder& flight = server_->service().flight();
    r_.check(flight.total_recorded() <= flight.capacity(),
             "flight recorder wrapped; stage timings incomplete");
    std::map<std::string, std::uint64_t> enqueue_ns;
    for (const svc::FlightEvent& e : flight.snapshot()) {
      const auto it = by_corr.find(e.corr);
      if (it == by_corr.end()) continue;
      Stages& s = it->second;
      const std::string stage = e.stage;
      if (stage == "enqueue") enqueue_ns[e.corr] = e.t_ns;
      else if (stage == "acquire") s.acquire_us += static_cast<double>(e.dur_ns) / 1e3;
      else if (stage == "done") {
        s.total_us = static_cast<double>(e.dur_ns) / 1e3;
        s.queue_wait_us =
            static_cast<double>(e.t_ns - enqueue_ns[e.corr]) / 1e3;
      }
    }
    std::vector<Stages> out;
    for (auto& [corr, s] : by_corr) {
      s.kernel_us = s.total_us - s.acquire_us;
      out.push_back(s);
    }
    return out;
  }

  const Template& templ(std::int64_t index) const {
    return plan_.templates[static_cast<std::size_t>(
        plan_.round[static_cast<std::size_t>(index % kRound)])];
  }
  const std::vector<Sample>& samples() const { return samples_; }
  std::int64_t rounds() const { return rounds_; }
  svc::CachePoolStats before() const { return before_; }
  svc::CachePoolStats after() const { return after_; }

 private:
  /// Client-side codec cost of one exchange, timed apart from the round
  /// trip: request JSON + framing, and response parse from its wire bytes.
  static void time_codec(const svc::Request& req, const svc::Response& resp,
                         Sample* sample) {
    auto t0 = Clock::now();
    const std::string frame = svc::encode_frame(req.to_json().dump());
    sample->encode_us = ms_between(t0, Clock::now()) * 1000.0;
    const std::string payload = resp.to_json().dump();
    t0 = Clock::now();
    const svc::Response back =
        svc::Response::from_json(json::Value::parse(payload));
    sample->decode_us = ms_between(t0, Clock::now()) * 1000.0;
    if (back.id != resp.id || frame.empty()) sample->ok = false;
  }

  bool check(const Template& t, const svc::Request& req,
             const svc::Response& resp) const {
    if (!resp.ok) return false;
    if (t.cold()) return cold_valid(req, resp);
    if (t.kind == kStatus) return resp.result.find("cache") != nullptr;
    return resp.result.dump() == t.reference;
  }

  struct Warmup {
    const Template* t;
    svc::Request req;
    svc::Response resp;
  };

  static inline int next_session_ = 0;
  const Plan& plan_;
  bool traced_;
  Result& r_;
  CpuPin pin_;  // the server's threads start after it, so they inherit it
  std::string socket_;
  std::string event_log_;
  std::unique_ptr<svc::Server> server_;
  bool stopped_ = false;
  std::vector<Warmup> warmups_;
  std::vector<Sample> samples_;
  std::int64_t rounds_ = 0;
  svc::CachePoolStats before_, after_;
};

std::vector<double> rtt_ms(const Session& s) {
  std::vector<double> v;
  for (const Sample& x : s.samples()) v.push_back(x.rtt_us / 1000.0);
  return v;
}

/// The share-weighted sum of per-kind round-trip medians, i.e. the mean
/// time per request if each request took its kind's median.  It and the
/// per-kind medians go to the diagnostics, not the gated metrics: the cold
/// and explain kinds that carry it swing with the host's memory contention
/// (README.md, "Noise").
void add_mix_diagnostics(Result& r, const Session& s) {
  std::map<MixKind, std::vector<double>> by_kind;
  for (const Sample& x : s.samples())
    by_kind[s.templ(x.index).kind].push_back(x.rtt_us / 1000.0);
  const double n = static_cast<double>(s.samples().size());
  double sum = 0.0;
  for (const auto& [kind, ms] : by_kind) {
    const double p50 = median(ms);
    r.diagnostic(std::string("p50_ms.") + kKindNames[kind], p50);
    sum += static_cast<double>(ms.size()) / n * p50;
  }
  r.diagnostic("mix_p50_ms", sum);
}

/// svc.* layer metrics of a traced session.
void emit_svc_layers(Result& r, Session& s) {
  std::vector<double> encode, decode;
  std::map<std::int64_t, double> rtt;
  for (const Sample& x : s.samples()) {
    encode.push_back(x.encode_us);
    decode.push_back(x.decode_us);
    rtt[x.index] = x.rtt_us;
  }
  std::vector<double> queue, hot_acq, cold_acq, wire;
  std::map<std::string, std::vector<double>> kernel;
  for (const Stages& st : s.stages()) {
    const Template& t = s.templ(st.index);
    queue.push_back(st.queue_wait_us);
    if (t.cold()) cold_acq.push_back(st.acquire_us);
    else if (acquires(t)) hot_acq.push_back(st.acquire_us);
    if (!t.cold()) kernel[st.kind].push_back(st.kernel_us);
    if (const auto it = rtt.find(st.index); it != rtt.end())
      wire.push_back(it->second - st.total_us);
  }
  r.check(wire.size() == s.samples().size(),
          "event log misses timed requests");
  r.metric("svc.encode_us", median(encode));
  r.metric("svc.decode_us", median(decode));
  r.metric("svc.queue_wait_us", median(queue));
  r.metric("svc.acquire_us.hot", median(hot_acq));
  r.metric("svc.acquire_us.cold", median(cold_acq));
  for (const char* kind : {"map", "explain", "evacuate", "optimal", "status"})
    r.metric(std::string("svc.kernel_us.") + kind, median(kernel[kind]));
  r.metric("svc.wire_us", median(wire));
  const double rounds = static_cast<double>(std::max<std::int64_t>(1, s.rounds()));
  r.metric("svc.pool_hits",
           static_cast<double>(s.after().hits - s.before().hits) / rounds);
  r.metric("svc.pool_misses",
           static_cast<double>(s.after().misses - s.before().misses) / rounds);
  r.metric("svc.pool_evictions",
           static_cast<double>(s.after().evictions - s.before().evictions) /
               rounds);
}

}  // namespace

void add_served_companion(Result& r, const Options& opt, int rounds) {
  Plan plan = make_plan(opt.seed);
  compute_references(plan, r);
  Session s(plan, opt, /*traced=*/true, r);
  s.run(0.0, static_cast<std::int64_t>(rounds) * kRound);
  s.check_samples();
  emit_svc_layers(r, s);
}

Result run_served(const Options& opt) {
  topomap::support::set_num_threads(1);  // kernels run inline per request
  topomap::obs::set_enabled(opt.trace);
  Result r;
  Plan plan = make_plan(opt.seed);

  if (!opt.trace) {
    Session s(plan, opt, false, r);
    // Set-up ends with the pool warm; the references and the warm-up
    // checks are the benchmark's own work.
    r.setup_s = setup_seconds(opt);
    compute_references(plan, r);
    s.check_warmups();
    if (opt.setup_only) return r;
    const CpuTicks c0 = read_cpu_ticks();
    s.run(opt.seconds, kMinRequests);
    const CpuTicks c1 = read_cpu_ticks();
    s.stop();
    s.check_samples();
    const std::vector<double> ms = rtt_ms(s);
    // Quality over the map responses of one round (every round repeats
    // them, byte-checked above).
    std::vector<double> hpb, max_link;
    for (int idx : plan.round) {
      const Template& t = plan.templates[static_cast<std::size_t>(idx)];
      if (t.kind != kMap) continue;
      const json::Value res = json::Value::parse(t.reference);
      hpb.push_back(res.at("hops_per_byte").as_number());
      max_link.push_back(res.at("link_loads").at("max_bytes").as_number());
    }
    r.metric("op_p50_ms", median(ms));
    r.metric("hops_per_byte", mean(hpb));
    r.metric("max_link_bytes", mean(max_link));
    r.metric("peak_rss_mb", peak_rss_mb());
    r.metric("success_rate", static_cast<double>(r.attempted - r.failed) /
                                 static_cast<double>(r.attempted));
    add_mix_diagnostics(r, s);
    r.diagnostic("op_samples", static_cast<double>(ms.size()));
    r.diagnostic("op_tail_ms", quantile(ms, tail_quantile(ms.size())));
    r.diagnostic("throughput_rps", 1000.0 / mean(ms));
    r.diagnostic("rounds", static_cast<double>(s.rounds()));
    add_host_diagnostics(r, c0, c1, false);
    return r;
  }

  // Traced run: an untraced and a traced session of half the time each;
  // their p50 difference is the tracing overhead.
  compute_references(plan, r);
  const CpuTicks c0 = read_cpu_ticks();
  double plain_p50 = 0.0;
  {
    Session s(plan, opt, false, r);
    s.run(opt.seconds / 2.0, kMinRequests);
    s.stop();
    s.check_samples();
    const std::vector<double> ms = rtt_ms(s);
    plain_p50 = median(ms);
    r.metric("op.tail_ms", quantile(ms, tail_quantile(ms.size())));
    // Closed loop with no think time: the benchmark's own response checks
    // between requests are not counted.
    r.metric("op.throughput_rps", 1000.0 / mean(ms));
  }
  double traced_p50 = 0.0;
  {
    Session s(plan, opt, true, r);
    s.run(opt.seconds / 2.0, kMinRequests / 2);
    s.stop();
    s.check_samples();
    traced_p50 = median(rtt_ms(s));
    emit_svc_layers(r, s);
  }
  const CpuTicks c1 = read_cpu_ticks();

  // The one-shot layers of the hot map request, whose served bytes the
  // one-shot path must reproduce.
  const svc::Request& map_req = plan.templates[0].req;
  const json::Value map_ref = json::Value::parse(plan.templates[0].reference);
  add_oneshot_companion(
      r, {map_req.tasks, map_req.topology, map_req.strategy, false},
      map_req.seed, 10, map_ref.at("mapping").as_string());
  add_hier_probe(r, opt.seed);
  add_pool_probe(r, opt.seed);
  r.metric("trace.overhead_pct", 100.0 * (traced_p50 / plain_p50 - 1.0));
  add_host_diagnostics(r, c0, c1, true);
  return r;
}

}  // namespace perfbench
