#include "svc/service.hpp"

#include <cctype>
#include <exception>
#include <filesystem>
#include <iostream>
#include <optional>
#include <utility>
#include <variant>

#include "core/contention.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "ops/ops.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "svc/metrics.hpp"

namespace topomap::svc {

namespace {

json::Value pool_stats(const CachePoolStats& cs) {
  json::Value v = json::Value::object();
  v.set("hits", cs.hits);
  v.set("misses", cs.misses);
  v.set("evictions", cs.evictions);
  v.set("entries", cs.entries);
  v.set("capacity", cs.capacity);
  return v;
}

void write_fault_summary(json::Writer& w, const topo::FaultOverlay& overlay) {
  w.begin_object();
  w.member("failed_nodes", overlay.num_failed_nodes());
  w.member("failed_links", overlay.num_failed_links());
  w.member("degraded_links", overlay.num_degraded_links());
  w.member("alive", overlay.num_alive());
  w.member("size", overlay.size());
  w.end_object();
}

/// The "faults" member, present only on a faulted machine.
void write_faults(json::Writer& w, const ops::Machine& machine) {
  if (!machine.overlay) return;
  w.key("faults");
  write_fault_summary(w, *machine.overlay);
}

// One result writer per request kind, each straight from the typed result.

void write_result(json::Writer& w, const ops::MapResult& r, const Request&) {
  const ops::Machine& machine = *r.machine;
  w.begin_object();
  w.member("workload", r.graph.label());
  w.member("edges", r.graph.num_edges());
  w.member("comm_bytes", r.graph.total_comm_bytes());
  w.member("machine", machine.base->name());
  w.member("strategy", r.strategy);
  write_faults(w, machine);
  if (!r.partition_note.empty()) {
    w.member("partition", r.partition_note);
    w.key("quarantined").begin_array();
    for (int t : r.quarantined) w.value(t);
    w.end_array();
  }
  w.member("hop_bytes", r.metrics.hop_bytes);
  w.member("hops_per_byte", r.metrics.hops_per_byte);
  w.key("link_loads");
  if (const auto& links = r.metrics.link_loads) {
    w.begin_object();
    w.member("max_bytes", links->max_bytes);
    w.member("mean_bytes", links->mean_bytes);
    w.member("links_used", links->links_used);
    w.member("links_total", links->links_total);
    w.end_object();
  } else {
    w.null();  // no processor-level routes
  }
  w.member("mapping", ops::mapping_text(r.mapping));
  w.end_object();
}

void write_result(json::Writer& w, const ops::ExplainResult& r,
                  const Request& req) {
  const ops::Machine& machine = *r.machine;
  w.begin_object();
  w.member("workload", r.graph.label());
  w.member("machine", machine.base->name());
  w.member("strategy", r.strategy);
  write_faults(w, machine);
  w.member("hop_bytes", r.hop_bytes);
  w.key("stats");
  core::write_contention_stats(w, r.attribution.stats);
  w.key("links");
  core::write_contention_links(w, r.attribution, req.top_k);
  if (const auto& baseline = r.baseline) {
    w.key("baseline").begin_object();
    w.member("strategy", req.baseline);
    w.member("blind", req.baseline_blind);
    w.key("stats");
    core::write_contention_stats(w, baseline->attribution.stats);
    w.end_object();
    w.key("diff");
    core::write_contention_diff(w, baseline->diff, req.top_k);
  }
  w.member("mapping", ops::mapping_text(r.mapping));
  w.end_object();
}

void write_result(json::Writer& w, const ops::EvacuateResult& r,
                  const Request&) {
  const rts::EvacuateComparison& cmp = r.comparison;
  w.begin_object();
  w.member("workload", r.graph.label());
  w.member("machine", r.machine->base->name());
  w.member("strategy", r.strategy);
  w.key("faults");
  write_fault_summary(w, *r.machine->overlay);
  w.member("hop_bytes_before", r.hop_bytes_before);
  w.key("evacuate").begin_object();
  w.member("stranded", cmp.evac.stranded);
  w.member("migrations", cmp.evac.migrations);
  w.member("refine_swaps", cmp.evac.refine_swaps);
  w.member("hop_bytes", cmp.evac.hop_bytes);
  w.member("load_imbalance", cmp.evac.load_imbalance);
  w.end_object();
  w.key("full_remap").begin_object();
  w.member("migrations", cmp.full_migrations);
  w.member("hop_bytes", cmp.full_hop_bytes);
  w.end_object();
  w.member("hop_bytes_ratio", r.hop_bytes_ratio());
  w.member("mapping", ops::mapping_text(cmp.evac.mapping));
  w.end_object();
}

void write_result(json::Writer& w, const ops::OptimalResult& r,
                  const Request&) {
  const ops::Machine& machine = *r.machine;
  w.begin_object();
  w.member("workload", r.graph.label());
  w.member("machine", machine.machine().name());
  write_faults(w, machine);
  w.member("hop_bytes", r.search.hop_bytes);
  w.member("nodes", static_cast<std::int64_t>(r.search.nodes));
  w.member("pruned", static_cast<std::int64_t>(r.search.pruned));
  w.member("root_candidates", r.search.root_candidates);
  if (r.compare) {
    w.key("compare").begin_object();
    w.member("strategy", r.compare->strategy);
    w.member("hop_bytes", r.compare->hop_bytes);
    w.member("optimality_gap", r.compare->gap);
    w.end_object();
  }
  w.member("mapping", ops::mapping_text(r.search.mapping));
  w.end_object();
}

/// status, metrics and flight: the snapshot tree, embedded.
void write_result(json::Writer& w, const json::Value& snapshot,
                  const Request&) {
  w.value(snapshot);
}

}  // namespace

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      pool_(options_.cache_capacity),
      flight_(options_.flight_capacity) {
  if (!options_.event_log_path.empty())
    event_log_.open(options_.event_log_path, options_.event_log_max_bytes);
}

std::string Service::mint_correlation_id() {
  return "r-" + std::to_string(
                    next_corr_.fetch_add(1, std::memory_order_relaxed));
}

void Service::set_queue_depth_probe(std::function<std::size_t()> probe) {
  queue_depth_probe_ = std::move(probe);
}

std::string Service::respond(const Request& req, const RequestContext& ctx) {
  // Mapping kernels run their parallel regions inline on this serving
  // thread: request-level concurrency is the only concurrency, and the
  // thread-count-invariance contract keeps results byte-identical.
  support::InlineScope inline_scope;
  OBS_SPAN("svc/request");
  Lifecycle lc;
  lc.kind = to_string(req.kind);
  lc.corr = ctx.corr.empty() ? mint_correlation_id() : ctx.corr;
  if (ctx.enqueue_ns != 0 && ctx.dequeue_ns >= ctx.enqueue_ns)
    lc.queue_wait_ns = ctx.dequeue_ns - ctx.enqueue_ns;
  lc.t_start_ns = obs::now_ns();
  std::optional<Outcome> outcome;
  std::exception_ptr error;
  try {
    outcome.emplace(dispatch(req, lc));
  } catch (...) {
    error = std::current_exception();
  }
  lc.total_ns = obs::now_ns() - lc.t_start_ns;
  lc.ok = error == nullptr;
  record_done(lc);

  // Serialize: the typed result straight to the wire bytes.  A result
  // the writer rejects (a non-finite number) becomes an error response.
  const std::uint64_t t0 = obs::now_ns();
  std::string out;
  if (lc.ok) {
    try {
      json::Writer w(out);
      write_response(w, req.id, nullptr, [&](json::Writer& rw) {
        std::visit([&](const auto& r) { write_result(rw, r, req); },
                   *outcome);
      });
    } catch (...) {
      error = std::current_exception();
      lc.ok = false;
      out.clear();
    }
  }
  if (!lc.ok) out = make_error_response(req.id, error).dump();
  const std::uint64_t dur = obs::now_ns() - t0;
  flight_.record(lc.corr, lc.kind, "serialize", t0, dur);
  if (obs::enabled()) {
    const std::string prefix = std::string("svc/") + lc.kind + "/";
    obs::Registry& reg = obs::Registry::instance();
    reg.observe(prefix + "serialize_us", static_cast<double>(dur / 1000));
    reg.observe(prefix + "response_bytes", static_cast<double>(out.size()));
  }
  finish_request(req, lc);
  return out;
}

Response Service::handle(const Request& req, const RequestContext& ctx) {
  return Response::from_json(json::Value::parse(respond(req, ctx)));
}

Service::Outcome Service::dispatch(const Request& req, Lifecycle& lc) {
  switch (req.kind) {
    case RequestKind::kMap: return ops::run_map(req, pooled(lc));
    case RequestKind::kExplain: return ops::run_explain(req, pooled(lc));
    case RequestKind::kEvacuate: return ops::run_evacuate(req, pooled(lc));
    case RequestKind::kOptimal: return ops::run_optimal(req, pooled(lc));
    case RequestKind::kStatus: return run_status();
    case RequestKind::kMetrics: return metrics_snapshot();
    case RequestKind::kFlight: return flight_.to_json();
  }
  TOPOMAP_UNREACHABLE("unhandled RequestKind");
}

ops::MachinePtr Service::acquire_timed(const std::string& topology,
                                       const topo::FaultSpec& faults,
                                       Lifecycle& lc) {
  const std::uint64_t t0 = obs::now_ns();
  ops::MachinePtr entry = pool_.acquire(topology, faults);
  const std::uint64_t dur = obs::now_ns() - t0;
  lc.acquire_ns += dur;
  flight_.record(lc.corr, lc.kind, "acquire", t0, dur);
  return entry;
}

void Service::record_done(const Lifecycle& lc) {
  flight_.record(lc.corr, lc.kind, lc.ok ? "done" : "error", lc.t_start_ns,
                 lc.total_ns);
  if (!obs::enabled()) return;
  obs::Registry& reg = obs::Registry::instance();
  const std::string prefix = std::string("svc/") + lc.kind + "/";
  if (lc.queue_wait_ns > 0)
    reg.observe(prefix + "queue_wait_us",
                static_cast<double>(lc.queue_wait_ns / 1000));
  reg.observe(prefix + "acquire_us", static_cast<double>(lc.acquire_ns / 1000));
  reg.observe(prefix + "kernel_us",
              static_cast<double>(lc.kernel_ns() / 1000));
  reg.observe(prefix + "total_us", static_cast<double>(lc.total_ns / 1000));
}

void Service::finish_request(const Request& req, const Lifecycle& lc) {
  const int kind_index = static_cast<int>(req.kind);
  if (lc.ok) {
    ++served_;
    ++served_by_kind_[kind_index];
    OBS_COUNTER_ADD("svc/requests_served", 1);
  } else {
    ++failed_;
    ++failed_by_kind_[kind_index];
    OBS_COUNTER_ADD("svc/requests_failed", 1);
  }
  if (event_log_.active()) {
    json::Value line = json::Value::object();
    line.set("corr", lc.corr);
    line.set("id", req.id);
    line.set("kind", lc.kind);
    line.set("ok", lc.ok);
    line.set("t_start_ns", lc.t_start_ns);
    line.set("queue_wait_us", lc.queue_wait_ns / 1000);
    line.set("acquire_us", lc.acquire_ns / 1000);
    line.set("kernel_us", lc.kernel_ns() / 1000);
    line.set("total_us", lc.total_ns / 1000);
    event_log_.append(line.dump());
  }
  write_report(req, lc.ok);
}

ops::MachineSource Service::pooled(Lifecycle& lc) {
  return [this, &lc](const std::string& topology,
                     const topo::FaultSpec& faults) {
    return acquire_timed(topology, faults, lc);
  };
}

json::Value Service::run_status() const {
  json::Value result = json::Value::object();
  result.set("requests_served", served_.load());
  result.set("requests_failed", failed_.load());
  result.set("cache", pool_stats(pool_.stats()));
  return result;
}

json::Value Service::metrics_snapshot() const {
  json::Value doc = json::Value::object();
  doc.set("schema", kMetricsSchemaName);
  doc.set("schema_version", kMetricsSchemaVersion);

  json::Value requests = json::Value::object();
  requests.set("served", served_.load());
  requests.set("failed", failed_.load());
  // Every kind is always present so the deterministic key set never
  // depends on which kinds happened to be exercised.
  json::Value by_kind = json::Value::object();
  for (int i = 0; i < kNumRequestKinds; ++i) {
    json::Value counts = json::Value::object();
    counts.set("served", served_by_kind_[i].load());
    counts.set("failed", failed_by_kind_[i].load());
    by_kind.set(to_string(static_cast<RequestKind>(i)), std::move(counts));
  }
  requests.set("by_kind", std::move(by_kind));
  doc.set("requests", std::move(requests));

  doc.set("queue_depth",
          queue_depth_probe_ ? queue_depth_probe_() : std::size_t{0});

  doc.set("pool", pool_stats(pool_.stats()));

  // The bucket layout is a compile-time property of obs::Histogram — a
  // fixed descriptor, not per-run boundary lists, so this section is
  // byte-identical across runs by construction.
  json::Value scheme = json::Value::object();
  scheme.set("kind", "log2-linear");
  scheme.set("sub_buckets", obs::Histogram::kSubBuckets);
  scheme.set("buckets", obs::Histogram::kBucketCount);
  doc.set("bucket_scheme", std::move(scheme));

  json::Value hists = json::Value::object();
  for (const auto& [name, h] : obs::Registry::instance().histograms())
    hists.set(name, obs::histogram_to_json(h));
  doc.set("histograms", std::move(hists));
  return doc;
}

void Service::write_report(const Request& req, bool ok) const {
  if (options_.report_dir.empty()) return;
  obs::Report report;
  report.set_meta("command", std::string("svc/") + to_string(req.kind));
  report.set_meta("request_id", req.id);
  report.set_meta("workload", req.tasks);
  report.set_meta("machine", req.topology);
  report.set_meta("strategy", req.strategy);
  report.set_meta("seed", std::to_string(req.seed));
  report.set_meta("ok", ok ? "true" : "false");
  report.capture();
  std::string name;
  for (char c : req.id)
    name.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  try {
    std::error_code ec;
    std::filesystem::create_directories(options_.report_dir, ec);
    report.write_file(options_.report_dir + "/req-" + name + ".json");
  } catch (const std::exception& e) {
    // Artifact I/O must not poison an already-computed response.
    std::cerr << "topomapd: warning: request report dropped: " << e.what()
              << "\n";
  }
}

}  // namespace topomap::svc
