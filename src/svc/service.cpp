#include "svc/service.hpp"

#include <cctype>
#include <filesystem>
#include <iostream>
#include <utility>

#include "core/contention.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "ops/ops.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "svc/metrics.hpp"

namespace topomap::svc {

namespace {

json::Value fault_summary(const topo::FaultOverlay& overlay) {
  json::Value v = json::Value::object();
  v.set("failed_nodes", overlay.num_failed_nodes());
  v.set("failed_links", overlay.num_failed_links());
  v.set("degraded_links", overlay.num_degraded_links());
  v.set("alive", overlay.num_alive());
  v.set("size", overlay.size());
  return v;
}

json::Value pool_stats(const CachePoolStats& cs) {
  json::Value v = json::Value::object();
  v.set("hits", cs.hits);
  v.set("misses", cs.misses);
  v.set("evictions", cs.evictions);
  v.set("entries", cs.entries);
  v.set("capacity", cs.capacity);
  return v;
}

json::Value to_json(const ops::MapResult& r) {
  const ops::Machine& machine = *r.machine;
  json::Value result = json::Value::object();
  result.set("workload", r.graph.label());
  result.set("edges", r.graph.num_edges());
  result.set("comm_bytes", r.graph.total_comm_bytes());
  result.set("machine", machine.base->name());
  result.set("strategy", r.strategy);
  if (machine.overlay) result.set("faults", fault_summary(*machine.overlay));
  if (!r.partition_note.empty()) {
    result.set("partition", r.partition_note);
    json::Value q = json::Value::array();
    for (int t : r.quarantined) q.push_back(t);
    result.set("quarantined", std::move(q));
  }
  result.set("hop_bytes", r.metrics.hop_bytes);
  result.set("hops_per_byte", r.metrics.hops_per_byte);
  if (const auto& links = r.metrics.link_loads) {
    json::Value ll = json::Value::object();
    ll.set("max_bytes", links->max_bytes);
    ll.set("mean_bytes", links->mean_bytes);
    ll.set("links_used", links->links_used);
    ll.set("links_total", links->links_total);
    result.set("link_loads", std::move(ll));
  } else {
    result.set("link_loads", json::Value());  // no processor-level routes
  }
  result.set("mapping", ops::mapping_text(r.mapping));
  return result;
}

json::Value to_json(const ops::ExplainResult& r, const Request& req) {
  const ops::Machine& machine = *r.machine;
  json::Value result = json::Value::object();
  result.set("workload", r.graph.label());
  result.set("machine", machine.base->name());
  result.set("strategy", r.strategy);
  if (machine.overlay) result.set("faults", fault_summary(*machine.overlay));
  result.set("hop_bytes", r.hop_bytes);
  result.set("stats", core::contention_stats_to_json(r.attribution.stats));
  result.set("links", core::contention_links_to_json(r.attribution, req.top_k));
  if (const auto& baseline = r.baseline) {
    json::Value b = json::Value::object();
    b.set("strategy", req.baseline);
    b.set("blind", req.baseline_blind);
    b.set("stats", core::contention_stats_to_json(baseline->attribution.stats));
    result.set("baseline", std::move(b));
    result.set("diff",
               core::contention_diff_to_json(baseline->diff, req.top_k));
  }
  result.set("mapping", ops::mapping_text(r.mapping));
  return result;
}

json::Value to_json(const ops::EvacuateResult& r) {
  const rts::EvacuateComparison& cmp = r.comparison;
  json::Value result = json::Value::object();
  result.set("workload", r.graph.label());
  result.set("machine", r.machine->base->name());
  result.set("strategy", r.strategy);
  result.set("faults", fault_summary(*r.machine->overlay));
  result.set("hop_bytes_before", r.hop_bytes_before);
  json::Value evac = json::Value::object();
  evac.set("stranded", cmp.evac.stranded);
  evac.set("migrations", cmp.evac.migrations);
  evac.set("refine_swaps", cmp.evac.refine_swaps);
  evac.set("hop_bytes", cmp.evac.hop_bytes);
  evac.set("load_imbalance", cmp.evac.load_imbalance);
  result.set("evacuate", std::move(evac));
  json::Value full = json::Value::object();
  full.set("migrations", cmp.full_migrations);
  full.set("hop_bytes", cmp.full_hop_bytes);
  result.set("full_remap", std::move(full));
  result.set("hop_bytes_ratio", r.hop_bytes_ratio());
  result.set("mapping", ops::mapping_text(cmp.evac.mapping));
  return result;
}

json::Value to_json(const ops::OptimalResult& r) {
  const ops::Machine& machine = *r.machine;
  json::Value result = json::Value::object();
  result.set("workload", r.graph.label());
  result.set("machine", machine.machine().name());
  if (machine.overlay) result.set("faults", fault_summary(*machine.overlay));
  result.set("hop_bytes", r.search.hop_bytes);
  result.set("nodes", static_cast<std::int64_t>(r.search.nodes));
  result.set("pruned", static_cast<std::int64_t>(r.search.pruned));
  result.set("root_candidates", r.search.root_candidates);
  if (r.compare) {
    json::Value cmp = json::Value::object();
    cmp.set("strategy", r.compare->strategy);
    cmp.set("hop_bytes", r.compare->hop_bytes);
    cmp.set("optimality_gap", r.compare->gap);
    result.set("compare", std::move(cmp));
  }
  result.set("mapping", ops::mapping_text(r.search.mapping));
  return result;
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

Response Service::handle(const Request& req) {
  return handle(req, RequestContext{});
}

Response Service::handle(const Request& req, const RequestContext& ctx) {
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
  const std::uint64_t t_start = obs::now_ns();
  const int kind_index = static_cast<int>(req.kind);
  Response resp;
  resp.id = req.id;
  try {
    resp.result = dispatch(req, lc);
  } catch (...) {
    ++failed_;
    ++failed_by_kind_[kind_index];
    OBS_COUNTER_ADD("svc/requests_failed", 1);
    finish_request(req, lc, false, t_start, obs::now_ns() - t_start);
    write_report(req, false);
    return make_error_response(req.id, std::current_exception());
  }
  resp.ok = true;
  ++served_;
  ++served_by_kind_[kind_index];
  OBS_COUNTER_ADD("svc/requests_served", 1);
  finish_request(req, lc, true, t_start, obs::now_ns() - t_start);
  write_report(req, true);
  return resp;
}

json::Value Service::dispatch(const Request& req, Lifecycle& lc) {
  switch (req.kind) {
    case RequestKind::kMap: return to_json(ops::run_map(req, pooled(lc)));
    case RequestKind::kExplain:
      return to_json(ops::run_explain(req, pooled(lc)), req);
    case RequestKind::kEvacuate:
      return to_json(ops::run_evacuate(req, pooled(lc)));
    case RequestKind::kOptimal:
      return to_json(ops::run_optimal(req, pooled(lc)));
    case RequestKind::kStatus: return run_status();
    case RequestKind::kMetrics: return metrics_snapshot();
    case RequestKind::kFlight: return run_flight();
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

void Service::finish_request(const Request& req, const Lifecycle& lc,
                             bool ok, std::uint64_t t_start_ns,
                             std::uint64_t total_ns) {
  flight_.record(lc.corr, lc.kind, ok ? "done" : "error", t_start_ns,
                 total_ns);
  // The kernel stage is the handler time not spent acquiring pooled
  // machine state (serialize happens on the server after handle returns).
  const std::uint64_t kernel_ns =
      total_ns >= lc.acquire_ns ? total_ns - lc.acquire_ns : 0;
  if (obs::enabled()) {
    obs::Registry& reg = obs::Registry::instance();
    const std::string prefix = std::string("svc/") + lc.kind + "/";
    if (lc.queue_wait_ns > 0)
      reg.observe(prefix + "queue_wait_us",
                  static_cast<double>(lc.queue_wait_ns / 1000));
    reg.observe(prefix + "acquire_us",
                static_cast<double>(lc.acquire_ns / 1000));
    reg.observe(prefix + "kernel_us", static_cast<double>(kernel_ns / 1000));
    reg.observe(prefix + "total_us", static_cast<double>(total_ns / 1000));
  }
  if (event_log_.active()) {
    json::Value line = json::Value::object();
    line.set("corr", lc.corr);
    line.set("id", req.id);
    line.set("kind", lc.kind);
    line.set("ok", ok);
    line.set("t_start_ns", t_start_ns);
    line.set("queue_wait_us", lc.queue_wait_ns / 1000);
    line.set("acquire_us", lc.acquire_ns / 1000);
    line.set("kernel_us", kernel_ns / 1000);
    line.set("total_us", total_ns / 1000);
    event_log_.append(line.dump());
  }
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

json::Value Service::run_flight() const {
  return flight_.to_json();
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
