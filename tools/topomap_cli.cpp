// topomap — command-line front end.
//
//   topomap map       --tasks=<spec> --topology=<spec> --strategy=<spec>
//   topomap simulate  ... same, plus network knobs; runs the DES
//   topomap partition --tasks=<spec> --parts=K [--partitioner=multilevel]
//   topomap pipeline  --tasks=<spec> --topology=<spec>  (objects > procs)
//   topomap evacuate  map, inject faults, repair the placement
//
// map/simulate/explain/evacuate/optimal run the ops:: command core — the
// code topomapd serves — and only parse flags and render results here;
// simulate and explain's timeline add the netsim runs.  All accept fault
// injection: --fail-link=a:b[,c:d...], --fail-node=p[,q...],
// --degrade-link=a:b:health[,...] (soft faults), and/or
// --random-{link,node}-faults=K / --random-degrades=K drawn with
// --fault-seed.  Mapping then targets the alive processors, avoids
// degraded links via the health-weighted distance plane, and the simulator
// routes around failed links and serialises slower on degraded ones.
//
// Workload specs: graph::make_task_graph (stencil2d:16x16, md:8x6x5,
// er:100:0.05, file:path, ...).  Machine specs: topo::make_topology
// (torus:8x8x8, mesh:16x16, hypercube:6, fattree:4x3, dragonfly:8).
// Strategy specs: core::make_strategy (random, topocent, topolb,
// recursive, anneal, <base>+refine, <base>+linkrefine).
//
// Everything prints to stdout; --output writes machine-readable files.
//
// Observability: map/simulate/evacuate accept --trace=FILE (Chrome-trace
// JSON of the run's phase spans; load in chrome://tracing or
// ui.perfetto.dev) and --stats=FILE (a schema-versioned obs::Report with
// counters, span rollups, and series such as TopoLB's per-iteration
// hop-bytes trajectory).  Either flag switches recording on for the run;
// TOPOMAP_OBS=1 in the environment does the same for any command.
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>

#include "core/contention.hpp"
#include "core/metrics.hpp"
#include "core/validate.hpp"
#include "graph/builders.hpp"
#include "graph/factory.hpp"
#include "netsim/app.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "ops/ops.hpp"
#include "partition/partition.hpp"
#include "runtime/chaos.hpp"
#include "runtime/dynamic_lb.hpp"
#include "runtime/lb_manager.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "svc/client.hpp"
#include "svc/metrics.hpp"
#include "svc/protocol.hpp"
#include "topo/distance_cache.hpp"
#include "topo/factory.hpp"
#include "topo/fault_spec.hpp"
#include "topo/torus_mesh.hpp"

namespace {

using namespace topomap;

void add_obs_options(CliParser& cli) {
  cli.add_option("trace", "write Chrome-trace JSON of phase spans here", "");
  cli.add_option("stats", "write an obs::Report JSON (counters/spans) here",
                 "");
}

/// Handles --trace/--stats: switches recording on up front, collects run
/// metadata, and writes both artifacts once the command's root span closed.
struct ObsOutputs {
  std::string trace_path;
  std::string stats_path;
  obs::Report report;

  bool active() const { return !trace_path.empty() || !stats_path.empty(); }

  explicit ObsOutputs(const CliParser& cli)
      : trace_path(cli.str("trace")), stats_path(cli.str("stats")) {
    if (active()) obs::set_enabled(true);
  }

  /// The run's identity; `strategy` is omitted when empty.
  void describe(const CliParser& cli, const std::string& command,
                const std::string& workload, const std::string& machine,
                const std::string& strategy) {
    report.set_meta("command", command);
    report.set_meta("workload", workload);
    report.set_meta("machine", machine);
    if (!strategy.empty()) report.set_meta("strategy", strategy);
    report.set_meta("seed", cli.str("seed"));
  }

  void meta(const std::string& key, double value) {
    report.set_meta(key, support::json::format_number(value));
  }

  void finish() {
    if (!stats_path.empty()) {
      report.capture();
      report.write_file(stats_path);
      std::cout << "stats written to " << stats_path << "\n";
    }
    if (!trace_path.empty()) {
      std::ofstream os(trace_path);
      obs::Tracer::instance().write_chrome_trace(os);
      std::cout << "trace written to " << trace_path << "\n";
    }
  }
};

void add_fault_options(CliParser& cli) {
  cli.add_option("fail-link", "failed links a:b[,c:d...]", "");
  cli.add_option("fail-node", "failed processors p[,q...]", "");
  cli.add_option("degrade-link",
                 "degraded links a:b:health[,...], health in (0,1]", "");
  cli.add_option("restore-node", "recovered processors p[@epoch][,...]", "");
  cli.add_option("restore-link", "recovered links a:b[@epoch][,...]", "");
  cli.add_option("random-link-faults", "additional random link failures", "0");
  cli.add_option("random-node-faults", "additional random node failures", "0");
  cli.add_option("random-degrades", "additional random link degradations",
                 "0");
  cli.add_option("fault-seed", "RNG seed for random fault selection", "42");
}

// The per-kind knob groups read_params reads, each registered by its
// subcommand and by `client`.
void add_explain_options(CliParser& cli) {
  cli.add_option("baseline", "baseline strategy to diff against", "");
  cli.add_flag("baseline-blind",
               "map the baseline on the pristine machine (ignore soft "
               "faults) — reproduces health-blind placement");
  cli.add_option("top-k", "contributing task pairs kept per link", "3");
}

void add_evacuate_options(CliParser& cli) {
  cli.add_option("refine-passes", "bounded refine sweeps after evacuation",
                 "1");
  cli.add_option("load-weight",
                 "neighbourhood-load term weight in the destination score "
                 "(0 = pure hop-bytes)",
                 "0");
}

void add_optimal_options(CliParser& cli) {
  cli.add_option("budget", "branch-and-bound node budget", "20000000");
  cli.add_option("compare",
                 "strategy spec to gap against the optimum ('' skips)",
                 "topolb");
  cli.add_flag("no-symmetry",
               "explore every root placement (disable automorphism pruning)");
}

/// The ops::Params a command's registered flags name: workload, machine,
/// seed and the fault flag family always, the per-kind knobs when the
/// command takes them.  The CLI's one reader of these flags — the one-shot
/// commands, chaos and `client` all call it.
ops::Params read_params(const CliParser& cli) {
  ops::Params p;
  p.tasks = cli.str("tasks");
  p.topology = cli.str("topology");
  p.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  if (cli.has("strategy")) p.strategy = cli.str("strategy");
  if (cli.has("baseline")) {
    p.baseline = cli.str("baseline");
    p.baseline_blind = cli.flag("baseline-blind");
    p.top_k = static_cast<int>(cli.integer("top-k"));
  }
  if (cli.has("refine-passes")) {
    p.refine_passes = static_cast<int>(cli.integer("refine-passes"));
    p.load_weight = cli.real("load-weight");
  }
  if (cli.has("budget")) {
    p.budget = cli.integer("budget");
    p.compare = cli.str("compare");
    p.no_symmetry = cli.flag("no-symmetry");
  }
  p.fail_link = cli.str("fail-link");
  p.fail_node = cli.str("fail-node");
  p.degrade_link = cli.str("degrade-link");
  p.restore_node = cli.str("restore-node");
  p.restore_link = cli.str("restore-link");
  p.random_link_faults = cli.integer("random-link-faults");
  p.random_node_faults = cli.integer("random-node-faults");
  p.random_degrades = cli.integer("random-degrades");
  p.fault_seed = static_cast<std::uint64_t>(cli.integer("fault-seed"));
  return p;
}

/// --model, shared by simulate and explain; unknown values are usage
/// mistakes (exit 1), like --routing.
netsim::ServiceModel parse_model(const std::string& model) {
  if (model == "wormhole") return netsim::ServiceModel::kWormhole;
  if (model == "storeforward") return netsim::ServiceModel::kStoreForward;
  throw usage_error("unknown service model " + model +
                    " (want wormhole | storeforward)");
}

/// Open `path` for writing; throws io_error (CLI exit code 4) when the
/// environment refuses.
std::ofstream open_output(const std::string& path) {
  std::ofstream os(path);
  if (!os.good())
    throw io_error("cannot open '" + path + "' for writing");
  return os;
}

void print_fault_summary(const topo::FaultOverlay& overlay) {
  std::cout << "faults:         " << overlay.num_failed_nodes() << " nodes, "
            << overlay.num_failed_links() << " links, "
            << overlay.num_degraded_links() << " degraded ("
            << overlay.num_alive() << "/" << overlay.size()
            << " processors alive)\n";
}

void print_workload(const graph::TaskGraph& g, const ops::Machine& machine) {
  std::cout << "workload:       " << g.label() << " (" << g.num_edges()
            << " edges, " << g.total_comm_bytes() << " B/iter)\n"
            << "machine:        " << machine.base->name() << "\n";
  if (machine.overlay) print_fault_summary(*machine.overlay);
}

void print_mapping_report(double random_expectation,
                          const ops::Metrics& metrics,
                          const std::string& strategy_name) {
  std::cout << "strategy:       " << strategy_name << "\n";
  std::cout << "hops-per-byte:  " << metrics.hops_per_byte
            << "  (random expectation " << random_expectation << ")\n";
  std::cout << "hop-bytes:      " << metrics.hop_bytes << "\n";
  if (const auto& links = metrics.link_loads)
    std::cout << "link loads:     max " << links->max_bytes << " B, mean "
              << links->mean_bytes << " B over " << links->links_total
              << " directed links (" << links->links_used << " used)\n";
  else
    std::cout << "link loads:     (topology has no processor-level routes)\n";
}

/// One ops:: command on a private, plane-less machine, under the
/// command's root span.
template <class Command>
auto run_traced(const char* span, Command command, const ops::Params& p) {
  obs::ScopedSpan root_span(span);
  return command(p, ops::make_machine);
}

void write_mapping(const std::string& path, const core::Mapping& m,
                   const char* what) {
  if (path.empty()) return;
  open_output(path) << ops::mapping_text(m);
  std::cout << what << " written to " << path << "\n";
}

int cmd_map(int argc, const char* const* argv, bool simulate) {
  CliParser cli(simulate ? "map a workload and simulate its execution"
                         : "map a workload onto a machine");
  cli.add_option("tasks", "workload spec", "stencil2d:8x8");
  cli.add_option("topology", "machine spec", "torus:8x8");
  cli.add_option("strategy", "mapping strategy", "topolb");
  cli.add_option("seed", "RNG seed", "1");
  cli.add_option("output", "write 'task processor' lines here", "");
  add_fault_options(cli);
  add_obs_options(cli);
  if (simulate) {
    cli.add_option("iterations", "app iterations", "200");
    cli.add_option("compute-us", "compute per task-iteration (us)", "10");
    cli.add_option("bandwidth", "link bandwidth MB/s", "500");
    cli.add_option("routing", "deterministic | adaptive", "deterministic");
    cli.add_option("model", "wormhole | storeforward", "wormhole");
  }
  if (!cli.parse(argc, argv)) return 0;

  ObsOutputs obs_out(cli);
  netsim::NetworkParams net;
  netsim::ServiceModel model = netsim::ServiceModel::kWormhole;
  if (simulate) {
    const std::string routing = cli.str("routing");
    if (routing == "adaptive")
      net.routing = netsim::RoutingPolicy::kMinimalAdaptive;
    else if (routing != "deterministic")
      throw usage_error("unknown routing policy " + routing);
    model = parse_model(cli.str("model"));
  }

  const ops::MapResult r = run_traced(simulate ? "cli/simulate" : "cli/map",
                                      ops::run_map, read_params(cli));
  const graph::TaskGraph& g = r.graph;
  const ops::Machine& machine = *r.machine;
  TOPOMAP_REQUIRE(!simulate || r.partition_note.empty(),
                  "cannot simulate a partitioned machine whose primary "
                  "component is too small for the workload — " +
                      r.partition_note);

  obs_out.describe(cli, simulate ? "simulate" : "map", g.label(),
                   machine.base->name(), r.strategy);
  obs_out.meta("hop_bytes", r.metrics.hop_bytes);
  obs_out.meta("hops_per_byte", r.metrics.hops_per_byte);

  print_workload(g, machine);
  if (!r.partition_note.empty())
    std::cout << "partition:      " << r.partition_note << "\n"
              << "quarantined:    " << r.quarantined.size() << " of "
              << g.num_vertices()
              << " tasks left unplaced (lightest communicators)\n";
  // Not value_or: its argument would run the row searches every time.
  print_mapping_report(r.random_expectation
                           ? *r.random_expectation
                           : core::expected_random_hops(machine.machine()),
                       r.metrics, r.strategy);

  if (simulate) {
    netsim::AppParams app;
    app.iterations = static_cast<int>(cli.integer("iterations"));
    app.compute_us = cli.real("compute-us");
    net.bandwidth = cli.real("bandwidth");
    const auto sim = netsim::run_iterative_app(g, machine.machine(), r.mapping,
                                               app, net, model);
    obs_out.meta("completion_us", sim.completion_us);
    std::cout << "simulation:     " << app.iterations << " iterations at "
              << net.bandwidth << " MB/s (" << cli.str("routing") << ", "
              << cli.str("model") << ")\n"
              << "completion:     " << sim.completion_us / 1000.0 << " ms\n"
              << "msg latency:    avg " << sim.avg_message_latency_us
              << " us, p99 " << sim.p99_message_latency_us << " us, max "
              << sim.max_message_latency_us << " us\n"
              << "busiest link:   " << sim.max_link_busy_us / 1000.0
              << " ms busy\n";
  }

  write_mapping(cli.str("output"), r.mapping, "mapping");
  obs_out.finish();
  return 0;
}

/// Write the schema-versioned contention artifact ("topomap.obs.contention"
/// v1): the explain run's meta, per-link table with top-K contributors,
/// optional busiest-link timeline, optional baseline stats + mapping diff,
/// written straight from the typed results.
void write_contention_report(const std::string& path,
                             const ops::ExplainResult& r,
                             const ops::Params& params,
                             const std::string& seed,
                             const netsim::AppResult* sim) {
  std::string doc;
  support::json::Writer w(doc, 2);
  w.begin_object();
  w.member("schema", core::kContentionSchemaName);
  w.member("schema_version", core::kContentionSchemaVersion);
  w.key("meta").begin_object();
  w.member("command", "explain");
  w.member("workload", r.graph.label());
  w.member("machine", r.machine->base->name());
  w.member("strategy", r.strategy);
  w.member("seed", seed);
  w.member("top_k", params.top_k);
  w.member("hop_bytes", r.hop_bytes);
  if (r.baseline) w.member("baseline", params.baseline);
  w.end_object();
  w.key("stats");
  core::write_contention_stats(w, r.attribution.stats);
  w.key("links");
  core::write_contention_links(w, r.attribution, params.top_k);
  if (sim != nullptr) {
    const netsim::TelemetrySnapshot& snap = sim->telemetry;
    w.key("timeline").begin_object();
    w.member("sample_us", snap.sample_interval_us);
    w.member("completion_us", sim->completion_us);
    const auto series = [&w](const char* name, const std::vector<double>& xs) {
      w.key(name).begin_array();
      for (const double x : xs) w.value(x);
      w.end_array();
    };
    series("t_us", snap.t_us);
    series("util_max", snap.util_max);
    series("queue_depth", snap.queue_depth);
    w.key("hot_links").begin_array();
    const std::size_t shown = std::min<std::size_t>(snap.links.size(), 10);
    for (std::size_t i = 0; i < shown; ++i) {
      const netsim::LinkTelemetry& lt = snap.links[i];
      w.begin_object();
      w.member("from", lt.from);
      w.member("to", lt.to);
      w.member("bytes", lt.bytes);
      w.member("busy_us", lt.busy_us);
      w.member("peak_util", lt.peak_util);
      w.member("time_to_peak_us", lt.time_to_peak_us);
      w.member("saturated_us", lt.saturated_us);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  if (const auto& baseline = r.baseline) {
    w.key("baseline").begin_object();
    w.member("strategy", params.baseline);
    w.key("stats");
    core::write_contention_stats(w, baseline->attribution.stats);
    w.end_object();
    w.key("diff").begin_object();
    w.key("links");
    core::write_contention_diff(w, baseline->diff, params.top_k);
    w.end_object();
  }
  w.end_object();
  std::ofstream os(path);
  if (!os.good())
    throw io_error("explain: cannot open '" + path + "' for writing");
  os << doc << "\n";
  os.flush();
  if (!os.good()) throw io_error("explain: failed writing '" + path + "'");
}

int cmd_explain(int argc, const char* const* argv) {
  CliParser cli(
      "explain a mapping's link contention: per-link attribution, "
      "busiest-link timeline, and (with --baseline) a mapping diff");
  cli.add_option("tasks", "workload spec", "stencil2d:8x8");
  cli.add_option("topology", "machine spec", "torus:8x8");
  cli.add_option("strategy", "mapping strategy to explain", "topolb");
  cli.add_option("seed", "RNG seed", "1");
  add_explain_options(cli);
  cli.add_option("report", "write the topomap.obs.contention JSON here", "");
  cli.add_option("iterations",
                 "simulated app iterations for the timeline (0 = skip "
                 "simulation)",
                 "50");
  cli.add_option("compute-us", "compute per task-iteration (us)", "10");
  cli.add_option("bandwidth", "link bandwidth MB/s", "500");
  cli.add_option("model", "wormhole | storeforward", "wormhole");
  cli.add_option("sample-us", "telemetry sampling window (virtual us)",
                 "100");
  cli.add_option("output", "write 'task processor' lines here", "");
  add_fault_options(cli);
  add_obs_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  ObsOutputs obs_out(cli);
  const ops::Params params = read_params(cli);
  const int top_k = params.top_k;
  const netsim::ServiceModel model = parse_model(cli.str("model"));

  const ops::ExplainResult r =
      run_traced("cli/explain", ops::run_explain, params);
  const graph::TaskGraph& g = r.graph;
  const ops::Machine& machine = *r.machine;

  obs_out.describe(cli, "explain", g.label(), machine.base->name(),
                   r.strategy);

  print_workload(g, machine);
  std::cout << "strategy:       " << r.strategy << "\n";

  const core::ContentionReport& attr = r.attribution;
  const double hb = r.hop_bytes;
  obs_out.meta("hop_bytes", hb);
  std::cout << "hop-bytes:      " << hb;
  if (hb == attr.stats.total_bytes) {
    std::cout << " (per-link totals sum to it exactly)\n";
  } else {
    // Soft-fault overlays weight hop-bytes by link health; the attribution
    // counts physical bytes crossing each link.
    std::cout << " (health-weighted; physical routed bytes "
              << attr.stats.total_bytes << ")\n";
  }
  std::cout << core::render_contention_summary(attr, 5, top_k);

  // Busiest-link timeline from the simulator's sampling grid.
  netsim::AppResult sim;
  const int iterations = static_cast<int>(cli.integer("iterations"));
  if (iterations > 0) {
    netsim::AppParams app;
    app.iterations = iterations;
    app.compute_us = cli.real("compute-us");
    app.telemetry = true;
    app.telemetry_spec.sample_interval_us = cli.real("sample-us");
    netsim::NetworkParams net;
    net.bandwidth = cli.real("bandwidth");
    sim = netsim::run_iterative_app(g, machine.machine(), r.mapping, app, net,
                                    model);
    obs_out.meta("completion_us", sim.completion_us);
    const netsim::TelemetrySnapshot& snap = sim.telemetry;
    std::cout << "timeline:       " << snap.t_us.size() << " windows of "
              << snap.sample_interval_us << " us over " << iterations
              << " iterations (completion " << sim.completion_us / 1000.0
              << " ms)\n";
    if (!snap.links.empty()) {
      const netsim::LinkTelemetry& hot = snap.links.front();
      std::cout << "busiest link:   (" << hot.from << "," << hot.to << ") "
                << hot.bytes << " B, peak util "
                << format_fixed(hot.peak_util, 2) << " at "
                << hot.time_to_peak_us << " us, saturated "
                << hot.saturated_us << " us\n";
    }
  }

  // Baseline is side A of the diff, the explained strategy side B, so
  // "8000 -> 1000" reads as the improvement.
  if (r.baseline)
    std::cout << "baseline:       " << params.baseline
              << (params.baseline_blind ? " (blind: mapped on pristine machine)"
                                        : "")
              << ", routed bytes " << r.baseline->attribution.stats.total_bytes
              << "\n"
              << core::render_contention_diff(r.baseline->diff, 5, top_k);

  if (const std::string report_path = cli.str("report");
      !report_path.empty()) {
    write_contention_report(report_path, r, params, cli.str("seed"),
                            iterations > 0 ? &sim : nullptr);
    std::cout << "report written to " << report_path << "\n";
  }
  write_mapping(cli.str("output"), r.mapping, "mapping");
  obs_out.finish();
  return 0;
}

int cmd_partition(int argc, const char* const* argv) {
  CliParser cli("partition a workload into balanced groups");
  cli.add_option("tasks", "workload spec", "md:6x6x5");
  cli.add_option("parts", "group count", "16");
  cli.add_option("partitioner", "multilevel | greedy | random", "multilevel");
  cli.add_option("seed", "RNG seed", "1");
  cli.add_option("output", "write 'task group' lines here", "");
  if (!cli.parse(argc, argv)) return 0;

  Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));
  const graph::TaskGraph g = graph::make_task_graph(cli.str("tasks"), rng);
  const int k = static_cast<int>(cli.integer("parts"));
  const auto partitioner = part::make_partitioner(cli.str("partitioner"));
  const auto r = partitioner->partition(g, k, rng);

  std::cout << "workload:   " << g.label() << " (" << g.num_vertices()
            << " tasks)\n"
            << "parts:      " << k << " via " << partitioner->name() << "\n"
            << "edge cut:   " << part::edge_cut(g, r.assignment) << " B of "
            << g.total_comm_bytes() << " B total\n"
            << "imbalance:  " << part::load_imbalance(g, r.assignment, k)
            << "\n";
  if (const std::string out = cli.str("output"); !out.empty()) {
    std::ofstream os = open_output(out);
    for (std::size_t t = 0; t < r.assignment.size(); ++t)
      os << t << ' ' << r.assignment[t] << '\n';
    std::cout << "assignment written to " << out << "\n";
  }
  return 0;
}

int cmd_pipeline(int argc, const char* const* argv) {
  CliParser cli("two-phase pipeline: partition objects, map groups");
  cli.add_option("tasks", "workload spec (tasks >= processors)", "md:6x6x5");
  cli.add_option("topology", "machine spec", "torus:8x8");
  cli.add_option("strategy", "phase-2 mapper", "topolb+refine");
  cli.add_option("partitioner", "phase-1 partitioner", "multilevel");
  cli.add_option("seed", "RNG seed", "1");
  cli.add_option("output", "write 'object processor' lines here", "");
  if (!cli.parse(argc, argv)) return 0;

  Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));
  const graph::TaskGraph g = graph::make_task_graph(cli.str("tasks"), rng);
  const auto topo = topo::make_topology(cli.str("topology"));
  rts::PipelineConfig config;
  config.partitioner = part::make_partitioner(cli.str("partitioner"));
  config.mapper = core::make_strategy(cli.str("strategy"));
  const auto r = rts::run_two_phase(g, *topo, config, rng);

  std::cout << "workload:       " << g.label() << " (" << g.num_vertices()
            << " objects, virtualization "
            << static_cast<double>(g.num_vertices()) / topo->size() << ")\n"
            << "machine:        " << topo->name() << "\n"
            << "phase 1:        cut " << r.edge_cut_bytes << " B, imbalance "
            << r.load_imbalance << ", quotient degree "
            << r.quotient_avg_degree << "\n"
            << "phase 2:        " << config.mapper->name()
            << ", hops-per-byte " << r.hops_per_byte << "\n";
  if (const std::string out = cli.str("output"); !out.empty()) {
    std::ofstream os = open_output(out);
    for (std::size_t obj = 0; obj < r.object_to_proc.size(); ++obj)
      os << obj << ' ' << r.object_to_proc[obj] << '\n';
    std::cout << "placement written to " << out << "\n";
  }
  return 0;
}

int cmd_evacuate(int argc, const char* const* argv) {
  CliParser cli(
      "map on the healthy machine, inject faults, evacuate stranded tasks");
  cli.add_option("tasks", "workload spec (tasks <= processors)",
                 "stencil2d:7x8");
  cli.add_option("topology", "machine spec", "torus:8x8");
  cli.add_option("strategy", "initial/remap strategy", "topolb");
  cli.add_option("seed", "RNG seed", "1");
  add_evacuate_options(cli);
  cli.add_option("output", "write repaired 'task processor' lines here", "");
  add_fault_options(cli);
  add_obs_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  ObsOutputs obs_out(cli);
  const ops::Params params = read_params(cli);
  const ops::EvacuateResult r =
      run_traced("cli/evacuate", ops::run_evacuate, params);
  const rts::EvacuateComparison& cmp = r.comparison;

  obs_out.describe(cli, "evacuate", r.graph.label(), r.machine->base->name(),
                   params.strategy);
  obs_out.meta("hop_bytes", cmp.evac.hop_bytes);
  obs_out.meta("load_imbalance", cmp.evac.load_imbalance);

  std::cout << "workload:       " << r.graph.label() << " ("
            << r.graph.num_vertices() << " tasks)\n"
            << "machine:        " << r.machine->base->name() << "\n";
  print_fault_summary(*r.machine->overlay);
  std::cout << "before faults:  hop-bytes " << r.hop_bytes_before << " ("
            << r.strategy << ")\n"
            << "evacuate:       " << cmp.evac.stranded << " stranded, "
            << cmp.evac.migrations << " migrations ("
            << cmp.evac.refine_swaps << " refine swaps), hop-bytes "
            << cmp.evac.hop_bytes << ", nbhd load imbalance "
            << cmp.evac.load_imbalance << "\n"
            << "full remap:     " << cmp.full_migrations
            << " migrations, hop-bytes " << cmp.full_hop_bytes << "\n"
            << "evac/remap:     hop-bytes ratio " << r.hop_bytes_ratio()
            << "\n";
  write_mapping(cli.str("output"), cmp.evac.mapping, "repaired mapping");
  obs_out.finish();
  return 0;
}

int cmd_optimal(int argc, const char* const* argv) {
  CliParser cli(
      "exactly minimize hop-bytes by branch and bound (<= 12 tasks) and "
      "report a strategy's optimality gap against the proven minimum");
  cli.add_option("tasks", "workload spec (<= 12 tasks)", "stencil2d:3x3");
  cli.add_option("topology", "machine spec", "torus:3x3");
  cli.add_option("seed", "RNG seed (workload + compared strategy)", "1");
  add_optimal_options(cli);
  cli.add_option("output", "write 'task processor' lines here", "");
  add_fault_options(cli);
  add_obs_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  ObsOutputs obs_out(cli);
  const ops::OptimalResult r =
      run_traced("cli/optimal", ops::run_optimal, read_params(cli));
  const topo::Topology& machine = r.machine->machine();

  obs_out.describe(cli, "optimal", r.graph.label(), machine.name(), "");

  if (r.machine->overlay) print_fault_summary(*r.machine->overlay);
  print_mapping_report(core::expected_random_hops(machine),
                       ops::measure(r.graph, *r.machine, r.search.mapping),
                       "OptimalLB (exact)");
  std::cout << "search:         " << r.search.nodes << " nodes, "
            << r.search.pruned << " pruned subtrees, "
            << r.search.root_candidates << " root candidates\n";
  obs_out.meta("optimal_hop_bytes", r.search.hop_bytes);
  obs_out.meta("search_nodes", static_cast<double>(r.search.nodes));
  if (r.compare) {
    std::cout << "compare:        " << r.compare->strategy << " hop-bytes "
              << r.compare->hop_bytes << ", optimality gap " << r.compare->gap
              << (r.compare->gap == 1.0 ? " (provably optimal)" : "") << "\n";
    obs_out.meta("compare_hop_bytes", r.compare->hop_bytes);
    obs_out.meta("optimality_gap", r.compare->gap);
  }

  write_mapping(cli.str("output"), r.search.mapping, "mapping");
  obs_out.finish();
  return 0;
}

/// `topomap chaos --drill=<kind>`: corrupt exactly one validated subsystem
/// of a small healthy mapped system and let core::validate_state convict
/// it.  Always exits non-zero: the caught corruption is rethrown as
/// invariant_error (exit code 3) — scripts/smoke_test.sh asserts the exit
/// code and the violation text end to end.
int run_validation_drill(const std::string& kind) {
  const graph::TaskGraph g = graph::stencil_2d(4, 2, 64.0);
  auto base =
      std::make_shared<topo::TorusMesh>(topo::TorusMesh::mesh({4, 2}));
  topo::FaultOverlay overlay(base);
  topo::DistanceCache plane(overlay);
  Rng rng(11);
  core::Mapping placement =
      core::make_strategy("topolb")->map(g, overlay, rng);
  std::vector<char> quarantined(static_cast<std::size_t>(g.num_vertices()),
                                0);
  std::cout << "drill: healthy 8-task stencil on mesh:4x2 — corrupting '"
            << kind << "'\n";
  if (kind == "placement") {
    // The processor dies and the plane is repaired faithfully, but the
    // placement is never migrated off the corpse.
    const int victim = placement[0];
    overlay.fail_node(victim);
    plane.repair_node_failure(overlay, victim);
    std::cout << "  processor " << victim
              << " died; plane repaired; placement left stale\n";
  } else if (kind == "quarantine") {
    // An active task loses its seat with no quarantine record.
    placement[0] = core::kUnassigned;
    std::cout << "  task 0 unseated without a quarantine flag\n";
  } else if (kind == "plane") {
    // A soft fault flips the overlay into fixed-point units; the plane
    // misses the repair event — version skew.
    overlay.degrade_link(0, 1, 0.5);
    std::cout << "  link 0-1 degraded to half health; plane repair skipped\n";
  } else {
    throw precondition_error("unknown drill '" + kind +
                             "' (want placement | quarantine | plane)");
  }
  core::SystemState st;
  st.graph = &g;
  st.overlay = &overlay;
  st.placement = &placement;
  st.quarantined = &quarantined;
  st.plane = &plane;
  const core::ValidationReport report = core::validate_state(st);
  TOPOMAP_ASSERT(!report.ok(), "drill failed: validate_state missed the '" +
                                   kind + "' corruption");
  throw invariant_error("self-validation drill '" + kind +
                        "' caught: " + report.summary());
}

int cmd_chaos(int argc, const char* const* argv) {
  CliParser cli(
      "soak the dynamic runtime under a seeded fault/recovery timeline: "
      "correlated bursts, degrades, repair crews, transient partitions");
  cli.add_option("tasks", "workload spec (objects >= processors)", "md:6x6x5");
  cli.add_option("topology", "machine spec", "torus:8x8");
  cli.add_option("strategy", "phase-2 mapper", "topolb+refine");
  cli.add_option("partitioner", "phase-1 partitioner", "multilevel");
  cli.add_option("policy", "scratch | incremental", "incremental");
  cli.add_option("epochs", "LB epochs to soak", "200");
  cli.add_option("seed", "RNG seed for drift and mapping", "1");
  cli.add_option("chaos", "chaos timeline spec seed:rate:burst",
                 "42:0.3:0.05");
  cli.add_option("load-drift", "per-epoch load drift in [0,1)", "0.3");
  cli.add_option("comm-drift", "per-epoch communication drift in [0,1)",
                 "0.15");
  cli.add_option("plane-rows",
                 "distance-plane rows per validation (0 = all alive rows)",
                 "0");
  cli.add_flag("no-validate", "skip the per-event/per-epoch self-validation");
  cli.add_option("drill",
                 "corrupt one validated subsystem of a fixed small system "
                 "and exit 3 with the caught violation: placement | "
                 "quarantine | plane",
                 "");
  cli.add_option("output", "write final 'object processor' lines here", "");
  add_fault_options(cli);
  add_obs_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  if (const std::string drill = cli.str("drill"); !drill.empty())
    return run_validation_drill(drill);  // throws: exit 3 (or 2 on bad kind)

  ObsOutputs obs_out(cli);

  Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));
  const graph::TaskGraph g = graph::make_task_graph(cli.str("tasks"), rng);
  const auto topo = topo::make_topology(cli.str("topology"));

  rts::DynamicLBConfig config;
  config.epochs = static_cast<int>(cli.integer("epochs"));
  config.load_drift = cli.real("load-drift");
  config.comm_drift = cli.real("comm-drift");
  config.resilience.validate = !cli.flag("no-validate");
  config.resilience.plane_rows = static_cast<int>(cli.integer("plane-rows"));
  config.pipeline.partitioner = part::make_partitioner(cli.str("partitioner"));
  config.pipeline.mapper = core::make_strategy(cli.str("strategy"));
  const std::string policy = cli.str("policy");
  if (policy == "scratch")
    config.policy = rts::RemapPolicy::kScratch;
  else
    TOPOMAP_REQUIRE(policy == "incremental",
                    "unknown policy '" + policy +
                        "' (want scratch | incremental)");

  // Explicit fault flags become strict events (epoch 0 for faults, the
  // given @epoch for restores); the chaos generator supplies the random
  // timeline, so the --random-* counts are rejected here.
  const topo::FaultSpec spec = read_params(cli).fault_spec();
  TOPOMAP_REQUIRE(spec.random_link_faults == 0 &&
                      spec.random_node_faults == 0 &&
                      spec.random_degrades == 0,
                  "chaos generates its own random faults — drop the "
                  "--random-* flags and tune --chaos=seed:rate:burst");
  for (const auto& l : spec.fail_links)
    config.events.push_back({0, rts::EventKind::kLinkFail, l.first, l.second});
  for (int p : spec.fail_nodes)
    config.events.push_back({0, rts::EventKind::kNodeFail, p});
  for (const topo::LinkDegradeSpec& d : spec.degrades)
    config.events.push_back(
        {0, rts::EventKind::kLinkDegrade, d.a, d.b, d.health});
  for (const topo::NodeRestoreSpec& r : spec.restore_nodes)
    config.events.push_back({r.epoch, rts::EventKind::kNodeRestore, r.p});
  for (const topo::LinkRestoreSpec& r : spec.restore_links)
    config.events.push_back({r.epoch, rts::EventKind::kLinkRestore, r.a, r.b});

  rts::ChaosConfig chaos_cfg = rts::parse_chaos_spec(cli.str("chaos"));
  chaos_cfg.epochs = config.epochs;
  const rts::ChaosSchedule schedule =
      rts::make_chaos_schedule(*topo, chaos_cfg);
  config.events.insert(config.events.end(), schedule.events.begin(),
                       schedule.events.end());

  obs_out.describe(cli, "chaos", g.label(), topo->name(),
                   config.pipeline.mapper->name());
  obs_out.report.set_meta("chaos", cli.str("chaos"));

  rts::DynamicLBRun run;
  {
    obs::ScopedSpan root_span("cli/chaos");
    run = rts::run_dynamic_lb_detailed(g, *topo, config, rng);
  }

  double alive_sum = 0.0;
  double active_sum = 0.0;
  double hpb_sum = 0.0;
  long long migrations = 0;
  long long rows_repaired = 0;
  for (const rts::DynamicEpochStats& s : run.history) {
    alive_sum += s.alive_procs;
    active_sum += g.num_vertices() - s.quarantined;
    hpb_sum += s.hops_per_byte;
    migrations += s.migrations;
    rows_repaired += s.plane_rows_repaired;
  }
  const double epochs = static_cast<double>(run.history.size());
  const double machine_avail = alive_sum / (epochs * topo->size());
  const double task_avail = active_sum / (epochs * g.num_vertices());

  std::cout << "workload:        " << g.label() << " (" << g.num_vertices()
            << " objects, virtualization "
            << static_cast<double>(g.num_vertices()) / topo->size() << ")\n"
            << "machine:         " << topo->name() << "\n"
            << "policy:          " << policy << ", " << config.epochs
            << " epochs\n"
            << "chaos:           " << cli.str("chaos") << " — "
            << schedule.failures << " failures, " << schedule.degrades
            << " degrades, " << schedule.restores << " restores, "
            << schedule.bursts << " bursts\n"
            << "events:          " << run.events_applied << " applied, "
            << run.events_skipped << " skipped\n"
            << "availability:    machine " << machine_avail << ", tasks "
            << task_avail << "\n"
            << "partitions:      " << run.partitioned_epochs
            << " partitioned epochs, max " << run.max_quarantined
            << " objects quarantined\n"
            << "migrations:      " << migrations << " total\n"
            << "hops-per-byte:   mean " << hpb_sum / epochs << ", final "
            << run.history.back().hops_per_byte << "\n"
            << "plane:           " << rows_repaired
            << " rows repaired incrementally, " << run.plane_rebuilds
            << " rebuild fallbacks, " << run.violations
            << " violations caught\n";
  obs_out.meta("machine_availability", machine_avail);
  obs_out.meta("task_availability", task_avail);
  obs_out.meta("migrations", static_cast<double>(migrations));
  obs_out.meta("plane_rebuilds", run.plane_rebuilds);

  if (const std::string out = cli.str("output"); !out.empty()) {
    std::ofstream os = open_output(out);
    for (std::size_t obj = 0; obj < run.final_placement.size(); ++obj)
      os << obj << ' ' << run.final_placement[obj] << '\n';
    std::cout << "final placement written to " << out << "\n";
  }
  obs_out.finish();
  return 0;
}

/// Connect to the daemon named by --tcp=host:port, else by --socket.
svc::Client connect_daemon(const CliParser& cli) {
  const std::string tcp = cli.str("tcp");
  if (tcp.empty()) return svc::Client::connect_unix(cli.str("socket"));
  const std::size_t colon = tcp.rfind(':');
  std::int64_t port = -1;
  if (colon != std::string::npos && colon > 0) {
    const char* const last = tcp.data() + tcp.size();
    const auto [end, ec] = std::from_chars(tcp.data() + colon + 1, last, port);
    if (ec != std::errc() || end != last) port = -1;
  }
  TOPOMAP_REQUIRE(port >= 0, "--tcp wants host:port, got '" + tcp + "'");
  return svc::Client::connect_tcp(tcp.substr(0, colon),
                                  svc::checked_tcp_port(port, "--tcp"));
}

/// `topomap client`: one request against a running topomapd.  Reuses the
/// CLI flag family verbatim (including the fault flags and their parser),
/// prints the response document, and exits with the taxonomy code the
/// equivalent one-shot command would have — a server-side
/// precondition_error comes back as exit 2, an I/O failure reaching the
/// daemon as exit 4.
int cmd_client(int argc, const char* const* argv) {
  CliParser cli(
      "send one mapping request to a running topomapd and print the "
      "response");
  cli.add_option("socket", "daemon unix socket path", "/tmp/topomapd.sock");
  cli.add_option("tcp",
                 "daemon TCP endpoint host:port (overrides --socket)", "");
  cli.add_option("kind",
                 "map | explain | evacuate | optimal | status | metrics | "
                 "flight",
                 "status");
  cli.add_option("id", "request id echoed in the response", "cli");
  cli.add_option("tasks", "workload spec", "stencil2d:8x8");
  cli.add_option("topology", "machine spec", "torus:8x8");
  cli.add_option("strategy", "mapping strategy", "topolb");
  cli.add_option("seed", "RNG seed", "1");
  add_explain_options(cli);
  add_evacuate_options(cli);
  add_optimal_options(cli);
  cli.add_option("output", "write the response's mapping bytes here", "");
  cli.add_flag("prom",
               "metrics: print Prometheus exposition text instead of JSON");
  add_fault_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  svc::Request req;
  static_cast<ops::Params&>(req) = read_params(cli);
  req.id = cli.str("id");
  req.kind = svc::parse_request_kind(cli.str("kind"));
  TOPOMAP_REQUIRE(!cli.flag("prom") || req.kind == svc::RequestKind::kMetrics,
                  "--prom applies to --kind=metrics only");
  // Malformed fault flags exit 2 without a round-trip (the server
  // revalidates anyway).
  (void)req.fault_spec();

  svc::Client client = connect_daemon(cli);
  const svc::Response resp = client.call(req);

  if (!resp.ok) {
    // Mirror the one-shot CLI's stderr formatting per category.
    const std::string& cat = resp.error.category;
    if (cat == "invariant")
      std::cerr << "internal error: " << resp.error.message << "\n";
    else if (cat == "io")
      std::cerr << "I/O error: " << resp.error.message << "\n";
    else
      std::cerr << "error: " << resp.error.message << "\n";
    return svc::exit_code_for(cat);
  }
  if (cli.flag("prom")) {
    // Validates the snapshot against the topomap.svc.metrics schema on the
    // way out, so a drifting daemon fails loudly instead of exporting
    // garbage.
    std::cout << svc::metrics_to_prometheus(resp.result);
    return 0;
  }
  std::cout << resp.dump(2) << "\n";
  if (const std::string out = cli.str("output"); !out.empty()) {
    const support::json::Value* mapping = resp.result.find("mapping");
    TOPOMAP_REQUIRE(mapping != nullptr && mapping->is_string(),
                    "response carries no mapping (kind '" + cli.str("kind") +
                        "' has none) — drop --output");
    std::ofstream os = open_output(out);
    os << mapping->as_string();
    std::cout << "mapping written to " << out << "\n";
  }
  return 0;
}

/// `topomap top`: poll a running topomapd's metrics snapshot and render a
/// compact live view — request totals and rate, queue depth, pool hit
/// rate, and per-kind latency quantiles from the svc/<kind>/total_us
/// histograms.  On a terminal each snapshot repaints in place; redirected
/// output gets one block per poll (so scripts can grep a fixed iteration
/// count).
int cmd_top(int argc, const char* const* argv) {
  CliParser cli("live telemetry view of a running topomapd");
  cli.add_option("socket", "daemon unix socket path", "/tmp/topomapd.sock");
  cli.add_option("tcp",
                 "daemon TCP endpoint host:port (overrides --socket)", "");
  cli.add_option("interval-ms", "poll interval in milliseconds", "1000");
  cli.add_option("iterations", "snapshots to render (0 = until killed)",
                 "0");
  if (!cli.parse(argc, argv)) return 0;
  const auto interval =
      std::chrono::milliseconds(std::max<std::int64_t>(
          cli.integer("interval-ms"), 1));
  const std::int64_t iterations = cli.integer("iterations");
  const bool tty = ::isatty(STDOUT_FILENO) != 0;

  svc::Client client = connect_daemon(cli);

  double prev_served = -1.0;
  for (std::int64_t i = 0; iterations == 0 || i < iterations; ++i) {
    if (i > 0) std::this_thread::sleep_for(interval);
    svc::Request req;
    req.id = "top";
    req.kind = svc::RequestKind::kMetrics;
    const svc::Response resp = client.call(req);
    if (!resp.ok) {
      std::cerr << "error: " << resp.error.message << "\n";
      return svc::exit_code_for(resp.error.category);
    }
    svc::validate_metrics_snapshot(resp.result);
    const support::json::Value& requests = resp.result.at("requests");
    const support::json::Value& pool = resp.result.at("pool");
    const double served = requests.at("served").as_number();
    const double failed = requests.at("failed").as_number();
    const double hits = pool.at("hits").as_number();
    const double misses = pool.at("misses").as_number();
    const double lookups = hits + misses;
    const double rate =
        prev_served >= 0.0
            ? (served - prev_served) * 1000.0 /
                  static_cast<double>(interval.count())
            : 0.0;
    prev_served = served;

    if (tty) std::cout << "\x1b[2J\x1b[H";  // repaint in place
    std::cout << "topomapd  served " << static_cast<std::int64_t>(served)
              << "  failed " << static_cast<std::int64_t>(failed)
              << "  rate " << support::json::format_number(rate) << "/s"
              << "  queue "
              << static_cast<std::int64_t>(
                     resp.result.at("queue_depth").as_number())
              << "  pool-hit "
              << (lookups > 0.0
                      ? support::json::format_number(100.0 * hits / lookups)
                      : "-")
              << (lookups > 0.0 ? "%" : "") << "\n";
    Table table("per-kind latency (us)",
                {"kind", "count", "p50", "p90", "p99", "max"});
    for (const auto& [name, h] : resp.result.at("histograms").members()) {
      // svc/<kind>/total_us rows only — the stage histograms stay in the
      // JSON snapshot for obs_diff / offline analysis.
      const std::string prefix = "svc/";
      const std::string suffix = "/total_us";
      if (name.size() <= prefix.size() + suffix.size() ||
          name.compare(0, prefix.size(), prefix) != 0 ||
          name.compare(name.size() - suffix.size(), suffix.size(),
                       suffix) != 0)
        continue;
      const std::string kind = name.substr(
          prefix.size(), name.size() - prefix.size() - suffix.size());
      table.add_row({kind,
                     static_cast<std::int64_t>(h.at("count").as_number()),
                     h.at("p50").as_number(), h.at("p90").as_number(),
                     h.at("p99").as_number(), h.at("max").as_number()});
    }
    if (table.row_count() > 0) table.print(std::cout);
    else
      std::cout << "(no latency histograms yet — run the daemon with "
                   "--stats=FILE or TOPOMAP_OBS=1)\n";
    std::cout.flush();
  }
  return 0;
}

void usage() {
  std::cout <<
      "topomap — topology-aware task mapping (IPDPS'06 reproduction)\n"
      "\n"
      "usage: topomap <command> [options]   (--help per command)\n"
      "  map        map a workload onto a machine, report hop-bytes\n"
      "  simulate   map + discrete-event execution on the machine\n"
      "  partition  split a workload into balanced groups\n"
      "  pipeline   partition + map (more objects than processors)\n"
      "  evacuate   map, inject faults, migrate only stranded tasks\n"
      "  explain    per-link contention attribution, timeline, and diff\n"
      "  optimal    exact branch-and-bound optimum + strategy optimality gap\n"
      "  chaos      soak the dynamic runtime under seeded faults/recovery\n"
      "  client     send one request to a running topomapd daemon\n"
      "  top        live telemetry view of a running topomapd\n"
      "\n"
      "exit codes: 0 success, 1 usage, 2 invalid input (precondition),\n"
      "            3 internal invariant violation, 4 I/O failure\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  // Shift argv past the subcommand for the option parser.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (command == "map") return cmd_map(sub_argc, sub_argv, false);
    if (command == "simulate") return cmd_map(sub_argc, sub_argv, true);
    if (command == "partition") return cmd_partition(sub_argc, sub_argv);
    if (command == "pipeline") return cmd_pipeline(sub_argc, sub_argv);
    if (command == "evacuate") return cmd_evacuate(sub_argc, sub_argv);
    if (command == "explain") return cmd_explain(sub_argc, sub_argv);
    if (command == "optimal") return cmd_optimal(sub_argc, sub_argv);
    if (command == "chaos") return cmd_chaos(sub_argc, sub_argv);
    if (command == "client") return cmd_client(sub_argc, sub_argv);
    if (command == "top") return cmd_top(sub_argc, sub_argv);
    if (command == "--help" || command == "help") {
      usage();
      return 0;
    }
    std::cerr << "unknown command: " << command << "\n";
    usage();
    return 1;
  } catch (const topomap::precondition_error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const topomap::invariant_error& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return 3;
  } catch (const topomap::io_error& e) {
    std::cerr << "I/O error: " << e.what() << "\n";
    return 4;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
