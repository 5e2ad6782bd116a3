// The flat-4k workload and the one-shot probes: the full `topomap map`
// call, timed end to end and, in traced runs, layer by layer through spans
// around each public call.
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/cache_handle.hpp"
#include "core/hier_topo_lb.hpp"
#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "graph/factory.hpp"
#include "obs/registry.hpp"
#include "partition/multilevel.hpp"
#include "runtime/rank_reorder.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topo/factory.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = topomap::core;
namespace graph = topomap::graph;
namespace topo = topomap::topo;
using topomap::Rng;

const OneShotSpec kFlat4k{"stencil2d:64x64", "torus:16x16x16", "topolb", false};
const OneShotSpec kHier262k{"stencil3d:64x64x64", "torus:32x32x32", "hier",
                            true};

/// Mapping bytes parse back to a complete placement (one-to-one when
/// `one_to_one`) of `tasks` tasks on `procs` processors.
bool mapping_complete(const std::string& bytes, int tasks, int procs,
                      bool one_to_one) {
  std::istringstream is(bytes);
  const core::Mapping m = topomap::rts::read_rank_mapping(is);
  if (static_cast<int>(m.size()) != tasks) return false;
  std::vector<char> used(static_cast<std::size_t>(procs), 0);
  for (int p : m) {
    if (p < 0 || p >= procs) return false;
    if (one_to_one && used[static_cast<std::size_t>(p)]) return false;
    used[static_cast<std::size_t>(p)] = 1;
  }
  return true;
}

bool same_output(const OpOutput& a, const OpOutput& b) {
  return a.mapping == b.mapping && a.hops_per_byte == b.hops_per_byte &&
         a.max_link_bytes == b.max_link_bytes;
}

/// part::coarsen_once repeated under hier_map's task-side stop rule
/// (stop near coarsen_factor x coarse-plane nodes, weight cap 0.65 of a
/// part), on the rng stream hier_map coarsens with.  Returns the level
/// count; `ms` gets the chain's wall time.
int coarsen_chain(const OneShotSpec& spec, std::uint64_t seed, int plane_nodes,
                  double* ms) {
  Rng rng(seed);
  const graph::TaskGraph g = graph::make_task_graph(spec.tasks, rng);
  const auto t0 = Clock::now();
  const long long stop_n =
      static_cast<long long>(core::HierOptions{}.coarsen_factor) * plane_nodes;
  const double total_w = g.total_vertex_weight();
  const double weight_cap =
      total_w > 0.0 ? 0.65 * total_w / static_cast<double>(plane_nodes)
                    : std::numeric_limits<double>::infinity();
  std::vector<topomap::part::CoarseLevel> levels;
  const graph::TaskGraph* cur = &g;
  while (cur->num_vertices() > stop_n) {
    topomap::part::CoarseLevel level;
    if (!topomap::part::coarsen_once(*cur, weight_cap, rng, &level)) break;
    levels.push_back(std::move(level));
    cur = &levels.back().coarse;
  }
  *ms = ms_between(t0, Clock::now());
  return static_cast<int>(levels.size());
}

double layer_median(const OpLayers& layers, const char* name) {
  const auto it = layers.layer_ms.find(name);
  return it == layers.layer_ms.end() ? 0.0 : median(it->second);
}

/// The one-shot layer metrics of the traced ops rooted at `root`; `out` is
/// one of those ops.
void emit_oneshot_layers(Result& r, const char* root, const OpOutput& out) {
  const OpLayers layers = collect_op_layers(root);
  r.metric("graph.make_task_graph_ms",
           layer_median(layers, "graph.make_task_graph"));
  r.metric("graph.vertices", out.vertices);
  r.metric("graph.edges", static_cast<double>(out.edges));
  r.metric("topo.make_topology_ms", layer_median(layers, "topo.make_topology"));
  r.metric("topo.plane_ms", layer_median(layers, "topo.plane"));
  r.metric("topo.plane_mb", static_cast<double>(out.plane_nodes) *
                                out.plane_nodes * 2.0 / (1024.0 * 1024.0));
  r.metric("core.map_ms", layer_median(layers, "core.map"));
  r.metric("core.hop_bytes_ms", layer_median(layers, "core.hop_bytes"));
  r.metric("core.link_loads_ms", layer_median(layers, "core.link_loads"));
  r.metric("runtime.write_mapping_ms",
           layer_median(layers, "runtime.write_mapping"));
  r.metric("op.unattributed_ms", median(layers.unattributed_ms));
  r.diagnostic("op.traced_p50_ms", median(layers.op_ms));
  r.diagnostic("op.traced_samples", static_cast<double>(layers.op_ms.size()));
}

}  // namespace

OpOutput run_op(const OneShotSpec& spec, std::uint64_t seed, const char* root,
                bool via_strategy) {
  const bool traced = root != nullptr;
  MaybeSpan op(traced, root);
  OpOutput out;
  Rng rng(seed);
  const graph::TaskGraph g = [&] {
    MaybeSpan s(traced, "graph.make_task_graph");
    return graph::make_task_graph(spec.tasks, rng);
  }();
  const topo::TopologyPtr machine = [&] {
    MaybeSpan s(traced, "topo.make_topology");
    return topo::make_topology(spec.topology);
  }();
  core::Mapping m;
  if (spec.hier) {
    MaybeSpan s(traced, "core.map");
    if (via_strategy) {
      m = core::make_strategy(spec.strategy)->map(g, *machine, rng);
    } else {
      core::HierResult hr = core::hier_map(g, *machine, rng);
      out.task_levels = hr.task_levels;
      out.topo_levels = hr.topo_levels;
      out.swaps = hr.swaps;
      out.plane_nodes = hr.quotient.num_vertices();
      m = std::move(hr.mapping);
    }
  } else {
    // The plane fill is its own layer: pre-build it into the handle the
    // strategy composition then reuses (what svc::CachePool seeding does).
    auto handle = std::make_shared<core::CacheHandle>();
    {
      MaybeSpan s(traced, "topo.plane");
      handle->get(*machine);
    }
    MaybeSpan s(traced, "core.map");
    m = core::make_strategy_with_handle(spec.strategy,
                                        core::DistanceMode::kCached, handle)
            ->map(g, *machine, rng);
    out.plane_nodes = machine->size();
  }
  {
    MaybeSpan s(traced, "core.hop_bytes");
    out.hops_per_byte = core::hops_per_byte(g, *machine, m);
  }
  {
    MaybeSpan s(traced, "core.link_loads");
    out.max_link_bytes = core::link_loads(g, *machine, m).max_bytes;
  }
  {
    MaybeSpan s(traced, "runtime.write_mapping");
    std::ostringstream os;
    topomap::rts::write_rank_mapping(os, m);
    out.mapping = os.str();
  }
  out.vertices = g.num_vertices();
  out.edges = g.num_edges();
  out.procs = machine->size();
  return out;
}

void add_oneshot_companion(Result& r, const OneShotSpec& spec,
                           std::uint64_t seed, int reps,
                           const std::string& reference) {
  OpOutput out;
  for (int i = 0; i < reps; ++i) {
    out = run_op(spec, seed, "op");
    r.check(out.mapping == reference,
            "one-shot path differs from the served mapping");
  }
  emit_oneshot_layers(r, "op", out);
}

void add_hier_probe(Result& r, std::uint64_t seed) {
  // The reference goes through make_strategy("hier"), the traced op
  // through core::hier_map (for HierResult's counts): the two must agree.
  const OpOutput ref = run_op(kHier262k, seed, nullptr, /*via_strategy=*/true);
  const OpOutput out = run_op(kHier262k, seed, "hier.op");
  r.check(mapping_complete(ref.mapping, ref.vertices, ref.procs, false),
          "hier mapping is not a complete placement");
  r.check(same_output(out, ref), "hier_map differs from make_strategy(\"hier\")");
  double chain_ms = 0.0;
  const int levels = coarsen_chain(kHier262k, seed, out.plane_nodes, &chain_ms);
  r.check(levels == out.task_levels,
          "partition.coarsen_levels != core.hier.task_levels");

  const OpLayers layers = collect_op_layers("hier.op");
  r.metric("hier.op_ms", median(layers.op_ms));
  r.metric("hier.graph.make_task_graph_ms",
           layer_median(layers, "graph.make_task_graph"));
  r.metric("hier.core.map_ms", layer_median(layers, "core.map"));
  r.metric("hier.core.hop_bytes_ms", layer_median(layers, "core.hop_bytes"));
  r.metric("hier.core.link_loads_ms", layer_median(layers, "core.link_loads"));
  r.metric("hier.runtime.write_mapping_ms",
           layer_median(layers, "runtime.write_mapping"));
  r.metric("hier.op.unattributed_ms", median(layers.unattributed_ms));
  r.metric("partition.coarsen_ms", chain_ms);
  r.metric("partition.coarsen_levels", levels);
  r.metric("core.hier.task_levels", out.task_levels);
  r.metric("core.hier.topo_levels", out.topo_levels);
  r.metric("core.hier.swaps", out.swaps);
}

void add_pool_probe(Result& r, std::uint64_t seed) {
  const OneShotSpec& spec = kFlat4k;
  const int width = topomap::support::num_threads();
  std::vector<double> ms[2];
  std::string reference;
  for (int pair = 0; pair < 3; ++pair) {
    for (int w = 1; w <= 2; ++w) {
      topomap::support::set_num_threads(w);
      const auto t0 = Clock::now();
      const OpOutput out = run_op(spec, seed, nullptr);
      ms[w - 1].push_back(ms_between(t0, Clock::now()));
      if (reference.empty()) reference = out.mapping;
      r.check(out.mapping == reference,
              "mapping differs between pool widths 1 and 2");
    }
  }
  topomap::support::set_num_threads(width);
  r.metric("support.pool_width2_pct",
           100.0 * (median(ms[1]) / median(ms[0]) - 1.0));
}

Result run_oneshot(const Options& opt) {
  if (opt.workload != "flat-4k")
    throw std::invalid_argument("unknown workload " + opt.workload);
  const OneShotSpec& spec = kFlat4k;
  topomap::support::set_num_threads(1);
  topomap::obs::set_enabled(opt.trace);
  Result r;

  // Set-up: one untimed warm-up op, which is also the reference every
  // timed op must reproduce byte for byte.  It is checked after set-up time
  // is read, so the check's cost stays out of setup_s.
  const OpOutput ref = run_op(spec, opt.seed, nullptr);
  r.setup_s = setup_seconds(opt);
  r.check(mapping_complete(ref.mapping, ref.vertices, ref.procs, true),
          "reference mapping is not one-to-one");
  if (opt.setup_only) return r;

  // Timed loop.  Traced runs alternate untraced and traced ops so the
  // tracing overhead is measured on interleaved samples.
  const CpuTicks c0 = read_cpu_ticks();
  std::vector<double> plain_ms, traced_ms;
  OpOutput traced_out;
  const std::int64_t min_ops = opt.trace ? 2 : 1;
  const auto start = Clock::now();
  for (std::int64_t i = 0;; ++i) {
    const double elapsed_s = ms_between(start, Clock::now()) / 1000.0;
    if (i >= min_ops && elapsed_s >= opt.seconds) break;
    const bool traced = opt.trace && i % 2 == 1;
    const auto t0 = Clock::now();
    OpOutput out = run_op(spec, opt.seed, traced ? "op" : nullptr);
    const double ms = ms_between(t0, Clock::now());
    (traced ? traced_ms : plain_ms).push_back(ms);
    ++r.attempted;
    if (!same_output(out, ref)) {
      ++r.failed;
      r.check(false, "op " + std::to_string(i) + " differs from the reference");
    }
    if (traced) traced_out = std::move(out);
  }
  const CpuTicks c1 = read_cpu_ticks();

  // Determinism self-check: the pooled path (width 2) must reproduce the
  // width-1 bytes and quality.
  topomap::support::set_num_threads(2);
  r.check(same_output(run_op(spec, opt.seed, nullptr), ref),
          "mapping differs between pool widths 1 and 2");
  topomap::support::set_num_threads(1);

  if (!opt.trace) {
    r.metric("op_p50_ms", median(plain_ms));
    r.diagnostic("throughput_rps", 1000.0 / mean(plain_ms));
    r.metric("hops_per_byte", ref.hops_per_byte);
    r.metric("max_link_bytes", ref.max_link_bytes);
    r.metric("peak_rss_mb", peak_rss_mb());
    r.metric("success_rate", static_cast<double>(r.attempted - r.failed) /
                                 static_cast<double>(r.attempted));
    r.diagnostic("op_samples", static_cast<double>(plain_ms.size()));
    r.diagnostic("op_min_ms", quantile(plain_ms, 0.0));
    r.diagnostic("op_max_ms", quantile(plain_ms, 1.0));
    r.diagnostic("op_tail_ms",
                 quantile(plain_ms, tail_quantile(plain_ms.size())));
    r.diagnostic("op_tail_quantile", tail_quantile(plain_ms.size()));
    add_host_diagnostics(r, c0, c1, false);
    return r;
  }

  // Traced run: layer medians from the spans, plus the probes for the
  // layers this op does not reach.
  emit_oneshot_layers(r, "op", traced_out);
  r.metric("op.tail_ms", quantile(plain_ms, tail_quantile(plain_ms.size())));
  r.metric("op.throughput_rps", 1000.0 / mean(plain_ms));
  add_hier_probe(r, opt.seed);
  add_pool_probe(r, opt.seed);
  add_served_companion(r, opt, 1);
  r.metric("trace.overhead_pct",
           100.0 * (median(traced_ms) / median(plain_ms) - 1.0));
  add_host_diagnostics(r, c0, c1, true);
  return r;
}

}  // namespace perfbench
