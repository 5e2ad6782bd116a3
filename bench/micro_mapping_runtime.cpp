// §4.4 complexity claims, as google-benchmark microbenchmarks:
//   * TopoLB second order runs in ~O(p^2) on constant-degree task graphs;
//   * TopoLB third order costs O(p^3) — visibly steeper scaling;
//   * TopoCentLB runs in O(p * |E_t|), comparable to second-order TopoLB
//     but with a smaller constant;
//   * RefineTopoLB sweeps are O(p^2) per pass;
//   * the multilevel partitioner handles the MD-scale object graphs fast;
//   * the distance-plane engine: DistanceCache construction, and thread
//     scaling of the pooled layers (the _Threads series);
//   * the JSON codec on topomapd's largest response: explain's per-link
//     attribution (the _ExplainLinks pair).
#include <benchmark/benchmark.h>

#include <cmath>

#include "core/contention.hpp"
#include "core/metrics.hpp"
#include "core/refine_topo_lb.hpp"
#include "core/strategy.hpp"
#include "graph/builders.hpp"
#include "graph/factory.hpp"
#include "graph/synthetic_md.hpp"
#include "partition/multilevel.hpp"
#include "partition/partition.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topo/distance_cache.hpp"
#include "topo/fault_overlay.hpp"
#include "topo/sub_topology.hpp"
#include "topo/torus_mesh.hpp"

namespace {

using namespace topomap;

void map_stencil(benchmark::State& state, const char* strategy_spec) {
  const int side = static_cast<int>(state.range(0));
  const auto g = graph::stencil_2d(side, side, 1.0);
  const topo::TorusMesh torus = topo::TorusMesh::torus({side, side});
  const auto strategy = core::make_strategy(strategy_spec);
  Rng rng(1);
  for (auto _ : state) {
    auto m = strategy->map(g, torus, rng);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetComplexityN(side * side);
}

/// Same workload with an explicit worker-pool size; restores a single
/// worker afterwards so unrelated benchmarks stay sequential.
void map_stencil_threads(benchmark::State& state, const char* strategy_spec) {
  support::set_num_threads(static_cast<int>(state.range(1)));
  map_stencil(state, strategy_spec);
  support::set_num_threads(1);
}

void BM_TopoLB_SecondOrder(benchmark::State& state) {
  map_stencil(state, "topolb");
}
BENCHMARK(BM_TopoLB_SecondOrder)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Complexity(benchmark::oNSquared);

void BM_TopoLB_FirstOrder(benchmark::State& state) {
  map_stencil(state, "topolb1");
}
BENCHMARK(BM_TopoLB_FirstOrder)->Arg(16)->Arg(32);

void BM_TopoLB_ThirdOrder(benchmark::State& state) {
  map_stencil(state, "topolb3");
}
BENCHMARK(BM_TopoLB_ThirdOrder)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Arg(24)
    ->Complexity(benchmark::oNCubed);

void BM_TopoCentLB(benchmark::State& state) { map_stencil(state, "topocent"); }
BENCHMARK(BM_TopoCentLB)->Arg(8)->Arg(16)->Arg(32)->Complexity(
    benchmark::oNSquared);

void BM_RandomLB(benchmark::State& state) { map_stencil(state, "random"); }
BENCHMARK(BM_RandomLB)->Arg(32);

// --- distance-plane engine ------------------------------------------------

void BM_DistanceCacheBuild(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const topo::TorusMesh torus = topo::TorusMesh::torus({side, side});
  for (auto _ : state) {
    topo::DistanceCache cache(torus);  // a byte plane
    benchmark::DoNotOptimize(cache.row<std::uint8_t>(0));
  }
  state.SetComplexityN(side * side);
}
BENCHMARK(BM_DistanceCacheBuild)->Arg(16)->Arg(32)->Arg(64)->Complexity(
    benchmark::oNSquared);

// --- thread scaling of the pooled layers (cached mode) --------------------
// Args are (side, workers).  Results are byte-identical across the series;
// only wall time may change.  Second-order TopoLB, TopoCentLB and
// RefineTopoLB run on the calling thread at any width, so only the plane
// fill, third order's row rescan and HierTopoLB have a series here.

void BM_DistanceCacheBuild_Threads(benchmark::State& state) {
  support::set_num_threads(static_cast<int>(state.range(1)));
  BM_DistanceCacheBuild(state);
  support::set_num_threads(1);
}
BENCHMARK(BM_DistanceCacheBuild_Threads)
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4});

// A node-faulted torus:16x16x16: the overlay's plane (one BFS per alive
// row) and the plane of its alive SubTopology, either cut out of the
// overlay's plane as a pooled machine does (first arg 1) or searched again
// as a one-shot map does (0).  Args are (gather, workers).
void BM_DistanceCacheBuild_Faulted(benchmark::State& state) {
  support::set_num_threads(static_cast<int>(state.range(1)));
  auto overlay = std::make_shared<topo::FaultOverlay>(
      std::make_shared<topo::TorusMesh>(topo::TorusMesh::torus({16, 16, 16})));
  for (const int p : {5, 1000, 2047, 3001, 4090}) overlay->fail_node(p);
  const topo::SubTopology sub(overlay, overlay->alive_procs());
  const bool gather = state.range(0) != 0;
  for (auto _ : state) {
    const topo::DistanceCache plane(*overlay);
    const topo::DistanceCache sub_plane =
        gather ? topo::DistanceCache(sub, plane) : topo::DistanceCache(sub);
    benchmark::DoNotOptimize(sub_plane.row<std::uint16_t>(0));
  }
  support::set_num_threads(1);
}
BENCHMARK(BM_DistanceCacheBuild_Faulted)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Unit(benchmark::kMillisecond);

void BM_TopoLB_ThirdOrder_Threads(benchmark::State& state) {
  map_stencil_threads(state, "topolb3");
}
BENCHMARK(BM_TopoLB_ThirdOrder_Threads)
    ->Args({24, 1})
    ->Args({24, 2})
    ->Args({24, 4})
    ->Args({24, 8});

void BM_RefineTopoLB_OnePass(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const auto g = graph::stencil_2d(side, side, 1.0);
  const topo::TorusMesh torus = topo::TorusMesh::torus({side, side});
  Rng rng(2);
  const core::Mapping random = rng.permutation(side * side);
  for (auto _ : state) {
    auto r = core::refine_mapping(g, torus, random, /*max_passes=*/1);
    benchmark::DoNotOptimize(r.swaps);
  }
  state.SetComplexityN(side * side);
}
BENCHMARK(BM_RefineTopoLB_OnePass)->Arg(8)->Arg(16)->Arg(24)->Complexity(
    benchmark::oNSquared);

void BM_MultilevelPartition_Md(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  graph::MdParams params;
  params.cells_x = 4;
  params.cells_y = 4;
  params.cells_z = 4;
  Rng rng(3);
  const auto md = graph::synthetic_md(params, rng);
  const auto partitioner = part::make_partitioner("multilevel");
  for (auto _ : state) {
    auto r = partitioner->partition(md, k, rng);
    benchmark::DoNotOptimize(r.assignment.data());
  }
}
BENCHMARK(BM_MultilevelPartition_Md)->Arg(8)->Arg(32)->Arg(128);

// --- hierarchical scale path (HierTopoLB) ---------------------------------
// Oversubscribed 3-D stencils, 8 tasks per processor: runtime should grow
// roughly linearly in tasks (the coarsen/uncoarsen stages dominate), far
// below flat TopoLB's O(n^2) curve at the same vertex counts.

void BM_HierTopoLB_Oversubscribed(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const auto g = graph::stencil_3d(2 * side, 2 * side, 2 * side, 1.0);
  const topo::TorusMesh torus = topo::TorusMesh::torus({side, side, side});
  const auto strategy = core::make_strategy("hier");
  Rng rng(1);
  for (auto _ : state) {
    auto m = strategy->map(g, torus, rng);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetComplexityN(8 * side * side * side);
}
BENCHMARK(BM_HierTopoLB_Oversubscribed)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Complexity(benchmark::oN);

void BM_HierTopoLB_Threads(benchmark::State& state) {
  support::set_num_threads(static_cast<int>(state.range(1)));
  const int side = static_cast<int>(state.range(0));
  const auto g = graph::stencil_3d(2 * side, 2 * side, 2 * side, 1.0);
  const topo::TorusMesh torus = topo::TorusMesh::torus({side, side, side});
  const auto strategy = core::make_strategy("hier");
  Rng rng(1);
  for (auto _ : state) {
    auto m = strategy->map(g, torus, rng);
    benchmark::DoNotOptimize(m.data());
  }
  support::set_num_threads(1);
}
BENCHMARK(BM_HierTopoLB_Threads)
    ->Args({12, 1})
    ->Args({12, 2})
    ->Args({12, 4});

void BM_TaskCoarsenOnce(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const auto g = graph::stencil_3d(side, side, side, 1.0);
  for (auto _ : state) {
    Rng rng(2);
    part::CoarseLevel level;
    const bool ok = part::coarsen_once(g, 1e18, rng, &level);
    benchmark::DoNotOptimize(ok);
  }
  state.SetComplexityN(side * side * side);
}
BENCHMARK(BM_TaskCoarsenOnce)->Arg(16)->Arg(32)->Arg(48)->Complexity(
    benchmark::oN);

void BM_HopBytesEvaluation(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const auto g = graph::stencil_2d(side, side, 1.0);
  const topo::TorusMesh torus = topo::TorusMesh::torus({side, side});
  Rng rng(4);
  const core::Mapping m = rng.permutation(side * side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::hop_bytes(g, torus, m));
  }
}
BENCHMARK(BM_HopBytesEvaluation)->Arg(32)->Arg(64);

/// The report behind the "links" array of an explain response on
/// topomapd's served shape: TopoLB's stencil3d:4x4x8 mapping on
/// torus:4x4x8, every used link with its top-3 contributing task pairs (the
/// service's default top_k).
core::ContentionReport explain_report() {
  Rng rng(1);
  const auto g = graph::make_task_graph("stencil3d:4x4x8", rng);
  const topo::TorusMesh torus = topo::TorusMesh::torus({4, 4, 8});
  const core::Mapping m = core::make_strategy("topolb")->map(g, torus, rng);
  return core::attribute_link_loads(g, torus, m);
}

std::string explain_links_text() {
  std::string text;
  support::json::Writer w(text);
  core::write_contention_links(w, explain_report(), 3);
  return text;
}

/// The links array rendered straight from the typed report, as topomapd
/// renders an explain response.
void BM_JsonWrite_ExplainLinks(benchmark::State& state) {
  const core::ContentionReport report = explain_report();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string text;
    support::json::Writer w(text);
    core::write_contention_links(w, report, 3);
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_JsonWrite_ExplainLinks)->Unit(benchmark::kMicrosecond);

/// The same bytes dumped from a parsed tree of them.
void BM_JsonDump_ExplainLinks(benchmark::State& state) {
  const support::json::Value links =
      support::json::Value::parse(explain_links_text());
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = links.dump();
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_JsonDump_ExplainLinks)->Unit(benchmark::kMicrosecond);

void BM_JsonParse_ExplainLinks(benchmark::State& state) {
  const std::string text = explain_links_text();
  for (auto _ : state) {
    const support::json::Value v = support::json::Value::parse(text);
    benchmark::DoNotOptimize(&v);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_JsonParse_ExplainLinks)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
