// Ablation: failure-driven evacuation vs full remap, and incremental
// distance-cache repair vs from-scratch rebuild.
//
// Processors die under a healthy placement; evacuate() moves only the
// stranded tasks (plus bounded refine swaps) while the full remap reruns
// the mapping strategy on the alive subset.  The question the table
// answers: how much mapping quality does patching give up, and at what
// fraction of the migration volume?  A second table measures the
// DistanceCache repair path: rows BFS-recomputed and wall time against the
// O(p^2) rebuild the repair replaces.
#include <memory>

#include "bench/common.hpp"
#include "core/fault_aware.hpp"
#include "graph/builders.hpp"
#include "runtime/evacuate.hpp"
#include "topo/distance_cache.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"

using namespace topomap;

int main(int argc, char** argv) {
  CliParser cli("Ablation: evacuation vs full remap under processor faults");
  cli.add_option("tasks", "stencil extents <nx>x<ny>", "9x10");
  cli.add_option("topology", "machine", "torus:10x10");
  cli.add_option("strategy", "mapping strategy", "topolb");
  cli.add_option("refine-passes", "evacuate refine sweeps", "1");
  cli.add_option("seed", "RNG seed", "1");
  if (!cli.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  bench::preamble("fault-tolerance ablation", seed);

  const auto dims = cli.str("tasks");
  const auto x = dims.find('x');
  if (x == std::string::npos) {
    std::cerr << "--tasks must look like <nx>x<ny>\n";
    return 1;
  }
  const int nx = std::stoi(dims.substr(0, x));
  const int ny = std::stoi(dims.substr(x + 1));
  const graph::TaskGraph g = graph::stencil_2d(nx, ny, 1000.0);
  const auto machine = topo::make_topology(cli.str("topology"));
  const auto strategy = core::make_strategy(cli.str("strategy"));
  const int refine = cli.integer_as<int>("refine-passes");
  std::cout << "workload: " << g.num_vertices() << " stencil tasks on "
            << machine->name() << ", strategy " << cli.str("strategy")
            << "\n";

  Table table("evacuation vs full remap",
              {"failures", "stranded", "evac_migr", "full_migr", "evac_hpb",
               "full_hpb", "hpb_ratio"},
              4);
  Table repair_table("distance-cache repair vs rebuild",
                     {"failures", "rows_recomputed", "repair_ms",
                      "rebuild_ms"},
                     3);

  for (const int failures : {1, 2, 4, 8}) {
    topo::FaultOverlay healthy(machine);
    Rng rng(seed);
    const core::Mapping previous =
        core::map_on_alive(*strategy, g, healthy, rng);

    // Kill `failures` distinct occupied processors: every failure strands a
    // task, exercising the evacuation path rather than trivial no-ops.
    auto overlay = std::make_shared<topo::FaultOverlay>(machine);
    topo::DistanceCache cache(*overlay);
    Rng fault_rng(seed + static_cast<std::uint64_t>(failures));
    int rows_recomputed = 0;
    double repair_s = 0.0;
    while (overlay->num_failed_nodes() < failures) {
      const int task = static_cast<int>(fault_rng.uniform(
          static_cast<std::uint64_t>(g.num_vertices())));
      const int proc = previous[static_cast<std::size_t>(task)];
      if (!overlay->is_alive(proc)) continue;
      overlay->fail_node(proc);
      repair_s += bench::timed(
          [&] { rows_recomputed += cache.repair_node_failure(*overlay, proc); });
    }
    const double rebuild_s =
        bench::timed([&] { topo::DistanceCache rebuilt(*overlay); });

    const rts::EvacuateComparison cmp = rts::compare_evacuate_vs_remap(
        g, *overlay, previous, *strategy, rng, refine);
    table.add_row({static_cast<std::int64_t>(failures),
                   static_cast<std::int64_t>(cmp.evac.stranded),
                   static_cast<std::int64_t>(cmp.evac.migrations),
                   static_cast<std::int64_t>(cmp.full_migrations),
                   cmp.evac.hop_bytes / g.total_comm_bytes(),
                   cmp.full_hop_bytes / g.total_comm_bytes(),
                   cmp.evac.hop_bytes / cmp.full_hop_bytes});
    repair_table.add_row({static_cast<std::int64_t>(failures),
                          static_cast<std::int64_t>(rows_recomputed),
                          repair_s * 1e3, rebuild_s * 1e3});
  }

  bench::emit(table, "ablation_fault_tolerance");
  std::cout << "\n";
  bench::emit(repair_table, "ablation_fault_tolerance_repair");
  std::cout << "\nExpected: evacuation migrates ~failures tasks (vs a near-"
               "total reshuffle for the full\nremap) while staying within "
               "~10% of its hop-bytes.  Cache repair recomputes only rows\n"
               "whose shortest-path DAG crossed the dead processor — on a "
               "dense torus that is most\nrows (a grid node is interior to "
               "nearly every DAG), so repair only ties the rebuild\nhere; "
               "the savings come from link failures (strict row subsets) and "
               "distance-model\ntopologies like fat trees (zero rows).\n";
  return 0;
}
