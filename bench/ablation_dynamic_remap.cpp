// Ablation: re-map from scratch vs incremental refinement under load
// drift (the operational trade-off behind the paper's RefineTopoLB, and
// its future-work note on distributed/low-churn approaches).
//
// Every epoch the workload's loads and communication volumes drift; the
// scratch policy reruns the full two-phase pipeline (best hops-per-byte,
// heavy object migration), the incremental policy keeps the grouping and
// refines the previous mapping with RefineTopoLB (near-equal quality at a
// fraction of the migrations).
#include "bench/common.hpp"
#include "graph/builders.hpp"
#include "graph/synthetic_md.hpp"
#include "partition/partition.hpp"
#include "runtime/dynamic_lb.hpp"
#include "topo/factory.hpp"

using namespace topomap;

int main(int argc, char** argv) {
  CliParser cli("Ablation: scratch vs incremental re-mapping under drift");
  cli.add_option("epochs", "LB epochs", "8");
  cli.add_option("load-drift", "per-epoch load drift", "0.3");
  cli.add_option("comm-drift", "per-epoch communication drift", "0.15");
  cli.add_option("topology", "machine", "torus:8x8");
  cli.add_option("seed", "RNG seed", "1");
  if (!cli.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  bench::preamble("dynamic re-mapping ablation", seed);

  graph::MdParams params;
  params.cells_x = 5;
  params.cells_y = 4;
  params.cells_z = 4;
  Rng graph_rng(seed);
  const graph::TaskGraph objects = graph::synthetic_md(params, graph_rng);
  const auto machine = topo::make_topology(cli.str("topology"));
  std::cout << "workload: " << objects.num_vertices() << " MD objects on "
            << machine->name() << "\n";

  auto run_policy = [&](rts::RemapPolicy policy) {
    rts::DynamicLBConfig config;
    config.epochs = cli.integer_as<int>("epochs");
    config.load_drift = cli.real("load-drift");
    config.comm_drift = cli.real("comm-drift");
    config.policy = policy;
    config.pipeline.partitioner = part::make_partitioner("multilevel");
    config.pipeline.mapper = core::make_strategy("topolb");
    Rng rng(seed);
    return rts::run_dynamic_lb(objects, *machine, config, rng).history;
  };
  const auto scratch = run_policy(rts::RemapPolicy::kScratch);
  const auto incremental = run_policy(rts::RemapPolicy::kIncremental);

  Table table("per-epoch quality and migration cost",
              {"epoch", "scratch_hpb", "scratch_migr", "incr_hpb",
               "incr_migr", "scratch_imbal", "incr_imbal"},
              3);
  long total_scratch = 0, total_incr = 0;
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    table.add_row({static_cast<std::int64_t>(i), scratch[i].hops_per_byte,
                   static_cast<std::int64_t>(scratch[i].migrations),
                   incremental[i].hops_per_byte,
                   static_cast<std::int64_t>(incremental[i].migrations),
                   scratch[i].load_imbalance,
                   incremental[i].load_imbalance});
    total_scratch += scratch[i].migrations;
    total_incr += incremental[i].migrations;
  }
  bench::emit(table, "ablation_dynamic_remap");
  std::cout << "\ntotal migrations: scratch=" << total_scratch
            << " incremental=" << total_incr
            << "\nExpected: incremental keeps hops-per-byte within a few "
               "percent of scratch while migrating\nan order of magnitude "
               "fewer objects (imbalance slowly decays as loads drift away "
               "from the\nfrozen epoch-0 grouping — the reason Charm++ "
               "interleaves full LB steps with refinements).\n";
  return 0;
}
