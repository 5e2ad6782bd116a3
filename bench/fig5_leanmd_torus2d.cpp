// Figure 5: the LeanMD-like molecular-dynamics workload mapped onto 2D
// tori of various sizes.
//
// Paper result: TopoLB reduces hops-per-byte ~34% below random placement,
// RefineTopoLB a further ~12%, TopoCentLB ~30%; at very high
// virtualization (p=18 in the paper) the coalesced graph is so dense that
// no strategy can do much.
#include "bench/leanmd_common.hpp"

using namespace topomap;

int main(int argc, char** argv) {
  CliParser cli("Fig 5: LeanMD-like workload on 2D tori");
  cli.add_option("procs", "processor counts (2D-decomposable)",
                 "16,64,144,256,529");
  cli.add_option("seed", "RNG seed", "1");
  cli.add_option("random-repeats", "random-placement repetitions", "3");
  cli.add_option("md-iterations", "instrumented MD iterations", "5");
  cli.add_flag("full", "extend to p=1024");
  if (!cli.parse(argc, argv)) return 0;

  auto procs = cli.int_list("procs");
  if (cli.flag("full")) procs.push_back(1024);
  bench::run_leanmd_figure(
      "LeanMD-like workload mapped onto 2D tori (Fig 5)",
      "fig5_leanmd_torus2d", /*dims=*/2, procs,
      static_cast<std::uint64_t>(cli.integer("seed")),
      cli.integer_as<int>("random-repeats"),
      cli.integer_as<int>("md-iterations"));
  return 0;
}
