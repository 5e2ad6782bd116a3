// Figure 6: the LeanMD-like molecular-dynamics workload mapped onto 3D
// tori of various sizes.
//
// Paper result: same ordering as the 2D case; TopoLB followed by
// RefineTopoLB reduces hops-per-byte by ~40% relative to random placement.
#include "bench/leanmd_common.hpp"

using namespace topomap;

int main(int argc, char** argv) {
  CliParser cli("Fig 6: LeanMD-like workload on 3D tori");
  cli.add_option("procs", "processor counts (3D-decomposable)",
                 "27,64,216,512");
  cli.add_option("seed", "RNG seed", "1");
  cli.add_option("random-repeats", "random-placement repetitions", "3");
  cli.add_option("md-iterations", "instrumented MD iterations", "5");
  cli.add_flag("full", "extend to p=1000");
  if (!cli.parse(argc, argv)) return 0;

  auto procs = cli.int_list("procs");
  if (cli.flag("full")) procs.push_back(1000);
  bench::run_leanmd_figure(
      "LeanMD-like workload mapped onto 3D tori (Fig 6)",
      "fig6_leanmd_torus3d", /*dims=*/3, procs,
      static_cast<std::uint64_t>(cli.integer("seed")),
      cli.integer_as<int>("random-repeats"),
      cli.integer_as<int>("md-iterations"));
  return 0;
}
