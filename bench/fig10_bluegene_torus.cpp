// Figure 10: BlueGene-style end-to-end run — time for N iterations of the
// 2D Jacobi benchmark (100KB messages) on 3D-TORUS machines of growing
// size, under random / TopoCentLB / TopoLB mappings.
//
// Paper result: both topology-aware mappings clearly beat random at every
// machine size, and the advantage grows with size.  (The paper ran 4000
// iterations on BlueGene hardware; the default here is scaled down to keep
// the simulated run short — use --iterations=4000 for the paper scale.)
#include "bench/bluegene_common.hpp"

using namespace topomap;

int main(int argc, char** argv) {
  CliParser cli("Fig 10: 2D Jacobi on BlueGene-style 3D-torus machines");
  cli.add_option("procs", "machine sizes", "64,128,216,512");
  cli.add_option("iterations", "Jacobi iterations", "400");
  cli.add_option("msg-kb", "message size in KB", "100");
  cli.add_option("bandwidth", "link bandwidth MB/s", "175");
  cli.add_option("compute-us", "compute per iteration (us)", "20");
  cli.add_option("seed", "RNG seed", "1");
  cli.add_flag("full", "add p=729 (several minutes)");
  if (!cli.parse(argc, argv)) return 0;

  auto procs = cli.int_list("procs");
  if (cli.flag("full")) procs.push_back(729);
  bench::run_bluegene_figure(
      "2D-mesh pattern on BlueGene 3D-torus (Fig 10)", "fig10_bluegene_torus",
      /*torus=*/true, procs, cli.integer_as<int>("iterations"),
      cli.real("msg-kb") * 1024.0, cli.real("bandwidth"),
      cli.real("compute-us"), static_cast<std::uint64_t>(cli.integer("seed")));
  std::cout << "\nPaper shape check: TopoLB ~= TopoCentLB << Random at every "
               "size; compare against Fig 11 (mesh):\n"
               "torus times are lower, especially for random placement, "
               "thanks to the wraparound links.\n";
  return 0;
}
