// Figure 11: as Figure 10 but on 3D-MESH machines (wraparound links
// removed).
//
// Paper result: all times are higher than the torus case, but random
// placement suffers most from losing the wraparound paths — its messages
// travel long distances, while TopoLB/TopoCentLB mappings keep messages to
// a few hops where wraparound barely matters.
#include "bench/bluegene_common.hpp"

using namespace topomap;

int main(int argc, char** argv) {
  CliParser cli("Fig 11: 2D Jacobi on BlueGene-style 3D-mesh machines");
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
      "2D-mesh pattern on BlueGene 3D-mesh (Fig 11)", "fig11_bluegene_mesh",
      /*torus=*/false, procs, cli.integer_as<int>("iterations"),
      cli.real("msg-kb") * 1024.0, cli.real("bandwidth"),
      cli.real("compute-us"), static_cast<std::uint64_t>(cli.integer("seed")));
  std::cout << "\nPaper shape check: every entry exceeds its Fig 10 (torus) "
               "counterpart, with the largest regression\n"
               "for random placement.\n";
  return 0;
}
