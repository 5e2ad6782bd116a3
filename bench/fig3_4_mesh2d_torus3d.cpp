// Figures 3 & 4: map a 2D-mesh communication pattern onto a 3D-torus of
// the same size.
//
// Paper result: random placement matches 3*cbrt(p)/4; TopoLB and
// TopoCentLB are far below it.  In the special case p=64 the (8,8) mesh is
// a subgraph of the (4,4,4) torus and TopoLB reaches the optimum 1.0;
// elsewhere TopoCentLB runs ~10% above TopoLB.
#include <cmath>

#include "bench/common.hpp"
#include "graph/builders.hpp"
#include "topo/factory.hpp"
#include "topo/torus_mesh.hpp"

using namespace topomap;

int main(int argc, char** argv) {
  CliParser cli(
      "Fig 3/4: 2D-mesh pattern on 3D-torus — hops-per-byte vs processors");
  cli.add_option("procs", "comma list of processor counts (perfect cubes)",
                 "64,216,512,1000,1728");
  cli.add_option("seed", "RNG seed", "1");
  cli.add_option("random-repeats", "random-placement repetitions", "5");
  cli.add_flag("full", "extend the sweep to p=4096, a few seconds extra");
  if (!cli.parse(argc, argv)) return 0;

  auto procs = cli.int_list("procs");
  if (cli.flag("full")) procs.push_back(4096);
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  const int repeats = cli.integer_as<int>("random-repeats");
  bench::preamble("2D-mesh pattern mapped onto a 3D-torus (Figs 3-4)", seed);

  Table table("Average hops per byte, 2D-mesh on 3D-torus",
              {"p", "mesh", "torus", "E[random]=3*cbrt(p)/4", "Random",
               "TopoCentLB", "TopoLB"},
              3);
  const auto random = core::make_strategy("random");
  const auto topocent = core::make_strategy("topocent");
  const auto topolb = core::make_strategy("topolb");

  for (auto p64 : procs) {
    const int p = static_cast<int>(p64);
    if (!topo::is_perfect_cube(p)) {
      std::cout << "skipping p=" << p << " (not a perfect cube)\n";
      continue;
    }
    const auto mesh_dims = topo::balanced_dims(p, 2);
    const auto g = graph::stencil_2d(mesh_dims[0], mesh_dims[1], 1.0);
    const auto torus_dims = topo::balanced_dims(p, 3);
    const topo::TorusMesh torus = topo::TorusMesh::torus(torus_dims);
    Rng rng(seed);
    const double expected = core::expected_random_hops(torus);
    const double rand_hpb =
        bench::mean_hops_per_byte(*random, g, torus, rng, repeats);
    const double cent_hpb =
        bench::mean_hops_per_byte(*topocent, g, torus, rng, 1);
    const double lb_hpb = bench::mean_hops_per_byte(*topolb, g, torus, rng, 1);
    table.add_row(
        {static_cast<std::int64_t>(p),
         std::to_string(mesh_dims[0]) + "x" + std::to_string(mesh_dims[1]),
         torus.name(), expected, rand_hpb, cent_hpb, lb_hpb});
  }
  bench::emit(table, "fig3_4_mesh2d_torus3d");
  std::cout << "\nPaper shape check: Random ~= 3*cbrt(p)/4; both heuristics "
               "far lower; TopoLB hits ~1.0 at p=64\n"
               "((8,8) mesh is a subgraph of the (4,4,4) torus) and stays "
               "below TopoCentLB elsewhere.\n";
  return 0;
}
