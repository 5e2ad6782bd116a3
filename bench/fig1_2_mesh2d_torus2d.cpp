// Figures 1 & 2: map a 2D-mesh communication pattern onto a 2D-torus of
// the same size.
//
// Paper result: random placement lands at the analytic expectation
// sqrt(p)/2 hops-per-byte; TopoLB reaches ~1 (often exactly optimal);
// TopoCentLB is close behind (~10% higher in the subgraph cases).
#include <cmath>

#include "bench/common.hpp"
#include "graph/builders.hpp"
#include "topo/torus_mesh.hpp"

using namespace topomap;

int main(int argc, char** argv) {
  CliParser cli(
      "Fig 1/2: 2D-mesh pattern on 2D-torus — hops-per-byte vs processors");
  cli.add_option("sides", "comma list of torus side lengths", "16,24,32,48,64");
  cli.add_option("seed", "RNG seed", "1");
  cli.add_option("random-repeats", "random-placement repetitions", "5");
  cli.add_flag("full", "extend the sweep to p=5776 (76x76), ~10s extra");
  if (!cli.parse(argc, argv)) return 0;

  auto sides = cli.int_list("sides");
  if (cli.flag("full")) sides.push_back(76);
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  const int repeats = cli.integer_as<int>("random-repeats");
  bench::preamble("2D-mesh pattern mapped onto a 2D-torus (Figs 1-2)", seed);

  Table table("Average hops per byte, 2D-mesh on 2D-torus",
              {"p", "E[random]=sqrt(p)/2", "Random", "TopoCentLB", "TopoLB",
               "TopoLB_s"},
              3);
  const auto random = core::make_strategy("random");
  const auto topocent = core::make_strategy("topocent");
  const auto topolb = core::make_strategy("topolb");

  for (auto side : sides) {
    const int p = static_cast<int>(side * side);
    const auto g = graph::stencil_2d(static_cast<int>(side),
                                     static_cast<int>(side), 1.0);
    const topo::TorusMesh torus =
        topo::TorusMesh::torus({static_cast<int>(side),
                                static_cast<int>(side)});
    Rng rng(seed);
    const double expected = core::expected_random_hops(torus);
    const double rand_hpb =
        bench::mean_hops_per_byte(*random, g, torus, rng, repeats);
    const double cent_hpb =
        bench::mean_hops_per_byte(*topocent, g, torus, rng, 1);
    double lb_hpb = 0.0;
    const double lb_secs = bench::timed([&] {
      lb_hpb = bench::mean_hops_per_byte(*topolb, g, torus, rng, 1);
    });
    table.add_row({static_cast<std::int64_t>(p), expected, rand_hpb, cent_hpb,
                   lb_hpb, lb_secs});
  }
  bench::emit(table, "fig1_2_mesh2d_torus2d");
  std::cout << "\nPaper shape check: Random ~= sqrt(p)/2, TopoLB ~= 1 "
               "(optimal: the 2D mesh is a subgraph of the 2D torus),\n"
               "TopoCentLB small but above TopoLB.\n";
  return 0;
}
