// Figure 9: total completion time of 2000 iterations of the 2D-mesh
// benchmark on the 64-node (4,4,4) 3D-torus vs channel bandwidth.
//
// Paper result: at low bandwidth random placement takes more than 2x
// TopoLB's time; TopoCentLB also improves greatly on random but TopoLB
// beats it by ~10-25%.
#include "bench/common.hpp"
#include "core/contention.hpp"
#include "graph/builders.hpp"
#include "netsim/app.hpp"
#include "topo/torus_mesh.hpp"

using namespace topomap;

int main(int argc, char** argv) {
  CliParser cli("Fig 9: completion time of 2000 iterations vs bandwidth");
  cli.add_option("bandwidths", "bandwidths in 100s of MB/s",
                 "0.5,1,1.5,2,2.5,3,3.5,4,4.5,5");
  cli.add_option("iterations", "Jacobi iterations", "2000");
  cli.add_option("msg-bytes", "message size in bytes", "2048");
  cli.add_option("compute-us", "compute per iteration (us)", "10");
  cli.add_option("seed", "RNG seed", "1");
  if (!cli.parse(argc, argv)) return 0;

  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  bench::preamble(
      "2D-mesh (8x8) on (4,4,4) 3D-torus: completion time vs bandwidth "
      "(Fig 9)",
      seed);

  const double msg_bytes = cli.real("msg-bytes");
  const auto g = graph::stencil_2d(8, 8, 2.0 * msg_bytes);
  const topo::TorusMesh torus = topo::TorusMesh::torus({4, 4, 4});
  Rng rng(seed);
  const core::Mapping m_greedy = core::make_strategy("greedy")->map(g, torus, rng);
  const core::Mapping m_cent = core::make_strategy("topocent")->map(g, torus, rng);
  const core::Mapping m_lb = core::make_strategy("topolb")->map(g, torus, rng);

  // Bandwidth-independent link-load proxy: the completion-time gap below is
  // driven by the busiest link, which this table predicts without simulating.
  Table contention("Per-link load (predicts the completion-time ordering)",
                   {"strategy", "max_link_B", "mean_link_B", "l2", "gini"},
                   4);
  const std::pair<const char*, const core::Mapping*> mappings[] = {
      {"greedy", &m_greedy}, {"topocent", &m_cent}, {"topolb", &m_lb}};
  for (const auto& [name, m] : mappings) {
    const core::ContentionStats s = core::contention_stats(g, torus, *m);
    contention.add_row(
        {std::string(name), s.max_bytes, s.mean_bytes, s.l2, s.gini});
  }
  bench::emit(contention, "fig9_link_contention");

  netsim::AppParams app;
  app.iterations = cli.integer_as<int>("iterations");
  app.compute_us = cli.real("compute-us");

  Table table("Total execution time (ms) for " +
                  std::to_string(app.iterations) + " iterations",
              {"bw_100MBps", "Random(greedyLB)", "TopoCentLB", "TopoLB",
               "rand/topolb", "cent/topolb"},
              2);
  for (double bw100 : cli.real_list("bandwidths")) {
    netsim::NetworkParams net;
    net.bandwidth = bw100 * 100.0;
    net.per_hop_latency_us = 0.1;
    net.injection_overhead_us = 0.5;
    const auto r_g = netsim::run_iterative_app(g, torus, m_greedy, app, net);
    const auto r_c = netsim::run_iterative_app(g, torus, m_cent, app, net);
    const auto r_l = netsim::run_iterative_app(g, torus, m_lb, app, net);
    table.add_row({bw100, r_g.completion_us / 1000.0,
                   r_c.completion_us / 1000.0, r_l.completion_us / 1000.0,
                   r_g.completion_us / r_l.completion_us,
                   r_c.completion_us / r_l.completion_us});
  }
  bench::emit(table, "fig9_completion_time");
  std::cout << "\nPaper shape check: at the congested (low-bandwidth) end "
               "random costs >2x TopoLB; TopoCentLB\n"
               "sits between them, ~10-25% above TopoLB.\n";
  return 0;
}
