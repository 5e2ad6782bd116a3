// Ablation (ours): do the two network service models agree?
//
// The wormhole (virtual cut-through) model is what the headline
// experiments use; the packetised store-and-forward model is the
// fine-grained cross-check.  Both must (a) match their analytic no-load
// latencies and (b) rank mappings identically — otherwise conclusions
// drawn from the fast model would be suspect.
#include "bench/common.hpp"
#include "graph/builders.hpp"
#include "netsim/app.hpp"
#include "topo/torus_mesh.hpp"

using namespace topomap;

int main(int argc, char** argv) {
  CliParser cli("Ablation: wormhole vs store-and-forward service models");
  cli.add_option("iterations", "Jacobi iterations", "200");
  cli.add_option("msg-bytes", "message size in bytes", "4096");
  cli.add_option("bandwidths", "bandwidths in MB/s", "100,200,400,800");
  cli.add_option("seed", "RNG seed", "1");
  if (!cli.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  bench::preamble("network service-model ablation", seed);

  const double msg = cli.real("msg-bytes");
  const auto g = graph::stencil_2d(8, 8, 2.0 * msg);
  const topo::TorusMesh torus = topo::TorusMesh::torus({4, 4, 4});
  Rng rng(seed);
  const core::Mapping m_rand = core::make_strategy("random")->map(g, torus, rng);
  const core::Mapping m_lb = core::make_strategy("topolb")->map(g, torus, rng);

  netsim::AppParams app;
  app.iterations = cli.integer_as<int>("iterations");
  app.compute_us = 10.0;

  Table table("Completion time (ms): wormhole vs store-and-forward",
              {"bw_MBps", "WH_random", "WH_topolb", "SF_random", "SF_topolb",
               "WH_ratio", "SF_ratio"},
              2);
  for (double bw : cli.real_list("bandwidths")) {
    netsim::NetworkParams net;
    net.bandwidth = bw;
    net.per_hop_latency_us = 0.1;
    net.injection_overhead_us = 0.5;
    net.packet_bytes = 256.0;
    using SM = netsim::ServiceModel;
    const auto wh_r = netsim::run_iterative_app(g, torus, m_rand, app, net,
                                                SM::kWormhole);
    const auto wh_l = netsim::run_iterative_app(g, torus, m_lb, app, net,
                                                SM::kWormhole);
    const auto sf_r = netsim::run_iterative_app(g, torus, m_rand, app, net,
                                                SM::kStoreForward);
    const auto sf_l = netsim::run_iterative_app(g, torus, m_lb, app, net,
                                                SM::kStoreForward);
    table.add_row({bw, wh_r.completion_us / 1000.0,
                   wh_l.completion_us / 1000.0, sf_r.completion_us / 1000.0,
                   sf_l.completion_us / 1000.0,
                   wh_r.completion_us / wh_l.completion_us,
                   sf_r.completion_us / sf_l.completion_us});
  }
  bench::emit(table, "ablation_netsim_models");
  std::cout << "\nExpected: both models rank TopoLB ahead of random at every "
               "bandwidth, with similar ratios —\n"
               "the cheap wormhole model is a faithful stand-in for the "
               "packetised one.\n";
  return 0;
}
