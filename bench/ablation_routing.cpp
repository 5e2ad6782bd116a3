// Ablation: deterministic (dimension-ordered) vs minimal adaptive routing.
//
// BlueGene/L could route adaptively; our headline reproductions use
// deterministic DOR, which concentrates contention and explains why our
// random-mapping penalties at large p exceed the paper's (EXPERIMENTS.md,
// Figs 10-11 notes).  This harness quantifies the effect: adaptive routing
// rescues random placement the most (it has the most path diversity to
// exploit) while topology-aware mappings barely change — hop-bytes
// reduction and adaptive routing are complementary, not redundant.
#include "bench/common.hpp"
#include "graph/builders.hpp"
#include "netsim/app.hpp"
#include "topo/factory.hpp"
#include "topo/torus_mesh.hpp"

using namespace topomap;

int main(int argc, char** argv) {
  CliParser cli("Ablation: deterministic vs minimal-adaptive routing");
  cli.add_option("procs", "machine sizes (3D-decomposable)", "64,216,512");
  cli.add_option("iterations", "Jacobi iterations", "200");
  cli.add_option("msg-kb", "message size in KB", "100");
  cli.add_option("bandwidth", "link bandwidth MB/s", "175");
  cli.add_option("seed", "RNG seed", "1");
  if (!cli.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  bench::preamble("routing-policy ablation", seed);

  netsim::AppParams app;
  app.iterations = cli.integer_as<int>("iterations");
  app.compute_us = 20.0;

  Table table("completion time (s): DOR vs minimal adaptive",
              {"p", "rand_DOR", "rand_adaptive", "rand_gain", "topolb_DOR",
               "topolb_adaptive", "topolb_gain", "rand/topolb_adaptive"},
              3);
  for (auto p64 : cli.int_list("procs")) {
    const int p = static_cast<int>(p64);
    const topo::TorusMesh machine =
        topo::TorusMesh::torus(topo::balanced_dims(p, 3));
    const auto dims = topo::balanced_dims(p, 2);
    const auto g = graph::stencil_2d(dims[0], dims[1],
                                     2.0 * cli.real("msg-kb") * 1024.0);
    Rng rng(seed);
    const core::Mapping m_rand = core::make_strategy("random")->map(g, machine, rng);
    const core::Mapping m_lb = core::make_strategy("topolb")->map(g, machine, rng);

    auto run = [&](const core::Mapping& m, netsim::RoutingPolicy policy) {
      netsim::NetworkParams net;
      net.bandwidth = cli.real("bandwidth");
      net.per_hop_latency_us = 0.1;
      net.injection_overhead_us = 2.0;
      net.routing = policy;
      return netsim::run_iterative_app(g, machine, m, app, net)
                 .completion_us /
             1e6;
    };
    const double r_det = run(m_rand, netsim::RoutingPolicy::kDeterministic);
    const double r_ad = run(m_rand, netsim::RoutingPolicy::kMinimalAdaptive);
    const double l_det = run(m_lb, netsim::RoutingPolicy::kDeterministic);
    const double l_ad = run(m_lb, netsim::RoutingPolicy::kMinimalAdaptive);
    table.add_row({static_cast<std::int64_t>(p), r_det, r_ad, r_det / r_ad,
                   l_det, l_ad, l_det / l_ad, r_ad / l_ad});
  }
  bench::emit(table, "ablation_routing");
  std::cout << "\nExpected: adaptive routing helps random placement much "
               "more than TopoLB (which already has\nlittle contention to "
               "spread), narrowing — but not closing — the gap; this "
               "matches the residual\nrandom-vs-TopoLB ratios the paper "
               "measured on adaptive-capable BlueGene hardware.\n";
  return 0;
}
