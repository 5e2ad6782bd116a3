// End-to-end scenario: measure a Jacobi application with the mini runtime,
// replay the load database through several mapping strategies (the paper's
// +LBDump/+LBSim workflow), then *simulate the actual execution* on a
// contended torus network to see hop-byte reductions turn into real time.
//
// Build & run:  ./build/examples/jacobi_simulation [--help]
#include <iostream>

#include "core/metrics.hpp"
#include "graph/builders.hpp"
#include "netsim/app.hpp"
#include "runtime/apps.hpp"
#include "runtime/lb_manager.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "topo/factory.hpp"
#include "topo/torus_mesh.hpp"

int main(int argc, char** argv) {
  using namespace topomap;

  CliParser cli("Jacobi: instrument -> dump -> map -> simulate execution");
  cli.add_option("side", "Jacobi grid side (tasks = side^2)", "8");
  cli.add_option("msg-kb", "boundary message size in KB", "16");
  cli.add_option("iterations", "simulated iterations", "500");
  cli.add_option("bandwidth", "link bandwidth MB/s", "200");
  cli.add_option("dump", "write the LB dump to this file (empty = skip)", "");
  cli.add_option("seed", "RNG seed", "7");
  if (!cli.parse(argc, argv)) return 0;

  const int side = cli.integer_as<int>("side");
  const int p = side * side;

  // --- 1. instrumented run on the mini message-driven runtime ---
  rts::JacobiConfig jacobi;
  jacobi.nx = side;
  jacobi.ny = side;
  jacobi.iterations = 10;  // a short measurement window is enough
  jacobi.message_bytes = cli.real("msg-kb") * 1024.0;
  const rts::LBDatabase db = rts::run_jacobi2d(jacobi);
  std::cout << "measured " << db.num_objects() << " chares, "
            << db.num_comm_records() << " communicating pairs, "
            << db.total_comm_bytes() / (1024 * 1024) << " MB traffic\n";

  if (const std::string dump = cli.str("dump"); !dump.empty()) {
    db.save_file(dump);
    std::cout << "LB dump written to " << dump << "\n";
  }

  // --- 2. replay through strategies on a (p/4, 4)-ish 3D torus ---
  const topo::TorusMesh machine =
      topo::TorusMesh::torus(topo::balanced_dims(p, 3));
  std::cout << "machine: " << machine.name() << "\n";

  // The measurement window scaled the edge weights by the iteration count;
  // hops-per-byte is scale-invariant, and the execution simulation below
  // uses per-iteration bytes directly.
  const graph::TaskGraph measured = db.to_task_graph();
  const graph::TaskGraph per_iter =
      graph::stencil_2d(side, side, 2.0 * jacobi.message_bytes);

  netsim::AppParams app;
  app.iterations = cli.integer_as<int>("iterations");
  app.compute_us = 20.0;
  netsim::NetworkParams net;
  net.bandwidth = cli.real("bandwidth");

  Table table("strategy comparison on the measured Jacobi database",
              {"strategy", "hops/byte", "completion_ms", "avg_latency_us",
               "busiest_link_ms"},
              2);
  Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));
  for (const char* spec : {"random", "greedy", "topocent", "topolb",
                           "topolb+refine"}) {
    rts::PipelineConfig pipeline;
    pipeline.mapper = core::make_strategy(spec);
    const auto out = rts::replay_database(db, machine, pipeline, rng);
    const auto run = netsim::run_iterative_app(per_iter, machine,
                                               out.group_mapping, app, net);
    table.add_row({std::string(spec),
                   core::hops_per_byte(measured, machine, out.group_mapping),
                   run.completion_us / 1000.0, run.avg_message_latency_us,
                   run.max_link_busy_us / 1000.0});
  }
  table.print(std::cout);
  std::cout << "\nLower hops-per-byte -> lower link contention -> faster "
               "completion (paper §5.3).\n";
  return 0;
}
