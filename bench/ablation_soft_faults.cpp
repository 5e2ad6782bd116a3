// Ablation: does health-aware mapping actually steer traffic off sick
// links?
//
// A column of links in the middle of the machine degrades (soft faults:
// the links still exist but serialise messages slower).  Two placements of
// the same stencil compete on the degraded machine:
//
//  * blind  — the strategy maps on the pristine base topology: the mapping
//    cannot see the degradation (today's default without the overlay).
//  * aware  — the strategy maps on the FaultOverlay, whose health-weighted
//    distance plane makes crossing a sick link cost 1/health hops, so the
//    placement itself avoids straddling the degraded cut.
//
// Both placements then execute on the *same* degraded machine (overlay
// routes + netsim service rates seeded from link health), so the table
// isolates the placement decision: bytes crossing degraded links, plain
// hop-bytes, and simulated completion time.  On the torus the wraparound
// lets an aware placement rotate the stencil so the degraded cut falls on
// the stencil's open boundary (near-zero sick traffic); on the mesh only
// half the cut is degraded and the aware placement shifts heavy pairs onto
// the healthy rows.
#include <memory>

#include "bench/common.hpp"
#include "core/contention.hpp"
#include "core/fault_aware.hpp"
#include "graph/builders.hpp"
#include "netsim/app.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"
#include "topo/link_index.hpp"

using namespace topomap;

namespace {

/// Bytes per iteration that cross a degraded link, following the machine's
/// actual routes (what the simulator will do to both placements).
double degraded_link_bytes(const graph::TaskGraph& g,
                           const topo::FaultOverlay& overlay,
                           const core::Mapping& m) {
  const topo::LinkIndex links(overlay);
  double sick = 0.0;
  for (const auto& e : g.edges()) {
    const int pu = m[static_cast<std::size_t>(e.a)];
    const int pv = m[static_cast<std::size_t>(e.b)];
    if (pu == pv) continue;
    links.walk(pu, pv, [&](int link) {
      if (overlay.link_health(links.from(link), links.to(link)) < 1.0)
        sick += e.bytes;
    });
  }
  return sick;
}

struct Scenario {
  std::string label;
  std::string topology;
  /// Rows of the column cut (between x = cut_x and x = cut_x + 1) whose
  /// links degrade.
  std::vector<int> rows;
};

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Ablation: health-aware vs health-blind mapping on a "
                "machine with degraded links");
  cli.add_option("strategy", "mapping strategy", "topolb+refine");
  cli.add_option("health", "health of each degraded link, in (0,1)", "0.25");
  cli.add_option("iterations", "simulated app iterations", "50");
  cli.add_option("seed", "RNG seed", "1");
  if (!cli.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  const double health = cli.real("health");
  bench::preamble("soft-fault mapping ablation", seed);

  const int nx = 8, ny = 8, cut_x = 3;
  const graph::TaskGraph g = graph::stencil_2d(nx, ny, 1000.0);
  const auto strategy = core::make_strategy(cli.str("strategy"));
  std::cout << "workload: " << g.num_vertices() << " stencil tasks, "
            << "degraded column cut x=" << cut_x << "-" << cut_x + 1
            << " at health " << health << ", strategy "
            << cli.str("strategy") << "\n";

  // Torus: the full cut degrades, but wraparound means an aware placement
  // can rotate the (open-boundary) stencil off it.  Mesh: only the lower
  // half degrades, so healthy rows remain for the heavy pairs.
  const std::vector<Scenario> scenarios = {
      {"torus", "torus:8x8", {0, 1, 2, 3, 4, 5, 6, 7}},
      {"mesh", "mesh:8x8", {0, 1, 2, 3}},
  };

  Table table("health-aware vs health-blind placement",
              {"machine", "degraded", "blind_sickB", "aware_sickB",
               "blind_hpB", "aware_hpB", "blind_ms", "aware_ms"},
              4);

  netsim::AppParams app;
  app.iterations = static_cast<int>(cli.integer("iterations"));
  netsim::NetworkParams net;
  net.bandwidth = 500.0;

  bool aware_wins_everywhere = true;
  for (const Scenario& sc : scenarios) {
    const auto base = topo::make_topology(sc.topology);
    auto overlay = std::make_shared<topo::FaultOverlay>(base);
    for (const int y : sc.rows)
      overlay->degrade_link(cut_x + nx * y, cut_x + 1 + nx * y, health);

    // Blind: map on the pristine base (identical streams via fresh Rng).
    Rng blind_rng(seed);
    const core::Mapping blind = strategy->map(g, *base, blind_rng);
    // Aware: same strategy, but the machine view is the weighted overlay.
    Rng aware_rng(seed);
    const core::Mapping aware =
        core::map_on_alive(*strategy, g, *overlay, aware_rng);

    const double blind_sick = degraded_link_bytes(g, *overlay, blind);
    const double aware_sick = degraded_link_bytes(g, *overlay, aware);
    // Plain hop-bytes on the base: what the placement costs in distance,
    // independent of the weighted metric used to find it.
    const double blind_hpb = core::hops_per_byte(g, *base, blind);
    const double aware_hpb = core::hops_per_byte(g, *base, aware);
    const auto blind_sim =
        netsim::run_iterative_app(g, *overlay, blind, app, net);
    const auto aware_sim =
        netsim::run_iterative_app(g, *overlay, aware, app, net);

    table.add_row({sc.label, static_cast<std::int64_t>(sc.rows.size()),
                   blind_sick, aware_sick, blind_hpb, aware_hpb,
                   blind_sim.completion_us / 1000.0,
                   aware_sim.completion_us / 1000.0});
    if (aware_sick >= blind_sick) aware_wins_everywhere = false;

    // Explain the shift: per-link diff blind -> aware on the degraded
    // machine (the degraded cut's links should dominate the drops).
    const core::ContentionDiff diff =
        core::diff_contention(core::attribute_link_loads(g, *overlay, blind),
                              core::attribute_link_loads(g, *overlay, aware));
    std::cout << "\n[" << sc.label << "] contention shift blind -> aware:\n"
              << core::render_contention_diff(diff, 5, 3);
  }

  bench::emit(table, "ablation_soft_faults");
  std::cout << "\nExpected: the aware placement moves traffic off the "
               "degraded links (aware_sickB <\nblind_sickB) at little or no "
               "plain hop-byte cost, and the simulator — whose per-link\n"
               "service rates come from the same health values — finishes "
               "the aware placement\nsooner.\n";
  if (!aware_wins_everywhere) {
    std::cout << "WARNING: health-aware placement did not reduce degraded-"
                 "link traffic on every\nscenario above.\n";
    return 1;
  }
  return 0;
}
