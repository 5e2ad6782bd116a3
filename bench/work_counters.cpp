// Work counters of the benchmark's mapping shapes, for the bench gate.
//
// Each scenario runs one `topomap map` call (ops::run_map, what the CLI
// and topomapd run) with recording on and reports the deterministic work
// counters it left: TopoLB's row rescans, f_est evaluations, selection
// evaluations and placed-cost pool rows; RefineTopoLB's visited pairs,
// computed deltas, skipped pairs and accepted swaps; the link-load route
// walk's hops; distance-plane rows built; and HierTopoLB's swaps.  None of
// them depends on the host or the thread count (tests/test_obs.cpp pins
// several at widths 1 and 4), so scripts/bench_gate.sh compares every cell
// exactly: a change to how much work a kernel does shows up here as a
// counted change, next to the wall-clock numbers perfbench reports.
#include "bench/common.hpp"
#include "obs/registry.hpp"
#include "ops/ops.hpp"

using namespace topomap;

namespace {

struct Scenario {
  const char* name;
  const char* tasks;
  const char* topology;
  const char* strategy;
  std::int64_t random_node_faults = 0;
};

// perfbench's served hot map and cold faulted shape, flat-4k and
// hier-262k, plus a dense random graph where TopoLB's row-minima buffer
// drains most often.
const Scenario kScenarios[] = {
    {"served-hot", "stencil2d:16x16", "torus:8x8x4", "topolb+refine"},
    {"served-cold", "stencil2d:15x16", "torus:8x8x4", "topolb+refine", 4},
    {"flat-4k", "stencil2d:64x64", "torus:16x16x16", "topolb"},
    {"er-1024", "er:1024:0.05", "torus:16x8x8", "topolb"},
    {"hier-262k", "stencil3d:64x64x64", "torus:32x32x32", "hier"},
};

const char* const kCounters[] = {
    "topolb/row_rescans",    "topolb/f_est_evals",  "topolb/select_evals",
    "topolb/pool_rows",      "refine/swap_attempts", "refine/delta_evals",
    "refine/pairs_skipped",  "refine/swap_accepts", "links/route_hops",
    "distcache/rows_built",  "hier/swaps",
};

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Work counters of the benchmark's mapping shapes");
  cli.add_option("seed", "RNG seed of every map call", "1");
  if (!cli.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  bench::preamble("work counters", seed);

  Table table("work counters per mapping shape (host-independent)",
              {"scenario", "counter", "count"});
  obs::set_enabled(true);
  for (const Scenario& s : kScenarios) {
    ops::Params p;
    p.tasks = s.tasks;
    p.topology = s.topology;
    p.strategy = s.strategy;
    p.seed = seed;
    p.random_node_faults = s.random_node_faults;
    p.fault_seed = 7;
    obs::Registry::instance().reset();
    (void)ops::run_map(p, ops::make_machine);
    for (const char* counter : kCounters)
      table.add_row({std::string(s.name), std::string(counter),
                     static_cast<std::int64_t>(
                         obs::Registry::instance().counter(counter))});
  }
  obs::Registry::instance().reset();
  bench::emit(table, "work_counters");
  return 0;
}
