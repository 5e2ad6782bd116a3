// Shared helpers for the experiment harnesses (one binary per paper
// table/figure).  Each harness prints an aligned table with the same
// rows/series the paper reports and mirrors it to bench_results/<name>.csv
// plus a machine-readable obs::Report at bench_results/<name>.json — the
// JSON carries the table and, with recording switched on at runtime
// (TOPOMAP_OBS=1), every counter/span the run recorded.
#pragma once

#include <chrono>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "obs/report.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace topomap::bench {

/// Wall-clock seconds of a callable.
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Mean hops-per-byte of `strategy` over `repeats` seeded runs (1 repeat
/// for the deterministic strategies).
inline double mean_hops_per_byte(const core::MappingStrategy& strategy,
                                 const graph::TaskGraph& g,
                                 const topo::Topology& topo, Rng& rng,
                                 int repeats) {
  Distribution d;
  for (int r = 0; r < repeats; ++r)
    d.add(core::hops_per_byte(g, topo, strategy.map(g, topo, rng)));
  return d.mean();
}

/// Print the table and mirror it to bench_results/<csv_name>.csv and, as an
/// obs::Report with the table plus any recorded counters/spans, to
/// bench_results/<csv_name>.json.
inline void emit(const Table& table, const std::string& csv_name) {
  table.print(std::cout);
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  const std::string path = "bench_results/" + csv_name + ".csv";
  if (table.write_csv(path))
    std::cout << "(csv: " << path << ")\n";
  else
    std::cout << "(warning: could not write " << path << ")\n";

  obs::Report report;
  report.set_meta("bench", csv_name);
  std::vector<std::vector<support::json::Value>> rows;
  rows.reserve(table.rows().size());
  for (const auto& row : table.rows()) {
    std::vector<support::json::Value> cells;
    cells.reserve(row.size());
    for (const TableCell& cell : row)
      cells.push_back(std::visit(
          [](const auto& v) { return support::json::Value(v); }, cell));
    rows.push_back(std::move(cells));
  }
  report.add_table(csv_name, table.columns(), std::move(rows));
  report.capture();
  const std::string json_path = "bench_results/" + csv_name + ".json";
  try {
    report.write_file(json_path);
    std::cout << "(json: " << json_path << ")\n";
  } catch (const std::exception&) {
    std::cout << "(warning: could not write " << json_path << ")\n";
  }
}

/// Common preamble: print the experiment header and the seed.
inline void preamble(const std::string& what, std::uint64_t seed) {
  std::cout << "topomap experiment: " << what << "\n"
            << "seed: " << seed << "\n";
}

}  // namespace topomap::bench
