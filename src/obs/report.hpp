// obs::Report — the machine-readable perf artifact every tool emits.
//
// One Report bundles, under a stable schema:
//   * meta          — free-form run metadata (workload, machine, strategy,
//                     seed, thread count, ...), string → string
//   * counters      — name → integer, from obs::Registry
//   * histograms    — name → {count,sum,min,max,mean,p50,p90,p99,
//                     buckets:[[lo,hi,count],...]} log-bucketed latency/
//                     value histograms (obs/histogram.hpp), non-empty
//                     buckets only, from obs::Registry
//   * series        — name → [numbers], ordered trajectories (e.g. TopoLB's
//                     per-iteration hop-bytes), from the Registry plus any
//                     add_series() calls
//   * spans         — name → duration rollup in microseconds, from
//                     obs::Tracer
//   * tables        — named row-oriented result tables (bench sweeps):
//                     {"columns": [...], "rows": [[...], ...]}
//
// The JSON layout is versioned ("schema": "topomap.obs.report",
// "schema_version": 2); consumers (tools/obs_diff, scripts/check_trace.py,
// external dashboards) key on those two fields and must tolerate unknown
// sections within a version.  Bump kSchemaVersion only for breaking layout
// changes — version 2 dropped version 1's "distributions" section, whose
// count/sum/min/max summaries every histogram already carries.
//
// Typical producer flow (topomap_cli --stats, bench/common.hpp):
//
//   obs::Report report;
//   report.set_meta("workload", "stencil3d");
//   ... run ...
//   report.capture();            // snapshot Registry + Tracer rollup
//   report.write_file(path);
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"

namespace topomap::obs {

/// The one JSON rendering of a Histogram, shared by obs::Report and the
/// svc metrics snapshot: summary fields plus the non-empty buckets as
/// [lo, hi, count] triples (boundaries are deterministic by construction).
support::json::Value histogram_to_json(const Histogram& h);

class Report {
 public:
  static constexpr const char* kSchemaName = "topomap.obs.report";
  static constexpr int kSchemaVersion = 2;

  /// Attach one run-metadata entry (last write per key wins).
  void set_meta(const std::string& key, const std::string& value);

  /// Attach an ordered numeric series under `name` (overwrites a captured
  /// series of the same name).
  void add_series(const std::string& name, std::vector<double> values);

  /// Attach a row-oriented table (cells may mix strings and numbers).
  /// Every row must have columns.size() entries (REQUIREd at to_json()
  /// time).
  void add_table(const std::string& name, std::vector<std::string> columns,
                 std::vector<std::vector<support::json::Value>> rows);

  /// Snapshot the process-wide Registry (counters, histograms, series)
  /// and Tracer (span rollups) into this report.  Explicit series added via
  /// add_series() shadow captured ones of the same name.
  void capture();

  /// Serialize to the schema-versioned JSON document.
  support::json::Value to_json() const;

  /// Pretty-printed JSON + trailing newline.
  void write(std::ostream& os) const;
  void write_file(const std::string& path) const;

 private:
  struct Table {
    std::vector<std::string> columns;
    std::vector<std::vector<support::json::Value>> rows;
  };

  std::map<std::string, std::string> meta_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, Distribution> spans_;
  std::map<std::string, Table> tables_;
};

}  // namespace topomap::obs
