// obs_diff — compare two obs::Report JSON artifacts.
//
//   obs_diff A.json B.json [--all] [--tolerance=R]
//
// Prints per-counter deltas (B - A), span-rollup total/mean shifts, and
// meta/series/table/histogram differences, so two runs (before/after an
// optimisation, two strategies, two thread counts) can be compared without
// spreadsheet work.  Series compare element-wise (the first diverging
// point is named — a length+final-value check would miss interior
// changes); tables compare by column set and row count.  Histograms
// compare per bucket: a bucket-array length mismatch is a structural
// difference and fails, as does any per-bucket count delta — except for
// timing-derived histograms (names suffixed _us/_ns/_ms/_wall), whose
// deltas print for inspection but never affect the exit status, exactly
// like span timings.  By default only changed entries print; --all prints
// every common entry too.  --tolerance=R (default 0) treats relative
// span-time changes within R as unchanged — wall-clock jitter, not signal.
//
// Exit status: 0 when the reports match (no differences outside tolerance;
// span timings and timing-derived histograms never affect the status),
// 1 when counters/meta/series/tables/histograms differ, 2 on usage or
// parse errors.
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "support/json.hpp"
#include "obs/report.hpp"
#include "support/stats.hpp"

namespace {

using topomap::support::json::Value;

Value load_report(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "error: cannot open " << path << "\n";
    std::exit(2);
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  Value doc = Value::parse(buf.str());
  const Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != topomap::obs::Report::kSchemaName) {
    std::cerr << "error: " << path << " is not a "
              << topomap::obs::Report::kSchemaName << " document\n";
    std::exit(2);
  }
  return doc;
}

/// The named object section as a sorted name -> Value map (empty when the
/// section is absent — consumers tolerate unknown/missing sections).
std::map<std::string, Value> section(const Value& doc, const char* name) {
  std::map<std::string, Value> out;
  const Value* sec = doc.find(name);
  if (sec == nullptr || !sec->is_object()) return out;
  for (const auto& [key, value] : sec->members()) out.emplace(key, value);
  return out;
}

std::string fmt(double x) { return topomap::support::json::format_number(x); }

/// Timing-derived histograms (duration buckets) carry wall-clock payloads:
/// their deltas are inspection output, never exit status — the same rule
/// span rollups follow.
bool is_timing_histogram(const std::string& name) {
  for (const char* suffix : {"_us", "_ns", "_ms", "_wall"}) {
    const std::size_t n = std::string(suffix).size();
    if (name.size() >= n && name.compare(name.size() - n, n, suffix) == 0)
      return true;
  }
  return false;
}

/// Compare two histogram documents bucket by bucket; returns the number of
/// *status-affecting* differences (0 for timing-derived names).  Prints a
/// line per changed bucket either way.
int diff_histogram(const std::string& name, const Value& va, const Value& vb,
                   bool show_all) {
  const bool neutral = is_timing_histogram(name);
  const auto& ba = va.at("buckets").items();
  const auto& bb = vb.at("buckets").items();
  int changes = 0;
  if (ba.size() != bb.size()) {
    // Structural mismatch: different populated-bucket sets.
    std::cout << "hist    " << name << ": " << ba.size() << " -> "
              << bb.size() << " populated buckets\n";
    ++changes;
  }
  // Merge both bucket lists by lower bound so a bucket present on one side
  // only still prints.
  std::map<double, std::pair<double, double>> by_lo;
  for (const Value& t : ba)
    by_lo[t.items()[0].as_number()].first = t.items()[2].as_number();
  for (const Value& t : bb)
    by_lo[t.items()[0].as_number()].second = t.items()[2].as_number();
  for (const auto& [lo, counts] : by_lo) {
    const double delta = counts.second - counts.first;
    if (delta != 0.0) ++changes;
    if (delta == 0.0 && !show_all) continue;
    std::cout << "hist    " << name << " [" << fmt(lo) << ", ...): "
              << fmt(counts.first) << " -> " << fmt(counts.second) << "  ("
              << (delta >= 0.0 ? "+" : "") << fmt(delta) << ")\n";
  }
  if (changes > 0 && neutral)
    std::cout << "hist    " << name
              << ": timing-derived, not counted as a difference\n";
  return neutral ? 0 : changes;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path_a, path_b;
  bool show_all = false;
  double tolerance = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--all") {
      show_all = true;
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      tolerance = std::stod(arg.substr(12));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: obs_diff A.json B.json [--all] [--tolerance=R]\n";
      return 0;
    } else if (path_a.empty()) {
      path_a = arg;
    } else if (path_b.empty()) {
      path_b = arg;
    } else {
      std::cerr << "error: unexpected argument " << arg << "\n";
      return 2;
    }
  }
  if (path_a.empty() || path_b.empty()) {
    std::cerr << "usage: obs_diff A.json B.json [--all] [--tolerance=R]\n";
    return 2;
  }

  int differences = 0;
  try {
    const Value a = load_report(path_a);
    const Value b = load_report(path_b);

    // --- meta ---
    const auto meta_a = section(a, "meta");
    const auto meta_b = section(b, "meta");
    for (const auto& [key, va] : meta_a) {
      const auto it = meta_b.find(key);
      if (it == meta_b.end()) {
        std::cout << "meta    " << key << ": only in A (" << va.dump()
                  << ")\n";
        ++differences;
      } else if (va.dump() != it->second.dump()) {
        std::cout << "meta    " << key << ": " << va.dump() << " -> "
                  << it->second.dump() << "\n";
        ++differences;
      }
    }
    for (const auto& [key, vb] : meta_b) {
      if (meta_a.find(key) == meta_a.end()) {
        std::cout << "meta    " << key << ": only in B (" << vb.dump()
                  << ")\n";
        ++differences;
      }
    }

    // --- counters: per-name delta B - A (absent counts as 0) ---
    const auto counters_a = section(a, "counters");
    const auto counters_b = section(b, "counters");
    std::map<std::string, std::pair<double, double>> counters;
    for (const auto& [name, v] : counters_a)
      counters[name].first = v.as_number();
    for (const auto& [name, v] : counters_b)
      counters[name].second = v.as_number();
    for (const auto& [name, ab] : counters) {
      const double delta = ab.second - ab.first;
      if (delta != 0.0) ++differences;
      if (delta == 0.0 && !show_all) continue;
      std::cout << "counter " << name << ": " << fmt(ab.first) << " -> "
                << fmt(ab.second) << "  (" << (delta >= 0.0 ? "+" : "")
                << fmt(delta) << ")\n";
    }

    // --- span rollups: total duration shift, tolerance-filtered ---
    const auto spans_a = section(a, "spans");
    const auto spans_b = section(b, "spans");
    for (const auto& [name, va] : spans_a) {
      const auto it = spans_b.find(name);
      if (it == spans_b.end()) {
        std::cout << "span    " << name << ": only in A\n";
        continue;
      }
      const double ta = va.at("sum").as_number();
      const double tb = it->second.at("sum").as_number();
      const double rel =
          ta > 0.0 ? std::abs(tb - ta) / ta : (tb > 0.0 ? 1.0 : 0.0);
      if (rel <= tolerance && !show_all) continue;
      std::cout << "span    " << name << ": total " << fmt(ta) << " -> "
                << fmt(tb) << " us ("
                << fmt(va.at("count").as_number()) << " -> "
                << fmt(it->second.at("count").as_number()) << " spans)\n";
    }
    for (const auto& [name, vb] : spans_b) {
      (void)vb;
      if (spans_a.find(name) == spans_a.end())
        std::cout << "span    " << name << ": only in B\n";
    }

    // --- series: element-wise (length + every value) ---
    const auto series_a = section(a, "series");
    const auto series_b = section(b, "series");
    for (const auto& [name, va] : series_a) {
      const auto it = series_b.find(name);
      if (it == series_b.end()) {
        std::cout << "series  " << name << ": only in A\n";
        ++differences;
        continue;
      }
      const auto& xs = va.items();
      const auto& ys = it->second.items();
      // First index where the series diverge (length mismatch counts from
      // the shorter one's end).
      std::size_t at = 0;
      const std::size_t common = std::min(xs.size(), ys.size());
      while (at < common && xs[at].as_number() == ys[at].as_number()) ++at;
      if (at == common && xs.size() == ys.size()) {
        if (show_all)
          std::cout << "series  " << name << ": unchanged (" << xs.size()
                    << " points)\n";
        continue;
      }
      ++differences;
      std::cout << "series  " << name << ": " << xs.size() << " -> "
                << ys.size() << " points";
      if (at < common)
        std::cout << ", first change at [" << at << "]: "
                  << fmt(xs[at].as_number()) << " -> "
                  << fmt(ys[at].as_number());
      std::cout << "\n";
    }
    for (const auto& [name, vb] : series_b) {
      (void)vb;
      if (series_a.find(name) == series_a.end()) {
        std::cout << "series  " << name << ": only in B\n";
        ++differences;
      }
    }

    // --- histograms: per-bucket deltas; timing-derived names are
    // status-neutral like span timings ---
    const auto hists_a = section(a, "histograms");
    const auto hists_b = section(b, "histograms");
    for (const auto& [name, va] : hists_a) {
      const auto it = hists_b.find(name);
      if (it == hists_b.end()) {
        std::cout << "hist    " << name << ": only in A\n";
        if (!is_timing_histogram(name)) ++differences;
        continue;
      }
      differences += diff_histogram(name, va, it->second, show_all);
    }
    for (const auto& [name, vb] : hists_b) {
      (void)vb;
      if (hists_a.find(name) == hists_a.end()) {
        std::cout << "hist    " << name << ": only in B\n";
        if (!is_timing_histogram(name)) ++differences;
      }
    }

    // --- tables: column sets + row counts (cell values carry benchmark
    // payloads with wall-clock columns, so they stay out of the status) ---
    const auto tables_a = section(a, "tables");
    const auto tables_b = section(b, "tables");
    for (const auto& [name, va] : tables_a) {
      const auto it = tables_b.find(name);
      if (it == tables_b.end()) {
        std::cout << "table   " << name << ": only in A\n";
        ++differences;
        continue;
      }
      const std::string cols_a = va.at("columns").dump();
      const std::string cols_b = it->second.at("columns").dump();
      const std::size_t rows_a = va.at("rows").size();
      const std::size_t rows_b = it->second.at("rows").size();
      if (cols_a != cols_b) {
        std::cout << "table   " << name << ": columns " << cols_a << " -> "
                  << cols_b << "\n";
        ++differences;
      } else if (rows_a != rows_b) {
        std::cout << "table   " << name << ": " << rows_a << " -> " << rows_b
                  << " rows\n";
        ++differences;
      } else if (show_all) {
        std::cout << "table   " << name << ": same columns, " << rows_a
                  << " rows\n";
      }
    }
    for (const auto& [name, vb] : tables_b) {
      (void)vb;
      if (tables_a.find(name) == tables_a.end()) {
        std::cout << "table   " << name << ": only in B\n";
        ++differences;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  if (differences == 0)
    std::cout << "reports match (span timings ignored)\n";
  return differences == 0 ? 0 : 1;
}
