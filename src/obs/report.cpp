#include "obs/report.hpp"

#include <fstream>
#include <ostream>

#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "support/error.hpp"

namespace topomap::obs {

namespace json = support::json;

namespace {

json::Value dist_json(const Distribution& d) {
  json::Value v = json::Value::object();
  v.set("count", d.count);
  v.set("sum", d.sum);
  v.set("min", d.min_or_zero());
  v.set("max", d.max_or_zero());
  v.set("mean", d.mean());
  return v;
}

}  // namespace

json::Value histogram_to_json(const Histogram& h) {
  json::Value v = dist_json(h.summary());
  v.set("p50", h.quantile(0.5));
  v.set("p90", h.quantile(0.9));
  v.set("p99", h.quantile(0.99));
  json::Value buckets = json::Value::array();
  for (int i : h.nonempty_buckets()) {
    json::Value triple = json::Value::array();
    triple.push_back(Histogram::bucket_lo(i));
    triple.push_back(Histogram::bucket_hi(i));
    triple.push_back(h.bucket(i));
    buckets.push_back(std::move(triple));
  }
  v.set("buckets", std::move(buckets));
  return v;
}

void Report::set_meta(const std::string& key, const std::string& value) {
  meta_[key] = value;
}

void Report::add_series(const std::string& name, std::vector<double> values) {
  series_[name] = std::move(values);
}

void Report::add_table(const std::string& name,
                       std::vector<std::string> columns,
                       std::vector<std::vector<json::Value>> rows) {
  tables_[name] = Table{std::move(columns), std::move(rows)};
}

void Report::capture() {
  Registry& reg = Registry::instance();
  counters_ = reg.counters();
  histograms_ = reg.histograms();
  spans_ = Tracer::instance().rollup();
  // Explicit add_series() entries shadow same-named captured series.
  auto captured = reg.series();
  for (auto& [name, values] : captured)
    series_.emplace(name, std::move(values));
}

json::Value Report::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("schema", kSchemaName);
  doc.set("schema_version", kSchemaVersion);

  json::Value meta = json::Value::object();
  for (const auto& [k, v] : meta_) meta.set(k, v);
  doc.set("meta", std::move(meta));

  json::Value counters = json::Value::object();
  for (const auto& [name, v] : counters_) counters.set(name, v);
  doc.set("counters", std::move(counters));

  json::Value hists = json::Value::object();
  for (const auto& [name, h] : histograms_)
    hists.set(name, histogram_to_json(h));
  doc.set("histograms", std::move(hists));

  json::Value series = json::Value::object();
  for (const auto& [name, values] : series_) {
    json::Value arr = json::Value::array();
    for (double x : values) arr.push_back(x);
    series.set(name, std::move(arr));
  }
  doc.set("series", std::move(series));

  json::Value spans = json::Value::object();
  for (const auto& [name, d] : spans_) spans.set(name, dist_json(d));
  doc.set("spans", std::move(spans));

  json::Value tables = json::Value::object();
  for (const auto& [name, table] : tables_) {
    json::Value t = json::Value::object();
    json::Value columns = json::Value::array();
    for (const std::string& c : table.columns) columns.push_back(c);
    t.set("columns", std::move(columns));
    json::Value rows = json::Value::array();
    for (const auto& row : table.rows) {
      TOPOMAP_REQUIRE(row.size() == table.columns.size(),
                      "report table '" + name + "': row width " +
                          std::to_string(row.size()) + " != " +
                          std::to_string(table.columns.size()) + " columns");
      json::Value r = json::Value::array();
      for (const json::Value& x : row) r.push_back(x);
      rows.push_back(std::move(r));
    }
    t.set("rows", std::move(rows));
    tables.set(name, std::move(t));
  }
  doc.set("tables", std::move(tables));

  return doc;
}

void Report::write(std::ostream& os) const { os << to_json().dump(2) << "\n"; }

void Report::write_file(const std::string& path) const {
  std::ofstream os(path);
  TOPOMAP_REQUIRE(os.good(), "report: cannot open '" + path + "' for writing");
  write(os);
  os.flush();
  TOPOMAP_REQUIRE(os.good(), "report: failed writing '" + path + "'");
}

}  // namespace topomap::obs
