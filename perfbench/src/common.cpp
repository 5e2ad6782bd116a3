#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>

#include "support/json.hpp"

namespace perfbench {

namespace json = topomap::support::json;

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double tail_quantile(std::size_t n) {
  const double q = 1.0 - 10.0 / static_cast<double>(n);
  return std::min(0.99, std::max(0.5, q));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream is("/proc/stat");
  std::string cpu;
  is >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && (is >> field); ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

double steal_pct(const CpuTicks& a, const CpuTicks& b) {
  if (b.total <= a.total) return 0.0;
  return 100.0 * static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double loadavg1() {
  std::ifstream is("/proc/loadavg");
  double l = 0.0;
  is >> l;
  return l;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

CpuPin::CpuPin() {
  CPU_ZERO(&saved_);
  const int cpu = sched_getcpu();
  if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

OpLayers collect_op_layers(const char* root) {
  const std::vector<topomap::obs::SpanRecord> spans =
      topomap::obs::Tracer::instance().spans();
  OpLayers out;
  for (const auto& op : spans) {
    if (op.depth != 0 || op.name != root) continue;
    const std::uint64_t end = op.start_ns + op.dur_ns;
    std::map<std::string, double> sums;
    double covered = 0.0;
    for (const auto& s : spans) {
      if (s.tid != op.tid || s.depth != 1 || s.start_ns < op.start_ns ||
          s.start_ns + s.dur_ns > end)
        continue;
      const double ms = static_cast<double>(s.dur_ns) / 1e6;
      sums[s.name] += ms;
      covered += ms;
    }
    const double op_ms = static_cast<double>(op.dur_ns) / 1e6;
    out.op_ms.push_back(op_ms);
    out.unattributed_ms.push_back(op_ms - covered);
    for (const auto& [name, ms] : sums) out.layer_ms[name].push_back(ms);
  }
  return out;
}

std::string Result::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("correct", correct);
  doc.set("attempted", attempted);
  doc.set("failed", failed);
  doc.set("setup_s", setup_s);
  json::Value m = json::Value::object();
  for (const auto& [name, value] : metrics) m.set(name, value);
  doc.set("metrics", std::move(m));
  json::Value d = json::Value::object();
  for (const auto& [name, value] : diagnostics) d.set(name, value);
  doc.set("diagnostics", std::move(d));
  json::Value e = json::Value::array();
  for (const auto& msg : errors) e.push_back(msg);
  doc.set("errors", std::move(e));
  return doc.dump();
}

double setup_seconds(const Options& opt) {
  return static_cast<double>(monotonic_ns() - opt.t0_ns) / 1e9;
}

void add_host_diagnostics(Result& r, const CpuTicks& before,
                          const CpuTicks& after, bool as_metrics) {
  const double steal = steal_pct(before, after);
  if (as_metrics) r.metric("host.steal_pct", steal);
  else r.diagnostic("host.steal_pct", steal);
  r.diagnostic("host.loadavg1", loadavg1());
}

}  // namespace perfbench
