// Shared pieces of the perfbench driver: options, clocks, order statistics,
// host probes, span aggregation, and the result record the driver prints
// for run.py.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/tracer.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop after set-up and report only setup_s (run.py repeats set-up in
  /// fresh processes and takes the median).
  bool setup_only = false;
  /// CLOCK_MONOTONIC nanoseconds when run.py spawned this process; set-up
  /// time is measured from here.
  std::int64_t t0_ns = 0;
  /// Scratch directory inside the checkout (sockets, event logs, traces).
  std::string work_dir;
};

using Clock = std::chrono::steady_clock;

/// CLOCK_MONOTONIC in nanoseconds (the clock Python's time.monotonic_ns
/// reads, so run.py's spawn time and ours share one timeline).
std::int64_t monotonic_ns();

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);
/// The op.tail_ms quantile for n samples: p99 when at least ten samples
/// lie beyond it, otherwise the highest quantile that has ten beyond it,
/// and never below the median.
double tail_quantile(std::size_t n);

/// Cumulative /proc/stat CPU ticks: steal, and the total of user through
/// steal.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks read_cpu_ticks();
/// Share of CPU time stolen by the hypervisor between two samples, in %.
double steal_pct(const CpuTicks& a, const CpuTicks& b);
/// One-minute load average.
double loadavg1();
/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Confines the calling thread, and every thread it starts while this
/// lives, to the CPU it is running on; restores the thread's previous CPU
/// set when destroyed.  A request handed between threads on one CPU is a
/// context switch; across CPUs it wakes a halted vCPU, which waits on the
/// hypervisor when the host is contended (README.md, "Noise").
class CpuPin {
 public:
  CpuPin();
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Open a span named `name` when `on`; closes at scope exit.
class MaybeSpan {
 public:
  MaybeSpan(bool on, const char* name) {
    if (on) span_.emplace(name);
  }

 private:
  std::optional<topomap::obs::ScopedSpan> span_;
};

/// Per-op layer times derived from the tracer: every top-level span named
/// `root` is one op; its depth-1 children on the same thread are summed by
/// name.  Values in ms.
struct OpLayers {
  std::vector<double> op_ms;
  std::vector<double> unattributed_ms;
  std::map<std::string, std::vector<double>> layer_ms;  ///< one entry per op
};
OpLayers collect_op_layers(const char* root);

/// Outcome of one driver invocation.  Metrics are plain name -> value; the
/// units live in BENCHMARK.json and run.py attaches them.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double setup_s = 0.0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, double>> diagnostics;
  std::vector<std::string> errors;

  void metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  void diagnostic(std::string name, double value) {
    diagnostics.emplace_back(std::move(name), value);
  }
  /// Record a failed output check (the run then exits non-zero).
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }

  std::string to_json() const;
};

/// Set-up time so far: from run.py's spawn to now, in seconds.
double setup_seconds(const Options& opt);

/// host.steal_pct over [before, after] (a metric in traced runs, else a
/// diagnostic) and the one-minute load average (always a diagnostic).
void add_host_diagnostics(Result& r, const CpuTicks& before,
                          const CpuTicks& after, bool as_metrics);

}  // namespace perfbench
