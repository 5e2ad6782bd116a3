// perfbench_driver — runs one benchmark workload in this process and prints
// one JSON result line (metrics by name, output-check outcome, host
// diagnostics) for run.py, which attaches units and prints the contract
// line.  Exit status: 0 when every output check passed, 1 when one failed,
// 2 on a usage error or an unexpected exception.
//
//   perfbench_driver --workload=NAME --seed=N --seconds=S --t0-ns=NS
//                    --work-dir=DIR [--trace=0|1] [--setup-only]
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "obs/tracer.hpp"
#include "workloads.hpp"

namespace {

bool take(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string v;
      if (take(arg, "workload", &v)) opt.workload = v;
      else if (take(arg, "seed", &v)) opt.seed = std::stoull(v);
      else if (take(arg, "seconds", &v)) opt.seconds = std::stod(v);
      else if (take(arg, "trace", &v)) opt.trace = v == "1";
      else if (take(arg, "t0-ns", &v)) opt.t0_ns = std::stoll(v);
      else if (take(arg, "work-dir", &v)) opt.work_dir = v;
      else if (arg == "--setup-only") opt.setup_only = true;
      else throw std::invalid_argument("unknown argument " + arg);
    }
    if (opt.workload.empty() || opt.t0_ns <= 0 || opt.work_dir.empty())
      throw std::invalid_argument("--workload, --t0-ns and --work-dir are required");

    const perfbench::Result r =
        opt.workload == "served-mix"
            ? perfbench::run_served(opt)
            : perfbench::run_oneshot(opt);
    if (opt.trace) {
      // The spans behind the per-layer numbers, for chrome://tracing or
      // ui.perfetto.dev.
      std::ofstream trace(opt.work_dir + "/trace-" + opt.workload + "-" +
                          std::to_string(opt.seed) + ".json");
      topomap::obs::Tracer::instance().write_chrome_trace(trace);
    }
    std::cout << r.to_json() << std::endl;
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
