// obs — instrumentation macro front-end for the whole stack.
//
// Hot-path code includes only this header and records through macros:
//
//   OBS_COUNTER_ADD("topolb/f_est_evals", nf);   // monotonic counter
//   OBS_HISTOGRAM("svc/map/kernel_us", us);      // log-bucketed histogram
//   OBS_SERIES_APPEND("topolb/hop_bytes_trajectory", hb);  // ordered series
//   OBS_SPAN("topolb/map");                      // RAII phase span
//
// One build, runtime switch: the macros are compiled into every build and
// each first checks obs::enabled() (one relaxed atomic load); no argument
// expression is evaluated while recording is off.  --trace/--stats, bench
// hooks, or TOPOMAP_OBS=1 in the environment switch recording on.  Code
// that needs more than one macro (a running objective, say) wraps itself
// in a plain `if (obs::enabled())`.
//
// Determinism contract: recording only observes.  No instrumented kernel
// reads registry or tracer state, so mappings, simulations, and
// support::parallel byte-identity are unchanged whether recording is off
// or on — tests/test_obs.cpp and scripts/ci.sh hold the line.
#pragma once

#include "obs/registry.hpp"
#include "obs/tracer.hpp"

#define TOPOMAP_OBS_CONCAT_IMPL(a, b) a##b
#define TOPOMAP_OBS_CONCAT(a, b) TOPOMAP_OBS_CONCAT_IMPL(a, b)

/// Add `delta` to the named monotonic counter.
#define OBS_COUNTER_ADD(name, delta)                                     \
  do {                                                                   \
    if (::topomap::obs::enabled())                                       \
      ::topomap::obs::Registry::instance().add((name),                   \
                                               static_cast<std::uint64_t>(delta)); \
  } while (false)

/// Record one sample into the named log-bucketed histogram
/// (obs/histogram.hpp: fixed boundaries, exact thread-shard merges, and
/// count/sum/min/max alongside the buckets).
#define OBS_HISTOGRAM(name, value)                                  \
  do {                                                              \
    if (::topomap::obs::enabled())                                  \
      ::topomap::obs::Registry::instance().observe(                 \
          (name), static_cast<double>(value));                      \
  } while (false)

/// Append one point to the named ordered series (single writer per name).
#define OBS_SERIES_APPEND(name, value)                             \
  do {                                                             \
    if (::topomap::obs::enabled())                                 \
      ::topomap::obs::Registry::instance().append_series(          \
          (name), static_cast<double>(value));                     \
  } while (false)

/// Open a scoped phase span closed at end of the enclosing block.
#define OBS_SPAN(name)                                          \
  ::topomap::obs::ScopedSpan TOPOMAP_OBS_CONCAT(obs_span_,      \
                                                __LINE__)(name)
