#include "core/annealing_lb.hpp"

#include <cmath>

#include "core/baseline_lb.hpp"
#include "core/cache_handle.hpp"
#include "core/distance_provider.hpp"
#include "core/metrics.hpp"
#include "core/swap_kernel.hpp"
#include "obs/obs.hpp"
#include "topo/distance_cache.hpp"

namespace topomap::core {

namespace {

// The schedule (see the header).
constexpr double kMovesPerTask = 8.0;  // swap proposals per epoch, x n
constexpr double kCooling = 0.9;       // geometric cooling per epoch
constexpr int kEpochs = 60;
constexpr double kT0Factor = 1.5;      // T0 = this x mean |delta|

/// The Metropolis chain proper, on a distance plane of D entries.
template <class D>
Mapping run_chain(const graph::TaskGraph& g,
                  const detail::CachedDistance<D>& dist, Mapping current,
                  double energy, Rng& rng) {
  const int n = g.num_vertices();
  Mapping best = current;
  double best_energy = energy;

  // Calibrate T0 from the magnitude of random move deltas.
  double mean_abs_delta = 0.0;
  const int probes = std::min(256, n * (n - 1) / 2);
  for (int i = 0; i < probes; ++i) {
    const int a = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
    int b = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n - 1)));
    if (b >= a) ++b;
    mean_abs_delta += std::abs(detail::swap_delta_dist(g, dist, current, a, b));
  }
  mean_abs_delta /= static_cast<double>(probes);
  double temperature = kT0Factor * std::max(mean_abs_delta, 1e-9);

  const auto moves = static_cast<int>(kMovesPerTask * static_cast<double>(n));
  OBS_SPAN("anneal/chain");
  OBS_COUNTER_ADD("anneal/moves",
                  static_cast<std::uint64_t>(moves) *
                      static_cast<std::uint64_t>(kEpochs));
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    for (int move = 0; move < moves; ++move) {
      const int a =
          static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
      int b = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n - 1)));
      if (b >= a) ++b;
      const double delta = detail::swap_delta_dist(g, dist, current, a, b);
      const bool accept =
          delta < 0.0 ||
          rng.uniform_double() < std::exp(-delta / temperature);
      if (accept) {
        OBS_COUNTER_ADD("anneal/accepts", 1);
        std::swap(current[static_cast<std::size_t>(a)],
                  current[static_cast<std::size_t>(b)]);
        energy += delta;
        if (energy < best_energy) {
          best_energy = energy;
          best = current;
        }
      }
    }
    temperature *= kCooling;
  }
  return best;
}

}  // namespace

AnnealingLB::AnnealingLB(AnnealingOptions options, CacheHandlePtr cache)
    : options_(std::move(options)), cache_(std::move(cache)) {}

std::string AnnealingLB::name() const {
  return options_.warm_start ? "AnnealingLB[" + options_.warm_start->name() + "]"
                             : "AnnealingLB";
}

Mapping AnnealingLB::map(const graph::TaskGraph& g,
                         const topo::Topology& topo, Rng& rng) const {
  require_square(g, topo);
  const int n = g.num_vertices();
  if (n <= 1) return identity_mapping(n);

  Mapping current = options_.warm_start
                        ? options_.warm_start->map(g, topo, rng)
                        : RandomLB().map(g, topo, rng);
  const auto cache = obtain_cache(cache_, topo);
  const double energy = hop_bytes(g, *cache, current);
  return cache->visit([&](auto tag) {
    return run_chain(g, detail::CachedDistance<decltype(tag)>{*cache},
                     std::move(current), energy, rng);
  });
}

}  // namespace topomap::core
