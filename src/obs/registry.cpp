#include "obs/registry.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>

namespace topomap::obs {

namespace {

/// Process-local steady epoch, captured on first use.
std::chrono::steady_clock::time_point epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

// Transparent comparator so string_view lookups never allocate on the
// found path.
using CounterMap = std::map<std::string, std::uint64_t, std::less<>>;
using HistMap = std::map<std::string, Histogram, std::less<>>;

}  // namespace

std::atomic<bool> detail::g_enabled{[] {
  const char* env = std::getenv("TOPOMAP_OBS");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}()};

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch())
          .count());
}

/// One thread's private slice of the registry.  The owning thread records
/// under mu without contention; snapshots lock the same mutex briefly.
struct Registry::Shard {
  std::mutex mu;
  CounterMap counters;
  HistMap hists;
};

struct Registry::Impl {
  std::mutex mu;  // guards shards list, retired aggregates, and series
  std::vector<Shard*> shards;
  CounterMap retired_counters;
  HistMap retired_hists;
  std::map<std::string, std::vector<double>, std::less<>> series;
};

namespace {

/// Ties a shard to its thread: registered on first record, retired (merged
/// into the registry and freed) when the thread exits — worker pools are
/// resized by set_num_threads(), so shards genuinely come and go.
struct ShardHandle {
  Registry::Shard* shard = nullptr;
  ~ShardHandle();
};

thread_local ShardHandle t_shard;

}  // namespace

Registry& Registry::instance() {
  static Registry* r = new Registry();  // leaked: outlives thread dtors
  return *r;
}

Registry::Impl* Registry::impl() {
  static Impl* i = new Impl();
  return i;
}

Registry::Shard& Registry::local_shard() {
  if (t_shard.shard == nullptr) {
    auto* shard = new Shard();
    {
      std::lock_guard<std::mutex> lock(impl()->mu);
      impl()->shards.push_back(shard);
    }
    t_shard.shard = shard;
  }
  return *t_shard.shard;
}

void Registry::retire_shard(Shard* shard) {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    for (const auto& [name, v] : shard->counters)
      im->retired_counters[name] += v;
    for (const auto& [name, h] : shard->hists) im->retired_hists[name].merge(h);
  }
  std::erase(im->shards, shard);
  delete shard;
}

namespace {
ShardHandle::~ShardHandle() {
  if (shard != nullptr) Registry::instance().retire_shard(shard);
}
}  // namespace

void Registry::add(std::string_view name, std::uint64_t delta) {
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.counters.find(name);
  if (it != s.counters.end())
    it->second += delta;
  else
    s.counters.emplace(std::string(name), delta);
}

void Registry::observe(std::string_view name, double value) {
  Shard& s = local_shard();
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.hists.find(name);
  if (it != s.hists.end())
    it->second.add(value);
  else
    s.hists.emplace(std::string(name), Histogram{}).first->second.add(value);
}

void Registry::append_series(std::string_view name, double value) {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  const auto it = im->series.find(name);
  if (it != im->series.end())
    it->second.push_back(value);
  else
    im->series.emplace(std::string(name), std::vector<double>{value});
}

std::map<std::string, std::uint64_t> Registry::counters() const {
  Impl* im = const_cast<Registry*>(this)->impl();
  std::lock_guard<std::mutex> lock(im->mu);
  std::map<std::string, std::uint64_t> out(im->retired_counters.begin(),
                                           im->retired_counters.end());
  for (Shard* shard : im->shards) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    for (const auto& [name, v] : shard->counters) out[name] += v;
  }
  return out;
}

std::map<std::string, Histogram> Registry::histograms() const {
  Impl* im = const_cast<Registry*>(this)->impl();
  std::lock_guard<std::mutex> lock(im->mu);
  std::map<std::string, Histogram> out(im->retired_hists.begin(),
                                       im->retired_hists.end());
  for (Shard* shard : im->shards) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    for (const auto& [name, h] : shard->hists) out[name].merge(h);
  }
  return out;
}

std::map<std::string, std::vector<double>> Registry::series() const {
  Impl* im = const_cast<Registry*>(this)->impl();
  std::lock_guard<std::mutex> lock(im->mu);
  return {im->series.begin(), im->series.end()};
}

std::uint64_t Registry::counter(std::string_view name) const {
  const auto all = counters();
  const auto it = all.find(std::string(name));
  return it == all.end() ? 0 : it->second;
}

void Registry::reset() {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  im->retired_counters.clear();
  im->retired_hists.clear();
  im->series.clear();
  for (Shard* shard : im->shards) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    shard->counters.clear();
    shard->hists.clear();
  }
}

}  // namespace topomap::obs
