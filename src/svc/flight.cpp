#include "svc/flight.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <thread>

namespace topomap::svc {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

template <std::size_t N>
void copy_padded(char (&dst)[N], std::string_view src) {
  const std::size_t n = std::min(src.size(), N - 1);
  std::memcpy(dst, src.data(), n);
  std::memset(dst + n, 0, N - n);
}

template <std::size_t N>
std::string_view field(const char (&src)[N]) {
  return {src, ::strnlen(src, N)};
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(round_up_pow2(capacity)), mask_(slots_.size() - 1) {}

void FlightRecorder::record(std::string_view corr, std::string_view kind,
                            std::string_view stage, std::uint64_t t_ns,
                            std::uint64_t dur_ns) {
  const std::uint64_t seq = cursor_.fetch_add(1, std::memory_order_relaxed);
  FlightEvent ev;
  ev.seq = seq;
  ev.t_ns = t_ns;
  ev.dur_ns = dur_ns;
  copy_padded(ev.corr, corr);
  copy_padded(ev.kind, kind);
  copy_padded(ev.stage, stage);
  std::uint64_t words[kSlotWords];
  std::memcpy(words, &ev, sizeof ev);

  // Lap-safe claim: move the slot's version from a stable (even) value of
  // an *older* sequence to odd 2*seq+1.  A writer one lap behind that is
  // still mid-write (odd, older) is waited out — its few stores finish
  // unconditionally — so two writers never interleave on one slot.  A
  // version at or past our claim means a newer lap already owns the slot:
  // this event is out of the snapshot window anyway, so it is dropped.
  // The acquire on success orders an earlier writer's payload stores
  // before ours.
  Slot& slot = slots_[seq & mask_];
  const std::uint64_t claim = 2 * seq + 1;
  std::uint64_t v = slot.version.load(std::memory_order_relaxed);
  for (;;) {
    if (v >= claim) return;
    if (v & 1) {
      std::this_thread::yield();
      v = slot.version.load(std::memory_order_relaxed);
      continue;
    }
    if (slot.version.compare_exchange_weak(v, claim,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed))
      break;
  }
  // Seqlock write: the odd claim, then a release fence so no payload store
  // becomes visible before it; the payload as relaxed atomic words; then
  // even = 2*seq + 2, which marks the slot stable *for this sequence
  // number* — a reader can tell an old generation from a current one by
  // the version value alone.
  std::atomic_thread_fence(std::memory_order_release);
  for (std::size_t i = 0; i < kSlotWords; ++i)
    slot.words[i].store(words[i], std::memory_order_relaxed);
  slot.version.store(claim + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  const std::uint64_t end = cursor_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t begin = end > cap ? end - cap : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t i = begin; i < end; ++i) {
    const Slot& slot = slots_[i & mask_];
    const std::uint64_t stable = 2 * i + 2;
    if (slot.version.load(std::memory_order_acquire) != stable)
      continue;  // being written, or already lapped by a newer event
    std::uint64_t words[kSlotWords];
    for (std::size_t w = 0; w < kSlotWords; ++w)
      words[w] = slot.words[w].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.version.load(std::memory_order_relaxed) != stable)
      continue;  // overwritten mid-copy: drop the torn read
    FlightEvent ev;
    std::memcpy(&ev, words, sizeof ev);
    out.push_back(ev);
  }
  return out;
}

json::Value FlightRecorder::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("schema", "topomap.svc.flight");
  doc.set("schema_version", 1);
  doc.set("capacity", capacity());
  doc.set("recorded", total_recorded());
  json::Value events = json::Value::array();
  for (const FlightEvent& ev : snapshot()) {
    json::Value e = json::Value::object();
    e.set("seq", ev.seq);
    e.set("t_ns", ev.t_ns);
    e.set("dur_ns", ev.dur_ns);
    e.set("corr", std::string(field(ev.corr)));
    e.set("kind", std::string(field(ev.kind)));
    e.set("stage", std::string(field(ev.stage)));
    events.push_back(std::move(e));
  }
  doc.set("events", std::move(events));
  return doc;
}

void FlightRecorder::dump_text(std::ostream& os) const {
  const std::vector<FlightEvent> events = snapshot();
  os << "flight recorder: " << events.size() << " of " << total_recorded()
     << " events (capacity " << capacity() << ")\n";
  for (const FlightEvent& ev : events) {
    os << "  #" << ev.seq << " t=" << ev.t_ns << "ns " << field(ev.corr)
       << " " << field(ev.kind) << "/" << field(ev.stage);
    if (ev.dur_ns > 0) os << " dur=" << ev.dur_ns << "ns";
    os << "\n";
  }
  os.flush();
}

}  // namespace topomap::svc
