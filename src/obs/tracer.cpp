#include "obs/tracer.hpp"

#include <algorithm>
#include <mutex>
#include <ostream>
#include <sstream>

#include "obs/registry.hpp"
#include "support/json.hpp"

namespace topomap::obs {

namespace json = support::json;

struct Tracer::Buffer {
  std::mutex mu;
  int tid = 0;
  std::vector<SpanRecord> spans;
};

struct Tracer::Impl {
  std::mutex mu;
  std::vector<Buffer*> buffers;
  std::vector<SpanRecord> retired;
  std::vector<CounterRecord> counters;
  int next_tid = 0;
};

namespace {

struct BufferHandle {
  Tracer::Buffer* buffer = nullptr;
  ~BufferHandle();
};

thread_local BufferHandle t_buffer;
thread_local int t_depth = 0;

}  // namespace

Tracer& Tracer::instance() {
  static Tracer* t = new Tracer();  // leaked: outlives thread dtors
  return *t;
}

Tracer::Impl* Tracer::impl() {
  static Impl* i = new Impl();
  return i;
}

int& Tracer::thread_depth() { return t_depth; }

Tracer::Buffer& Tracer::local_buffer() {
  if (t_buffer.buffer == nullptr) {
    auto* buffer = new Buffer();
    {
      std::lock_guard<std::mutex> lock(impl()->mu);
      buffer->tid = impl()->next_tid++;
      impl()->buffers.push_back(buffer);
    }
    t_buffer.buffer = buffer;
  }
  return *t_buffer.buffer;
}

void Tracer::retire_buffer(Buffer* buffer) {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    im->retired.insert(im->retired.end(), buffer->spans.begin(),
                       buffer->spans.end());
  }
  std::erase(im->buffers, buffer);
  delete buffer;
}

namespace {
BufferHandle::~BufferHandle() {
  if (buffer != nullptr) Tracer::instance().retire_buffer(buffer);
}
}  // namespace

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t dur_ns, int depth) {
  Buffer& b = local_buffer();
  std::lock_guard<std::mutex> lock(b.mu);
  b.spans.push_back(SpanRecord{name, start_ns, dur_ns, depth, b.tid});
}

void Tracer::record_counter(const char* name, double ts_us, double value) {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  im->counters.push_back(CounterRecord{name, ts_us, value});
}

std::vector<CounterRecord> Tracer::counters() const {
  Impl* im = const_cast<Tracer*>(this)->impl();
  std::lock_guard<std::mutex> lock(im->mu);
  return im->counters;
}

std::vector<SpanRecord> Tracer::spans() const {
  Impl* im = const_cast<Tracer*>(this)->impl();
  std::lock_guard<std::mutex> lock(im->mu);
  std::vector<SpanRecord> out = im->retired;
  for (Buffer* buffer : im->buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.depth < b.depth;
                   });
  return out;
}

std::map<std::string, Distribution> Tracer::rollup() const {
  std::map<std::string, Distribution> out;
  for (const SpanRecord& s : spans())
    out[s.name].add(static_cast<double>(s.dur_ns) / 1000.0);
  return out;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  json::Value events = json::Value::array();
  for (const SpanRecord& s : spans()) {
    json::Value e = json::Value::object();
    e.set("name", s.name);
    e.set("ph", "X");
    e.set("ts", static_cast<double>(s.start_ns) / 1000.0);
    e.set("dur", static_cast<double>(s.dur_ns) / 1000.0);
    e.set("pid", 1);
    e.set("tid", s.tid);
    events.push_back(std::move(e));
  }
  // Counter tracks go on their own pid: their timestamps are the
  // producer's clock (netsim: virtual time), not the span wall clock.
  for (const CounterRecord& c : counters()) {
    json::Value e = json::Value::object();
    e.set("name", c.name);
    e.set("ph", "C");
    e.set("ts", c.ts_us);
    e.set("pid", 2);
    e.set("tid", 0);
    json::Value args = json::Value::object();
    args.set("value", c.value);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  os << events.dump() << "\n";
}

std::string Tracer::summary() const {
  const auto roll = rollup();
  std::size_t name_width = 4;  // "span"
  for (const auto& [name, dist] : roll)
    name_width = std::max(name_width, name.size());
  std::ostringstream os;
  os << "span";
  os << std::string(name_width - 4, ' ')
     << "  count   total_ms    mean_us     min_us     max_us\n";
  for (const auto& [name, dist] : roll) {
    os << name << std::string(name_width - name.size(), ' ');
    auto cell = [&](const std::string& s, std::size_t w) {
      os << "  " << std::string(w > s.size() ? w - s.size() : 0, ' ') << s;
    };
    cell(std::to_string(dist.count), 5);
    cell(format_fixed(dist.sum / 1000.0, 3), 9);
    cell(format_fixed(dist.mean(), 3), 9);
    cell(format_fixed(dist.min_or_zero(), 3), 9);
    cell(format_fixed(dist.max_or_zero(), 3), 9);
    os << "\n";
  }
  return os.str();
}

void Tracer::reset() {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  im->retired.clear();
  im->counters.clear();
  for (Buffer* buffer : im->buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->spans.clear();
  }
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!enabled()) return;
  name_ = name;
  depth_ = Tracer::thread_depth()++;
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (name_ == nullptr) return;
  const std::uint64_t dur = now_ns() - start_ns_;
  --Tracer::thread_depth();
  // Dropped, not recorded, when recording was switched off while the span
  // was open: the depth counter must still balance, but a sample landing
  // after set_enabled(false) would violate "disabled records nothing".
  if (!enabled()) return;
  Tracer::instance().record(name_, start_ns_, dur, depth_);
}

}  // namespace topomap::obs
