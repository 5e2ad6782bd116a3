#include "netsim/network.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace topomap::netsim {

Network::Network(const topo::Topology& topo, NetworkParams params,
                 ServiceModel model, SimulationClient* client)
    : topo_(topo), params_(params), model_(model), client_(client),
      links_(topo) {
  TOPOMAP_REQUIRE(params_.bandwidth > 0.0, "bandwidth must be positive");
  TOPOMAP_REQUIRE(params_.per_hop_latency_us >= 0.0, "negative hop latency");
  TOPOMAP_REQUIRE(params_.injection_overhead_us >= 0.0,
                  "negative injection overhead");
  TOPOMAP_REQUIRE(params_.packet_bytes > 0.0, "packet size must be positive");

  const auto num_links = static_cast<std::size_t>(links_.size());
  link_free_.assign(num_links, 0.0);
  link_busy_.assign(num_links, 0.0);
  link_bytes_.assign(num_links, 0.0);
  link_slowdown_.assign(num_links, 1.0);
  // Service rates come from the topology's own link health: a machine
  // described by a soft-faulted topo::FaultOverlay serialises messages
  // proportionally slower on its degraded links, with no separate
  // degrade_link() bookkeeping to keep in sync with the mapping distances.
  // Links in neighbors() are alive by construction, so health is in (0, 1].
  for (int l = 0; l < links_.size(); ++l) {
    const double health = topo_.link_health(links_.from(l), links_.to(l));
    TOPOMAP_ASSERT(health > 0.0 && health <= 1.0,
                   "alive link reports health outside (0, 1]");
    if (health < 1.0) link_slowdown_[static_cast<std::size_t>(l)] = 1.0 / health;
  }
}

void Network::degrade_link(int from, int to, double factor) {
  TOPOMAP_REQUIRE(factor > 0.0 && factor <= 1.0,
                  "degradation factor must be in (0, 1]");
  const int link = links_.id(from, to);
  TOPOMAP_REQUIRE(link >= 0, "degrade_link: not a physical link");
  link_slowdown_[static_cast<std::size_t>(link)] = 1.0 / factor;
}

void Network::inject(SimTime now, int src_node, int dst_node, double bytes,
                     std::uint64_t tag) {
  TOPOMAP_REQUIRE(now + 1e-9 >= now_, "injection in the simulated past");
  TOPOMAP_REQUIRE(bytes > 0.0, "message must carry bytes");

  MessageState state;
  state.msg = Message{src_node, dst_node, bytes, tag, now, 0.0};
  state.route_hops = topo_.distance(src_node, dst_node);
  const bool adaptive = params_.routing == RoutingPolicy::kMinimalAdaptive;
  if (src_node != dst_node && !adaptive)
    links_.walk(src_node, dst_node,
                [&](int link) { state.links.push_back(link); });
  if (model_ == ServiceModel::kStoreForward && state.route_hops > 0) {
    state.packets = static_cast<std::uint32_t>(
        std::ceil(bytes / params_.packet_bytes));
  }
  if (src_node != dst_node && adaptive) {
    // Track the current position of the head (wormhole) / each packet.
    state.packet_node.assign(
        model_ == ServiceModel::kStoreForward ? state.packets : 1, src_node);
  }

  // Recycle a finished slot if available (keeps memory bounded by the
  // number of in-flight messages, not total messages).
  std::uint64_t id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
    messages_[static_cast<std::size_t>(id)] = std::move(state);
  } else {
    id = messages_.size();
    messages_.push_back(std::move(state));
  }

  const SimTime start = now + params_.injection_overhead_us;
  if (messages_[static_cast<std::size_t>(id)].route_hops == 0) {
    queue_.push(start, Event::Kind::kDelivery, id);
  } else if (model_ == ServiceModel::kWormhole) {
    queue_.push(start, Event::Kind::kHop, id, 0, 0);
  } else {
    const std::uint32_t packets = messages_[static_cast<std::size_t>(id)].packets;
    for (std::uint32_t pkt = 0; pkt < packets; ++pkt)
      queue_.push(start, Event::Kind::kHop, id, 0, pkt);
  }
}

void Network::schedule_app(SimTime time, std::uint64_t payload) {
  TOPOMAP_REQUIRE(time + 1e-9 >= now_, "app event in the simulated past");
  queue_.push(time, Event::Kind::kApp, payload);
}

void Network::set_telemetry(const TelemetrySpec& spec) {
  TOPOMAP_REQUIRE(spec.sample_interval_us > 0.0,
                  "telemetry sample interval must be positive");
  TOPOMAP_REQUIRE(
      spec.saturation_threshold > 0.0 && spec.saturation_threshold <= 1.0,
      "saturation threshold must be in (0, 1]");
  telemetry_on_ = true;
  telemetry_ = spec;
  bin_busy_us_.assign(link_free_.size(), {});
}

void Network::bin_busy(int link, SimTime start, SimTime duration) {
  // Split [start, start+duration) across the fixed sampling windows.  One
  // FIFO link's reservations never overlap, so summing the pieces per
  // window gives its exact busy time there.
  auto& bins = bin_busy_us_[static_cast<std::size_t>(link)];
  const double w = telemetry_.sample_interval_us;
  SimTime t = start;
  double remaining = duration;
  while (remaining > 0.0) {
    const auto bin = static_cast<std::size_t>(t / w);
    if (bins.size() <= bin) bins.resize(bin + 1, 0.0);
    const double take = std::min(remaining, (static_cast<double>(bin) + 1.0) * w - t);
    if (take <= 0.0) break;  // FP guard at a window boundary
    bins[bin] += take;
    t += take;
    remaining -= take;
  }
}

SimTime Network::reserve(int link, SimTime earliest, SimTime duration,
                         double bytes) {
  const auto idx = static_cast<std::size_t>(link);
  const SimTime start = std::max(earliest, link_free_[idx]);
  link_free_[idx] = start + duration;
  link_busy_[idx] += duration;
  link_bytes_[idx] += bytes;
  if (telemetry_on_) bin_busy(link, start, duration);
  return start;
}

int Network::pick_adaptive_link(int cur, int dst) const {
  const int cur_dist = topo_.distance(cur, dst);
  int best_link = -1;
  SimTime best_free = 0.0;
  for (const int link : links_.links_by_target(cur)) {
    // A neighbour is on a minimal path iff crossing its link pays for the
    // full distance reduction — cost 1 on hop metrics, the health-weighted
    // fixed-point cost on a degraded overlay.
    const int next = links_.to(link);
    if (topo_.distance(next, dst) != cur_dist - topo_.link_cost(cur, next))
      continue;
    const SimTime free = link_free_[static_cast<std::size_t>(link)];
    if (best_link < 0 || free < best_free) {  // ties: lowest neighbour id
      best_link = link;
      best_free = free;
    }
  }
  TOPOMAP_ASSERT(best_link >= 0,
                 "no minimal next hop: topology distances are inconsistent "
                 "with its neighbour graph (e.g. FatTree)");
  return best_link;
}

void Network::handle_hop(const Event& e) {
  MessageState& state = messages_[static_cast<std::size_t>(e.id)];
  const bool adaptive = params_.routing == RoutingPolicy::kMinimalAdaptive;

  // Resolve the outgoing link and whether it lands at the destination.
  int link = -1;
  bool last_hop = false;
  int next_node = -1;
  if (adaptive) {
    const std::size_t pos_idx =
        model_ == ServiceModel::kStoreForward ? e.sub : 0;
    const int cur = state.packet_node[pos_idx];
    link = pick_adaptive_link(cur, state.msg.dst_node);
    next_node = links_.to(link);
    state.packet_node[pos_idx] = next_node;
    last_hop = (next_node == state.msg.dst_node);
  } else {
    link = state.links[e.hop];
    last_hop = (e.hop + 1 == state.links.size());
  }

  const double slowdown = link_slowdown_[static_cast<std::size_t>(link)];
  if (model_ == ServiceModel::kWormhole) {
    const double serialization =
        state.msg.bytes / params_.bandwidth * slowdown;
    const SimTime start = reserve(link, e.time, serialization, state.msg.bytes);
    const SimTime head_next = start + params_.per_hop_latency_us;
    if (!last_hop) {
      queue_.push(head_next, Event::Kind::kHop, e.id, e.hop + 1, 0);
    } else {
      // Tail arrives one full serialisation after the head.
      queue_.push(head_next + serialization, Event::Kind::kDelivery, e.id);
    }
    return;
  }

  // Store-and-forward: this packet fully traverses the link, then forwards.
  const double full = params_.packet_bytes;
  const double last_pkt_bytes =
      state.msg.bytes - full * static_cast<double>(state.packets - 1);
  const double pkt_bytes = (e.sub + 1 == state.packets) ? last_pkt_bytes : full;
  const double serialization = pkt_bytes / params_.bandwidth * slowdown;
  const SimTime start = reserve(link, e.time, serialization, pkt_bytes);
  const SimTime arrival = start + serialization + params_.per_hop_latency_us;
  if (!last_hop) {
    queue_.push(arrival, Event::Kind::kHop, e.id, e.hop + 1, e.sub);
  } else {
    ++state.packets_arrived;
    if (state.packets_arrived == state.packets)
      queue_.push(arrival, Event::Kind::kDelivery, e.id);
  }
}

void Network::deliver(SimTime time, std::uint64_t id) {
  MessageState& state = messages_[static_cast<std::size_t>(id)];
  state.msg.deliver_time = time;
  ++delivered_;
  latency_.add(time - state.msg.inject_time);
  hops_.add(static_cast<double>(state.route_hops));
  const Message msg = state.msg;  // copy before the slot is recycled
  free_slots_.push_back(id);
  if (client_ != nullptr) client_->on_delivery(time, msg);
}

SimTime Network::run_until_idle() {
  OBS_SPAN("netsim/run_until_idle");
  std::uint64_t obs_events = 0;
  std::size_t obs_depth_max = 0;
  while (!queue_.empty()) {
    ++obs_events;
    obs_depth_max = std::max(obs_depth_max, queue_.size());
    const Event e = queue_.pop();
    TOPOMAP_ASSERT(e.time + 1e-9 >= now_, "event time went backwards");
    now_ = std::max(now_, e.time);
    if (telemetry_on_) {
      // Per-window maximum of the event-queue depth, observed as events
      // are processed (the queue is the simulator's in-flight backlog).
      const auto bin = static_cast<std::size_t>(
          now_ / telemetry_.sample_interval_us);
      if (bin_queue_max_.size() <= bin) bin_queue_max_.resize(bin + 1, 0.0);
      bin_queue_max_[bin] =
          std::max(bin_queue_max_[bin], static_cast<double>(queue_.size()));
    }
    switch (e.kind) {
      case Event::Kind::kHop:
        handle_hop(e);
        break;
      case Event::Kind::kDelivery:
        deliver(e.time, e.id);
        break;
      case Event::Kind::kApp:
        if (client_ != nullptr) client_->on_app_event(e.time, e.id);
        break;
    }
  }
  if (obs_events > 0) {
    OBS_COUNTER_ADD("netsim/events", obs_events);
    OBS_HISTOGRAM("netsim/queue_depth_max", obs_depth_max);
    OBS_HISTOGRAM("netsim/link_busy_us_max", max_link_busy_us());
    OBS_HISTOGRAM("netsim/link_busy_us_mean", mean_link_busy_us());
  }
  if (telemetry_on_ && obs::enabled()) publish_telemetry();
  return now_;
}

TelemetrySnapshot Network::telemetry_snapshot() const {
  TelemetrySnapshot snap;
  if (!telemetry_on_) return snap;
  const double w = telemetry_.sample_interval_us;
  snap.sample_interval_us = w;

  std::size_t windows = bin_queue_max_.size();
  for (const auto& bins : bin_busy_us_) windows = std::max(windows, bins.size());
  snap.t_us.reserve(windows);
  snap.util_max.reserve(windows);
  snap.queue_depth.reserve(windows);
  for (std::size_t b = 0; b < windows; ++b) {
    double util = 0.0;
    for (const auto& bins : bin_busy_us_)
      if (b < bins.size()) util = std::max(util, bins[b] / w);
    snap.t_us.push_back((static_cast<double>(b) + 1.0) * w);
    snap.util_max.push_back(util);
    snap.queue_depth.push_back(b < bin_queue_max_.size() ? bin_queue_max_[b]
                                                         : 0.0);
  }

  for (std::size_t l = 0; l < link_bytes_.size(); ++l) {
    if (link_bytes_[l] <= 0.0) continue;
    LinkTelemetry lt;
    lt.from = links_.from(static_cast<int>(l));
    lt.to = links_.to(static_cast<int>(l));
    lt.bytes = link_bytes_[l];
    lt.busy_us = link_busy_[l];
    const auto& bins = bin_busy_us_[l];
    for (std::size_t b = 0; b < bins.size(); ++b) {
      const double util = bins[b] / w;
      if (util > lt.peak_util) {
        lt.peak_util = util;
        lt.time_to_peak_us = (static_cast<double>(b) + 1.0) * w;
      }
      if (util >= telemetry_.saturation_threshold) lt.saturated_us += w;
    }
    snap.links.push_back(lt);
  }
  std::sort(snap.links.begin(), snap.links.end(),
            [](const LinkTelemetry& x, const LinkTelemetry& y) {
              if (x.bytes != y.bytes) return x.bytes > y.bytes;
              if (x.from != y.from) return x.from < y.from;
              return x.to < y.to;
            });
  return snap;
}

std::vector<LinkFlow> Network::link_flows() const {
  std::vector<LinkFlow> flows;
  for (int u = 0; u < topo_.size(); ++u)
    for (const int l : links_.links_by_target(u))
      if (link_bytes_[static_cast<std::size_t>(l)] > 0.0)
        flows.push_back(LinkFlow{u, links_.to(l),
                                 link_bytes_[static_cast<std::size_t>(l)],
                                 link_busy_[static_cast<std::size_t>(l)]});
  return flows;
}

void Network::publish_telemetry() const {
  const TelemetrySnapshot snap = telemetry_snapshot();
  obs::Registry& reg = obs::Registry::instance();
  obs::Tracer& tracer = obs::Tracer::instance();
  for (std::size_t b = 0; b < snap.t_us.size(); ++b) {
    reg.append_series("netsim/util_max", snap.util_max[b]);
    reg.append_series("netsim/queue_depth", snap.queue_depth[b]);
    tracer.record_counter("netsim/util_max", snap.t_us[b], snap.util_max[b]);
    tracer.record_counter("netsim/queue_depth", snap.t_us[b],
                          snap.queue_depth[b]);
  }
  for (const LinkTelemetry& lt : snap.links) {
    reg.observe("netsim/link_peak_util", lt.peak_util);
    reg.observe("netsim/link_time_to_peak_us", lt.time_to_peak_us);
    reg.observe("netsim/link_saturated_us", lt.saturated_us);
  }
}

double Network::max_link_busy_us() const {
  double mx = 0.0;
  for (double b : link_busy_) mx = std::max(mx, b);
  return mx;
}

double Network::mean_link_busy_us() const {
  if (link_busy_.empty()) return 0.0;
  double total = 0.0;
  for (double b : link_busy_) total += b;
  return total / static_cast<double>(link_busy_.size());
}

}  // namespace topomap::netsim
