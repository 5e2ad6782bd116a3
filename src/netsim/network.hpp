// Contention-modelling interconnect simulator (DESIGN.md S5).
//
// Substitutes for the paper's BigNetSim runs and BlueGene measurements.
// Messages travel the deterministic Topology::route() between processors;
// every traversed link is exclusively occupied for bytes/bandwidth time, so
// per-link load — which hop-bytes approximates — directly produces queuing
// delay and the congestion behaviour of §5.3.
//
// Two service models:
//
//  * kWormhole (default) — virtual cut-through at message granularity: the
//    head advances one per_hop_latency per switch and reserves each link
//    for the full message serialisation time; the tail arrives one
//    serialisation after the head.  No-load latency =
//    hops * per_hop_latency + bytes / bandwidth.  Cheap (O(hops) events
//    per message), matches BlueGene-class wormhole networks.
//  * kStoreForward — packetised store-and-forward: the message splits into
//    MTU-sized packets, each fully received before forwarding.  No-load
//    latency = hops * (pkt/bw + per_hop_latency) + (npkts-1) * pkt/bw.
//    Finer-grained link sharing; O(hops * packets) events.
//
// Buffers are unbounded (the paper speaks of messages "stranded in the
// buffers at the switches"); links are FIFO.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netsim/event_queue.hpp"
#include "support/stats.hpp"
#include "topo/link_index.hpp"
#include "topo/topology.hpp"

namespace topomap::netsim {

/// How each message/packet picks its next hop.
enum class RoutingPolicy {
  /// Follow Topology::route() — deterministic dimension-ordered routing on
  /// grids.  Oblivious to load; what BlueGene's deterministic mode and our
  /// hop-byte link accounting assume.
  kDeterministic,
  /// Minimal adaptive: at every switch, choose — among the neighbours that
  /// strictly reduce the distance to the destination — the output link
  /// that frees earliest (ties: lowest neighbour id).  Spreads contention
  /// across equivalent minimal paths like BlueGene's adaptive mode.
  /// Requires the topology's distances to be consistent with its
  /// neighbour graph (true for all shipped topologies except FatTree).
  kMinimalAdaptive,
};

struct NetworkParams {
  /// Link bandwidth in bytes per microsecond (== MB/s).
  double bandwidth = 1000.0;
  /// Switch/wire delay per hop for the head, in microseconds.
  double per_hop_latency_us = 0.1;
  /// Fixed software/NIC overhead added at injection, in microseconds.
  double injection_overhead_us = 0.5;
  /// MTU for the store-and-forward model, in bytes.
  double packet_bytes = 256.0;
  RoutingPolicy routing = RoutingPolicy::kDeterministic;
};

enum class ServiceModel { kWormhole, kStoreForward };

/// Configuration for time-resolved telemetry (set_telemetry).  Sampling
/// works on a fixed *virtual-time* grid: link busy time is binned into
/// consecutive sample_interval_us windows as reservations are made, so a
/// window's per-link utilization is exact (reservations on one FIFO link
/// never overlap), not an end-of-run average.
struct TelemetrySpec {
  double sample_interval_us = 100.0;
  /// A window with utilization >= this counts toward a link's saturation
  /// duration.
  double saturation_threshold = 0.95;
};

/// Time-resolved per-link summary, derived from the sampling grid.
struct LinkTelemetry {
  int from = 0;
  int to = 0;
  double bytes = 0.0;            ///< payload bytes pushed over the link
  double busy_us = 0.0;          ///< total busy (serialisation) time
  double peak_util = 0.0;        ///< hottest sampling window's utilization
  double time_to_peak_us = 0.0;  ///< end of the first window hitting peak
  double saturated_us = 0.0;     ///< time spent in windows above threshold
};

/// One payload-byte flow summary per link (always recorded, no telemetry
/// needed): what the simulator *actually* pushed, for cross-checking
/// against core::link_loads' routed predictions.
struct LinkFlow {
  int from = 0;
  int to = 0;
  double bytes = 0.0;
  double busy_us = 0.0;
};

/// Everything the sampling grid produced: parallel per-window arrays (the
/// busiest-link timeline) plus the per-link summaries, links with traffic
/// only, sorted by descending bytes (ties: ascending (from, to)).
struct TelemetrySnapshot {
  double sample_interval_us = 0.0;
  std::vector<double> t_us;         ///< window end times, ascending
  std::vector<double> util_max;     ///< busiest link's utilization per window
  std::vector<double> queue_depth;  ///< max event-queue depth per window
  std::vector<LinkTelemetry> links;
};

struct Message {
  int src_node = 0;
  int dst_node = 0;
  double bytes = 0.0;
  std::uint64_t tag = 0;     ///< opaque application tag
  SimTime inject_time = 0.0;
  SimTime deliver_time = 0.0;
};

/// Receives message deliveries and application events from the simulator.
class SimulationClient {
 public:
  virtual ~SimulationClient() = default;
  virtual void on_delivery(SimTime now, const Message& msg) = 0;
  virtual void on_app_event(SimTime now, std::uint64_t payload) = 0;
};

class Network {
 public:
  /// @param topo    topology with processor-level links (not FatTree);
  ///                kept alive by the caller for the simulator's lifetime
  /// @param client  may be null when only aggregate stats are wanted
  Network(const topo::Topology& topo, NetworkParams params,
          ServiceModel model, SimulationClient* client);

  /// Inject a message at `now` (>= current simulation time).  Zero-hop
  /// (src == dst) messages deliver after the injection overhead only.
  void inject(SimTime now, int src_node, int dst_node, double bytes,
              std::uint64_t tag);

  /// Failure/degradation injection: scale the directed link from -> to
  /// down to `factor` of nominal bandwidth (0 < factor <= 1).  Models a
  /// flaky cable or a congested adaptive route; messages crossing the link
  /// serialise proportionally slower.  Must be called before the affected
  /// traffic is injected.
  ///
  /// The canonical degradation path is the topology itself: a Network built
  /// over a soft-faulted topo::FaultOverlay seeds every link's slowdown
  /// from Topology::link_health at construction, so the simulator, the
  /// routes, and the mapping distances all describe one machine.  This
  /// method remains for ad-hoc single-link experiments and overrides the
  /// seeded value.
  void degrade_link(int from, int to, double factor);

  /// Schedule an application callback (client->on_app_event).
  void schedule_app(SimTime time, std::uint64_t payload);

  /// Switch on time-resolved telemetry (before any traffic is injected).
  /// Purely observational: event order, reservations, and every statistic
  /// above are identical with telemetry on or off.  When obs recording is
  /// also on (obs::enabled()), run_until_idle() publishes the busiest-link
  /// and queue-depth timelines as obs::Registry series
  /// ("netsim/util_max", "netsim/queue_depth") and obs::Tracer counter
  /// tracks, so --trace renders them in Perfetto next to the phase spans.
  void set_telemetry(const TelemetrySpec& spec);

  /// The sampling grid's product (empty snapshot when telemetry was never
  /// enabled).  Call after run_until_idle().
  TelemetrySnapshot telemetry_snapshot() const;

  /// Payload bytes actually pushed over each link (links with traffic
  /// only, ascending (from, to)).  Always tracked — no telemetry needed.
  std::vector<LinkFlow> link_flows() const;

  /// Process events until the queue drains; returns the time of the last
  /// processed event (the completion time).
  SimTime run_until_idle();

  bool idle() const { return queue_.empty(); }
  SimTime now() const { return now_; }

  // --- statistics over all delivered messages ---
  std::uint64_t messages_delivered() const { return delivered_; }
  /// Latency samples (deliver - inject) in us.
  SampleStats& latency_stats() { return latency_; }
  /// Hops travelled per delivered message.
  RunningStats& hop_stats() { return hops_; }
  /// Busiest link's total busy time in us.
  double max_link_busy_us() const;
  /// Mean link utilisation over [0, run_until_idle() time].
  double mean_link_busy_us() const;

  const NetworkParams& params() const { return params_; }

 private:
  struct MessageState {
    Message msg;
    std::vector<int> links;       ///< deterministic: link ids along route
    std::vector<int> packet_node; ///< adaptive: current node per packet
    int route_hops = 0;           ///< minimal distance src -> dst
    std::uint32_t packets = 1;
    std::uint32_t packets_arrived = 0;
  };

  void handle_hop(const Event& e);
  void deliver(SimTime time, std::uint64_t id);
  /// Reserve `link` for `duration` starting no earlier than `earliest`;
  /// returns the actual start time.  `bytes` is the payload crossing the
  /// link during this reservation (serialisation accounting).
  SimTime reserve(int link, SimTime earliest, SimTime duration, double bytes);
  /// Bin a reservation's busy time onto the telemetry sampling grid.
  void bin_busy(int link, SimTime start, SimTime duration);
  /// Publish the snapshot's series into obs:: (registry + tracer counters).
  void publish_telemetry() const;
  /// Adaptive next hop out of `cur` toward `dst`: the minimal-direction
  /// link that frees earliest.  Returns the link id; throws if no
  /// neighbour reduces the distance (inconsistent topology).
  int pick_adaptive_link(int cur, int dst) const;

  const topo::Topology& topo_;
  NetworkParams params_;
  ServiceModel model_;
  SimulationClient* client_;

  EventQueue queue_;
  SimTime now_ = 0.0;

  // Per-link state, indexed by topo::LinkIndex id.
  topo::LinkIndex links_;
  std::vector<SimTime> link_free_;     // next time each link is free
  std::vector<double> link_busy_;      // accumulated busy time
  std::vector<double> link_bytes_;     // accumulated payload bytes
  std::vector<double> link_slowdown_;  // serialisation multiplier (>= 1)

  // Time-resolved telemetry (inert unless set_telemetry() was called).
  bool telemetry_on_ = false;
  TelemetrySpec telemetry_;
  std::vector<std::vector<double>> bin_busy_us_;  // [link][window]
  std::vector<double> bin_queue_max_;             // [window]

  std::vector<MessageState> messages_;
  std::vector<std::uint64_t> free_slots_;  ///< recycled MessageState slots
  std::uint64_t delivered_ = 0;
  SampleStats latency_;
  RunningStats hops_;
};

}  // namespace topomap::netsim
