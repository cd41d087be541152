// Switch-graph transfer model with per-link serialization.
//
// The machine's interconnect is a small graph of switches; hosts hang off
// switches via per-role attach rules (closed-form, so 106,496 compute nodes
// never materialize as vertices). A transfer resolves a deterministic route
//
//   src host --access--> switch --trunk...trunk--> switch --access--> dst
//
// and occupies *every* link device along it for `bytes / that link's rate`,
// cut-through: each hop may start once the first byte clears the previous
// one, and the flow drains end to end at the route's bottleneck rate. A
// trunk faster than the flow's bottleneck (an aggregated uplink is many
// cables) therefore carries several flows concurrently and only queues once
// its own capacity is the limit. Contention arises both at host access
// links (the old per-NIC queueing, which the paper blames for linear merge
// scaling with full-job bit vectors, Sec. V) and on shared trunks: two
// reducers on different hosts behind one oversubscribed service-leaf uplink
// queue on that uplink — the wiring effect route-aware placement must
// respect.
//
// Shared formulation: the simulated Network and the analytic
// plan::PhasePredictor both price transfers through route_between /
// bottleneck_rate / route_latency, so the planner and the simulator cannot
// drift.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "machine/machine.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace petastat::net {

struct LinkParams {
  SimTime latency = 10 * kMicrosecond;
  double bytes_per_sec = 1.0e9;
};

/// One hop of a resolved route: the serialization device it occupies and the
/// link class that prices it.
struct RouteHop {
  std::uint64_t device = 0;
  LinkParams link;
};
using Route = std::vector<RouteHop>;

/// The interconnect as a graph over switch vertices. Hosts attach implicitly:
/// each NodeRole has an AttachRule mapping host index -> switch, plus the
/// access-link class shared by that tier (the old per-role NIC rate).
class SwitchGraph {
 public:
  /// Trunk link between two switches.
  struct Edge {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    LinkParams link;
  };

  /// Closed-form host-to-switch mapping for one node tier: host `i` attaches
  /// to switch `first_switch + min(num_switches - 1, i / hosts_per_switch)`.
  struct AttachRule {
    std::uint32_t first_switch = 0;
    std::uint32_t num_switches = 1;
    std::uint32_t hosts_per_switch = 0;  // 0: every host on first_switch
    LinkParams access;
  };

  static constexpr std::uint32_t kNoEdge = 0xffffffffu;
  /// Device keys below this value are trunk-edge indices; at or above, access
  /// links keyed as ((role + 1) << 32) | host_index — one shared half-duplex
  /// device per host, matching the old per-host NIC.
  static constexpr std::uint64_t kAccessDeviceBase = 1ull << 32;

  [[nodiscard]] static std::uint64_t access_device(NodeId node) {
    return ((static_cast<std::uint64_t>(machine::node_role(node)) + 1) << 32) |
           machine::node_index(node);
  }

  std::uint32_t add_switch(std::string name);
  void add_edge(std::uint32_t a, std::uint32_t b, LinkParams link);
  void set_attach_rule(machine::NodeRole role, AttachRule rule);
  void set_per_message_overhead(SimTime overhead) { overhead_ = overhead; }

  /// Builds the all-pairs shortest-path tables. Must be called once, after
  /// the last add_edge and before any routing query.
  void seal();

  [[nodiscard]] bool sealed() const { return sealed_; }
  [[nodiscard]] std::uint32_t num_switches() const {
    return static_cast<std::uint32_t>(names_.size());
  }
  [[nodiscard]] const std::string& switch_name(std::uint32_t s) const {
    return names_[s];
  }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }
  [[nodiscard]] const AttachRule& attach_rule(machine::NodeRole role) const {
    return attach_[static_cast<std::size_t>(role)];
  }
  [[nodiscard]] SimTime per_message_overhead() const { return overhead_; }

  /// Switch the node's access link lands on.
  [[nodiscard]] std::uint32_t switch_of(NodeId node) const;

  /// Human-readable name for a device key ("rack3-io--gige-core",
  /// "login[5].access").
  [[nodiscard]] std::string device_name(std::uint64_t device) const;

 private:
  // Walks parent_ straight into the route it returns.
  friend Route route_between(const SwitchGraph& graph, NodeId src,
                             NodeId dst);

  std::vector<std::string> names_;
  std::vector<Edge> edges_;
  AttachRule attach_[4];
  SimTime overhead_ = 25 * kMicrosecond;
  // parent_[root * n + u] = edge taking u one hop toward root (kNoEdge for
  // u == root or unreachable), from a BFS rooted at every switch.
  std::vector<std::uint32_t> parent_;
  bool sealed_ = false;
};

/// Builds the switch graph for a machine from its InterconnectConfig.
/// Replaces the old default_network_params(): presets carry real wiring
/// shapes, ad hoc machines get a crossbar (every host one access link from
/// one core switch).
[[nodiscard]] SwitchGraph build_switch_graph(
    const machine::MachineConfig& machine);

/// Deterministic route for a (src, dst) pair: src access link, the trunk
/// edges between their switches, dst access link. A self-transfer occupies
/// the host's access device twice (tx + rx), like the old double NIC
/// reservation.
[[nodiscard]] Route route_between(const SwitchGraph& graph, NodeId src,
                                  NodeId dst);

/// Serialization rate of the route's slowest link.
[[nodiscard]] double bottleneck_rate(const Route& route);

/// Sum of hop propagation latencies (excludes per-message overhead).
[[nodiscard]] SimTime route_latency(const Route& route);

/// Effective rate of one transfer: bottleneck of the resolved route. Keeps
/// the old name so call sites read the same.
[[nodiscard]] double transfer_rate(const SwitchGraph& graph, NodeId src,
                                   NodeId dst);

/// Usage counters of one link device, for contention reporting. `busy` is
/// wire occupancy at the link's own rate (bytes / link rate per message),
/// so a fat aggregated trunk shows less busy time than the access links
/// feeding it for the same bytes.
struct LinkStat {
  std::uint64_t device = 0;
  std::string link;  // device_name()
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  SimTime busy = 0;
};

class Network {
 public:
  Network(sim::Simulator& simulator, SwitchGraph graph);

  /// Reserves every link device along the route and returns the delivery
  /// time.
  SimTime transfer(NodeId src, NodeId dst, std::uint64_t bytes);

  /// As transfer(), and runs `on_delivered` at the delivery time.
  SimTime transfer_async(NodeId src, NodeId dst, std::uint64_t bytes,
                         sim::EventCallback on_delivered);

  /// Earliest time the node's access link frees up (diagnostics).
  [[nodiscard]] SimTime nic_free_at(NodeId node) const;

  [[nodiscard]] std::uint64_t total_bytes_moved() const { return bytes_moved_; }
  [[nodiscard]] std::uint64_t total_messages() const { return messages_; }

  /// Per-link usage counters for every device touched so far, sorted by
  /// device key (trunks first, then access links by tier).
  [[nodiscard]] std::vector<LinkStat> link_stats() const;

  void reset();

  [[nodiscard]] const SwitchGraph& graph() const { return graph_; }

 private:
  struct DeviceState {
    sim::SerialDevice dev;
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
    explicit DeviceState(sim::Simulator& s) : dev(s) {}
  };
  DeviceState& device(std::uint64_t key);

  sim::Simulator& sim_;
  SwitchGraph graph_;
  std::unordered_map<std::uint64_t, DeviceState> devices_;
  std::uint64_t bytes_moved_ = 0;
  std::uint64_t messages_ = 0;
};

}  // namespace petastat::net
