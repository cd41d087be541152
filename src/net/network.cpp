#include "net/network.hpp"

#include <algorithm>
#include <utility>

namespace petastat::net {

using machine::InterconnectShape;
using machine::NodeRole;
using machine::node_index;
using machine::node_role;

std::uint32_t SwitchGraph::add_switch(std::string name) {
  check(!sealed_, "add_switch after seal()");
  names_.push_back(std::move(name));
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void SwitchGraph::add_edge(std::uint32_t a, std::uint32_t b, LinkParams link) {
  check(!sealed_, "add_edge after seal()");
  check(a != b, "switch self-loop");
  check(a < names_.size() && b < names_.size(), "edge endpoint out of range");
  edges_.push_back(Edge{a, b, link});
}

void SwitchGraph::set_attach_rule(NodeRole role, AttachRule rule) {
  check(rule.first_switch + rule.num_switches <= names_.size(),
        "attach rule past the last switch");
  check(rule.num_switches >= 1, "attach rule needs at least one switch");
  attach_[static_cast<std::size_t>(role)] = rule;
}

void SwitchGraph::seal() {
  check(!sealed_, "seal() twice");
  const std::uint32_t n = num_switches();
  check(n > 0, "switch graph has no switches");

  // Incident-edge lists in insertion order keep BFS tie-breaks deterministic.
  // Each entry carries the far end, so the search never reads edges_.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> incident(n);
  for (std::uint32_t e = 0; e < edges_.size(); ++e) {
    incident[edges_[e].a].emplace_back(e, edges_[e].b);
    incident[edges_[e].b].emplace_back(e, edges_[e].a);
  }

  parent_.assign(static_cast<std::size_t>(n) * n, kNoEdge);
  std::vector<std::uint8_t> seen(n);
  std::vector<std::uint32_t> queue(n);  // each switch is queued once per root
  for (std::uint32_t root = 0; root < n; ++root) {
    std::fill(seen.begin(), seen.end(), std::uint8_t{0});
    seen[root] = 1;
    queue[0] = root;
    for (std::uint32_t head = 0, tail = 1; head < tail; ++head) {
      const std::uint32_t u = queue[head];
      for (const auto& [e, v] : incident[u]) {
        if (seen[v]) continue;
        seen[v] = 1;
        parent_[static_cast<std::size_t>(root) * n + v] = e;
        queue[tail++] = v;
      }
    }
  }
  sealed_ = true;
}

std::uint32_t SwitchGraph::switch_of(NodeId node) const {
  const AttachRule& rule = attach_rule(node_role(node));
  if (rule.hosts_per_switch == 0 || rule.num_switches == 1) {
    return rule.first_switch;
  }
  const std::uint32_t slot =
      std::min(rule.num_switches - 1, node_index(node) / rule.hosts_per_switch);
  return rule.first_switch + slot;
}

std::string SwitchGraph::device_name(std::uint64_t device) const {
  if (device >= kAccessDeviceBase) {
    const auto role = static_cast<NodeRole>((device >> 32) - 1);
    const auto index = static_cast<std::uint32_t>(device & 0xffffffffu);
    return std::string(machine::node_role_name(role)) + "[" +
           std::to_string(index) + "].access";
  }
  const Edge& e = edges_[device];
  return names_[e.a] + "--" + names_[e.b];
}

namespace {

LinkParams to_link(const machine::LinkSpec& spec) {
  return LinkParams{spec.latency, spec.bytes_per_sec};
}

std::uint32_t ceil_div(std::uint32_t a, std::uint32_t b) {
  return (a + b - 1) / b;
}

void build_crossbar(const machine::MachineConfig& machine, SwitchGraph& g) {
  const machine::InterconnectConfig& ic = machine.interconnect;
  const std::uint32_t core = g.add_switch("core");
  g.set_attach_rule(NodeRole::kFrontEnd, {core, 1, 0, to_link(ic.frontend_access)});
  g.set_attach_rule(NodeRole::kLogin, {core, 1, 0, to_link(ic.login_access)});
  g.set_attach_rule(NodeRole::kIo, {core, 1, 0, to_link(ic.io_access)});
  g.set_attach_rule(NodeRole::kCompute, {core, 1, 0, to_link(ic.compute_access)});
}

void build_fat_tree(const machine::MachineConfig& machine, SwitchGraph& g) {
  const machine::InterconnectConfig& ic = machine.interconnect;
  const bool io_tier =
      machine.daemon_placement == machine::DaemonPlacement::kPerIoNode;
  const std::uint32_t data_hosts =
      std::max<std::uint32_t>(1, io_tier ? machine.io_nodes : machine.compute_nodes);
  const std::uint32_t hosts_per_leaf = std::max<std::uint32_t>(1, ic.hosts_per_leaf);
  const std::uint32_t num_leaves = ceil_div(data_hosts, hosts_per_leaf);
  const std::uint32_t logins = std::max<std::uint32_t>(1, machine.login_nodes);
  const std::uint32_t logins_per_svc =
      std::max<std::uint32_t>(1, ic.logins_per_service_leaf);
  const std::uint32_t num_svc = ceil_div(logins, logins_per_svc);

  const std::uint32_t core = g.add_switch("core");
  const std::uint32_t first_leaf = g.num_switches();
  for (std::uint32_t i = 0; i < num_leaves; ++i) {
    g.add_switch("leaf" + std::to_string(i));
  }
  const std::uint32_t first_svc = g.num_switches();
  for (std::uint32_t i = 0; i < num_svc; ++i) {
    g.add_switch("svc-leaf" + std::to_string(i));
  }

  if (ic.leaves_per_agg > 0) {
    // 3-level: leaves -> aggregation switches -> core.
    const std::uint32_t num_aggs = ceil_div(num_leaves, ic.leaves_per_agg);
    const std::uint32_t first_agg = g.num_switches();
    for (std::uint32_t i = 0; i < num_aggs; ++i) {
      g.add_switch("agg" + std::to_string(i));
    }
    for (std::uint32_t i = 0; i < num_aggs; ++i) {
      g.add_edge(first_agg + i, core, to_link(ic.agg_uplink));
    }
    for (std::uint32_t i = 0; i < num_leaves; ++i) {
      g.add_edge(first_leaf + i, first_agg + i / ic.leaves_per_agg,
                 to_link(ic.leaf_uplink));
    }
    for (std::uint32_t i = 0; i < num_svc; ++i) {
      g.add_edge(first_svc + i, first_agg + (i * num_aggs) / num_svc,
                 to_link(ic.service_uplink));
    }
  } else {
    // 2-level: every leaf straight into the core.
    for (std::uint32_t i = 0; i < num_leaves; ++i) {
      g.add_edge(first_leaf + i, core, to_link(ic.leaf_uplink));
    }
    for (std::uint32_t i = 0; i < num_svc; ++i) {
      g.add_edge(first_svc + i, core, to_link(ic.service_uplink));
    }
  }

  // The front end rides service leaf 0 beside the first logins.
  g.set_attach_rule(NodeRole::kFrontEnd,
                    {first_svc, 1, 0, to_link(ic.frontend_access)});
  g.set_attach_rule(NodeRole::kLogin,
                    {first_svc, num_svc, logins_per_svc, to_link(ic.login_access)});
  if (io_tier) {
    g.set_attach_rule(NodeRole::kIo, {first_leaf, num_leaves, hosts_per_leaf,
                                      to_link(ic.io_access)});
    // Compute nodes block-attach under the same leaves as their I/O nodes.
    const std::uint32_t compute_per_leaf = ceil_div(
        std::max<std::uint32_t>(1, machine.compute_nodes), num_leaves);
    g.set_attach_rule(NodeRole::kCompute, {first_leaf, num_leaves,
                                           compute_per_leaf,
                                           to_link(ic.compute_access)});
  } else {
    g.set_attach_rule(NodeRole::kCompute, {first_leaf, num_leaves,
                                           hosts_per_leaf,
                                           to_link(ic.compute_access)});
    g.set_attach_rule(NodeRole::kIo, {core, 1, 0, to_link(ic.io_access)});
  }
}

void build_io_torus_tiers(const machine::MachineConfig& machine,
                          SwitchGraph& g) {
  const machine::InterconnectConfig& ic = machine.interconnect;
  const std::uint32_t io_per_rack =
      std::max<std::uint32_t>(1, ic.io_nodes_per_rack);
  const std::uint32_t racks =
      ceil_div(std::max<std::uint32_t>(1, machine.io_nodes), io_per_rack);

  const std::uint32_t core = g.add_switch("gige-core");
  const std::uint32_t svc = g.add_switch("svc-leaf");
  g.add_edge(svc, core, to_link(ic.service_uplink));
  const std::uint32_t first_io = g.num_switches();
  for (std::uint32_t r = 0; r < racks; ++r) {
    g.add_switch("rack" + std::to_string(r) + "-io");
    g.add_edge(first_io + r, core, to_link(ic.rack_uplink));
  }
  const std::uint32_t first_coll = g.num_switches();
  for (std::uint32_t r = 0; r < racks; ++r) {
    g.add_switch("rack" + std::to_string(r) + "-coll");
    g.add_edge(first_coll + r, first_io + r, to_link(ic.collective_link));
  }
  const std::uint32_t torus = g.add_switch("torus");
  for (std::uint32_t r = 0; r < racks; ++r) {
    g.add_edge(first_coll + r, torus, to_link(ic.torus_link));
  }

  g.set_attach_rule(NodeRole::kFrontEnd, {svc, 1, 0, to_link(ic.frontend_access)});
  g.set_attach_rule(NodeRole::kLogin, {svc, 1, 0, to_link(ic.login_access)});
  g.set_attach_rule(NodeRole::kIo,
                    {first_io, racks, io_per_rack, to_link(ic.io_access)});
  const std::uint32_t compute_per_rack =
      ceil_div(std::max<std::uint32_t>(1, machine.compute_nodes), racks);
  g.set_attach_rule(NodeRole::kCompute, {first_coll, racks, compute_per_rack,
                                         to_link(ic.compute_access)});
}

}  // namespace

SwitchGraph build_switch_graph(const machine::MachineConfig& machine) {
  SwitchGraph g;
  g.set_per_message_overhead(machine.interconnect.per_message_overhead);
  switch (machine.interconnect.shape) {
    case InterconnectShape::kCrossbar:
      build_crossbar(machine, g);
      break;
    case InterconnectShape::kFatTree:
      build_fat_tree(machine, g);
      break;
    case InterconnectShape::kIoTorusTiers:
      build_io_torus_tiers(machine, g);
      break;
  }
  g.seal();
  return g;
}

Route route_between(const SwitchGraph& graph, NodeId src, NodeId dst) {
  check(graph.sealed_, "route_between before seal()");
  const std::uint32_t a = graph.switch_of(src);
  const std::uint32_t b = graph.switch_of(dst);
  // Walking the BFS tree rooted at min(a, b) makes route(b, a) the exact
  // reverse of route(a, b) regardless of equal-length alternatives. The walk
  // runs max(a, b) -> root: one pass sizes the route, a second fills it from
  // whichever end src sits on.
  const std::uint32_t root = std::min(a, b);
  const std::uint32_t far = std::max(a, b);
  const std::uint32_t* toward_root =
      graph.parent_.data() +
      static_cast<std::size_t>(root) * graph.num_switches();
  const auto step = [&](std::uint32_t u) {
    const SwitchGraph::Edge& edge = graph.edges_[toward_root[u]];
    return edge.a == u ? edge.b : edge.a;
  };
  std::size_t trunks = 0;
  for (std::uint32_t u = far; u != root; u = step(u)) {
    check(toward_root[u] != SwitchGraph::kNoEdge,
          "switch graph is disconnected");
    ++trunks;
  }

  // Self-transfers occupy the host's access device twice (tx + rx).
  Route route(trunks + 2);
  route.front() = {SwitchGraph::access_device(src),
                   graph.attach_rule(node_role(src)).access};
  route.back() = {SwitchGraph::access_device(dst),
                  graph.attach_rule(node_role(dst)).access};
  const bool from_src = far == a;
  std::size_t slot = from_src ? 1 : trunks;
  for (std::uint32_t u = far; u != root; u = step(u)) {
    route[slot] = {toward_root[u], graph.edges_[toward_root[u]].link};
    slot = from_src ? slot + 1 : slot - 1;
  }
  return route;
}

double bottleneck_rate(const Route& route) {
  double rate = route.empty() ? 1.0 : route.front().link.bytes_per_sec;
  for (const RouteHop& hop : route) {
    rate = std::min(rate, hop.link.bytes_per_sec);
  }
  return rate;
}

SimTime route_latency(const Route& route) {
  SimTime total = 0;
  for (const RouteHop& hop : route) total += hop.link.latency;
  return total;
}

double transfer_rate(const SwitchGraph& graph, NodeId src, NodeId dst) {
  return bottleneck_rate(route_between(graph, src, dst));
}

Network::Network(sim::Simulator& simulator, SwitchGraph graph)
    : sim_(simulator), graph_(std::move(graph)) {
  check(graph_.sealed(), "Network needs a sealed SwitchGraph");
}

Network::DeviceState& Network::device(std::uint64_t key) {
  auto it = devices_.find(key);
  if (it == devices_.end()) {
    it = devices_.emplace(key, DeviceState(sim_)).first;
  }
  return it->second;
}

SimTime Network::transfer(NodeId src, NodeId dst, std::uint64_t bytes) {
  const Route route = route_between(graph_, src, dst);
  const double rate = bottleneck_rate(route);
  const auto ser = static_cast<SimTime>(static_cast<double>(bytes) / rate * 1e9);

  // Cut-through: hop i+1 may start once the first byte clears hop i (plus
  // propagation); the per-message software overhead is charged once, at
  // injection. Each link is occupied for bytes / its OWN rate — a trunk
  // faster than the flow's bottleneck (an aggregated uplink is many cables)
  // carries several such flows concurrently and only queues once its own
  // capacity is the limit — while the flow itself still drains at the
  // bottleneck rate (start + ser).
  SimTime first_byte = sim_.now();
  SimTime last_byte = first_byte;
  for (std::size_t i = 0; i < route.size(); ++i) {
    DeviceState& d = device(route[i].device);
    const auto occupancy = static_cast<SimTime>(
        static_cast<double>(bytes) / route[i].link.bytes_per_sec * 1e9);
    const SimTime start = d.dev.reserve(first_byte, occupancy) - occupancy;
    last_byte = start + ser;
    d.bytes += bytes;
    ++d.messages;
    first_byte = start + route[i].link.latency +
                 (i == 0 ? graph_.per_message_overhead() : SimTime{0});
  }
  const SimTime done = last_byte + route.back().link.latency;

  bytes_moved_ += bytes;
  ++messages_;
  return done;
}

SimTime Network::transfer_async(NodeId src, NodeId dst, std::uint64_t bytes,
                                sim::EventCallback on_delivered) {
  const SimTime done = transfer(src, dst, bytes);
  sim_.schedule_at(done, std::move(on_delivered));
  return done;
}

SimTime Network::nic_free_at(NodeId node) const {
  const auto it = devices_.find(SwitchGraph::access_device(node));
  return it == devices_.end() ? SimTime{0} : it->second.dev.free_at();
}

std::vector<LinkStat> Network::link_stats() const {
  std::vector<LinkStat> stats;
  stats.reserve(devices_.size());
  for (const auto& [key, state] : devices_) {
    LinkStat s;
    s.device = key;
    s.link = graph_.device_name(key);
    s.bytes = state.bytes;
    s.messages = state.messages;
    s.busy = state.dev.busy_time();
    stats.push_back(std::move(s));
  }
  std::sort(stats.begin(), stats.end(),
            [](const LinkStat& a, const LinkStat& b) { return a.device < b.device; });
  return stats;
}

void Network::reset() {
  devices_.clear();
  bytes_moved_ = 0;
  messages_ = 0;
}

}  // namespace petastat::net
