// Unit tests for the switch-graph network model: route resolution, per-link
// serialization, cut-through timing, async delivery, and the machine-preset
// invariants (symmetry, reachability, preserved NIC rates, agreement with a
// naive BFS route).
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "tbon/topology.hpp"

namespace petastat::net {
namespace {

using machine::NodeRole;

/// One switch, every tier attached at 1 GB/s with 500 ns access latency and
/// no per-message overhead: a transfer costs serialization + 2 access hops.
SwitchGraph flat_graph() {
  SwitchGraph g;
  const std::uint32_t core = g.add_switch("core");
  const LinkParams access{500, 1.0e9};
  g.set_attach_rule(NodeRole::kFrontEnd, {core, 1, 0, access});
  g.set_attach_rule(NodeRole::kLogin, {core, 1, 0, access});
  g.set_attach_rule(NodeRole::kIo, {core, 1, 0, access});
  g.set_attach_rule(NodeRole::kCompute, {core, 1, 0, access});
  g.set_per_message_overhead(0);
  g.seal();
  return g;
}

/// Two compute hosts behind one leaf, front end on the core, joined by a
/// single 1 GB/s trunk — the minimal shared-uplink contention shape.
SwitchGraph shared_uplink_graph() {
  SwitchGraph g;
  const std::uint32_t leaf = g.add_switch("leaf");
  const std::uint32_t core = g.add_switch("core");
  g.add_edge(leaf, core, {1000, 1.0e9});
  const LinkParams fast_access{500, 10.0e9};
  g.set_attach_rule(NodeRole::kFrontEnd, {core, 1, 0, fast_access});
  g.set_attach_rule(NodeRole::kLogin, {core, 1, 0, fast_access});
  g.set_attach_rule(NodeRole::kIo, {core, 1, 0, fast_access});
  g.set_attach_rule(NodeRole::kCompute, {leaf, 1, 0, fast_access});
  g.set_per_message_overhead(0);
  g.seal();
  return g;
}

TEST(Network, SingleTransferTiming) {
  sim::Simulator s;
  Network net(s, flat_graph());
  // 1 MB at 1 GB/s = 1 ms serialization, cut through two 500 ns access hops.
  const SimTime done = net.transfer(machine::make_node(NodeRole::kCompute, 0),
                                    machine::make_node(NodeRole::kCompute, 1),
                                    1'000'000);
  EXPECT_EQ(done, 1'000'000ull + 1'000ull);
  EXPECT_EQ(net.total_bytes_moved(), 1'000'000ull);
  EXPECT_EQ(net.total_messages(), 1ull);
}

TEST(Network, SelfTransferOccupiesAccessTwice) {
  sim::Simulator s;
  Network net(s, flat_graph());
  // tx + rx on the same half-duplex access device: 2x serialization. The rx
  // pass queues behind the tx pass, so only the final hop latency surfaces.
  const NodeId host = machine::make_node(NodeRole::kCompute, 0);
  const SimTime done = net.transfer(host, host, 1'000'000);
  EXPECT_EQ(done, 2'000'000ull + 500ull);
}

TEST(Network, SenderAccessLinkSerializesOutgoingTransfers) {
  sim::Simulator s;
  Network net(s, flat_graph());
  const NodeId src = machine::make_node(NodeRole::kCompute, 0);
  const SimTime d1 = net.transfer(src, machine::make_node(NodeRole::kCompute, 1),
                                  1'000'000);
  const SimTime d2 = net.transfer(src, machine::make_node(NodeRole::kCompute, 2),
                                  1'000'000);
  EXPECT_GE(d2, d1 + 1'000'000ull);  // second waits for the first to drain
}

TEST(Network, ReceiverAccessLinkIsTheFanInBottleneck) {
  // Many senders, one receiver: completions serialize on the receiver's
  // access link.
  sim::Simulator s;
  Network net(s, flat_graph());
  const NodeId dst = machine::make_node(NodeRole::kFrontEnd, 0);
  SimTime last = 0;
  for (std::uint32_t i = 0; i < 16; ++i) {
    last = std::max(last, net.transfer(machine::make_node(NodeRole::kCompute, i),
                                       dst, 1'000'000));
  }
  // 16 MB into a 1 GB/s access link >= 16 ms regardless of sender parallelism.
  EXPECT_GE(last, 16'000'000ull);
}

TEST(Network, SharedTrunkSerializesTransfersFromDifferentHosts) {
  // Two senders on *different* hosts behind the same uplink: the old
  // per-host NIC model let these overlap fully; the trunk device must not.
  sim::Simulator s;
  Network net(s, shared_uplink_graph());
  const NodeId fe = machine::make_node(NodeRole::kFrontEnd, 0);
  const SimTime d1 = net.transfer(machine::make_node(NodeRole::kCompute, 0), fe,
                                  1'000'000);
  const SimTime d2 = net.transfer(machine::make_node(NodeRole::kCompute, 1), fe,
                                  1'000'000);
  EXPECT_GE(d2, d1 + 1'000'000ull);  // 1 ms of trunk serialization apart
}

TEST(Network, TrunkRouteTiming) {
  sim::Simulator s;
  Network net(s, shared_uplink_graph());
  // 1 MB bottlenecked by the 1 GB/s trunk; latency = 500 + 1000 + 500 ns.
  const SimTime done = net.transfer(machine::make_node(NodeRole::kCompute, 0),
                                    machine::make_node(NodeRole::kFrontEnd, 0),
                                    1'000'000);
  EXPECT_EQ(done, 1'000'000ull + 2'000ull);
}

TEST(Network, PerMessageOverheadChargedOnce) {
  SwitchGraph g;
  const std::uint32_t core = g.add_switch("core");
  const LinkParams access{500, 1.0e9};
  g.set_attach_rule(NodeRole::kFrontEnd, {core, 1, 0, access});
  g.set_attach_rule(NodeRole::kLogin, {core, 1, 0, access});
  g.set_attach_rule(NodeRole::kIo, {core, 1, 0, access});
  g.set_attach_rule(NodeRole::kCompute, {core, 1, 0, access});
  g.set_per_message_overhead(60 * kMicrosecond);
  g.seal();
  sim::Simulator s;
  Network net(s, std::move(g));
  const SimTime done = net.transfer(machine::make_node(NodeRole::kCompute, 0),
                                    machine::make_node(NodeRole::kCompute, 1),
                                    1'000'000);
  EXPECT_EQ(done, 1'000'000ull + 1'000ull + 60'000ull);
}

TEST(Network, AsyncDeliveryFiresAtComputedTime) {
  sim::Simulator s;
  Network net(s, flat_graph());
  SimTime fired_at = 0;
  const SimTime predicted = net.transfer_async(
      machine::make_node(NodeRole::kCompute, 0),
      machine::make_node(NodeRole::kCompute, 1), 500'000,
      [&]() { fired_at = s.now(); });
  s.run();
  EXPECT_EQ(fired_at, predicted);
}

TEST(Network, LinkStatsCountPerDeviceTraffic) {
  sim::Simulator s;
  Network net(s, shared_uplink_graph());
  net.transfer(machine::make_node(NodeRole::kCompute, 0),
               machine::make_node(NodeRole::kFrontEnd, 0), 1'000'000);
  const std::vector<LinkStat> stats = net.link_stats();
  ASSERT_EQ(stats.size(), 3u);  // src access, trunk, dst access
  // Sorted by device key: trunk edge 0 first, then access devices by tier.
  EXPECT_EQ(stats[0].link, "leaf--core");
  for (const LinkStat& stat : stats) {
    EXPECT_EQ(stat.bytes, 1'000'000ull);
    EXPECT_EQ(stat.messages, 1ull);
  }
  // Busy is occupancy at each link's own rate: 1 MB takes 1 ms on the
  // 1 GB/s trunk but only 100 us on the 10 GB/s access links.
  EXPECT_EQ(stats[0].busy, 1'000'000ull);
  EXPECT_EQ(stats[1].busy, 100'000ull);
  EXPECT_EQ(stats[2].busy, 100'000ull);
}

TEST(Network, ResetClearsCountersAndDevices) {
  sim::Simulator s;
  Network net(s, flat_graph());
  net.transfer(machine::make_node(NodeRole::kCompute, 0),
               machine::make_node(NodeRole::kCompute, 1), 1000);
  net.reset();
  EXPECT_EQ(net.total_bytes_moved(), 0u);
  EXPECT_EQ(net.total_messages(), 0u);
  EXPECT_EQ(net.nic_free_at(machine::make_node(NodeRole::kCompute, 0)), 0u);
  EXPECT_TRUE(net.link_stats().empty());
}

class TransferSizes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransferSizes, CompletionMonotoneInSize) {
  sim::Simulator s;
  Network net(s, flat_graph());
  const SimTime small = net.transfer(machine::make_node(NodeRole::kCompute, 0),
                                     machine::make_node(NodeRole::kCompute, 1),
                                     GetParam());
  net.reset();
  const SimTime big = net.transfer(machine::make_node(NodeRole::kCompute, 0),
                                   machine::make_node(NodeRole::kCompute, 1),
                                   GetParam() * 2);
  EXPECT_GT(big, small);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransferSizes,
                         ::testing::Values(1024ull, 65536ull, 1048576ull,
                                           16777216ull));

// ---------------------------------------------------------------------------
// Machine-preset invariants: every preset's graph must route between all role
// pairs, symmetrically, without repeating a device, and preserve the NIC
// rates the old point-to-point parameters published.

struct PresetCase {
  const char* name;
  machine::MachineConfig machine;
};

std::vector<PresetCase> preset_cases() {
  return {{"atlas", machine::atlas()},
          {"bgl", machine::bgl()},
          {"petascale", machine::petascale()}};
}

/// A few representative hosts per role, spanning the attach ranges.
std::vector<NodeId> sample_hosts(const machine::MachineConfig& m) {
  std::vector<NodeId> hosts;
  hosts.push_back(m.front_end());
  hosts.push_back(m.login_node(0));
  if (m.login_nodes > 1) hosts.push_back(m.login_node(m.login_nodes - 1));
  if (m.io_nodes > 0) {
    hosts.push_back(machine::make_node(NodeRole::kIo, 0));
    hosts.push_back(machine::make_node(NodeRole::kIo, m.io_nodes - 1));
  }
  hosts.push_back(m.compute_node(0));
  hosts.push_back(m.compute_node(m.compute_nodes / 2));
  hosts.push_back(m.compute_node(m.compute_nodes - 1));
  return hosts;
}

TEST(SwitchGraphPresets, AllRolePairsRouteSymmetricallyWithoutLoops) {
  for (const PresetCase& pc : preset_cases()) {
    SCOPED_TRACE(pc.name);
    const SwitchGraph g = build_switch_graph(pc.machine);
    const std::vector<NodeId> hosts = sample_hosts(pc.machine);
    for (const NodeId a : hosts) {
      for (const NodeId b : hosts) {
        const Route forward = route_between(g, a, b);
        ASSERT_GE(forward.size(), 2u);
        EXPECT_GT(bottleneck_rate(forward), 0.0);  // reachable, priced
        // No device repeats (no routing loop). Self-transfers legitimately
        // hold the one access device twice.
        if (a != b) {
          std::set<std::uint64_t> seen;
          for (const RouteHop& hop : forward) {
            EXPECT_TRUE(seen.insert(hop.device).second)
                << "route repeats device " << g.device_name(hop.device);
          }
        }
        // Symmetry: the reverse route crosses the same devices backwards.
        const Route back = route_between(g, b, a);
        ASSERT_EQ(back.size(), forward.size());
        for (std::size_t i = 0; i < forward.size(); ++i) {
          EXPECT_EQ(back[back.size() - 1 - i].device, forward[i].device);
        }
      }
    }
  }
}

/// Textbook route, built from the graph's edge list alone: a BFS rooted at
/// the lower-numbered switch, scanning edges in insertion order, then the
/// chain from the other switch up to that root, turned into travel order.
Route naive_route(const SwitchGraph& g, NodeId src, NodeId dst) {
  Route route{{SwitchGraph::access_device(src),
               g.attach_rule(machine::node_role(src)).access}};
  const std::uint32_t a = g.switch_of(src);
  const std::uint32_t b = g.switch_of(dst);
  if (a != b) {
    const std::uint32_t root = std::min(a, b);
    const auto other = [&](std::uint32_t e, std::uint32_t u) {
      return g.edges()[e].a == u ? g.edges()[e].b : g.edges()[e].a;
    };
    std::vector<std::uint32_t> parent(g.num_switches(), SwitchGraph::kNoEdge);
    std::vector<bool> seen(g.num_switches(), false);
    std::queue<std::uint32_t> queue;
    seen[root] = true;
    queue.push(root);
    while (!queue.empty()) {
      const std::uint32_t u = queue.front();
      queue.pop();
      for (std::uint32_t e = 0; e < g.edges().size(); ++e) {
        if (g.edges()[e].a != u && g.edges()[e].b != u) continue;
        const std::uint32_t v = other(e, u);
        if (seen[v]) continue;
        seen[v] = true;
        parent[v] = e;
        queue.push(v);
      }
    }
    std::vector<std::uint32_t> chain;  // max(a, b) -> root
    for (std::uint32_t u = std::max(a, b); u != root; u = other(parent[u], u)) {
      chain.push_back(parent[u]);
    }
    if (a == root) std::reverse(chain.begin(), chain.end());
    for (const std::uint32_t e : chain) route.push_back({e, g.edges()[e].link});
  }
  route.push_back({SwitchGraph::access_device(dst),
                   g.attach_rule(machine::node_role(dst)).access});
  return route;
}

/// Hosts of every role at eight spread indices (ends included), so each
/// role pair crosses the attach ranges' switch boundaries.
std::vector<NodeId> oracle_hosts(const machine::MachineConfig& m) {
  const std::pair<NodeRole, std::uint32_t> tiers[] = {
      {NodeRole::kFrontEnd, 1},
      {NodeRole::kLogin, m.login_nodes},
      {NodeRole::kIo, m.io_nodes},
      {NodeRole::kCompute, m.compute_nodes}};
  std::vector<NodeId> hosts;
  for (const auto& [role, count] : tiers) {
    std::set<std::uint32_t> indices;
    for (std::uint32_t i = 0; count > 0 && i < 8; ++i) {
      indices.insert(static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(count - 1) * i / 7));
    }
    for (const std::uint32_t index : indices) {
      hosts.push_back(machine::make_node(role, index));
    }
  }
  return hosts;
}

TEST(SwitchGraphPresets, RouteBetweenMatchesNaiveBfsOracle) {
  for (const PresetCase& pc : preset_cases()) {
    SCOPED_TRACE(pc.name);
    const SwitchGraph g = build_switch_graph(pc.machine);
    const std::vector<NodeId> hosts = oracle_hosts(pc.machine);
    for (const NodeId a : hosts) {
      for (const NodeId b : hosts) {  // a == b: the self-transfers
        const Route got = route_between(g, a, b);
        const Route want = naive_route(g, a, b);
        ASSERT_EQ(got.size(), want.size())
            << g.device_name(SwitchGraph::access_device(a)) << " -> "
            << g.device_name(SwitchGraph::access_device(b));
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].device, want[i].device) << "hop " << i;
          EXPECT_EQ(got[i].link.latency, want[i].link.latency) << "hop " << i;
          EXPECT_EQ(got[i].link.bytes_per_sec, want[i].link.bytes_per_sec)
              << "hop " << i;
        }
      }
    }
  }
}

TEST(SwitchGraphPresets, AtlasNicRatesPreserved) {
  const machine::MachineConfig m = machine::atlas();
  const SwitchGraph g = build_switch_graph(m);
  // Same-leaf compute pair rides the full IB NIC rate, as the old
  // compute_fabric published.
  EXPECT_DOUBLE_EQ(transfer_rate(g, m.compute_node(0), m.compute_node(1)),
                   1.4e9);
  EXPECT_DOUBLE_EQ(g.attach_rule(NodeRole::kLogin).access.bytes_per_sec, 1.1e9);
  EXPECT_DOUBLE_EQ(g.attach_rule(NodeRole::kFrontEnd).access.bytes_per_sec,
                   1.1e9);
  // Login <-> compute bottlenecks on the login NIC, as fe_to_compute did.
  EXPECT_DOUBLE_EQ(transfer_rate(g, m.login_node(0), m.compute_node(0)), 1.1e9);
}

TEST(SwitchGraphPresets, PetascaleNicRatesPreserved) {
  const machine::MachineConfig m = machine::petascale();
  const SwitchGraph g = build_switch_graph(m);
  EXPECT_DOUBLE_EQ(g.attach_rule(NodeRole::kIo).access.bytes_per_sec, 1.2e9);
  EXPECT_DOUBLE_EQ(g.attach_rule(NodeRole::kLogin).access.bytes_per_sec, 1.2e9);
  EXPECT_DOUBLE_EQ(g.attach_rule(NodeRole::kCompute).access.bytes_per_sec,
                   2.0e9);
  // The service uplink oversubscribes the 4 logins behind each service leaf:
  // that shared trunk is the wiring the route placement exists to dodge.
  // login 4 sits on svc-leaf1, so its route to the front end crosses it.
  const Route r = route_between(g, m.login_node(4), m.front_end());
  bool saw_oversubscribed_trunk = false;
  for (const RouteHop& hop : r) {
    if (hop.device >= SwitchGraph::kAccessDeviceBase) continue;  // access
    if (hop.link.bytes_per_sec <
        4 * g.attach_rule(NodeRole::kLogin).access.bytes_per_sec) {
      saw_oversubscribed_trunk = true;
    }
  }
  EXPECT_TRUE(saw_oversubscribed_trunk);
}

TEST(SwitchGraphPresets, BglFunctionalPathMatchesOldPointToPoint) {
  const machine::MachineConfig m = machine::bgl();
  const SwitchGraph g = build_switch_graph(m);
  const NodeId login = m.login_node(0);
  const NodeId io = machine::make_node(NodeRole::kIo, 0);
  // Old login_to_io: 95 MB/s at 120 us, preserved across the tiered path
  // (login access -> service uplink -> rack uplink -> io access).
  const Route r = route_between(g, login, io);
  EXPECT_DOUBLE_EQ(bottleneck_rate(r), 95.0e6);
  EXPECT_EQ(route_latency(r), 120 * kMicrosecond);
  // Old fe_to_login: 60 us one-way latency on the service leaf.
  const Route fe_login = route_between(g, m.front_end(), login);
  EXPECT_EQ(route_latency(fe_login), 60 * kMicrosecond);
  EXPECT_DOUBLE_EQ(bottleneck_rate(fe_login), 110.0e6);
}

TEST(SwitchGraphPresets, BglConnectionLimitStillKillsWideFlatTrees) {
  // The Sec. V-A death: 256 I/O daemons dialing one unpatched front end
  // exceeds the 255-connection limit. The switch-graph refactor must not
  // soften the resource-model failure.
  const machine::MachineConfig m = machine::bgl();
  EXPECT_EQ(m.max_tool_connections, 255u);
  machine::DaemonLayout layout;
  layout.num_daemons = 256;
  layout.num_tasks = 512;
  layout.tasks_per_daemon = 2;
  tbon::TopologySpec flat;
  flat.depth = 1;
  const auto topo = tbon::build_topology(m, layout, flat);
  ASSERT_TRUE(topo.is_ok());
  EXPECT_FALSE(
      tbon::connection_viability(topo.value(), m.max_tool_connections).is_ok());
}

}  // namespace
}  // namespace petastat::net
