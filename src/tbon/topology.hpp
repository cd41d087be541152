// Tree-based overlay network topologies (MRNet-style TBON, Sec. III).
//
// The paper tests three shapes:
//  * 1-deep: a flat 1-to-N fan-out from the front end to all daemons.
//  * 2-deep: one layer of comm processes. Balanced rule: fanout = sqrt(n).
//    BG/L rule: fanout from the front end = min(sqrt(#daemons), 28).
//  * 3-deep: two layers. Balanced rule: fanout = cbrt(n). BG/L rule: front
//    end fanout 4, second level 16 or 24 comm processes total.
//
// Comm-process placement is machine-constrained: on BG/L they may only run
// on the 14 login nodes (which is why fully balanced trees were impossible,
// Sec. V-C); on Atlas they run on a separate compute-node allocation, one
// process per core.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "machine/cost_model.hpp"
#include "machine/machine.hpp"

namespace petastat::net {
class SwitchGraph;
}  // namespace petastat::net

namespace petastat::tbon {

/// Where the shard machinery (reducers and combiners) of a sharded front end
/// lands. The trade is spawn locality against NIC contention: packing many
/// helpers onto few hosts makes the serial spawn burst cheap (one remote
/// shell handshake per host, local forks after that) but leaves them sharing
/// each host's NIC during the merge; spreading buys each helper its own NIC
/// at the price of one handshake per host. plan::TopologySearch prices every
/// mode through the shared machine/cost_model + net:: route-pricing
/// formulas (route_between / bottleneck_rate over the machine's switch
/// graph), so the trade includes the trunk links the helpers share, not
/// just their hosts' NICs.
enum class ReducerPlacement : std::uint8_t {
  /// Inherit the machine's comm-process rule (the pre-placement behaviour):
  /// round-robin over the login tier on BG/L-style machines, core-packing on
  /// the spare compute allocation on clusters.
  kCommLike = 0,
  /// Fill each host's helper slots before touching the next one.
  kPack,
  /// One helper per host while hosts last (round-robin once they run out).
  kSpread,
  /// Wiring-aware: each helper lands on the candidate host that minimizes
  /// the maximum per-trunk-link load over the routes from every placed
  /// helper to the front end (ties to the lowest host index). On
  /// oversubscribed fabrics this spreads helpers across leaf switches, not
  /// just across hosts — kSpread can still pile every helper behind one
  /// saturated uplink.
  kRoute,
};

[[nodiscard]] constexpr const char* reducer_placement_name(ReducerPlacement p) {
  switch (p) {
    case ReducerPlacement::kCommLike: return "comm";
    case ReducerPlacement::kPack: return "pack";
    case ReducerPlacement::kSpread: return "spread";
    case ReducerPlacement::kRoute: return "route";
  }
  return "?";
}

/// Widest stream of shard payloads any single combine point (the front end
/// or an intermediate combiner) accepts before build_topology interposes a
/// combiner level: with K > 8 reducers the final combine stops being "cheap"
/// — and on small-limit front ends stops being possible — so the K shard
/// payloads fold through ceil(K/8)-ary combiner levels instead. The
/// machine's MachineConfig::max_tool_connections additionally bounds the
/// fan-in when it is smaller than 8.
inline constexpr std::uint32_t kShardCombineFanIn = 8;

struct TopologySpec {
  std::uint32_t depth = 1;  // 1 = flat, 2/3 = comm-process layers
  /// Total comm processes per internal level, front end's children first.
  /// Empty = derive from the balanced/BG/L rule.
  std::vector<std::uint32_t> level_widths;
  /// Use the paper's BG/L fanout rules instead of the balanced n-th-root.
  bool bgl_rules = false;
  /// BG/L 3-deep second-level size: "either 16 or 24 communication
  /// processes, depending on the job scale".
  std::uint32_t bgl_second_level = 16;
  /// Shard the front-end merge across this many reducer processes: a
  /// synthetic internal level under the front end, each reducer owning a
  /// contiguous range of the tree's former top-level children and forwarding
  /// one merged shard payload for the cheap final combine. Turns the hard
  /// front-end connection/rx-buffer ceilings into a capacity-planning knob
  /// (the Sec. V-A failure mode). With K <= kShardCombineFanIn the reducers
  /// connect straight to the front end (the original sharded layout,
  /// reproduced byte for byte); a larger K grows a *reducer tree* —
  /// intermediate combiner levels, fan-in bounded by kShardCombineFanIn and
  /// the machine's connection limit, between the front end and the reducers
  /// — so the petascale preset can run K in {16, 32, 64} without any merge
  /// root exceeding its ceiling. 1 = unsharded; 0 is rejected as
  /// INVALID_ARGUMENT (use 1 for "no sharding").
  std::uint32_t fe_shards = 1;
  /// Host-assignment policy for the shard machinery (reducers + combiners).
  /// Ignored when fe_shards == 1. kCommLike keeps the historical layouts;
  /// the planner's placement dimension prices kPack against kSpread.
  ReducerPlacement reducer_placement = ReducerPlacement::kCommLike;

  [[nodiscard]] static TopologySpec flat() { return balanced(1); }
  [[nodiscard]] static TopologySpec balanced(std::uint32_t depth) {
    TopologySpec spec;
    spec.depth = depth;
    return spec;
  }
  [[nodiscard]] static TopologySpec bgl(std::uint32_t depth,
                                        std::uint32_t second_level = 16) {
    TopologySpec spec;
    spec.depth = depth;
    spec.bgl_rules = true;
    spec.bgl_second_level = second_level;
    return spec;
  }
  /// Copy of this spec with the front-end merge split across `shards`
  /// reducer processes.
  [[nodiscard]] TopologySpec with_shards(std::uint32_t shards) const {
    TopologySpec spec = *this;
    spec.fe_shards = shards;
    return spec;
  }
  /// Copy of this spec with the shard machinery placed per `placement`.
  [[nodiscard]] TopologySpec with_placement(ReducerPlacement placement) const {
    TopologySpec spec = *this;
    spec.reducer_placement = placement;
    return spec;
  }

  [[nodiscard]] std::string name() const;
};

/// Concrete process tree. procs[0] is the front end; leaves are the daemons
/// in daemon order; internal procs are MRNet communication processes.
struct TbonTopology {
  struct Proc {
    NodeId host;
    std::int32_t parent = -1;           // index into procs, -1 for the FE
    std::vector<std::uint32_t> children;  // indices into procs
    std::uint32_t level = 0;              // 0 = FE
    DaemonId daemon = DaemonId::invalid();  // valid for leaves only

    [[nodiscard]] bool is_leaf() const { return daemon.valid(); }
  };

  std::vector<Proc> procs;
  std::uint32_t depth = 1;  // internal levels incl. FE (and any shard levels)
  std::vector<std::uint32_t> leaf_of_daemon;  // daemon id -> proc index
  /// Reducer procs of a sharded front end (the synthetic shard level), in
  /// shard order. Empty when unsharded. With K <= kShardCombineFanIn they
  /// sit directly under the FE; with a reducer tree they sit below the
  /// combiner levels instead.
  std::vector<std::uint32_t> reducers;
  /// Intermediate combiner procs of a reducer tree (every level between the
  /// FE and the reducers), top level first. Empty for K <= kShardCombineFanIn.
  std::vector<std::uint32_t> combiners;

  [[nodiscard]] bool sharded() const { return !reducers.empty(); }
  /// The shard machinery a sharded front end spawns: reducers + combiners.
  [[nodiscard]] std::uint32_t num_shard_procs() const {
    return static_cast<std::uint32_t>(reducers.size() + combiners.size());
  }
  [[nodiscard]] const Proc& front_end() const { return procs.front(); }
  [[nodiscard]] std::uint32_t num_comm_procs() const {
    std::uint32_t n = 0;
    for (const auto& p : procs) {
      if (!p.is_leaf() && p.parent >= 0) ++n;
    }
    return n;
  }
  [[nodiscard]] std::uint32_t max_fanout() const {
    std::uint32_t m = 0;
    for (const auto& p : procs) {
      m = std::max(m, static_cast<std::uint32_t>(p.children.size()));
    }
    return m;
  }
};

/// Total comm-process slots the machine can host for a job occupying
/// `num_daemons` daemon nodes: the login-node tier on BG/L-style machines,
/// or the leftover compute allocation (one process per core) on clusters.
[[nodiscard]] std::uint64_t comm_process_capacity(
    const machine::MachineConfig& machine, std::uint32_t num_daemons);

/// Derived internal-level plan for a spec: all comm-process widths (front
/// end's children first) plus how many of the leading levels are shard
/// machinery — the combiner levels of a reducer tree followed by the reducer
/// level itself (0 when unsharded).
struct DerivedLevels {
  std::vector<std::uint32_t> widths;
  std::uint32_t shard_levels = 0;

  [[nodiscard]] std::uint32_t num_reducers() const {
    return shard_levels == 0 ? 0 : widths[shard_levels - 1];
  }
};

/// Comm-process counts per internal level (front end's children first) for
/// `spec` with `num_daemons` daemons: explicit level_widths validated, or
/// derived from the balanced/BG/L fanout rule; a sharded spec's combiner and
/// reducer levels ride in front. Malformed specs (zero depth, zero-width
/// levels, wrong entry count, explicit widths beyond the comm slots of
/// `machine`) come back as INVALID_ARGUMENT here, before any process tree is
/// built. Shared by build_topology and plan::TopologySearch.
[[nodiscard]] Result<DerivedLevels> derive_levels(
    const machine::MachineConfig& machine, const TopologySpec& spec,
    std::uint32_t num_daemons);

/// derive_levels, widths only (the historical signature).
[[nodiscard]] Result<std::vector<std::uint32_t>> derive_level_widths(
    const machine::MachineConfig& machine, const TopologySpec& spec,
    std::uint32_t num_daemons);

/// Builds the process tree for `spec` on `machine`, placing comm processes
/// under the machine's constraints. Fails when the machine cannot host the
/// requested tree (e.g. login-node capacity on BG/L). A sharded spec
/// (`fe_shards > 1`) gets its reducers — and, for K > kShardCombineFanIn,
/// the combiner levels of the reducer tree above them — as the leading
/// internal levels, placed per `spec.reducer_placement` and recorded in
/// `TbonTopology::reducers` / `combiners`. Route-aware placement
/// (ReducerPlacement::kRoute) prices candidate hosts over `graph`, which
/// must be net::build_switch_graph(machine) or a graph built the same way
/// from the same interconnect; a caller that holds one passes it, otherwise
/// a kRoute spec builds and seals its own.
[[nodiscard]] Result<TbonTopology> build_topology(
    const machine::MachineConfig& machine, const machine::DaemonLayout& layout,
    const TopologySpec& spec, const net::SwitchGraph* graph = nullptr);

/// Connection-limit viability of a built tree against `limit` simultaneous
/// tool connections: exactly `limit` children survive, `limit + 1` do not
/// (rejection is `> limit`, matching MachineConfig::max_tool_connections).
/// Checks every merge root — the front end and, when sharded, each combiner
/// and each reducer: a shard that merely moves the overload one hop down is
/// no fix. One formulation shared by the simulator (StatScenario) and the
/// planner (PhasePredictor), so the two can never disagree on viability.
[[nodiscard]] Status connection_viability(const TbonTopology& topology,
                                          std::uint32_t limit);

/// connection_viability on the *surviving* daemons: leaves whose daemon is
/// flagged in `daemon_dead` never dial in, so they hold no connection. An
/// empty mask means all daemons alive.
[[nodiscard]] Status connection_viability(const TbonTopology& topology,
                                          std::uint32_t limit,
                                          const std::vector<bool>& daemon_dead);

/// Receive-buffer viability of every merge root — the front end and, when
/// sharded, each reducer, which takes over the front end's role for its
/// shard: the leaf payloads arriving there must fit
/// MergeCosts::frontend_rx_buffer_bytes (internal comm procs stream their
/// arrivals, but the root of a flat subtree holds every leaf's payload at
/// once). `leaf_bytes(d)` is daemon d's payload size; a daemon flagged in
/// `daemon_dead` sends nothing (an empty mask means all alive). Shared by
/// the simulator and the planner, like connection_viability.
[[nodiscard]] Status receive_buffer_viability(
    const TbonTopology& topology,
    const std::function<std::uint64_t(std::uint32_t)>& leaf_bytes,
    const machine::MergeCosts& costs,
    const std::vector<bool>& daemon_dead = {});

/// Distinct hosts carrying the shard machinery (reducers + combiners) — the
/// remote-shell handshake count of the spawn burst. Feed it with
/// TbonTopology::num_shard_procs() to machine::reducer_spawn_time; one
/// helper for the simulator and the planner, so spawn-locality pricing
/// cannot drift. 0 when unsharded.
[[nodiscard]] std::uint32_t shard_spawn_hosts(const TbonTopology& topology);

/// Tasks covered by each reducer's shard (daemon-contiguous by
/// construction), in shard order. Empty when unsharded.
[[nodiscard]] std::vector<std::uint64_t> shard_task_counts(
    const TbonTopology& topology, const machine::DaemonLayout& layout);

/// shard_task_counts restricted to surviving daemons: a dead daemon's tasks
/// are not in anyone's slice. An empty mask means all daemons alive.
[[nodiscard]] std::vector<std::uint64_t> shard_task_counts(
    const TbonTopology& topology, const machine::DaemonLayout& layout,
    const std::vector<bool>& daemon_dead);

/// Largest shard slice — the critical path of the distributed remap, where
/// reducers remap their slices concurrently (feed it to
/// machine::sharded_remap_cost). 0 when unsharded. One helper for the
/// simulator, the planner, and statbench, so slice pricing cannot drift.
[[nodiscard]] std::uint64_t largest_shard_task_count(
    const TbonTopology& topology, const machine::DaemonLayout& layout);

/// largest_shard_task_count restricted to surviving daemons.
[[nodiscard]] std::uint64_t largest_shard_task_count(
    const TbonTopology& topology, const machine::DaemonLayout& layout,
    const std::vector<bool>& daemon_dead);

/// MRNet instantiation time: parents accept and handshake children serially;
/// levels connect bottom-up but parents within a level work in parallel.
[[nodiscard]] SimTime connect_time(const TbonTopology& topology,
                                   const machine::LaunchCosts& costs);

/// The deterministic mid-merge casualty of failure injection (--fail-at):
/// the middle reducer when sharded, else the middle internal comm process,
/// else the middle daemon leaf (a flat tree has nothing else to kill). One
/// rule for the simulator and the planner's recovery pricing.
[[nodiscard]] std::uint32_t default_victim(const TbonTopology& topology);

}  // namespace petastat::tbon
