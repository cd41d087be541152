// Topology auto-tuning: enumerate the machine-feasible TopologySpec space
// and rank it by predicted startup+merge time (ROADMAP: `--topology auto`).
//
// The spec space follows the paper's Figs. 4/5 axes — depth 1/2/3, the
// balanced n-th-root rule, the BG/L fanout rules — plus explicit level-width
// sweeps under the machine's comm-process placement limits (login-node slots
// on BG/L, the leftover compute allocation on clusters). Every candidate is
// priced by the same PhasePredictor; specs that cannot be built, or that the
// predictor flags as doomed (front-end connection limit, receive-buffer
// overflow), are excluded from the ranking but reported with their reason.
#pragma once

#include <vector>

#include "plan/predictor.hpp"

namespace petastat::plan {

struct RankedTopology {
  tbon::TopologySpec spec;
  PhasePrediction prediction;  // viability non-OK for `rejected` entries
};

struct TopologySearchResult {
  /// Viable specs, best predicted startup+merge first.
  std::vector<RankedTopology> viable;
  /// Buildable-but-doomed specs, with the predicted failure in `viability`.
  std::vector<RankedTopology> rejected;

  [[nodiscard]] const RankedTopology& best() const { return viable.front(); }
};

/// Candidate specs for this machine/scale (before feasibility filtering).
/// `shard_counts` is the front-end shard dimension: each base spec is
/// emitted once per viable K (reducers — and the combiner levels of a
/// K > 8 reducer tree — counted against the comm-process placement limits)
/// and, for K > 1, once per reducer placement (pack vs spread). The default
/// {1} keeps the space unsharded; `--fe-shards auto` searches
/// {1, 2, 4, 8, 16, 32, 64}.
[[nodiscard]] std::vector<tbon::TopologySpec> enumerate_specs(
    const machine::MachineConfig& machine, std::uint32_t num_daemons,
    const std::vector<std::uint32_t>& shard_counts = {1});

/// Prices every candidate with `predictor` and ranks the viable ones
/// (shard dimension derived from the predictor's options). Fails only when
/// no candidate is viable.
[[nodiscard]] Result<TopologySearchResult> search_topologies(
    const PhasePredictor& predictor);

/// One-call convenience for the `--topology auto` path: profile the
/// workload, rank the space, return the winner.
[[nodiscard]] Result<tbon::TopologySpec> choose_topology(
    const machine::MachineConfig& machine, const machine::JobConfig& job,
    const stat::StatOptions& options, const machine::CostModel& costs);

/// The `--fe-shards auto` path for a pinned topology: price
/// `options.topology` at K in {1, 2, 4, 8, 16, 32, 64} × {pack, spread}
/// (K > 8 through the reducer tree) and return the spec with the
/// predicted-fastest viable (K, placement). Fails when no K is viable.
[[nodiscard]] Result<tbon::TopologySpec> choose_fe_shards(
    const machine::MachineConfig& machine, const machine::JobConfig& job,
    const stat::StatOptions& options, const machine::CostModel& costs);

/// The checkpoint/restart re-planning hook: choose_fe_shards, but with the
/// predictor's payload curves re-anchored to `measured_leaf_payload_bytes` —
/// the per-daemon payload size a SessionCheckpoint recorded from the
/// interrupted run — so the resumed session re-prices K and placement
/// against measured traffic instead of the probe synthesis. A non-positive
/// measurement degrades to plain choose_fe_shards.
[[nodiscard]] Result<tbon::TopologySpec> replan_fe_shards(
    const machine::MachineConfig& machine, const machine::JobConfig& job,
    const stat::StatOptions& options, const machine::CostModel& costs,
    double measured_leaf_payload_bytes);

/// The one construction-time spec resolution, shared by stat::StatScenario
/// and service::SessionScheduler so the tree a session is charged for is the
/// tree its run builds:
///   * a per-run `max_frontend_connections` override is folded into
///     `machine` (the reducer-tree fan-in clamp in tbon::derive_levels and
///     every viability check then see one limit);
///   * a `restore` adopts the checkpoint's spec, re-planned with
///     replan_fe_shards against its measured leaf bytes under either auto
///     mode;
///   * otherwise `--topology auto` runs choose_topology and
///     `--fe-shards auto` runs choose_fe_shards;
///   * otherwise the CLI-level `fe_shards`/`reducer_placement` fold onto the
///     spec (a spec already sharded or placed by an API caller is left
///     alone).
/// The resolved spec lands in `options.topology`. Fails INVALID_ARGUMENT on
/// a zero override or zero shard count, else with the planner's status.
[[nodiscard]] Status resolve_spec(machine::MachineConfig& machine,
                                  const machine::JobConfig& job,
                                  stat::StatOptions& options,
                                  const machine::CostModel& costs,
                                  const stat::SessionCheckpoint* restore);

}  // namespace petastat::plan
