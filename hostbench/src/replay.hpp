// The traced run's per-layer replay.
//
// The simulator has no spans of its own yet, so the per-layer numbers come
// from outside: the traced operation's sessions are replayed through each
// module's public functions — app::AppModel::stack, stat::insert_trace into
// per-daemon trees grouped by machine::DaemonLayout, the PrefixTree codec,
// PrefixTree::merge up tbon::build_topology's tree, stat::remap_tree and
// stat::equivalence_classes — with a span around every call batch. The
// replayed trees must match the operation's own (replay fidelity).
#pragma once

#include <string>
#include <vector>

#include "workloads.hpp"

namespace hostbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// The replayed layers the operation itself executes; the operation's serial
/// time minus their sum is `scenario.residual_s`. The codec is not among
/// them: the batch pipeline prices the wire arithmetically.
inline constexpr const char* kOnPathLayers[] = {
    "app.stack_s", "stat.build_s", "tbon.merge_s", "stat.remap_s",
    "stat.classes_s"};

struct ReplayResult {
  Metrics metrics;
  /// Non-empty when a replayed tree's node count differs from the
  /// operation's (the replay did not reproduce the operation's work).
  std::string fidelity_error;
};

/// Replays every session of `traced` (an operation run with
/// keep_sessions) layer by layer. Covers the app, stat, ckpt, tbon, plan
/// and virt metric families.
[[nodiscard]] ReplayResult replay_layers(const OpOutcome& traced);

}  // namespace hostbench
