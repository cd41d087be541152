#include "plan/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string>
#include <unordered_map>

#include "app/appmodel.hpp"
#include "fs/filesystem.hpp"
#include "stat/filter.hpp"
#include "stat/hier_taskset.hpp"
#include "stat/prefix_tree.hpp"
#include "tbon/health.hpp"
#include "tbon/multicast.hpp"

namespace petastat::plan {

namespace {

/// Piecewise-linear interpolation over (probe_counts, values), extrapolated
/// beyond the last probe point with the final segment's slope (clamped to be
/// non-decreasing — payloads never shrink as a subtree grows).
double interpolate(const std::vector<std::uint32_t>& xs,
                   const std::vector<double>& ys, double x) {
  check(!xs.empty() && xs.size() == ys.size(), "malformed workload profile");
  if (x <= xs.front()) return ys.front();
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (x <= xs[i]) {
      const double t = (x - xs[i - 1]) / (xs[i] - xs[i - 1]);
      return ys[i - 1] + t * (ys[i] - ys[i - 1]);
    }
  }
  if (xs.size() == 1) return ys.back();
  const std::size_t n = xs.size();
  const double slope = std::max(
      0.0, (ys[n - 1] - ys[n - 2]) / (xs[n - 1] - xs[n - 2]));
  return ys.back() + slope * (x - xs.back());
}

}  // namespace

double WorkloadProfile::payload_bytes_for(double daemons) const {
  return interpolate(probe_counts, merged_payload_bytes, daemons);
}

double WorkloadProfile::tree_nodes_for(double daemons) const {
  return interpolate(probe_counts, merged_tree_nodes, daemons);
}

namespace {

/// Synthesizes one daemon's trace payload exactly as the scenario's sampling
/// sink would, for either label representation.
template <typename Label>
stat::StatPayload<Label> synthesize_payload(const app::AppModel& app,
                                            const machine::DaemonLayout& layout,
                                            const stat::TaskMap& task_map,
                                            std::uint32_t daemon,
                                            std::uint32_t num_samples,
                                            double& frames_sum,
                                            std::uint64_t& trace_count) {
  stat::StatPayload<Label> payload;
  const std::uint32_t count = layout.tasks_of(DaemonId(daemon));
  const std::uint32_t threads = app.threads_per_task();
  for (std::uint32_t s = 0; s < num_samples; ++s) {
    for (std::uint32_t t = 0; t < count; ++t) {
      const TaskId task = TaskId(task_map.global_rank(daemon, t));
      for (std::uint32_t th = 0; th < threads; ++th) {
        const app::CallPath path = app.stack(task, th, s);
        frames_sum += static_cast<double>(path.size());
        ++trace_count;
        stat::insert_trace(payload, path, daemon, t, task, s);
      }
    }
  }
  return payload;
}

/// The probe's two profiles: the batched 2D+3D payload over every sample,
/// and the single-sample snapshot a streaming round moves. A stream
/// snapshot *is* the payload's 2D tree — both hold sample 0, added through
/// stat::add_trace — so one pass measures both.
struct ProbedWorkload {
  WorkloadProfile batch;
  WorkloadProfile stream;
};

template <typename Label>
void profile_with_label(const app::AppModel& app,
                        const machine::DaemonLayout& layout,
                        const stat::TaskMap& task_map,
                        const stat::StatOptions& options,
                        ProbedWorkload& probed) {
  const stat::LabelContext ctx{layout.num_tasks};
  const app::FrameTable& frames = app.frames();
  WorkloadProfile& batch = probed.batch;
  WorkloadProfile& stream = probed.stream;

  // Probe the first 1, 2, 4, 8 daemons (capped at the job size): enough to
  // see whether payloads grow with the subtree (hier) or saturate (dense).
  std::vector<std::uint32_t> ks;
  for (std::uint32_t k = 1; k <= layout.num_daemons && k <= 8; k *= 2) {
    ks.push_back(k);
  }
  if (ks.back() < layout.num_daemons && ks.back() < 8) {
    ks.push_back(layout.num_daemons);  // tiny jobs: probe everything
  }

  double frames_sum = 0.0;
  std::uint64_t traces = 0;
  double leaf_bytes_sum = 0.0;
  double leaf_nodes_sum = 0.0;
  double snapshot_bytes_sum = 0.0;
  double snapshot_nodes_sum = 0.0;
  stat::StatPayload<Label> merged;
  std::uint32_t merged_daemons = 0;
  for (const std::uint32_t k : ks) {
    for (std::uint32_t d = merged_daemons; d < k; ++d) {
      stat::StatPayload<Label> leaf = synthesize_payload<Label>(
          app, layout, task_map, d, options.num_samples, frames_sum, traces);
      leaf_bytes_sum +=
          static_cast<double>(payload_wire_bytes(leaf, frames, ctx));
      leaf_nodes_sum += static_cast<double>(leaf.tree_2d.node_count() +
                                            leaf.tree_3d.node_count());
      snapshot_bytes_sum += static_cast<double>(
          stat::snapshot_wire_bytes(leaf.tree_2d, frames, ctx));
      snapshot_nodes_sum += static_cast<double>(leaf.tree_2d.node_count());
      merged.tree_2d.merge(leaf.tree_2d);
      merged.tree_3d.merge(leaf.tree_3d);
    }
    merged_daemons = k;
    batch.probe_counts.push_back(k);
    batch.merged_payload_bytes.push_back(
        static_cast<double>(payload_wire_bytes(merged, frames, ctx)));
    batch.merged_tree_nodes.push_back(static_cast<double>(
        merged.tree_2d.node_count() + merged.tree_3d.node_count()));
    stream.probe_counts.push_back(k);
    stream.merged_payload_bytes.push_back(static_cast<double>(
        stat::snapshot_wire_bytes(merged.tree_2d, frames, ctx)));
    stream.merged_tree_nodes.push_back(
        static_cast<double>(merged.tree_2d.node_count()));
  }

  batch.avg_frames_per_trace =
      traces > 0 ? frames_sum / static_cast<double>(traces) : 0.0;
  batch.traces_per_daemon =
      traces / std::max<std::uint64_t>(1, merged_daemons);
  batch.leaf_payload_bytes = leaf_bytes_sum / merged_daemons;
  batch.leaf_tree_nodes = leaf_nodes_sum / merged_daemons;
  stream.leaf_payload_bytes = snapshot_bytes_sum / merged_daemons;
  stream.leaf_tree_nodes = snapshot_nodes_sum / merged_daemons;
}

// --- Probe memoization -----------------------------------------------------
// One process-wide cache, keyed on every input that determines the
// synthesized traces. Deliberately global (see the profile_workload contract
// in the header): the probes are pure functions of the key, so caching them
// never couples co-resident sessions.

struct ProfileCache {
  std::mutex mu;
  std::unordered_map<std::string, ProbedWorkload> entries;
  ProfileCacheCounters counters;
};

ProfileCache& profile_cache() {
  static ProfileCache cache;
  return cache;
}

/// Everything the synthesized probe traces depend on: the app model's inputs
/// (kind, seed, evolution, binary layout, machine shape via bgl_frames and
/// the daemon layout), the task map, and the sampling window. Login-tier
/// capacity fields are deliberately absent — the service scheduler prices
/// sessions against contended "effective machines" that differ only in those,
/// and the probes are identical across them.
std::string profile_cache_key(const machine::MachineConfig& machine,
                              const machine::JobConfig& job,
                              const stat::StatOptions& options) {
  std::string key = machine.name;
  const auto add = [&key](std::uint64_t v) {
    key += '|';
    key += std::to_string(v);
  };
  add(machine.compute_nodes);
  add(machine.cores_per_compute_node);
  add(static_cast<std::uint64_t>(machine.daemon_placement));
  add(machine.compute_nodes_per_io_node);
  add(machine.io_nodes);
  add(machine.static_binary ? 1 : 0);
  add(job.num_tasks);
  add(static_cast<std::uint64_t>(job.mode));
  add(job.threads_per_task);
  add(static_cast<std::uint64_t>(options.app));
  add(options.seed);
  add(options.num_samples);
  add(static_cast<std::uint64_t>(options.repr));
  add(options.shuffle_task_map ? 1 : 0);
  add(options.statbench_classes);
  add(options.slim_binaries ? 1 : 0);
  add(static_cast<std::uint64_t>(options.evolution));
  add(options.drift_period);
  return key;
}

/// Synthesizes the probe daemons' traces once per key and measures both
/// profiles from them.
ProbedWorkload probe_workload(const machine::MachineConfig& machine,
                              const machine::JobConfig& job,
                              const machine::DaemonLayout& layout,
                              const stat::StatOptions& options) {
  const std::string key = profile_cache_key(machine, job, options);
  ProfileCache& cache = profile_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.entries.find(key);
    if (it != cache.entries.end()) {
      ++cache.counters.hits;
      return it->second;
    }
  }
  // Synthesize outside the lock: probes are deterministic, so a racing miss
  // on the same key just computes the same value twice.
  ProbedWorkload probed;
  const auto app = stat::make_app_model(machine, job, options);
  const stat::TaskMap task_map =
      options.shuffle_task_map ? stat::TaskMap::shuffled(layout, options.seed)
                               : stat::TaskMap::identity(layout);
  if (options.repr == stat::TaskSetRepr::kDenseGlobal) {
    profile_with_label<stat::GlobalLabel>(*app, layout, task_map, options,
                                          probed);
  } else {
    profile_with_label<stat::HierLabel>(*app, layout, task_map, options,
                                        probed);
  }
  for (const auto& image : app->binaries().images) {
    probed.batch.symbol_image_bytes += image.bytes;
    if (image.path.rfind("/nfs", 0) == 0) {
      probed.batch.shared_fs_image_bytes += image.bytes;
    }
  }
  std::lock_guard<std::mutex> lock(cache.mu);
  ++cache.counters.misses;
  cache.entries.emplace(key, probed);
  return probed;
}

}  // namespace

WorkloadProfile profile_workload(const machine::MachineConfig& machine,
                                 const machine::JobConfig& job,
                                 const machine::DaemonLayout& layout,
                                 const stat::StatOptions& options) {
  return probe_workload(machine, job, layout, options).batch;
}

ProfileCacheCounters profile_cache_counters() {
  ProfileCache& cache = profile_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  return cache.counters;
}

void reset_profile_cache() {
  ProfileCache& cache = profile_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.entries.clear();
  cache.counters = ProfileCacheCounters{};
}

namespace {

/// A profile's payload size and node count for every proc's subtree
/// accumulator: a leaf's own payload, an internal proc's merged curve over
/// the daemons under it.
class SubtreeSizes {
 public:
  SubtreeSizes(const WorkloadProfile& profile, const tbon::TbonTopology& topo)
      : profile_(profile), topo_(topo), daemons_under_(topo.procs.size(), 0.0) {
    // Children always index after their parents.
    for (std::size_t i = topo.procs.size(); i-- > 0;) {
      const auto& proc = topo.procs[i];
      if (proc.is_leaf()) {
        daemons_under_[i] = 1.0;
      } else {
        for (const std::uint32_t c : proc.children) {
          daemons_under_[i] += daemons_under_[c];
        }
      }
    }
  }

  [[nodiscard]] double bytes(std::size_t i) const {
    return topo_.procs[i].is_leaf()
               ? profile_.leaf_payload_bytes
               : profile_.payload_bytes_for(daemons_under_[i]);
  }
  [[nodiscard]] double nodes(std::size_t i) const {
    return topo_.procs[i].is_leaf()
               ? profile_.leaf_tree_nodes
               : profile_.tree_nodes_for(daemons_under_[i]);
  }

 private:
  const WorkloadProfile& profile_;
  const tbon::TbonTopology& topo_;
  std::vector<double> daemons_under_;
};

/// Level-by-level critical path of one upward round, in seconds. Within one
/// level, each parent's single core unpacks/merges its children serially,
/// and every link device a child's route crosses drains its serialization
/// serially (the Network's congestion mechanism — host access links subsume
/// per-NIC queueing, shared trunks add the wiring contention: two children
/// behind one oversubscribed uplink queue on it even when their parents
/// differ). Leaves start in parallel after `leaf_s`, then each level gates
/// the next, its network side bounded by the single most-contended link
/// device. The charges are the caller's: `edge(parent, child, cpu_s)` adds
/// the parent's CPU for the child's arrival to `cpu_s` and returns the bytes
/// the child sends; `forward(proc, cpu_s)` adds what the proc spends
/// forwarding its own result.
template <typename Edge, typename Forward>
double critical_path_seconds(const net::SwitchGraph& graph,
                             const tbon::TbonTopology& topo, double leaf_s,
                             Edge&& edge, Forward&& forward) {
  struct LevelCost {
    double worst_cpu_s = 0.0;
    double worst_latency_s = 0.0;
    // One (device, serialization) pair per link crossing, in child order.
    std::vector<std::pair<std::uint64_t, double>> crossings;
  };
  std::vector<LevelCost> levels(topo.depth);
  const double msg_overhead_s = to_seconds(graph.per_message_overhead());
  for (std::size_t i = 0; i < topo.procs.size(); ++i) {
    const auto& parent = topo.procs[i];
    if (parent.children.empty()) continue;
    LevelCost& level = levels[parent.level];
    double cpu_s = 0.0;
    for (const std::uint32_t c : parent.children) {
      const double bytes = edge(i, c, cpu_s);
      const net::Route route =
          net::route_between(graph, topo.procs[c].host, parent.host);
      const double ser_s = bytes / net::bottleneck_rate(route);
      for (const net::RouteHop& hop : route) {
        level.crossings.emplace_back(hop.device, ser_s);
      }
      level.worst_latency_s =
          std::max(level.worst_latency_s,
                   to_seconds(net::route_latency(route)) + msg_overhead_s);
    }
    forward(i, cpu_s);
    level.worst_cpu_s = std::max(level.worst_cpu_s, cpu_s);
  }

  double merge_s = leaf_s;
  for (std::size_t l = levels.size(); l-- > 0;) {
    LevelCost& level = levels[l];
    // Each device drains its crossings serially. A stable sort keeps child
    // order within a device, so every per-device sum adds in the same order
    // a running per-device total would.
    std::stable_sort(
        level.crossings.begin(), level.crossings.end(),
        [](const auto& x, const auto& y) { return x.first < y.first; });
    double worst_link_s = 0.0;
    for (std::size_t i = 0; i < level.crossings.size();) {
      double device_s = 0.0;
      const std::uint64_t device = level.crossings[i].first;
      for (; i < level.crossings.size() && level.crossings[i].first == device;
           ++i) {
        device_s += level.crossings[i].second;
      }
      worst_link_s = std::max(worst_link_s, device_s);
    }
    merge_s += level.worst_latency_s + std::max(level.worst_cpu_s, worst_link_s);
  }
  return merge_s;
}

}  // namespace

// ---------------------------------------------------------------------------
// PhasePredictor

PhasePredictor::PhasePredictor(machine::MachineConfig machine,
                               machine::JobConfig job,
                               stat::StatOptions options,
                               machine::CostModel costs,
                               machine::DaemonLayout layout)
    : machine_(std::move(machine)),
      job_(job),
      options_(std::move(options)),
      costs_(costs),
      layout_(layout),
      graph_(net::build_switch_graph(machine_)) {
  ProbedWorkload probed = probe_workload(machine_, job_, layout_, options_);
  profile_ = std::move(probed.batch);
  stream_profile_ = std::move(probed.stream);
  // Fold the per-run connection override into the config, as resolve_spec
  // does for the run (a direct API caller may pass an unfolded machine):
  // the reducer-tree fan-in clamp in tbon::derive_levels and every
  // viability check must see the same limit, or the planner would price
  // trees the run then builds differently.
  if (options_.max_frontend_connections) {
    machine_.max_tool_connections = *options_.max_frontend_connections;
  }
}

Result<PhasePredictor> PhasePredictor::create(machine::MachineConfig machine,
                                              machine::JobConfig job,
                                              stat::StatOptions options,
                                              machine::CostModel costs) {
  auto layout = machine::layout_daemons(machine, job);
  if (!layout.is_ok()) return layout.status();
  return PhasePredictor(std::move(machine), job, std::move(options), costs,
                        layout.value());
}

SimTime PhasePredictor::predict_launch(Status& viability) const {
  const machine::LaunchCosts& costs = costs_.launch;
  const std::uint32_t daemons = layout_.num_daemons;
  const bool tool_launches_app =
      machine_.daemon_placement == machine::DaemonPlacement::kPerIoNode;
  const std::uint32_t app_procs = tool_launches_app ? layout_.num_tasks : 0;

  switch (options_.launcher) {
    case stat::LauncherKind::kMrnetRsh:
      if (!machine_.supports_rsh) {
        viability = unavailable(machine_.name + " does not support rsh");
      } else if (daemons >= costs.rsh_failure_threshold) {
        viability = unavailable("rsh spawn fails (reserved ports exhausted)");
      }
      return machine::serial_shell_spawn_time(costs, daemons) +
             costs.daemon_init;
    case stat::LauncherKind::kMrnetSsh:
      if (!machine_.supports_ssh) {
        viability =
            unavailable(machine_.name + " compute nodes do not run sshd");
      }
      return machine::serial_shell_spawn_time(costs, daemons) +
             costs.daemon_init;
    case stat::LauncherKind::kLaunchMon:
      return machine::bulk_tree_spawn_time(costs, daemons) + costs.daemon_init;
    case stat::LauncherKind::kCiodPatched:
      return machine::ciod_spawn_time(costs, daemons) + costs.daemon_init +
             machine::ciod_app_launch_time(costs, app_procs) +
             machine::ciod_process_table_time(costs, app_procs,
                                              /*patched=*/true);
    case stat::LauncherKind::kCiodUnpatched:
      if (app_procs >= costs.ciod_unpatched_hang_threshold) {
        viability = deadline_exceeded(
            "BG/L resource manager hang generating the process table");
      }
      return machine::ciod_spawn_time(costs, daemons) + costs.daemon_init +
             machine::ciod_app_launch_time(costs, app_procs) +
             machine::ciod_process_table_time(costs, app_procs,
                                              /*patched=*/false);
  }
  check(false, "unknown LauncherKind");
  return 0;
}

SimTime PhasePredictor::predict_sampling() const {
  const machine::SamplingCosts& costs = costs_.sampling;
  const double contention =
      machine::expected_contention(costs, machine_.daemon_shares_cpu);

  const double walk_s =
      static_cast<double>(profile_.traces_per_daemon) *
      to_seconds(machine::stack_walk_cost(
          costs,
          static_cast<std::size_t>(
              std::llround(profile_.avg_frames_per_trace)))) *
      contention;
  const double parse_s =
      to_seconds(
          machine::symtab_parse_cost(costs, profile_.symbol_image_bytes)) *
      contention;

  // Coarse shared-FS model: every daemon pulls the shared images through the
  // server's aggregate bandwidth (mostly page-cache hits — all daemons read
  // the same binaries), taken from the same NfsParams the scenario mounts.
  // Lustre runs reuse the NFS aggregate as a stand-in; sampling is
  // topology-independent either way, so it never affects the ranking.
  const fs::NfsParams nfs = stat::shared_nfs_params(machine_);
  const double aggregate_bytes_per_sec =
      nfs.server_threads * nfs.cached_bytes_per_sec;
  const double io_s = static_cast<double>(profile_.shared_fs_image_bytes) *
                      layout_.num_daemons / aggregate_bytes_per_sec;

  return seconds(io_s + parse_s + walk_s);
}

Result<PhasePrediction> PhasePredictor::predict(
    const tbon::TopologySpec& spec) const {
  auto topo_result = tbon::build_topology(machine_, layout_, spec, &graph_);
  if (!topo_result.is_ok()) return topo_result.status();
  const tbon::TbonTopology& topo = topo_result.value();

  PhasePrediction p;
  p.num_comm_procs = topo.num_comm_procs();

  // --- Startup -------------------------------------------------------------
  // The shard machinery's spawn is placement-aware: one remote-shell
  // handshake per distinct host, local forks for colocated helpers — the
  // exact formula (and host count) the scenario's connect phase charges.
  const std::uint32_t shard_procs = topo.num_shard_procs();
  p.launch = predict_launch(p.viability);
  p.connect =
      machine::comm_spawn_time(costs_.launch, p.num_comm_procs - shard_procs) +
      machine::reducer_spawn_time(costs_.launch, shard_procs,
                                  tbon::shard_spawn_hosts(topo)) +
      tbon::connect_time(topo, costs_.launch);
  p.startup = p.launch + p.connect;

  // --- Sampling ------------------------------------------------------------
  p.sampling = predict_sampling();

  // --- Merge ---------------------------------------------------------------
  // Connection-limit and receive-buffer viability (the Sec. V-A failures
  // the paper observed): the exact checks — and the exact limit, per-run
  // override folded in — the simulator runs, so the two can never disagree.
  if (p.viability.is_ok()) {
    p.viability =
        tbon::connection_viability(topo, machine_.max_tool_connections);
  }
  if (p.viability.is_ok()) {
    const auto leaf_bytes =
        static_cast<std::uint64_t>(profile_.leaf_payload_bytes);
    p.viability = tbon::receive_buffer_viability(
        topo, [leaf_bytes](std::uint32_t) { return leaf_bytes; },
        costs_.merge);
  }

  const SubtreeSizes sizes(profile_, topo);
  const auto edge = [&](std::size_t i, std::uint32_t c, double& cpu_s) {
    const double child_bytes = sizes.bytes(c);
    const auto wire = static_cast<std::uint64_t>(child_bytes);
    const auto nodes = static_cast<std::uint64_t>(sizes.nodes(c));
    if (topo.sharded() && i == 0) {
      // Final combine at the true front end. shard_combine_cost is the
      // codec+merge charge of the branch below by construction — the
      // combine is cheap because only K shard payloads arrive here, not
      // because an arrival costs less; the named formula just keeps the
      // sharded pricing anchored in machine/cost_model.
      cpu_s +=
          to_seconds(machine::shard_combine_cost(costs_.merge, nodes, wire));
    } else {
      cpu_s += to_seconds(machine::packet_codec_cost(costs_.merge, wire));
      cpu_s +=
          to_seconds(machine::filter_merge_cost(costs_.merge, nodes, wire));
    }
    return child_bytes;
  };
  // Internal procs pack their accumulator before forwarding it.
  const auto forward = [&](std::size_t i, double& cpu_s) {
    if (topo.procs[i].parent >= 0) {
      cpu_s += to_seconds(machine::packet_codec_cost(
          costs_.merge, static_cast<std::uint64_t>(sizes.bytes(i))));
    }
  };
  const double leaf_s = to_seconds(machine::packet_codec_cost(
      costs_.merge, static_cast<std::uint64_t>(profile_.leaf_payload_bytes)));
  p.merge = seconds(critical_path_seconds(graph_, topo, leaf_s, edge, forward));

  if (options_.repr == stat::TaskSetRepr::kHierarchical) {
    if (topo.sharded()) {
      p.remap = machine::sharded_remap_cost(
          costs_.merge, tbon::largest_shard_task_count(topo, layout_));
    } else {
      p.remap = machine::frontend_remap_cost(costs_.merge, layout_.num_tasks);
    }
  }
  return p;
}

Result<std::vector<LinkBytesPrediction>>
PhasePredictor::predict_merge_link_bytes(const tbon::TopologySpec& spec) const {
  auto topo_result = tbon::build_topology(machine_, layout_, spec, &graph_);
  if (!topo_result.is_ok()) return topo_result.status();
  const tbon::TbonTopology& topo = topo_result.value();

  // One upward transfer per tree edge — exactly the merge phase's traffic —
  // charged to every device along the child->parent route, the same walk
  // Network::transfer reserves.
  const SubtreeSizes sizes(profile_, topo);
  std::unordered_map<std::uint64_t, LinkBytesPrediction> priced;
  for (const auto& parent : topo.procs) {
    for (const std::uint32_t c : parent.children) {
      const double child_bytes = sizes.bytes(c);
      for (const net::RouteHop& hop :
           net::route_between(graph_, topo.procs[c].host, parent.host)) {
        LinkBytesPrediction& entry = priced[hop.device];
        entry.device = hop.device;
        entry.bytes += child_bytes;
        ++entry.messages;
      }
    }
  }

  std::vector<LinkBytesPrediction> out;
  out.reserve(priced.size());
  for (auto& [device, entry] : priced) {
    entry.link = graph_.device_name(device);
    out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(),
            [](const LinkBytesPrediction& a, const LinkBytesPrediction& b) {
              return a.device < b.device;
            });
  return out;
}

Result<RecoveryPrediction> PhasePredictor::predict_recovery(
    const tbon::TopologySpec& spec, SimTime ping_period) const {
  auto topo_result = tbon::build_topology(machine_, layout_, spec, &graph_);
  if (!topo_result.is_ok()) return topo_result.status();
  const tbon::TbonTopology& topo = topo_result.value();
  const std::uint32_t victim = tbon::default_victim(topo);

  RecoveryPrediction r;

  // One ping round trip: fan-out level by level (worst route latency plus the
  // busiest parent's serialized ping sends), echo gather symmetric.
  const double msg_overhead_s = to_seconds(graph_.per_message_overhead());
  std::vector<double> level_s(topo.depth, 0.0);
  for (const auto& parent : topo.procs) {
    if (parent.children.empty()) continue;
    double worst_link_s = 0.0;
    double nic_s = 0.0;
    for (const std::uint32_t c : parent.children) {
      const net::Route route =
          net::route_between(graph_, parent.host, topo.procs[c].host);
      worst_link_s =
          std::max(worst_link_s,
                   to_seconds(net::route_latency(route)) + msg_overhead_s);
      nic_s += static_cast<double>(tbon::kControlMessageBytes) /
               net::bottleneck_rate(route);
    }
    level_s[parent.level] = std::max(level_s[parent.level], worst_link_s + nic_s);
  }
  double round_trip_s = 0.0;
  for (const double s : level_s) round_trip_s += 2.0 * s;
  r.detection = machine::expected_detection_latency(ping_period,
                                                    seconds(round_trip_s));

  // The lost subtree: alive leaves under the victim re-send into the
  // victim's surviving non-leaf siblings (or straight into the parent).
  std::uint32_t orphans = 0;
  for (const std::uint32_t leaf : topo.leaf_of_daemon) {
    std::int32_t walk = static_cast<std::int32_t>(leaf);
    while (walk >= 0 && static_cast<std::uint32_t>(walk) != victim) {
      walk = topo.procs[static_cast<std::uint32_t>(walk)].parent;
    }
    if (walk >= 0 && static_cast<std::uint32_t>(walk) == victim) ++orphans;
  }
  if (topo.procs[victim].is_leaf()) orphans = 0;  // the leaf itself is lost
  std::uint32_t adopters = 0;
  if (topo.procs[victim].parent >= 0) {
    const auto& parent =
        topo.procs[static_cast<std::uint32_t>(topo.procs[victim].parent)];
    for (const std::uint32_t sibling : parent.children) {
      if (sibling != victim && !topo.procs[sibling].is_leaf()) ++adopters;
    }
  }
  if (adopters == 0) adopters = 1;  // the parent absorbs the orphans itself
  r.orphan_leaves = orphans;
  r.adopters = adopters;

  const auto leaf_bytes =
      static_cast<std::uint64_t>(profile_.leaf_payload_bytes);
  r.remerge = machine::subtree_remerge_cost(
      costs_.merge, orphans, adopters,
      static_cast<std::uint64_t>(profile_.leaf_tree_nodes), leaf_bytes);
  if (orphans > 0) {
    // The busiest adopter's NIC also drains its share of the re-sent
    // payloads (the CPU formula covers codec+merge only).
    const std::uint64_t busiest = (orphans + adopters - 1) / adopters;
    const double nic_s =
        static_cast<double>(busiest) * static_cast<double>(leaf_bytes) /
        net::transfer_rate(graph_, topo.procs[topo.leaf_of_daemon[0]].host,
                           topo.front_end().host);
    r.remerge += seconds(nic_s);
  }
  return r;
}

Result<StreamSamplePrediction> PhasePredictor::predict_stream_sample(
    const tbon::TopologySpec& spec,
    const std::vector<bool>& daemon_changed) const {
  auto topo_result = tbon::build_topology(machine_, layout_, spec, &graph_);
  if (!topo_result.is_ok()) return topo_result.status();
  const tbon::TbonTopology& topo = topo_result.value();

  std::vector<bool> changed = daemon_changed;
  if (changed.empty()) changed.assign(layout_.num_daemons, true);
  if (changed.size() != layout_.num_daemons) {
    return invalid_argument(
        "changed mask covers " + std::to_string(changed.size()) +
        " daemons, job has " + std::to_string(layout_.num_daemons));
  }

  // Dirtiness, bottom-up (children index after parents): a proc is dirty —
  // it re-merges and forwards its subtree snapshot — exactly when some
  // daemon under it changed.
  const std::size_t n = topo.procs.size();
  std::vector<bool> dirty(n, false);
  for (std::uint32_t d = 0; d < layout_.num_daemons; ++d) {
    if (changed[d]) dirty[topo.leaf_of_daemon[d]] = true;
  }
  for (std::size_t i = n; i-- > 0;) {
    for (const std::uint32_t c : topo.procs[i].children) {
      if (dirty[c]) dirty[i] = true;
    }
  }

  StreamSamplePrediction p;
  for (std::uint32_t d = 0; d < layout_.num_daemons; ++d) {
    if (changed[d]) ++p.changed_daemons;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (topo.procs[i].is_leaf()) continue;
    if (dirty[i]) {
      ++p.remerged_procs;
    } else {
      ++p.cached_procs;
    }
  }

  // predict()'s critical path, with every charge taken from the streaming
  // round's formulas: a changed child costs its delta's codec + filter
  // merge, an acknowledging child costs the ack codec (plus a cached
  // re-merge when the parent is dirty), and a proc forwards either its
  // packed subtree delta or a bare ack.
  const SubtreeSizes sizes(stream_profile_, topo);
  const double ack_codec_s =
      to_seconds(machine::control_packet_cost(costs_.stream));
  const auto edge = [&](std::size_t i, std::uint32_t c, double& cpu_s) {
    const auto snap_wire = static_cast<std::uint64_t>(sizes.bytes(c));
    const auto nodes = static_cast<std::uint64_t>(sizes.nodes(c));
    const std::uint64_t wire =
        dirty[c] ? tbon::delta_wire_bytes(snap_wire) : tbon::kDeltaAckBytes;
    if (dirty[c]) {
      cpu_s += to_seconds(machine::packet_codec_cost(costs_.merge, wire));
      cpu_s += to_seconds(
          machine::filter_merge_cost(costs_.merge, nodes, snap_wire));
    } else if (dirty[i]) {
      // A dirty parent handles the cheap acks while still waiting on its
      // changed children's payloads — off the critical path — and folds
      // the cached copies once all children are accounted for.
      cpu_s += to_seconds(machine::cached_merge_cost(
          costs_.merge, costs_.stream, nodes, snap_wire));
    } else {
      cpu_s += ack_codec_s;
    }
    p.delta_bytes += wire;
    return static_cast<double>(wire);
  };
  const auto forward = [&](std::size_t i, double& cpu_s) {
    const auto own = static_cast<std::uint64_t>(sizes.bytes(i));
    if (topo.procs[i].parent >= 0) {
      cpu_s += dirty[i] ? to_seconds(machine::packet_codec_cost(
                              costs_.merge, tbon::delta_wire_bytes(own)))
                        : ack_codec_s;
    } else if (dirty[i]) {
      // The front end packs its re-merged accumulator; a clean round is
      // answered from the cache for free.
      cpu_s += to_seconds(machine::packet_codec_cost(costs_.merge, own));
    }
  };

  // Every leaf hashes its snapshot before sending; the slowest leaf is a
  // changed one (its delta pack dwarfs an ack's) whenever any changed.
  const double sig_s = to_seconds(machine::signature_cost(
      costs_.stream,
      static_cast<std::uint64_t>(stream_profile_.leaf_tree_nodes)));
  const double send_s =
      p.changed_daemons > 0
          ? to_seconds(machine::packet_codec_cost(
                costs_.merge,
                tbon::delta_wire_bytes(static_cast<std::uint64_t>(
                    stream_profile_.leaf_payload_bytes))))
          : ack_codec_s;
  p.merge = seconds(
      critical_path_seconds(graph_, topo, sig_s + send_s, edge, forward));
  return p;
}

}  // namespace petastat::plan
