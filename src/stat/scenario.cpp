#include "stat/scenario.hpp"

#include <algorithm>

#include "plan/search.hpp"
#include "stat/checkpoint.hpp"
#include "stat/filter.hpp"
#include "tbon/health.hpp"
#include "tbon/multicast.hpp"
#include "tbon/reduction.hpp"
#include "tbon/trigger.hpp"

namespace petastat::stat {

const char* launcher_kind_name(LauncherKind kind) {
  switch (kind) {
    case LauncherKind::kMrnetRsh: return "mrnet-rsh";
    case LauncherKind::kMrnetSsh: return "mrnet-ssh";
    case LauncherKind::kLaunchMon: return "launchmon";
    case LauncherKind::kCiodPatched: return "ciod-patched";
    case LauncherKind::kCiodUnpatched: return "ciod-unpatched";
  }
  return "?";
}

const char* task_set_repr_name(TaskSetRepr repr) {
  return repr == TaskSetRepr::kDenseGlobal ? "dense-bitvector"
                                           : "hierarchical-list";
}

namespace {
constexpr const char* kSharedBase = "/nfs/home/user";

/// Per-link traffic since `before` (a link_stats() snapshot), busiest first
/// (ties to the lower device key), links with no new traffic dropped.
std::vector<net::LinkStat> link_stats_since(
    const net::Network& network, const std::vector<net::LinkStat>& before) {
  std::vector<net::LinkStat> delta = network.link_stats();
  // Both snapshots are sorted by device key, and devices are only ever
  // added, so a linear pairwise walk lines them up.
  std::size_t b = 0;
  for (net::LinkStat& stat : delta) {
    while (b < before.size() && before[b].device < stat.device) ++b;
    if (b < before.size() && before[b].device == stat.device) {
      stat.bytes -= before[b].bytes;
      stat.messages -= before[b].messages;
      stat.busy -= before[b].busy;
    }
  }
  delta.erase(std::remove_if(delta.begin(), delta.end(),
                             [](const net::LinkStat& s) {
                               return s.messages == 0 && s.bytes == 0 &&
                                      s.busy == 0;
                             }),
              delta.end());
  std::stable_sort(delta.begin(), delta.end(),
                   [](const net::LinkStat& lhs, const net::LinkStat& rhs) {
                     if (lhs.busy != rhs.busy) return lhs.busy > rhs.busy;
                     return lhs.device < rhs.device;
                   });
  return delta;
}

/// The --fail-at kill switch both merge paths arm: the default victim, the
/// health monitor whose ping sweeps notice its death, and the trigger that
/// recovers it through the reduction the moment the death is detected.
template <typename Payload>
struct KillSwitch {
  KillSwitch(sim::Simulator& simulator, net::Network& net,
             const tbon::TbonTopology& topology, const StatOptions& options,
             tbon::Reduction<Payload>& reduce, PhaseBreakdown& phase_record)
      : sim(simulator),
        reduction(reduce),
        phases(phase_record),
        armed(options.fail_at_seconds >= 0.0),
        victim(armed ? tbon::default_victim(topology) : 0),
        monitor(simulator, net, topology, triggers,
                seconds(options.ping_period_seconds)) {
    if (!armed) return;
    triggers.register_action([this](const tbon::FailureEvent& event) {
      phases.failure_detect_latency = event.detected_at - event.dead_at;
      detected_at = event.detected_at;
      const tbon::RecoveryReport report = reduction.recover(event.proc);
      if (report.acted) {
        phases.orphaned_daemons += report.orphan_daemons;
        phases.lost_daemons += report.lost_daemons;
      }
    });
  }

  /// Kills the victim now.
  void fire() {
    reduction.mark_dead(victim);
    monitor.mark_dead(victim, sim.now());
    ++phases.killed_procs;
  }

  sim::Simulator& sim;
  tbon::Reduction<Payload>& reduction;
  PhaseBreakdown& phases;
  const bool armed;
  const std::uint32_t victim;
  tbon::TriggerManager triggers;
  tbon::HealthMonitor monitor;
  SimTime detected_at = kSimTimeNever;  // when the monitor noticed the victim
};
}  // namespace

std::unique_ptr<app::AppModel> make_app_model(
    const machine::MachineConfig& machine, const machine::JobConfig& job,
    const StatOptions& options) {
  const bool bgl_style =
      machine.daemon_placement == machine::DaemonPlacement::kPerIoNode;
  app::AppBinarySpec binaries =
      machine.static_binary
          ? app::ring_binaries_static(kSharedBase)
          : app::ring_binaries_dynamic(kSharedBase, options.slim_binaries);

  switch (options.app) {
    case AppKind::kRingHang: {
      app::RingHangOptions ring;
      ring.num_tasks = job.num_tasks;
      ring.bgl_frames = bgl_style;
      ring.seed = options.seed;
      ring.evolution = options.evolution;
      ring.binaries = std::move(binaries);
      return std::make_unique<app::RingHangApp>(std::move(ring));
    }
    case AppKind::kThreadedRing: {
      app::ThreadedRingOptions threaded;
      threaded.ring.num_tasks = job.num_tasks;
      threaded.ring.bgl_frames = bgl_style;
      threaded.ring.seed = options.seed;
      threaded.ring.evolution = options.evolution;
      threaded.ring.binaries = std::move(binaries);
      threaded.threads_per_task = std::max(1u, job.threads_per_task);
      return std::make_unique<app::ThreadedRingApp>(std::move(threaded));
    }
    case AppKind::kStatBench: {
      app::StatBenchOptions bench;
      bench.num_tasks = job.num_tasks;
      bench.num_classes = options.statbench_classes;
      bench.seed = options.seed;
      bench.evolution = options.evolution;
      bench.binaries = std::move(binaries);
      return std::make_unique<app::StatBenchApp>(std::move(bench));
    }
    case AppKind::kIoStall: {
      app::IoStallOptions stall;
      stall.num_tasks = job.num_tasks;
      stall.bgl_frames = bgl_style;
      stall.seed = options.seed;
      stall.evolution = options.evolution;
      stall.binaries = std::move(binaries);
      return std::make_unique<app::IoStallApp>(std::move(stall));
    }
    case AppKind::kImbalance: {
      app::ImbalanceOptions imbalance;
      imbalance.num_tasks = job.num_tasks;
      imbalance.bgl_frames = bgl_style;
      imbalance.seed = options.seed;
      imbalance.evolution = options.evolution;
      imbalance.drift_period = std::max(1u, options.drift_period);
      if (options.evolution == app::TraceEvolution::kDrift) {
        // Align the drift bands with daemon boundaries so each sample's
        // changed set is a slice of *adjacent daemons* — a few dirty
        // subtrees, not every subtree a little dirty.
        if (auto layout = machine::layout_daemons(machine, job);
            layout.is_ok()) {
          imbalance.drift_block =
              std::max(1u, layout.value().tasks_of(DaemonId(0)));
        }
      }
      return std::make_unique<app::ImbalanceApp>(std::move(imbalance));
    }
    case AppKind::kOomCascade: {
      app::OomCascadeOptions oom;
      oom.num_tasks = job.num_tasks;
      oom.bgl_frames = bgl_style;
      oom.seed = options.seed;
      oom.evolution = options.evolution;
      oom.binaries = std::move(binaries);
      return std::make_unique<app::OomCascadeApp>(std::move(oom));
    }
  }
  check(false, "unknown AppKind");
  return nullptr;
}

fs::NfsParams shared_nfs_params(const machine::MachineConfig& machine) {
  fs::NfsParams nfs;
  if (machine.daemon_placement == machine::DaemonPlacement::kPerIoNode) {
    // Lab-grade NFS farm behind the I/O nodes: faster cached reads (every
    // daemon reads the same static binary), more lanes, but a moodier
    // shared server.
    nfs.server_threads = 8;
    nfs.cached_bytes_per_sec = 150.0e6;  // aggregate 1.2 GB/s
    nfs.run_load_sigma = 0.58;
  }
  return nfs;
}

StatScenario::StatScenario(machine::MachineConfig machine,
                           machine::JobConfig job, StatOptions options)
    : StatScenario(std::move(machine), job, std::move(options),
                   /*executor=*/nullptr, /*restore=*/nullptr) {}

StatScenario::StatScenario(machine::MachineConfig machine,
                           machine::JobConfig job, StatOptions options,
                           sim::Executor* executor)
    : StatScenario(std::move(machine), job, std::move(options), executor,
                   /*restore=*/nullptr) {}

StatScenario::StatScenario(machine::MachineConfig machine,
                           machine::JobConfig job, StatOptions options,
                           std::shared_ptr<const SessionCheckpoint> restore)
    : StatScenario(std::move(machine), job, std::move(options),
                   /*executor=*/nullptr, std::move(restore)) {}

StatScenario::StatScenario(machine::MachineConfig machine,
                           machine::JobConfig job, StatOptions options,
                           sim::Executor* executor,
                           std::shared_ptr<const SessionCheckpoint> restore)
    : machine_(std::move(machine)),
      job_(job),
      options_(std::move(options)),
      restore_(std::move(restore)),
      costs_(machine::default_cost_model(machine_)) {
  if (executor != nullptr) {
    exec_ = executor;
  } else {
    owned_exec_ = std::make_unique<sim::Executor>(options_.exec_threads);
    exec_ = owned_exec_.get();
  }
  auto layout = machine::layout_daemons(machine_, job_);
  check(layout.is_ok(), "StatScenario: job does not fit the machine");
  layout_ = layout.value();

  // The streaming window is part of the checkpoint, not the restore-side
  // options: normalize it so the resumed series is the interrupted one.
  if (restore_ != nullptr) {
    options_.stream_samples = restore_->total_rounds;
    options_.stream_interval_seconds = restore_->interval_seconds;
    options_.run_through = RunThrough::kFull;
  }

  // Option validation; a zero connection override or shard count is
  // rejected by plan::resolve_spec below.
  if (options_.daemon_failure_probability < 0.0 ||
             options_.daemon_failure_probability > 1.0) {
    config_status_ = invalid_argument(
        "daemon_failure_probability must be in [0, 1]");
  } else if (options_.ping_period_seconds <= 0.0) {
    config_status_ =
        invalid_argument("ping_period_seconds must be > 0");
  } else if (options_.stream_interval_seconds < 0.0) {
    config_status_ =
        invalid_argument("stream_interval_seconds must be >= 0");
  } else if ((options_.checkpoint_period > 0 || options_.vacate_at_round >= 0) &&
             (options_.stream_samples == 0 ||
              options_.run_through != RunThrough::kFull)) {
    config_status_ = invalid_argument(
        "checkpoint_period/vacate_at_round require a streaming run "
        "(--stream)");
  } else if (options_.vacate_at_round == 0 ||
             (options_.vacate_at_round > 0 &&
              static_cast<std::uint32_t>(options_.vacate_at_round) >=
                  options_.stream_samples)) {
    config_status_ = invalid_argument(
        "vacate_at_round must be an interior round boundary in "
        "[1, stream_samples)");
  }

  // Restore validation: the checkpoint must describe *this* session (stale
  // hash → FAILED_PRECONDITION) and a resumable point in it.
  if (config_status_.is_ok() && restore_ != nullptr) {
    if (restore_->cursor == 0 || restore_->cursor >= restore_->total_rounds) {
      config_status_ = invalid_argument(
          "restore: checkpoint cursor beyond series (cursor " +
          std::to_string(restore_->cursor) + " of " +
          std::to_string(restore_->total_rounds) + " rounds)");
    } else if (restore_->num_tasks != layout_.num_tasks ||
               restore_->num_daemons != layout_.num_daemons) {
      config_status_ = invalid_argument(
          "restore: checkpoint job shape does not match the machine layout");
    } else if (session_identity_hash(machine_, job_, options_) !=
               restore_->identity_hash) {
      config_status_ = failed_precondition(
          "restore: stale session hash — the checkpoint was captured under a "
          "different machine/job/seed/app configuration");
    } else if (options_.vacate_at_round >= 0 &&
               static_cast<std::uint32_t>(options_.vacate_at_round) <=
                   restore_->cursor) {
      config_status_ = invalid_argument(
          "vacate_at_round must be past the restore cursor");
    }
  }

  // Resolve the spec up front (the connection override folded into the
  // machine, `--topology auto` / `--fe-shards auto`, a restore's adopted or
  // re-planned spec) so the run-seed salting below — and everything seeded
  // from it — sees the spec the run will actually use.
  if (config_status_.is_ok()) {
    config_status_ = plan::resolve_spec(machine_, job_, options_, costs_,
                                        restore_.get());
  }
  // Reject a restored spec the machine cannot build (a K incompatible with
  // this layout) at construction, where the scheduler screens sessions.
  if (config_status_.is_ok() && restore_ != nullptr) {
    auto topo = tbon::build_topology(machine_, layout_, options_.topology);
    if (!topo.is_ok()) config_status_ = topo.status();
  }

  net_ = std::make_unique<net::Network>(sim_, net::build_switch_graph(machine_));

  // Per-run noise streams are salted with the configuration so that
  // "essentially identical" runs under different topologies draw different
  // server moods — the paper's Fig. 9 variation.
  const std::uint64_t run_seed =
      options_.seed ^
      std::hash<std::string>{}(options_.topology.name() +
                               task_set_repr_name(options_.repr));

  // File systems: the shared FS under /nfs, node-local /usr/lib, and the
  // per-node RAM disk SBRS relocates into.
  if (options_.shared_fs == SharedFsKind::kLustre) {
    shared_fs_ = std::make_unique<fs::LustreFileSystem>(sim_, fs::LustreParams{},
                                                        run_seed);
  } else {
    shared_fs_ = std::make_unique<fs::NfsFileSystem>(
        sim_, shared_nfs_params(machine_), run_seed);
  }
  local_fs_ = std::make_unique<fs::RamDiskFileSystem>(
      sim_, fs::RamDiskParams{.bytes_per_sec = 150.0e6,
                              .per_open = 300 * kMicrosecond});
  ramdisk_ = std::make_unique<fs::RamDiskFileSystem>(sim_, fs::RamDiskParams{});
  mounts_.mount("/nfs", shared_fs_.get());
  mounts_.mount("/usr/lib", local_fs_.get());
  mounts_.mount("/ramdisk", ramdisk_.get());
  files_ = std::make_unique<fs::FileAccess>(sim_, mounts_);

  app_ = make_app_model(machine_, job_, options_);
  walker_ = std::make_unique<stackwalker::StackWalker>(
      sim_, machine_, costs_.sampling, *files_, *app_, layout_, run_seed);
  walker_->set_executor(exec_);
  lmon_ = std::make_unique<launchmon::LaunchMonSession>(sim_, machine_, *net_,
                                                        layout_);
}

StatScenario::~StatScenario() = default;

StatRunResult StatScenario::run() {
  if (ran_) {
    StatRunResult result;
    result.layout = layout_;
    result.topology = options_.topology;
    result.status = failed_precondition(
        "StatScenario::run() is single-shot: construct a fresh scenario per "
        "session");
    return result;
  }
  ran_ = true;
  StatRunResult result = run_impl();
  // The scenario clock only ever advances inside this run, so "now" is the
  // session's total virtual duration — including the phases a failure cut
  // short.
  result.total_virtual_time = sim_.now();
  return result;
}

StatRunResult StatScenario::run_impl() {
  StatRunResult result;
  result.layout = layout_;
  result.topology = options_.topology;
  if (!config_status_.is_ok()) {
    // Invalid options, or auto resolution found no viable spec.
    result.status = config_status_;
    return result;
  }
  PhaseBreakdown& phases = result.phases;

  // Walkers see the (possibly shuffled) process-table mapping.
  const TaskMap task_map = options_.shuffle_task_map
                               ? TaskMap::shuffled(layout_, options_.seed)
                               : TaskMap::identity(layout_);
  walker_->set_task_resolver([task_map](DaemonId d, std::uint32_t local) {
    return TaskId(task_map.global_rank(d.value(), local));
  });

  // --- Topology --------------------------------------------------------------
  auto topo_result = tbon::build_topology(machine_, layout_, options_.topology);
  if (!topo_result.is_ok()) {
    result.status = topo_result.status();
    return result;
  }
  const tbon::TbonTopology topology = std::move(topo_result).value();
  result.num_comm_procs = topology.num_comm_procs();

  // --- Phase 1: startup --------------------------------------------------------
  // A restored session skips the launch: the daemons survived the front-end
  // loss and stay attached. Only the front end's half is rebuilt below —
  // comm/shard process spawn plus MRNet instantiation (connect_time).
  if (restore_ != nullptr) {
    result.restored = true;
    result.restore_cursor = restore_->cursor;
  }
  std::unique_ptr<rm::DaemonLauncher> launcher;
  if (restore_ == nullptr) {
  switch (options_.launcher) {
    case LauncherKind::kMrnetRsh:
      launcher = std::make_unique<rm::RemoteShellLauncher>(
          sim_, machine_, costs_.launch, rm::ShellProtocol::kRsh, options_.seed);
      break;
    case LauncherKind::kMrnetSsh:
      launcher = std::make_unique<rm::RemoteShellLauncher>(
          sim_, machine_, costs_.launch, rm::ShellProtocol::kSsh, options_.seed);
      break;
    case LauncherKind::kLaunchMon:
      launcher =
          std::make_unique<rm::BulkTreeLauncher>(sim_, costs_.launch, options_.seed);
      break;
    case LauncherKind::kCiodPatched:
      launcher = std::make_unique<rm::CiodLauncher>(sim_, costs_.launch,
                                                    /*patched=*/true, options_.seed);
      break;
    case LauncherKind::kCiodUnpatched:
      launcher = std::make_unique<rm::CiodLauncher>(
          sim_, costs_.launch, /*patched=*/false, options_.seed);
      break;
  }

  rm::LaunchRequest request;
  request.num_daemons = layout_.num_daemons;
  // BG/L-style machines launch the application under tool control; on the
  // cluster STAT attaches to a running job.
  const bool tool_launches_app =
      machine_.daemon_placement == machine::DaemonPlacement::kPerIoNode;
  request.num_app_procs = tool_launches_app ? layout_.num_tasks : 0;

  lmon_->launch(*launcher, request,
                [&phases](const rm::LaunchReport& report) {
                  phases.launch = report;
                });
  sim_.run();
  if (!phases.launch.status.is_ok()) {
    result.status = phases.launch.status;
    phases.startup_total = sim_.now();
    return result;
  }
  }  // restore_ == nullptr

  // MRNet comm processes — the shard machinery included — are spawned
  // serially from the front end, then the whole network instantiates level
  // by level. Reducers/combiners price their spawn by distinct host
  // (placement-aware: colocated helpers fork locally after the first
  // per-host handshake).
  const std::uint32_t shard_procs = topology.num_shard_procs();
  phases.connect_time =
      machine::comm_spawn_time(costs_.launch,
                               result.num_comm_procs - shard_procs) +
      machine::reducer_spawn_time(costs_.launch, shard_procs,
                                  tbon::shard_spawn_hosts(topology)) +
      tbon::connect_time(topology, costs_.launch);
  sim_.schedule_in(phases.connect_time, []() {});
  sim_.run();
  phases.startup_total = sim_.now();
  if (options_.run_through == RunThrough::kStartup) return result;

  // --- Phase 2a: SBRS (optional; already done before the checkpoint) -----------
  if (options_.use_sbrs && restore_ == nullptr) {
    sbrs::Sbrs service(sim_, machine_, layout_, *files_, lmon_->fabric(),
                       sbrs::SbrsParams{});
    service.relocate(app_->binaries(), [&phases](const sbrs::SbrsReport& report) {
      phases.sbrs_grace = report.grace_time;
      phases.sbrs_relocation = report.relocation_time;
    });
    sim_.run();
  }

  // --- Phase 2b: sampling --------------------------------------------------------
  // Streaming mode replaces phases 2b and 3 with interleaved per-sample
  // rounds; its own SampleRequest broadcast is the control message.
  const bool streaming =
      options_.stream_samples > 0 && options_.run_through == RunThrough::kFull;
  const bool dense = options_.repr == TaskSetRepr::kDenseGlobal;
  if (!streaming) {
    // Sample request multicast down the tree (small control message).
    tbon::multicast(sim_, *net_, topology, tbon::kControlMessageBytes,
                    [](SimTime) {});
    sim_.run();
  }

  const SimTime sample_start = sim_.now();
  const std::uint32_t num_daemons = layout_.num_daemons;

  std::vector<StatPayload<GlobalLabel>> dense_payloads;
  std::vector<StatPayload<HierLabel>> hier_payloads;
  if (!streaming) {
    if (dense) {
      dense_payloads.resize(num_daemons);
    } else {
      hier_payloads.resize(num_daemons);
    }
  }

  // Failure injection: decide casualties up front (dead before sampling).
  std::vector<bool> daemon_dead(num_daemons, false);
  if (restore_ != nullptr) {
    // The checkpoint's dead set already carries the original injection, the
    // OOM-cascade victim, and any mid-stream losses; re-drawing here would
    // kill a different set than the run being resumed.
    for (const std::uint32_t d : restore_->dead_daemons) {
      daemon_dead[d] = true;
      ++phases.failed_daemons;
    }
  } else if (options_.daemon_failure_probability >= 1.0) {
    // Certain death is certain: no RNG draw, so every seed reports the same
    // total loss.
    std::fill(daemon_dead.begin(), daemon_dead.end(), true);
    phases.failed_daemons = num_daemons;
  } else if (options_.daemon_failure_probability > 0.0) {
    Rng failure_rng(options_.seed, /*stream_id=*/0xdead);
    for (std::uint32_t d = 0; d < num_daemons; ++d) {
      if (failure_rng.bernoulli(options_.daemon_failure_probability)) {
        daemon_dead[d] = true;
        ++phases.failed_daemons;
      }
    }
  }
  // The OOM cascade kills its victim's compute node outright: the daemon
  // serving the first-killed rank is gone before sampling starts (the tool
  // sees the hole, not the OOM).
  if (options_.app == AppKind::kOomCascade && restore_ == nullptr) {
    const auto& oom = dynamic_cast<const app::OomCascadeApp&>(*app_);
    const std::uint32_t victim_rank = oom.victim_task().value();
    bool found = false;
    for (std::uint32_t d = 0; d < num_daemons && !found; ++d) {
      const std::uint32_t locals = layout_.tasks_of(DaemonId(d));
      for (std::uint32_t local = 0; local < locals && !found; ++local) {
        if (task_map.global_rank(d, local) != victim_rank) continue;
        found = true;
        if (!daemon_dead[d]) {
          daemon_dead[d] = true;
          ++phases.failed_daemons;
        }
      }
    }
    check(found, "OOM-cascade victim rank not in the task map");
  }
  for (std::uint32_t d = 0; d < num_daemons; ++d) {
    if (daemon_dead[d]) result.dead_daemons.push_back(d);
  }
  // A tool with zero surviving daemons has nothing to merge.
  if (phases.failed_daemons == num_daemons) {
    phases.sample_status = unavailable("all daemons failed");
    result.status = phases.sample_status;
    return result;
  }

  if (streaming) {
    // Front-end viability is judged up front, exactly as the classic merge
    // phase does (dead daemons never dial in).
    if (Status conn = tbon::connection_viability(
            topology, machine_.max_tool_connections, daemon_dead);
        !conn.is_ok()) {
      phases.merge_status = std::move(conn);
      result.status = phases.merge_status;
      return result;
    }
    if (dense) {
      run_stream_phase<GlobalLabel>(topology, result, task_map, daemon_dead);
    } else {
      run_stream_phase<HierLabel>(topology, result, task_map, daemon_dead);
    }
    if (!phases.merge_status.is_ok()) {
      result.status = phases.merge_status;
      return result;
    }
    result.classes = equivalence_classes(result.tree_3d);
    return result;
  }

  SimTime sample_end = sample_start;
  for (std::uint32_t d = 0; d < num_daemons; ++d) {
    if (daemon_dead[d]) continue;
    // The walker delivers a daemon's traces sample by sample in task and
    // thread order; after the last one the payload only waits for the
    // merge, so it is trimmed to size while the other daemons sample.
    const std::uint32_t daemon_id = d;
    const std::uint32_t last_local = layout_.tasks_of(DaemonId(d)) - 1;
    const std::uint32_t last_thread = app_->threads_per_task() - 1;
    const std::uint32_t last_sample = options_.num_samples - 1;
    const auto sink_into = [&](auto* payload) -> stackwalker::TraceSink {
      return [=](TaskId task, std::uint32_t local, std::uint32_t thread,
                 std::uint32_t sample, const app::CallPath& path) {
        insert_trace(*payload, path, daemon_id, local, task, sample);
        if (sample == last_sample && local == last_local &&
            thread == last_thread) {
          payload->shrink_to_fit();
        }
      };
    };
    const stackwalker::TraceSink sink =
        dense ? sink_into(&dense_payloads[d]) : sink_into(&hier_payloads[d]);
    walker_->sample_daemon(
        DaemonId(d), options_.num_samples, sink,
        [&phases, &sample_end](const stackwalker::SampleReport& report) {
          phases.daemon_sample_seconds.add(to_seconds(report.total()));
          phases.sample_symbol_io_max =
              std::max(phases.sample_symbol_io_max, report.symbol_io_time);
          sample_end = std::max(sample_end, report.finished_at);
        });
  }
  sim_.run();
  phases.sample_time = sample_end - sample_start;
  if (options_.run_through == RunThrough::kSampling) return result;

  // --- Phase 3: merge ------------------------------------------------------------
  // Front-end viability checks (Sec. V-A failures): one shared formulation
  // with the planner, `> limit` rejects.
  // Dead daemons never dial in, so viability is judged on the survivors —
  // a tree that would overflow the front end at full strength can be fine
  // after casualties, and the planner's mask overload agrees. The limit is
  // the machine's, the per-run override folded in at construction.
  if (Status conn = tbon::connection_viability(
          topology, machine_.max_tool_connections, daemon_dead);
      !conn.is_ok()) {
    phases.merge_status = std::move(conn);
    result.status = phases.merge_status;
    return result;
  }

  if (dense) {
    run_merge_phase<GlobalLabel>(topology, result, std::move(dense_payloads),
                                 task_map, daemon_dead);
  } else {
    run_merge_phase<HierLabel>(topology, result, std::move(hier_payloads),
                               task_map, daemon_dead);
  }
  if (!phases.merge_status.is_ok()) {
    result.status = phases.merge_status;
    return result;
  }

  result.classes = equivalence_classes(result.tree_3d);
  return result;
}

template <typename Label>
void StatScenario::run_merge_phase(const tbon::TbonTopology& topology,
                                   StatRunResult& result,
                                   std::vector<StatPayload<Label>> payloads,
                                   const TaskMap& task_map,
                                   const std::vector<bool>& daemon_dead) {
  PhaseBreakdown& phases = result.phases;
  const LabelContext ctx{layout_.num_tasks};
  const app::FrameTable& frames = app_->frames();

  std::uint32_t first_alive = 0;
  while (first_alive < daemon_dead.size() && daemon_dead[first_alive]) {
    ++first_alive;
  }
  check(first_alive < payloads.size(), "merge phase with every daemon dead");
  phases.leaf_payload_bytes =
      payload_wire_bytes(payloads[first_alive], frames, ctx);

  // Receive-buffer viability at every merge root (the merge root of a flat
  // subtree holds every daemon's full-job bit vectors at once).
  if (Status rx = tbon::receive_buffer_viability(
          topology,
          [&](std::uint32_t daemon) {
            return payload_wire_bytes(payloads[daemon], frames, ctx);
          },
          costs_.merge, daemon_dead);
      !rx.is_ok()) {
    phases.merge_status = std::move(rx);
    return;
  }

  const SimTime merge_start = sim_.now();
  const std::vector<net::LinkStat> links_before = net_->link_stats();
  tbon::Reduction<StatPayload<Label>> reduction(
      sim_, *net_, topology, make_stat_reduce_ops<Label>(costs_.merge, frames, ctx),
      exec_);
  reduction.set_dead_daemons(daemon_dead);

  // Mid-merge failure recovery: the monitor's ping sweep runs only while a
  // kill is armed (the tool's steady-state costs stay exactly as before),
  // and leaf payload retention — the recovery's raw material — likewise.
  KillSwitch<StatPayload<Label>> kill(sim_, *net_, topology, options_,
                                      reduction, phases);
  reduction.set_retain_payloads(kill.armed);
  if (kill.armed) {
    kill.monitor.start();
    sim_.schedule_in(seconds(options_.fail_at_seconds),
                     [&kill]() { kill.fire(); });
  }

  std::optional<StatPayload<Label>> merged;
  SimTime merge_done_at = merge_start;
  reduction.run_round(
      /*cursor=*/0, std::move(payloads),
      [&](tbon::ReduceResult<StatPayload<Label>> reduce_result) {
        merged = std::move(reduce_result.payload);
        merge_done_at = reduce_result.finished_at;
        phases.merge_bytes = reduce_result.bytes_moved;
        phases.merge_messages = reduce_result.messages;
        kill.monitor.stop();
      });
  sim_.run();
  phases.health_sweeps = kill.monitor.sweeps_completed();
  phases.merge_links = link_stats_since(*net_, links_before);
  if (!merged.has_value()) {
    // The victim died holding state the recovery could not rebuild (or died
    // where no sibling could adopt). The tool reports the stall instead of
    // spinning on a reduction that can never finish.
    phases.merge_status = unavailable(
        "merge stalled: a tool process died mid-merge and could not be "
        "recovered");
    return;
  }
  phases.merge_time = merge_done_at - merge_start;
  if (kill.detected_at != kSimTimeNever && merge_done_at > kill.detected_at) {
    phases.recovery_remerge_time = merge_done_at - kill.detected_at;
  }
  finalize_trees<Label>(topology, result, merged->tree_2d, merged->tree_3d,
                        task_map, daemon_dead);
}

template <typename Label>
void StatScenario::finalize_trees(const tbon::TbonTopology& topology,
                                  StatRunResult& result,
                                  PrefixTree<Label>& tree_2d,
                                  PrefixTree<Label>& tree_3d,
                                  const TaskMap& task_map,
                                  const std::vector<bool>& dead) {
  // The optimized representation pays the remap from daemon order to MPI
  // rank order (0.66 s at 208K tasks). With a sharded front end the
  // reducers remap their contiguous slices concurrently, so the phase costs
  // the largest slice instead of the whole job. Either way the remap only
  // touches ranks that reported — survivors, not the full job.
  if constexpr (std::is_same_v<Label, HierLabel>) {
    PhaseBreakdown& phases = result.phases;
    if (topology.sharded()) {
      phases.remap_time = machine::sharded_remap_cost(
          costs_.merge,
          tbon::largest_shard_task_count(topology, layout_, dead));
    } else {
      std::uint64_t surviving_tasks = 0;
      for (std::uint32_t d = 0; d < layout_.num_daemons; ++d) {
        if (!dead[d]) surviving_tasks += layout_.tasks_of(DaemonId(d));
      }
      phases.remap_time =
          machine::frontend_remap_cost(costs_.merge, surviving_tasks);
    }
    sim_.schedule_in(phases.remap_time, []() {});
    // The two trees remap independently; overlap them across workers while
    // the modelled remap duration elapses.
    auto remap_2d = exec_->run(
        [&]() { result.tree_2d = remap_tree(tree_2d, task_map); });
    result.tree_3d = remap_tree(tree_3d, task_map);
    exec_->wait(remap_2d);
    sim_.run();
  } else {
    result.tree_2d = std::move(tree_2d);
    result.tree_3d = std::move(tree_3d);
  }
}

namespace {

/// Builds a SessionCheckpoint at round boundary `boundary` (rounds
/// [0, boundary) are folded into the accumulators) and charges its virtual
/// write time. Timing only — the trees are timing-independent, so the
/// bit-identity contract is unaffected.
template <typename Label>
void capture_session_checkpoint(
    sim::Simulator& sim, const machine::MachineConfig& machine,
    const machine::JobConfig& job, const machine::DaemonLayout& layout,
    const StatOptions& options, const app::FrameTable& frames,
    const LabelContext& ctx, const tbon::TbonTopology& topology,
    const tbon::Reduction<StreamSnapshot<Label>>& reduction,
    const PrefixTree<Label>& acc_2d, const PrefixTree<Label>& acc_3d,
    const TaskMap& task_map, std::uint32_t boundary, StatRunResult& result) {
  auto cp = std::make_shared<SessionCheckpoint>();
  cp->machine_name = machine.name;
  cp->num_tasks = layout.num_tasks;
  cp->num_daemons = layout.num_daemons;
  cp->identity_hash = session_identity_hash(machine, job, options);
  cp->spec = options.topology;
  cp->cursor = boundary;
  cp->total_rounds = options.stream_samples;
  cp->interval_seconds = options.stream_interval_seconds;
  cp->repr = options.repr;
  cp->seed = options.seed;
  const std::vector<bool>& dead = reduction.dead_daemons();
  for (std::uint32_t d = 0; d < dead.size(); ++d) {
    if (dead[d]) cp->dead_daemons.push_back(d);
  }
  cp->daemon_cache_valid = reduction.daemon_cache_valid();
  cp->proc_cache_complete = reduction.proc_cache_complete();
  cp->leaf_payload_bytes = result.phases.leaf_payload_bytes;

  // Estimated per-shard inbound bytes: the measured per-daemon payload
  // scaled by each shard's surviving task share (one entry = the unsharded
  // front end). The restore-side re-planner's measured input.
  const double per_task =
      layout.tasks_per_daemon > 0
          ? static_cast<double>(cp->leaf_payload_bytes) /
                layout.tasks_per_daemon
          : 0.0;
  if (topology.sharded()) {
    for (const std::uint64_t tasks :
         tbon::shard_task_counts(topology, layout, dead)) {
      cp->shard_payload_bytes.push_back(
          static_cast<std::uint64_t>(per_task * static_cast<double>(tasks)));
    }
  } else {
    std::uint64_t surviving = 0;
    for (std::uint32_t d = 0; d < layout.num_daemons; ++d) {
      if (!dead[d]) surviving += layout.tasks_of(DaemonId(d));
    }
    cp->shard_payload_bytes.push_back(
        static_cast<std::uint64_t>(per_task * static_cast<double>(surviving)));
  }

  ByteSink sink_2d;
  acc_2d.encode(sink_2d, frames, ctx);
  cp->tree_2d_wire = sink_2d.take();
  ByteSink sink_3d;
  acc_3d.encode(sink_3d, frames, ctx);
  cp->tree_3d_wire = sink_3d.take();

  // Classes at the boundary, name-based. Rank order needs the remap for the
  // hierarchical representation; dense labels already carry global ranks.
  std::vector<EquivalenceClass> classes;
  if constexpr (std::is_same_v<Label, HierLabel>) {
    classes = equivalence_classes(remap_tree(acc_3d, task_map));
  } else {
    classes = equivalence_classes(acc_3d);
  }
  cp->classes.reserve(classes.size());
  for (const EquivalenceClass& cls : classes) {
    SessionCheckpoint::ClassEntry entry;
    entry.frames.reserve(cls.path.size());
    for (const FrameId frame : cls.path) {
      entry.frames.emplace_back(frames.name(frame));
    }
    entry.tasks = cls.tasks;
    cp->classes.push_back(std::move(entry));
  }

  const std::vector<std::uint8_t> bytes = cp->encoded();
  result.phases.checkpoint_bytes = bytes.size();
  ++result.phases.checkpoints_taken;
  // The front end streams the envelope to its local disk at RAM-disk
  // bandwidth before the next round starts.
  sim.schedule_in(seconds(static_cast<double>(bytes.size()) / 150.0e6),
                  []() {});
  sim.run();
  result.checkpoint = std::move(cp);
}

}  // namespace

template <typename Label>
void StatScenario::run_stream_phase(const tbon::TbonTopology& topology,
                                    StatRunResult& result,
                                    const TaskMap& task_map,
                                    const std::vector<bool>& daemon_dead) {
  PhaseBreakdown& phases = result.phases;
  const LabelContext ctx{layout_.num_tasks};
  const app::FrameTable& frames = app_->frames();
  const std::uint32_t num_daemons = layout_.num_daemons;
  const std::uint32_t rounds = options_.stream_samples;
  // A restored session re-arms the series at the checkpoint's cursor.
  const std::uint32_t start = restore_ != nullptr ? restore_->cursor : 0;

  const std::vector<net::LinkStat> links_before = net_->link_stats();

  tbon::Reduction<StreamSnapshot<Label>> reduction(
      sim_, *net_, topology,
      make_stream_ops<Label>(costs_.merge, costs_.stream, frames, ctx),
      exec_);
  reduction.set_dead_daemons(daemon_dead);
  reduction.set_full_remerge(options_.stream_full_remerge);

  // Mid-stream failure recovery. The kill cannot ride a simulator timer
  // here: every per-round drain empties the whole event queue, so a timer
  // armed for round 3 would fire during round 0's drain anyway. Instead the
  // victim dies at the first round boundary at or past --fail-at — after the
  // earlier rounds primed its subtree's caches — and the ping sweep runs in
  // bounded windows between rounds (a free-running monitor would keep every
  // drain from terminating). The detection recovers at once, between rounds,
  // and invalidates every ancestor cache the re-parenting touches: the
  // post-recovery round equals a from-scratch merge of the survivors.
  KillSwitch<StreamSnapshot<Label>> kill(sim_, *net_, topology, options_,
                                         reduction, phases);
  const SimTime kill_at =
      sim_.now() + seconds(std::max(0.0, options_.fail_at_seconds));
  const auto maybe_kill = [&]() {
    if (kill.armed && phases.killed_procs == 0 && sim_.now() >= kill_at) {
      kill.fire();
    }
  };
  // Ordering pin: a --fail-at landing exactly on a round boundary (t = 0
  // included) must drain *before* the next SampleRequest broadcast, not race
  // the boundary sweep below it — so the kill check runs once here, ahead of
  // the window announcement, and then at every boundary inside the loop.
  maybe_kill();

  // Control plane: one versioned SampleRequest announces the whole window —
  // the cursor to resume at, the remaining round count, the cadence — to
  // every leaf before the first round.
  tbon::SampleRequest request;
  request.cursor = start;
  request.count = rounds - start;
  request.interval = seconds(options_.stream_interval_seconds);
  tbon::broadcast(sim_, *net_, topology, costs_.stream, request, {},
                  [&phases](tbon::BroadcastReport report) {
                    phases.merge_bytes += report.bytes;
                    phases.merge_messages += report.messages;
                  });
  sim_.run();

  // A restore seeds the accumulators from the checkpoint's tree blobs —
  // frame names re-intern idempotently against this session's table. The
  // resumed rounds then merge on top; the canonical merge keeps the final
  // trees bit-identical to the never-killed run.
  PrefixTree<Label> acc_2d;
  PrefixTree<Label> acc_3d;
  if (restore_ != nullptr) {
    auto tree_2d = decode_tree_blob<Label>(restore_->tree_2d_wire,
                                           app_->frames(), ctx);
    check(tree_2d.is_ok(), "restore: checkpoint 2D tree blob failed to decode");
    acc_2d = std::move(tree_2d).value();
    auto tree_3d = decode_tree_blob<Label>(restore_->tree_3d_wire,
                                           app_->frames(), ctx);
    check(tree_3d.is_ok(), "restore: checkpoint 3D tree blob failed to decode");
    acc_3d = std::move(tree_3d).value();
  }
  // The daemons a round samples are the ones the previous round reached: a
  // daemon a recovery finds lost between rounds is still sampled once more,
  // and its loss takes effect from that round's merge on.
  std::vector<bool> unreachable = reduction.dead_daemons();
  result.stream_samples.reserve(rounds - start);
  for (std::uint32_t s = start; s < rounds; ++s) {
    maybe_kill();
    // --- gather round: one cursor of samples per reachable daemon ---------
    const SimTime gather_start = sim_.now();
    SimTime gather_end = gather_start;
    std::vector<StreamSnapshot<Label>> snapshots(num_daemons);
    for (std::uint32_t d = 0; d < num_daemons; ++d) {
      if (unreachable[d]) continue;
      auto* snapshot = &snapshots[d];
      const std::uint32_t daemon_id = d;
      stackwalker::TraceSink sink =
          [snapshot, daemon_id](TaskId task, std::uint32_t local,
                                std::uint32_t, std::uint32_t,
                                const app::CallPath& path) {
            add_trace(snapshot->tree, path, daemon_id, local, task);
          };
      walker_->sample_daemon_from(
          DaemonId(d), s, 1, sink,
          [&phases, &gather_end](const stackwalker::SampleReport& report) {
            phases.daemon_sample_seconds.add(to_seconds(report.total()));
            phases.sample_symbol_io_max =
                std::max(phases.sample_symbol_io_max, report.symbol_io_time);
            gather_end = std::max(gather_end, report.finished_at);
          });
    }
    sim_.run();
    if (s == start) {
      std::uint32_t first_alive = 0;
      while (first_alive < num_daemons && unreachable[first_alive]) {
        ++first_alive;
      }
      check(first_alive < num_daemons, "stream phase with every daemon dead");
      phases.leaf_payload_bytes =
          snapshot_wire_bytes(snapshots[first_alive], frames, ctx);
    }

    // --- merge round ------------------------------------------------------
    const SimTime merge_start = sim_.now();
    std::optional<tbon::ReduceResult<StreamSnapshot<Label>>> merged;
    reduction.run_round(
        s, std::move(snapshots),
        [&merged](tbon::ReduceResult<StreamSnapshot<Label>> r) {
          merged = std::move(r);
        });
    sim_.run();
    unreachable = reduction.dead_daemons();
    if (!merged.has_value()) {
      phases.merge_status = unavailable(
          "stream stalled: a tool process died mid-stream and round " +
          std::to_string(s) + " could never complete");
      phases.stream_links = link_stats_since(*net_, links_before);
      return;
    }

    StreamSampleStats stats;
    stats.sample = s;
    stats.sample_time = gather_end - gather_start;
    stats.merge_time = merged->finished_at - merge_start;
    stats.merge_bytes = merged->bytes_moved;
    stats.merge_messages = merged->messages;
    stats.changed_daemons = merged->changed_daemons;
    stats.remerged_procs = merged->remerged_procs;
    stats.cached_procs = merged->cached_procs;
    stats.changed = merged->changed;
    result.stream_samples.push_back(stats);

    phases.sample_time += stats.sample_time;
    phases.merge_time += stats.merge_time;
    phases.merge_bytes += stats.merge_bytes;
    phases.merge_messages += stats.merge_messages;
    ++phases.stream_rounds;
    if (stats.changed) ++phases.stream_changed_rounds;
    if (kill.detected_at != kSimTimeNever &&
        phases.recovery_remerge_time == 0 &&
        merged->finished_at > kill.detected_at) {
      phases.recovery_remerge_time = merged->finished_at - kill.detected_at;
    }

    // Fold the round's snapshot into the accumulated trees. The canonical
    // merge makes the fold order-independent, so the accumulated trees are
    // bit-identical to the classic batched 2D/3D trees.
    if (s == 0) {
      acc_2d = merged->payload.tree;
      acc_3d = std::move(merged->payload.tree);
    } else {
      acc_3d.merge(merged->payload.tree);
    }

    // --- round boundary: durability hooks ---------------------------------
    const std::uint32_t boundary = s + 1;
    const bool vacate_here =
        options_.vacate_at_round >= 0 &&
        boundary == static_cast<std::uint32_t>(options_.vacate_at_round);
    if (vacate_here ||
        (options_.checkpoint_period > 0 && boundary < rounds &&
         boundary % options_.checkpoint_period == 0)) {
      capture_session_checkpoint<Label>(sim_, machine_, job_, layout_,
                                        options_, frames, ctx, topology,
                                        reduction, acc_2d, acc_3d, task_map,
                                        boundary, result);
    }
    if (vacate_here) {
      // Simulated front-end loss: the session stops here, unfinalized (the
      // checkpoint just captured is what resumes it). Status stays OK — a
      // vacate is an operation, not a failure.
      result.vacated = true;
      phases.health_sweeps = kill.monitor.sweeps_completed();
      phases.stream_links = link_stats_since(*net_, links_before);
      return;
    }

    if (s + 1 == rounds) break;
    // Detection window: while a kill has fired but gone unnoticed, let the
    // monitor run a bounded burst of sweeps before the next round.
    if (kill.armed && phases.killed_procs > 0 &&
        kill.detected_at == kSimTimeNever) {
      kill.monitor.start();
      sim_.schedule_in(3 * seconds(options_.ping_period_seconds),
                       [&kill]() { kill.monitor.stop(); });
      sim_.run();
    }
    if (options_.stream_interval_seconds > 0.0) {
      // Fixed cadence: the next round starts one interval after this round
      // started gathering, or immediately when the round overran it.
      const SimTime next_at =
          gather_start + seconds(options_.stream_interval_seconds);
      if (next_at > sim_.now()) {
        sim_.schedule_at(next_at, []() {});
        sim_.run();
      }
    }
  }
  phases.health_sweeps = kill.monitor.sweeps_completed();
  phases.stream_links = link_stats_since(*net_, links_before);

  // Survivors are judged after mid-stream losses: a daemon whose leaf died
  // mid-stream stopped contributing and is not remapped.
  finalize_trees<Label>(topology, result, acc_2d, acc_3d, task_map,
                        reduction.dead_daemons());
}

}  // namespace petastat::stat
