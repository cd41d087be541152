#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <type_traits>

#include "app/appmodel.hpp"
#include "common/serializer.hpp"
#include "machine/cost_model.hpp"
#include "plan/predictor.hpp"
#include "plan/search.hpp"
#include "stat/checkpoint.hpp"
#include "stat/equivalence.hpp"
#include "stat/filter.hpp"
#include "stat/hier_taskset.hpp"
#include "tbon/topology.hpp"

namespace hostbench {

namespace ps = petastat;
using ps::stat::GlobalLabel;
using ps::stat::HierLabel;
using ps::stat::PrefixTree;
using ps::stat::StatPayload;

namespace {

using Clock = std::chrono::steady_clock;

/// Most daemon payloads per session that go through the encode/decode replay.
constexpr std::uint32_t kCodecDaemons = 128;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Layer totals summed over every replayed session.
struct Totals {
  double stack_s = 0.0;
  std::uint64_t traces = 0;
  double build_s = 0.0;
  std::uint64_t inserts = 0;
  std::uint64_t tree_nodes = 0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  std::uint64_t payload_bytes = 0;
  double merge_s = 0.0;
  std::uint64_t merges = 0;
  double remap_s = 0.0;
  double classes_s = 0.0;
  std::string fidelity_error;
};

/// Replays one session phase by phase, as the operation runs it: every
/// daemon synthesizes its traces and builds its payload; a sample of the
/// payloads goes through the codec; the payloads fold up the session's TBON;
/// the front end remaps and extracts the classes.
template <typename Label>
void replay_session(const Session& s, Totals& t) {
  const auto app = ps::stat::make_app_model(s.machine, s.job, s.options);
  ps::app::FrameTable& frames = app->frames();
  const ps::machine::DaemonLayout& layout = s.result.layout;
  const ps::stat::TaskMap map =
      s.options.shuffle_task_map
          ? ps::stat::TaskMap::shuffled(layout, s.options.seed)
          : ps::stat::TaskMap::identity(layout);
  const std::uint32_t samples = s.options.stream_samples > 0
                                    ? s.options.stream_samples
                                    : s.options.num_samples;
  const std::uint32_t threads = app->threads_per_task();
  const ps::stat::LabelContext ctx{layout.num_tasks};
  std::vector<bool> dead(layout.num_daemons, false);
  for (const std::uint32_t d : s.result.dead_daemons) dead[d] = true;

  std::vector<StatPayload<Label>> payloads(layout.num_daemons);
  std::vector<ps::app::CallPath> paths;
  for (std::uint32_t d = 0; d < layout.num_daemons; ++d) {
    if (dead[d]) continue;
    const std::uint32_t count = layout.tasks_of(ps::DaemonId(d));
    StatPayload<Label>& built = payloads[d];
    // One sample of the daemon at a time: synthesize its traces, then fold
    // them in, so the live paths stay as few as the walker's.
    for (std::uint32_t sample = 0; sample < samples; ++sample) {
      paths.clear();
      auto span = Clock::now();
      for (std::uint32_t local = 0; local < count; ++local) {
        const ps::TaskId task(map.global_rank(d, local));
        for (std::uint32_t th = 0; th < threads; ++th) {
          paths.push_back(app->stack(task, th, sample));
        }
      }
      t.stack_s += seconds_since(span);
      t.traces += paths.size();
      span = Clock::now();
      std::size_t next = 0;
      for (std::uint32_t local = 0; local < count; ++local) {
        const ps::TaskId task(map.global_rank(d, local));
        for (std::uint32_t th = 0; th < threads; ++th) {
          ps::stat::insert_trace(built, paths[next++], d, local, task, sample);
        }
      }
      t.build_s += seconds_since(span);
      // Sample 0 also seeds the 2D tree.
      t.inserts += sample == 0 ? 2 * next : next;
    }
    t.tree_nodes += built.tree_2d.node_count() + built.tree_3d.node_count();
    t.payload_bytes += ps::stat::payload_wire_bytes(built, frames, ctx);
  }

  // The codec runs on a stride sample of at most kCodecDaemons payloads:
  // the dense decoder walks every bit of a job-wide vector, so all 1,664
  // dense payloads of the 208K run would add ~15 s to every traced run.
  const std::uint32_t codec_stride =
      std::max(1u, (layout.num_daemons + kCodecDaemons - 1) / kCodecDaemons);
  for (std::uint32_t d = 0; d < layout.num_daemons; d += codec_stride) {
    if (dead[d]) continue;
    ps::ByteSink sink;
    auto span = Clock::now();
    payloads[d].tree_2d.encode(sink, frames, ctx);
    payloads[d].tree_3d.encode(sink, frames, ctx);
    t.encode_s += seconds_since(span);
    ps::ByteSource source(sink.bytes());
    span = Clock::now();
    auto tree_2d = PrefixTree<Label>::decode(source, frames, ctx);
    auto tree_3d = PrefixTree<Label>::decode(source, frames, ctx);
    t.decode_s += seconds_since(span);
    if (!tree_2d.is_ok() || !tree_3d.is_ok() ||
        !(tree_2d.value() == payloads[d].tree_2d) ||
        !(tree_3d.value() == payloads[d].tree_3d)) {
      t.fidelity_error = s.name + ": payload of daemon " + std::to_string(d) +
                         " did not round-trip";
      return;
    }
  }

  auto topology =
      ps::tbon::build_topology(s.machine, layout, s.result.topology);
  if (!topology.is_ok()) {
    t.fidelity_error = s.name + ": " + topology.status().to_string();
    return;
  }
  const auto& procs = topology.value().procs;
  // Post-order fold: every comm process merges its children's payloads.
  const auto fold = [&](const auto& self, std::uint32_t p) -> StatPayload<Label> {
    if (procs[p].is_leaf()) return std::move(payloads[procs[p].daemon.value()]);
    StatPayload<Label> acc;
    for (const std::uint32_t c : procs[p].children) {
      if (procs[c].is_leaf() && dead[procs[c].daemon.value()]) continue;
      StatPayload<Label> child = self(self, c);
      const auto span = Clock::now();
      acc.tree_2d.merge(child.tree_2d);
      acc.tree_3d.merge(child.tree_3d);
      t.merge_s += seconds_since(span);
      t.merges += 2;
    }
    return acc;
  };
  StatPayload<Label> merged = fold(fold, 0);

  ps::stat::GlobalTree tree_2d;
  ps::stat::GlobalTree tree_3d;
  if constexpr (std::is_same_v<Label, HierLabel>) {
    const auto span = Clock::now();
    tree_2d = ps::stat::remap_tree(merged.tree_2d, map);
    tree_3d = ps::stat::remap_tree(merged.tree_3d, map);
    t.remap_s += seconds_since(span);
  } else {
    tree_2d = std::move(merged.tree_2d);
    tree_3d = std::move(merged.tree_3d);
  }
  const auto span = Clock::now();
  const auto classes = ps::stat::equivalence_classes(tree_3d);
  t.classes_s += seconds_since(span);

  if (tree_2d.node_count() != s.result.tree_2d.node_count() ||
      tree_3d.node_count() != s.result.tree_3d.node_count() ||
      classes.size() != s.result.classes.size()) {
    t.fidelity_error =
        s.name + ": replayed trees have " + std::to_string(tree_2d.node_count()) +
        "/" + std::to_string(tree_3d.node_count()) + " nodes (2D/3D), the run " +
        std::to_string(s.result.tree_2d.node_count()) + "/" +
        std::to_string(s.result.tree_3d.node_count());
  }
}

/// Median microseconds per trace to build one daemon's hierarchical payload with
/// `tasks_per_daemon` tasks over 10 samples.
double build_us_per_trace(const ps::app::AppModel& app,
                          std::uint32_t tasks_per_daemon) {
  std::vector<ps::app::CallPath> paths;
  for (std::uint32_t sample = 0; sample < 10; ++sample) {
    for (std::uint32_t local = 0; local < tasks_per_daemon; ++local) {
      paths.push_back(app.stack(ps::TaskId(local), 0, sample));
    }
  }
  std::vector<double> runs;
  for (int rep = 0; rep < 5; ++rep) {
    StatPayload<HierLabel> payload;
    const auto span = Clock::now();
    for (std::size_t i = 0; i < paths.size(); ++i) {
      ps::stat::insert_trace(payload, paths[i], 0,
                             static_cast<std::uint32_t>(i % tasks_per_daemon),
                             ps::TaskId(0),
                             static_cast<std::uint32_t>(i / tasks_per_daemon));
    }
    runs.push_back(seconds_since(span));
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2] / static_cast<double>(paths.size()) * 1e6;
}

}  // namespace

ReplayResult replay_layers(const OpOutcome& traced) {
  ReplayResult out;
  Totals t;
  for (const Session& s : traced.sessions) {
    if (s.options.repr == ps::stat::TaskSetRepr::kHierarchical) {
      replay_session<HierLabel>(s, t);
    } else {
      replay_session<GlobalLabel>(s, t);
    }
    if (!t.fidelity_error.empty()) {
      out.fidelity_error = t.fidelity_error;
      return out;
    }
  }

  // Checkpoint codec: every capture the operation kept (none: all 0).
  double ckpt_encode = 0.0;
  double ckpt_decode = 0.0;
  std::uint64_t ckpt_bytes = 0;
  std::vector<std::shared_ptr<const ps::stat::SessionCheckpoint>> captures;
  for (const Session& s : traced.sessions) {
    if (s.result.checkpoint != nullptr) captures.push_back(s.result.checkpoint);
  }
  for (const auto& cp : captures) {
    auto span = Clock::now();
    const std::vector<std::uint8_t> bytes = cp->encoded();
    ckpt_encode += seconds_since(span);
    ckpt_bytes += bytes.size();
    ps::ByteSource source(bytes);
    span = Clock::now();
    const auto decoded = ps::stat::SessionCheckpoint::decode(source);
    ckpt_decode += seconds_since(span);
    if (!decoded.is_ok() || !(decoded.value() == *cp)) {
      out.fidelity_error = "checkpoint did not round-trip";
      return out;
    }
  }

  // Planner: the first session that asked for a plan (else the first one),
  // profiled with a cold probe cache, then searched with a warm one.
  const Session* planned = &traced.sessions.front();
  for (const Session& s : traced.sessions) {
    if (s.options.topology_auto || s.options.fe_shards_auto) {
      planned = &s;
      break;
    }
  }
  ps::plan::reset_profile_cache();
  auto span = Clock::now();
  const ps::plan::WorkloadProfile profile = ps::plan::profile_workload(
      planned->machine, planned->job, planned->result.layout, planned->options);
  const double profile_s = seconds_since(span);
  span = Clock::now();
  auto predictor = ps::plan::PhasePredictor::create(
      planned->machine, planned->job, planned->options,
      ps::machine::default_cost_model(planned->machine));
  std::size_t viable = 0;
  std::size_t rejected = 0;
  if (predictor.is_ok()) {
    auto search = ps::plan::search_topologies(predictor.value());
    if (search.is_ok()) {
      viable = search.value().viable.size();
      rejected = search.value().rejected.size();
    }
  }
  const double search_s = seconds_since(span);
  if (profile.traces_per_daemon == 0 || viable == 0) {
    out.fidelity_error = "planner replay found no viable topology";
    return out;
  }

  // Delta-cache counters of the streaming rounds.
  std::uint64_t remerged = 0;
  std::uint64_t cached = 0;
  std::uint64_t changed = 0;
  for (const Session& s : traced.sessions) {
    for (const auto& round : s.result.stream_samples) {
      remerged += round.remerged_procs;
      cached += round.cached_procs;
      changed += round.changed_daemons;
    }
  }

  // Virtual results, summed over the operation's sessions.
  double v_startup = 0, v_sample = 0, v_merge = 0, v_remap = 0, v_span = 0;
  std::uint64_t v_bytes = 0;
  for (const Session& s : traced.sessions) {
    const auto& p = s.result.phases;
    v_startup += ps::to_seconds(p.startup_total);
    v_sample += ps::to_seconds(p.sample_time);
    v_merge += ps::to_seconds(p.merge_time);
    v_remap += ps::to_seconds(p.remap_time);
    v_bytes += p.merge_bytes;
    v_span += ps::to_seconds(s.result.total_virtual_time);
  }
  // A scenario operation runs its sessions back to back.
  double makespan = v_span;
  double per_hour = 3600.0 * static_cast<double>(traced.sessions.size()) / v_span;
  if (traced.service.has_value()) {
    makespan = ps::to_seconds(traced.service->makespan);
    per_hour = traced.service->sessions_per_hour;
  }

  const auto& app_session = traced.sessions.front();
  const auto app = ps::stat::make_app_model(
      app_session.machine, app_session.job, app_session.options);
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  out.metrics = {
      {"app.stack_s", t.stack_s, "s"},
      {"app.traces", static_cast<double>(t.traces), "count"},
      {"stat.build_s", t.build_s, "s"},
      {"stat.inserts", static_cast<double>(t.inserts), "count"},
      {"stat.tree_nodes", static_cast<double>(t.tree_nodes), "count"},
      {"stat.build_us_per_trace.tpd128", build_us_per_trace(*app, 128), "us"},
      {"stat.build_us_per_trace.tpd512", build_us_per_trace(*app, 512), "us"},
      {"stat.encode_s", t.encode_s, "s"},
      {"stat.decode_s", t.decode_s, "s"},
      {"stat.payload_bytes", static_cast<double>(t.payload_bytes), "bytes"},
      {"stat.remap_s", t.remap_s, "s"},
      {"stat.classes_s", t.classes_s, "s"},
      {"ckpt.encode_s", ckpt_encode, "s"},
      {"ckpt.decode_s", ckpt_decode, "s"},
      {"ckpt.bytes", static_cast<double>(ckpt_bytes), "bytes"},
      {"tbon.merge_s", t.merge_s, "s"},
      {"tbon.merges", static_cast<double>(t.merges), "count"},
      {"tbon.remerged_procs", static_cast<double>(remerged), "count"},
      {"tbon.cached_procs", static_cast<double>(cached), "count"},
      {"tbon.changed_daemons", static_cast<double>(changed), "count"},
      {"tbon.cache_hit_ratio",
       ratio(static_cast<double>(cached), static_cast<double>(cached + remerged)),
       "ratio"},
      {"plan.profile_s", profile_s, "s"},
      {"plan.search_s", search_s, "s"},
      {"plan.viable", static_cast<double>(viable), "count"},
      {"plan.rejected", static_cast<double>(rejected), "count"},
      {"virt.startup_s", v_startup, "sim_s"},
      {"virt.sample_s", v_sample, "sim_s"},
      {"virt.merge_s", v_merge, "sim_s"},
      {"virt.remap_s", v_remap, "sim_s"},
      {"virt.merge_bytes", static_cast<double>(v_bytes), "bytes"},
      {"virt.makespan_s", makespan, "sim_s"},
      {"virt.sessions_per_hour", per_hour, "1/sim_h"},
  };
  return out;
}

}  // namespace hostbench
