#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>

#include "app/appmodel.hpp"
#include "common/rng.hpp"
#include "sim/executor.hpp"
#include "plan/predictor.hpp"
#include "service/report.hpp"
#include "service/trace.hpp"
#include "stat/cli_config.hpp"
#include "stat/report.hpp"

namespace hostbench {

namespace ps = petastat;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

/// One CLI argument list per scenario of the paper's 208K BG/L session: the
/// same job and seed once per task-set representation (Figs. 5 and 7).
std::vector<std::vector<std::string>> paper_args(Scale scale,
                                                 std::uint64_t seed) {
  const std::string tasks = scale == Scale::kFull ? "212992" : "8192";
  std::vector<std::vector<std::string>> out;
  for (const char* repr : {"hier", "dense"}) {
    out.push_back({"--machine", "bgl", "--tasks", tasks, "--mode", "vn",
                   "--topology", "bgl2deep", "--app", "ring", "--samples",
                   "10", "--exec-threads", "1", "--seed", u64(seed), "--repr",
                   repr});
  }
  return out;
}

/// The service-mix arrival trace. Its shape is fixed: the six session kinds
/// arrive round-robin, one every 5 virtual seconds, faster than sessions
/// finish, so a queue builds that the scheduler re-plans and backfills on
/// every pass. The seed draws only each session's application seed.
std::string service_trace(Scale scale, std::uint64_t seed,
                          std::uint32_t threads) {
  const bool full = scale == Scale::kFull;
  const std::uint32_t sessions = full ? 24 : 6;
  const std::string tasks = full ? "8192" : "1024";
  const std::string rounds = full ? "8" : "6";
  const std::string vacate = full ? "4" : "3";
  const std::string wide = u64(threads);
  // Half the engine, so that a queued single-width session can run beside
  // it: at 2 threads a full-width auto session left no room to backfill.
  const std::string half = u64(std::max<std::uint32_t>(1, threads / 2));
  const std::vector<std::string> kinds = {
      // Auto topology with auto front-end sharding: the planner's full search.
      R"("topology": "auto", "fe-shards": "auto", "exec-threads": )" + half,
      // A mid-merge comm-process kill, recovered through sibling reducers.
      R"("topology": "2deep", "fail-at": 0.002)",
      // A streaming series vacated mid-way, restored from its checkpoint.
      R"("topology": "2deep", "stream": )" + rounds +
          R"(, "evolve": "drift", "checkpoint-period": 2, "vacate-at": )" +
          vacate,
      // Dense STATBench emulation holding the whole engine.
      R"("topology": "2deep", "app": "statbench", "repr": "dense", )"
      R"("exec-threads": )" + wide,
      // I/O stall with daemons lost before sampling.
      R"("topology": "2deep", "app": "iostall", "fail-fraction": 0.05)",
      // Auto-planned streaming imbalance.
      R"("topology": "auto", "app": "imbalance", "stream": )" + rounds +
          R"(, "evolve": "drift")",
  };
  ps::Rng rng(seed, /*stream_id=*/0x5e55);
  std::string text = R"({"machine": "petascale", "policy": "backfill", )"
                     R"("executor_threads": )" +
                     wide + R"(, "sessions": [)";
  for (std::uint32_t i = 0; i < sessions; ++i) {
    const std::size_t kind = i % kinds.size();
    if (i > 0) text += ", ";
    text += R"({"name": "s)" + u64(i) + "-k" + u64(kind) +
            R"(", "arrival": )" + u64(5ULL * i) + R"(, "tasks": )" + tasks +
            R"(, "seed": )" + u64(1 + rng.next_below(1000000)) + ", " +
            kinds[kind] + "}";
  }
  text += "]}";
  return text;
}

// --- output checks and digest -------------------------------------------------

/// FNV-1a, 64 bit: the digest only has to make an accidental match with the
/// committed reference implausible.
std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Canonical text of the equivalence classes: size, rank intervals and the
/// frame names of each class, in the report's order.
std::string classes_text(const ps::stat::StatRunResult& result,
                         const ps::app::FrameTable& frames) {
  std::string out;
  for (const auto& cls : result.classes) {
    out += "C|" + u64(cls.size()) + "|";
    for (const auto& iv : cls.tasks.intervals()) {
      out += u64(iv.lo) + "-" + u64(iv.hi) + ",";
    }
    out += "|" + frames.render(cls.path) + "\n";
  }
  return out;
}

/// The virtual results a host-only optimisation must leave untouched.
std::string virt_text(const ps::stat::StatRunResult& result) {
  const auto& p = result.phases;
  return "V|" + u64(result.total_virtual_time) + "|" + u64(p.startup_total) +
         "|" + u64(p.sample_time) + "|" + u64(p.merge_time) + "|" +
         u64(p.remap_time) + "|" + u64(p.merge_bytes) + "\n";
}

/// Checks one finished session and returns its simulated trace count; sets
/// `error` on a failed check.
std::uint64_t check_session(const Session& session,
                            const ps::app::AppModel& app, std::string& error) {
  const auto& r = session.result;
  if (!r.status.is_ok()) {
    error = session.name + ": status " + r.status.to_string();
    return 0;
  }
  if (r.vacated) {
    error = session.name + ": ended vacated";
    return 0;
  }
  if (r.phases.lost_daemons != 0) {
    error = session.name + ": lost daemons in recovery";
    return 0;
  }
  std::uint64_t live = r.layout.num_tasks;
  for (const std::uint32_t d : r.dead_daemons) {
    live -= r.layout.tasks_of(ps::DaemonId(d));
  }
  // One sample gives every live task of a single-threaded app exactly one
  // trace, so the 2D tree's classes partition the live tasks; across samples
  // a task may end in several 3D classes, but it ends in at least one.
  std::uint64_t classified_2d = 0;
  for (const auto& cls : ps::stat::equivalence_classes(r.tree_2d)) {
    classified_2d += cls.size();
  }
  std::uint64_t classified_3d = 0;
  for (const auto& cls : r.classes) classified_3d += cls.size();
  if ((app.threads_per_task() == 1 && classified_2d != live) ||
      classified_3d < live) {
    error = session.name + ": classes hold " + u64(classified_2d) + " (2D) / " +
            u64(classified_3d) + " (3D) tasks for " + u64(live) +
            " live tasks";
    return 0;
  }
  const std::uint32_t rounds = session.options.stream_samples > 0
                                   ? session.options.stream_samples
                                   : session.options.num_samples;
  return live * app.threads_per_task() * rounds;
}

}  // namespace

std::optional<OpInputs> make_inputs(const std::string& workload, Scale scale,
                                    std::uint64_t seed, std::uint32_t threads) {
  OpInputs in;
  in.workload = workload;
  if (workload == "paper-208k") {
    in.scenario_args = paper_args(scale, seed);
    in.threads = 1;  // the paper's run is serial
  } else if (workload == "service-mix") {
    in.service_trace = service_trace(scale, seed, threads);
    in.threads = threads;
  } else {
    return std::nullopt;
  }
  return in;
}

namespace {

ps::Result<ps::stat::CliConfig> parse_args(const std::vector<std::string>& args) {
  std::vector<std::string_view> views(args.begin(), args.end());
  return ps::stat::parse_cli(views);
}

OpOutcome run_scenarios(const OpInputs& in, bool keep) {
  OpOutcome out;
  std::string digest_text;
  std::string first_classes;
  for (std::size_t i = 0; i < in.scenario_args.size(); ++i) {
    const std::vector<std::string>& args = in.scenario_args[i];
    auto t = Clock::now();
    auto config = parse_args(args);
    out.times.parse_s += seconds_since(t);
    if (!config.is_ok()) {
      out.error = "parse_cli: " + config.status().to_string();
      return out;
    }
    const ps::stat::CliConfig& cfg = config.value();
    t = Clock::now();
    ps::stat::StatScenario scenario(cfg.machine, cfg.job, cfg.options);
    out.times.setup_s += seconds_since(t);
    Session session{in.workload + "#" + u64(i), cfg.machine, cfg.job,
                    scenario.resolved_options(), {}};
    t = Clock::now();
    session.result = scenario.run();
    out.times.run_s += seconds_since(t);
    t = Clock::now();
    const std::string report = ps::stat::render_json_report(
        session.result, scenario.app().frames());
    out.times.render_s += seconds_since(t);
    if (report.empty()) {
      out.error = "empty report";
      return out;
    }
    out.traces += check_session(session, scenario.app(), out.error);
    if (!out.error.empty()) return out;
    // The representations of one job must agree on its classes.
    const std::string classes =
        classes_text(session.result, scenario.app().frames());
    if (first_classes.empty()) {
      first_classes = classes;
    } else if (classes != first_classes) {
      out.error = "classes differ between representations";
      return out;
    }
    digest_text += virt_text(session.result) + classes;
    if (keep) out.sessions.push_back(std::move(session));
  }
  out.times.total_s = out.times.parse_s + out.times.setup_s +
                      out.times.run_s + out.times.render_s;
  out.digest = fnv1a_hex(digest_text);
  out.ok = true;
  return out;
}

OpOutcome run_service(const OpInputs& in, bool keep) {
  OpOutcome out;
  auto t = Clock::now();
  auto trace = ps::service::parse_service_trace(in.service_trace);
  out.times.parse_s = seconds_since(t);
  if (!trace.is_ok()) {
    out.error = "parse_service_trace: " + trace.status().to_string();
    return out;
  }
  const ps::service::ServiceTrace& requests = trace.value();
  t = Clock::now();
  ps::service::SessionScheduler scheduler(requests.config);
  for (const auto& request : requests.sessions) {
    if (ps::Status s = scheduler.submit(request); !s.is_ok()) {
      out.error = "submit: " + s.to_string();
      return out;
    }
  }
  out.times.setup_s = out.times.parse_s + seconds_since(t);
  t = Clock::now();
  ps::service::ServiceReport report = scheduler.run();
  out.times.run_s = seconds_since(t);
  t = Clock::now();
  const std::string rendered = ps::service::render_service_json(report);
  out.times.render_s = seconds_since(t);
  out.times.total_s = out.times.setup_s + out.times.run_s + out.times.render_s;

  if (rendered.empty()) {
    out.error = "empty service report";
    return out;
  }
  if (report.sessions.size() != requests.sessions.size() ||
      report.rejected != 0 || report.failed != 0) {
    out.error = "service: " + u64(report.rejected) + " rejected, " +
                u64(report.failed) + " failed";
    return out;
  }
  char virt[128];
  std::snprintf(virt, sizeof virt, "M|%llu|%.17g|%u|%u\n",
                static_cast<unsigned long long>(report.makespan),
                report.sessions_per_hour, report.completed, report.backfilled);
  std::string digest_text = virt;
  for (std::size_t i = 0; i < report.sessions.size(); ++i) {
    auto& stats = report.sessions[i];
    const auto& request = requests.sessions[i];
    if (!stats.admitted || !stats.status.is_ok()) {
      out.error = stats.name + ": " + stats.status.to_string();
      return out;
    }
    Session session{stats.name, requests.config.machine, request.job,
                    request.options, std::move(stats.result)};
    session.options.topology = session.result.topology;
    // The session's scenario is gone; a fresh model re-creates the frame
    // table (every model interns its frames at construction).
    const auto app = ps::stat::make_app_model(session.machine, session.job,
                                              session.options);
    out.traces += check_session(session, *app, out.error);
    if (!out.error.empty()) return out;
    digest_text += "S|" + session.name + "|" + u64(stats.restarts) + "\n" +
                   virt_text(session.result) +
                   classes_text(session.result, app->frames());
    if (keep) out.sessions.push_back(std::move(session));
  }
  out.digest = fnv1a_hex(digest_text);
  if (keep) out.service = std::move(report);
  out.ok = true;
  return out;
}

}  // namespace

OpOutcome run_operation(const OpInputs& inputs, bool keep_sessions) {
  ps::plan::reset_profile_cache();
  return inputs.scenario_args.empty() ? run_service(inputs, keep_sessions)
                                      : run_scenarios(inputs, keep_sessions);
}

double run_setup_only(const OpInputs& inputs) {
  ps::plan::reset_profile_cache();
  if (inputs.scenario_args.empty()) {
    const auto t = Clock::now();
    auto trace = ps::service::parse_service_trace(inputs.service_trace);
    if (!trace.is_ok()) return -1.0;
    ps::service::SessionScheduler scheduler(trace.value().config);
    for (const auto& request : trace.value().sessions) {
      if (!scheduler.submit(request).is_ok()) return -1.0;
    }
    return seconds_since(t);
  }
  double setup = 0.0;
  for (const auto& args : inputs.scenario_args) {
    auto config = parse_args(args);
    if (!config.is_ok()) return -1.0;
    const auto t = Clock::now();
    ps::stat::StatScenario scenario(config.value().machine,
                                    config.value().job, config.value().options);
    setup += seconds_since(t);
    if (!scenario.config_status().is_ok()) return -1.0;
  }
  return setup;
}

double run_sessions_alone(const OpInputs& inputs) {
  auto trace = ps::service::parse_service_trace(inputs.service_trace);
  if (!trace.is_ok()) return -1.0;
  const ps::machine::MachineConfig& machine = trace.value().config.machine;
  // The same engine width the service shares among its sessions.
  ps::sim::Executor executor(trace.value().config.executor_threads);
  double total = 0.0;
  for (const auto& request : trace.value().sessions) {
    ps::plan::reset_profile_cache();
    const auto t = Clock::now();
    ps::stat::StatScenario scenario(machine, request.job, request.options,
                                    &executor);
    const ps::stat::StatRunResult result = scenario.run();
    if (result.vacated && result.checkpoint != nullptr) {
      ps::stat::StatOptions resumed = request.options;
      resumed.vacate_at_round = -1;
      ps::stat::StatScenario restored(machine, request.job, resumed,
                                      &executor, result.checkpoint);
      if (!restored.run().status.is_ok()) return -1.0;
    } else if (!result.status.is_ok()) {
      return -1.0;
    }
    total += seconds_since(t);
  }
  return total;
}

}  // namespace hostbench
