// The benchmark's workloads and the one operation each of them repeats.
//
// An operation drives petastat's public API in-process, exactly as one
// fresh `petastat` invocation would: the planner's probe cache is dropped
// first, then the configuration is parsed, the scenario (or the service
// scheduler) is constructed, run, and its report rendered. Each operation
// then checks its own output; a failed check makes it a failed operation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "service/scheduler.hpp"
#include "stat/scenario.hpp"

namespace hostbench {

enum class Scale { kFull, kToy };

/// The inputs of one operation, generated from (workload, scale, seed,
/// threads). Scenario workloads hold one CLI argument list per scenario;
/// service-mix holds an arrival trace in the `--service` JSON format.
struct OpInputs {
  std::string workload;
  std::vector<std::vector<std::string>> scenario_args;
  std::string service_trace;
  std::uint32_t threads = 1;  // executor width the operation runs with
};

/// Builds the inputs; nullopt for an unknown workload name.
[[nodiscard]] std::optional<OpInputs> make_inputs(const std::string& workload,
                                                  Scale scale,
                                                  std::uint64_t seed,
                                                  std::uint32_t threads);

/// One debug session an operation ran, kept for the traced run's replay.
struct Session {
  std::string name;
  petastat::machine::MachineConfig machine;
  petastat::machine::JobConfig job;
  petastat::stat::StatOptions options;  // resolved (auto modes applied)
  petastat::stat::StatRunResult result;
};

/// Host-time spans of one operation (seconds).
struct OpTimes {
  double total_s = 0.0;   // parse + setup + run + render (checks excluded)
  double parse_s = 0.0;   // parse_cli / parse_service_trace
  double setup_s = 0.0;   // scenario constructors; scheduler ctor + submit
  double run_s = 0.0;     // StatScenario::run / SessionScheduler::run
  double render_s = 0.0;  // report renderer
};

struct OpOutcome {
  bool ok = false;
  std::string error;   // why the operation failed (empty when ok)
  std::string digest;  // hex digest of the products (classes + virt values)
  std::uint64_t traces = 0;  // simulated stack traces, summed over sessions
  OpTimes times;
  std::vector<Session> sessions;  // filled only when asked to keep them
  std::optional<petastat::service::ServiceReport> service;
};

/// Runs one operation and checks its output (status, class sizes, and the
/// within-operation cross checks). The digest is computed but compared by
/// the caller.
[[nodiscard]] OpOutcome run_operation(const OpInputs& inputs,
                                      bool keep_sessions);

/// Set-up only (the `setup_s` span of run_operation): constructs like
/// run_operation, then discards without running. Returns the seconds spent,
/// or a negative value when construction failed.
[[nodiscard]] double run_setup_only(const OpInputs& inputs);

/// service-mix only: the seconds its sessions take when each runs alone as
/// its own scenario (a vacated one restored from its checkpoint), on an
/// engine as wide as the service's and with a cold planner cache each, as
/// separate `petastat` runs would. Negative when a session fails.
[[nodiscard]] double run_sessions_alone(const OpInputs& inputs);

}  // namespace hostbench
