// Multi-session debug service: the request/demand/stats vocabulary.
//
// The paper's tool debugs one job at a time; the service layer runs many
// debug sessions on one machine, competing for the *tool's* shared resources
// (the target jobs are assumed disjoint — each session attaches to its own
// job's compute allocation). One SessionRequest describes one would-be
// `petastat` invocation plus when it arrives and how urgent it is; the
// scheduler turns it into a re-entrant stat::StatScenario when admitted.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "common/types.hpp"
#include "machine/machine.hpp"
#include "stat/scenario.hpp"
#include "tbon/topology.hpp"

namespace petastat::service {

/// Highest admissible SessionRequest::priority (inclusive).
inline constexpr std::uint32_t kMaxSessionPriority = 100;

/// One debug session's submission: everything a solo `petastat` run takes,
/// plus arrival time and priority. The machine is service-wide (it is the
/// contended resource), so it lives in ServiceConfig, not here.
struct SessionRequest {
  std::string name;
  /// When the request reaches the service, in virtual seconds from the
  /// service epoch. Must be >= 0.
  double arrival_seconds = 0.0;
  /// Higher runs first; ties broken by arrival, then submission order.
  /// Must be <= kMaxSessionPriority.
  std::uint32_t priority = 0;
  machine::JobConfig job;
  stat::StatOptions options;
};

/// What one session holds from the shared ledger while it runs, derived from
/// its resolved topology: every comm process occupies a login-node slot
/// (`MachineConfig::max_comm_procs_per_login` tier), the front end's fan-in
/// occupies tool connections, and the session claims worker threads from the
/// service's shared execution engine.
struct SessionDemand {
  std::uint64_t comm_slots = 0;
  std::uint32_t fe_connections = 0;
  std::uint32_t exec_threads = 1;

  [[nodiscard]] bool fits_within(const SessionDemand& other) const {
    return comm_slots <= other.comm_slots &&
           fe_connections <= other.fe_connections &&
           exec_threads <= other.exec_threads;
  }
};

/// One session's service-level outcome. Virtual times are on the *service*
/// clock; the run's internal phase breakdown is in `result`.
struct SessionStats {
  std::string name;
  std::uint32_t priority = 0;
  /// OK for a completed run; otherwise the rejection/run failure. A session
  /// whose demand can never fit the machine is rejected RESOURCE_EXHAUSTED
  /// at arrival; one that merely has to wait is queued instead.
  Status status = Status::ok();

  SimTime arrival = 0;
  SimTime start = 0;       // admission time (meaningful when admitted)
  SimTime completion = 0;  // start + the run's total virtual time
  SimTime queue_wait = 0;  // start - arrival
  SimTime turnaround = 0;  // completion - arrival

  bool admitted = false;
  bool backfilled = false;  // started ahead of a blocked higher-queue session
  /// Times this session was vacated (simulated front-end loss) and
  /// re-admitted from its checkpoint. `result` is the *final* leg's run —
  /// its `restored`/`restore_cursor` fields say where it resumed.
  std::uint32_t restarts = 0;
  /// Planner work the session cost: distinct (effective machine, leg)
  /// resolutions the scheduler priced, and inner runs it evaluated (a
  /// backfill probe's run that was then not admitted included).
  std::uint32_t resolutions = 0;
  std::uint32_t runs = 0;
  SessionDemand demand;     // what the session held while running
  std::string topology;     // resolved spec name (auto modes included)
  /// Full result of the admitted run (empty for rejected sessions).
  stat::StatRunResult result;
};

}  // namespace petastat::service
