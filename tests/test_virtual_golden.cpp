// Golden virtual timings. Every other test compares virtual numbers
// relatively (serial vs parallel, killed vs clean, incremental vs full);
// this one pins their absolute values for a fixed set of cells, so a
// refactor of the merge machinery that moves any phase time, byte, message,
// recovery field or per-round stream statistic fails here by name. The
// values are the model's outputs, not measurements: they change only when a
// cost formula or the simulated protocol changes, and then deliberately.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stat/checkpoint.hpp"
#include "stat/scenario.hpp"
#include "stat/statbench.hpp"

namespace petastat::stat {
namespace {

/// The pinned scalar fields of one run.
struct GoldenPhases {
  SimTime total = 0;
  SimTime startup = 0;
  SimTime sample = 0;
  SimTime merge = 0;
  SimTime remap = 0;
  std::uint64_t merge_bytes = 0;
  std::uint64_t merge_messages = 0;
  SimTime detect_latency = 0;
  SimTime remerge = 0;
  std::uint32_t orphaned = 0;
  std::uint32_t lost = 0;
};

/// Every StreamSampleStats field of one round.
struct GoldenRound {
  std::uint32_t sample = 0;
  SimTime sample_time = 0;
  SimTime merge_time = 0;
  std::uint64_t merge_bytes = 0;
  std::uint64_t merge_messages = 0;
  std::uint32_t changed_daemons = 0;
  std::uint32_t remerged_procs = 0;
  std::uint32_t cached_procs = 0;
  bool changed = true;
};

/// The pinned fields of one statbench run.
struct GoldenBench {
  SimTime generate = 0;
  SimTime merge = 0;
  SimTime remap = 0;
  std::uint64_t merge_bytes = 0;
  std::uint64_t leaf_payload_bytes = 0;
};

void expect_golden(const StatRunResult& r, const GoldenPhases& want,
                   const std::vector<GoldenRound>& rounds) {
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  const PhaseBreakdown& p = r.phases;
  EXPECT_EQ(r.total_virtual_time, want.total);
  EXPECT_EQ(p.startup_total, want.startup);
  EXPECT_EQ(p.sample_time, want.sample);
  EXPECT_EQ(p.merge_time, want.merge);
  EXPECT_EQ(p.remap_time, want.remap);
  EXPECT_EQ(p.merge_bytes, want.merge_bytes);
  EXPECT_EQ(p.merge_messages, want.merge_messages);
  EXPECT_EQ(p.failure_detect_latency, want.detect_latency);
  EXPECT_EQ(p.recovery_remerge_time, want.remerge);
  EXPECT_EQ(p.orphaned_daemons, want.orphaned);
  EXPECT_EQ(p.lost_daemons, want.lost);
  ASSERT_EQ(r.stream_samples.size(), rounds.size());
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i));
    const StreamSampleStats& got = r.stream_samples[i];
    const GoldenRound& w = rounds[i];
    EXPECT_EQ(got.sample, w.sample);
    EXPECT_EQ(got.sample_time, w.sample_time);
    EXPECT_EQ(got.merge_time, w.merge_time);
    EXPECT_EQ(got.merge_bytes, w.merge_bytes);
    EXPECT_EQ(got.merge_messages, w.merge_messages);
    EXPECT_EQ(got.changed_daemons, w.changed_daemons);
    EXPECT_EQ(got.remerged_procs, w.remerged_procs);
    EXPECT_EQ(got.cached_procs, w.cached_procs);
    EXPECT_EQ(got.changed, w.changed);
  }
}

StatRunResult run_cell(const machine::MachineConfig& machine,
                       std::uint32_t tasks, const StatOptions& options,
                       machine::BglMode mode = machine::BglMode::kCoprocessor) {
  machine::JobConfig job;
  job.num_tasks = tasks;
  job.mode = mode;
  StatScenario scenario(machine, job, options);
  return scenario.run();
}

// --- Cells ------------------------------------------------------------------

StatOptions bgl_batch(TaskSetRepr repr) {
  StatOptions options;
  options.topology = tbon::TopologySpec::bgl(2);
  options.repr = repr;
  return options;
}

StatOptions batch_kill(tbon::TopologySpec topology, std::uint32_t shards) {
  StatOptions options;
  options.topology = topology;
  options.fe_shards = shards;
  options.repr = TaskSetRepr::kHierarchical;
  options.fail_at_seconds = 0.0;
  options.ping_period_seconds = 0.05;
  return options;
}

StatOptions drift_stream() {
  StatOptions options;
  options.topology = tbon::TopologySpec::balanced(2);
  options.repr = TaskSetRepr::kHierarchical;
  options.app = AppKind::kImbalance;
  options.evolution = app::TraceEvolution::kDrift;
  options.stream_samples = 6;
  options.stream_interval_seconds = 0.1;
  return options;
}

StatOptions stream_kill(tbon::TopologySpec topology) {
  StatOptions options = drift_stream();
  options.topology = topology;
  options.fail_at_seconds = 0.15;
  options.ping_period_seconds = 0.05;
  return options;
}

StatOptions vacating_stream() {
  StatOptions options;
  options.stream_samples = 4;
  options.evolution = app::TraceEvolution::kDrift;
  return options;
}

StatBenchConfig bench_config() {
  StatBenchConfig config;
  config.machine = machine::bgl();
  config.virtual_tasks = 16384;
  config.physical_daemons = 64;
  config.num_samples = 2;
  config.repr = TaskSetRepr::kHierarchical;
  return config;
}

/// Runs the vacating stream, then resumes it from its checkpoint.
std::pair<StatRunResult, StatRunResult> vacate_then_restore() {
  machine::JobConfig job;
  job.num_tasks = 512;
  StatOptions options = vacating_stream();
  options.vacate_at_round = 2;
  StatScenario vacating(machine::atlas(), job, options);
  StatRunResult vacated = vacating.run();
  StatScenario resuming(machine::atlas(), job, vacating_stream(),
                        vacated.checkpoint);
  StatRunResult restored = resuming.run();
  return {std::move(vacated), std::move(restored)};
}

// --- Golden values ----------------------------------------------------------

// BG/L 8,192 tasks, BG/L 2-deep tree, one batch merge.
TEST(VirtualGolden, BglBatchHier) {
  expect_golden(run_cell(machine::bgl(), 8192,
                         bgl_batch(TaskSetRepr::kHierarchical)),
                GoldenPhases{22147374591, 7738258204, 14346474658, 36924695,
                             25395200, 152660, 140, 0, 0, 0, 0},
                {});
}

TEST(VirtualGolden, BglBatchDense) {
  expect_golden(run_cell(machine::bgl(), 8192,
                         bgl_batch(TaskSetRepr::kDenseGlobal)),
                GoldenPhases{20968677013, 7738258204, 13191023521, 39073454, 0,
                             3552548, 140, 0, 0, 0, 0},
                {});
}

// --fail-at 0 kills the middle reducer before it forwards: its shard is
// re-sent from the retained leaf payloads through its sibling reducers.
TEST(VirtualGolden, BatchKillShardedReducer) {
  expect_golden(run_cell(machine::atlas(), 1024,
                         batch_kill(tbon::TopologySpec::flat(), 16)),
                GoldenPhases{20825759537, 5822758204, 14942223751, 60274251,
                             198400, 147430, 306, 50609862, 9664389, 8, 0},
                {});
}

TEST(VirtualGolden, BatchKillUnshardedInternal) {
  expect_golden(run_cell(machine::atlas(), 1024,
                         batch_kill(tbon::TopologySpec::balanced(2), 1)),
                GoldenPhases{21891940022, 7738258204, 14089140900, 61286515,
                             3174400, 134128, 301, 50160006, 11126509, 11, 0},
                {});
}

// The victim dies after forwarding its payload and fast pings detect it
// while the merge is still in flight: the death costs the merge nothing.
StatOptions batch_kill_after_forward() {
  StatOptions options = batch_kill(tbon::TopologySpec::balanced(2), 1);
  options.fail_at_seconds = 0.01;
  options.ping_period_seconds = 0.002;
  return options;
}

TEST(VirtualGolden, BatchKillAfterForward) {
  expect_golden(run_cell(machine::atlas(), 1024, batch_kill_after_forward()),
                GoldenPhases{21849264819, 7738258204, 14089140900, 18611312,
                             3174400, 228220, 1400, 160006, 8451306, 0, 0},
                {});
}

// --stream 6 --evolve drift: a drifting straggler band dirties one path.
TEST(VirtualGolden, StreamDrift) {
  expect_golden(run_cell(machine::atlas(), 1024, drift_stream()),
                GoldenPhases{8309042724, 7738258204, 373704652, 47520481,
                             3174400, 83920, 980, 0, 0, 0, 0},
                {
                    {0, 63807486, 18290725, 43050, 140, 128, 13, 0, true},
                    {1, 66472546, 5979581, 7840, 140, 4, 5, 8, true},
                    {2, 62787300, 5274451, 6639, 140, 4, 3, 10, true},
                    {3, 61255256, 5991829, 8027, 140, 4, 5, 8, true},
                    {4, 57920656, 6000230, 8274, 140, 4, 5, 8, true},
                    {5, 61461408, 5983665, 7710, 140, 4, 5, 8, true},
                });
}

// The kill lands at the first round boundary past 0.15 s; detection runs
// between rounds and the orphans are re-parented before the next round.
TEST(VirtualGolden, StreamKillInternal) {
  expect_golden(run_cell(machine::atlas(), 1024,
                         stream_kill(tbon::TopologySpec::balanced(2))),
                GoldenPhases{8427097526, 7738258204, 373704652, 52679028,
                             3174400, 93140, 965, 118216917, 172249237, 11, 0},
                {
                    {0, 63807486, 18290725, 43050, 140, 128, 13, 0, true},
                    {1, 66472546, 5979581, 7840, 140, 4, 5, 8, true},
                    {2, 62787300, 5269611, 6471, 128, 4, 3, 9, true},
                    {3, 61255256, 11153987, 17095, 139, 15, 12, 0, true},
                    {4, 57920656, 6003568, 8500, 139, 4, 5, 7, true},
                    {5, 61461408, 5981556, 7804, 139, 4, 5, 7, true},
                });
}

// Flat tree: the victim is a daemon's own leaf, so that daemon is lost.
// It is still sampled in the round after detection (its loss applies from
// that round's merge on), which this cell's sample times pin.
TEST(VirtualGolden, StreamKillFlatLeaf) {
  expect_golden(run_cell(machine::atlas(), 1024,
                         stream_kill(tbon::TopologySpec::flat())),
                GoldenPhases{5684944560, 4931758204, 372749018, 131708266,
                             3149600, 53565, 891, 121429660, 161483019, 0, 1},
                {
                    {0, 60549411, 93352982, 31931, 128, 128, 1, 0, true},
                    {1, 63671424, 7659964, 3764, 127, 4, 1, 0, true},
                    {2, 53891013, 7690278, 4162, 127, 4, 1, 0, true},
                    {3, 64392550, 7672946, 3918, 127, 4, 1, 0, true},
                    {4, 63191621, 7682040, 4030, 127, 4, 1, 0, true},
                    {5, 67052999, 7650056, 3584, 127, 4, 1, 0, true},
                });
}

// Vacated at boundary 2, then resumed from the checkpoint.
TEST(VirtualGolden, StreamVacateThenRestore) {
  const auto [vacated, restored] = vacate_then_restore();
  EXPECT_TRUE(vacated.vacated);
  expect_golden(vacated,
                GoldenPhases{11691452707, 4835758204, 6807899278, 47637992, 0,
                             23488, 192, 0, 0, 0, 0},
                {
                    {0, 6738371383, 47564724, 21504, 64, 64, 1, 0, true},
                    {1, 69527895, 73268, 896, 64, 0, 0, 1, false},
                });
  EXPECT_TRUE(restored.restored);
  expect_golden(restored,
                GoldenPhases{7303223430, 446000000, 6807899278, 47637992,
                             1587200, 23488, 192, 0, 0, 0, 0},
                {
                    {2, 6738371383, 47564724, 21504, 64, 64, 1, 0, true},
                    {3, 69527895, 73268, 896, 64, 0, 0, 1, false},
                });
}

TEST(VirtualGolden, StatBench) {
  const StatBenchResult r = run_statbench(bench_config());
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  const GoldenBench want = {8506800, 35864435, 50790400, 269299, 2509};
  EXPECT_EQ(r.generate_time, want.generate);
  EXPECT_EQ(r.merge_time, want.merge);
  EXPECT_EQ(r.remap_time, want.remap);
  EXPECT_EQ(r.merge_bytes, want.merge_bytes);
  EXPECT_EQ(r.leaf_payload_bytes, want.leaf_payload_bytes);
}

}  // namespace
}  // namespace petastat::stat
