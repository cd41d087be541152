// Golden virtual timings. Every other test compares virtual numbers
// relatively (serial vs parallel, killed vs clean, incremental vs full);
// this one pins their absolute values for a fixed set of cells, so a
// refactor of the merge machinery that moves any phase time, byte, message,
// recovery field or per-round stream statistic fails here by name. The
// values are the model's outputs, not measurements: they change only when a
// cost formula or the simulated protocol changes, and then deliberately.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "machine/cost_model.hpp"
#include "plan/search.hpp"
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

// --- Planner golden values --------------------------------------------------
// The planner's outputs for fixed configurations: every candidate
// search_topologies ranks or rejects (all PhasePrediction fields and the
// viability text, in ranking order), one spec's streaming round, recovery
// and per-link merge traffic, and the specs the three choosers return.
// Recorded before the planner's probe and critical-path walk were
// consolidated; a refactor of src/plan that moves any predicted number
// fails here by name.

struct GoldenPrediction {
  std::string spec;       // TopologySpec::name()
  std::string viability;  // Status::to_string()
  SimTime launch = 0;
  SimTime connect = 0;
  SimTime startup = 0;
  SimTime sampling = 0;
  SimTime merge = 0;
  SimTime remap = 0;
  std::uint32_t comm_procs = 0;
};

struct GoldenStreamPrediction {
  SimTime merge = 0;
  std::uint64_t delta_bytes = 0;
  std::uint32_t changed = 0;
  std::uint32_t remerged = 0;
  std::uint32_t cached = 0;
};

struct GoldenRecovery {
  SimTime detection = 0;
  SimTime remerge = 0;
  std::uint32_t orphans = 0;
  std::uint32_t adopters = 0;
};

/// predict_merge_link_bytes in summary: entry count, message and byte
/// totals (bytes summed in device order), the busiest link, and an FNV-1a
/// digest over every entry's device, name, byte bit pattern and messages.
struct GoldenLinks {
  std::size_t entries = 0;
  std::uint64_t messages = 0;
  double bytes = 0.0;
  std::string busiest;
  double busiest_bytes = 0.0;
  std::uint64_t digest = 0;
};

struct GoldenPlan {
  std::vector<GoldenPrediction> viable;
  std::vector<GoldenPrediction> rejected;
  GoldenStreamPrediction stream_all;
  GoldenStreamPrediction stream_band;
  GoldenRecovery recovery;
  GoldenLinks links;
  std::string chosen_topology;
  std::string chosen_fe_shards;
  std::string replanned;
};

/// One planner configuration: the predictor's inputs, the spec whose
/// stream/recovery/link predictions are pinned, and the measured leaf bytes
/// handed to replan_fe_shards.
struct PlanCell {
  machine::MachineConfig machine;
  machine::JobConfig job;
  StatOptions options;
  tbon::TopologySpec probe_spec;
  double measured_leaf_bytes = 0.0;
};

PlanCell atlas_hier_plan() {
  PlanCell cell{machine::atlas(), {}, {}, tbon::TopologySpec::balanced(2),
                50000.0};
  cell.job.num_tasks = 1024;
  cell.options.repr = TaskSetRepr::kHierarchical;
  cell.options.topology = tbon::TopologySpec::balanced(2);
  // Below the flat tree's 128 daemons: the connection-limit rejections.
  cell.options.max_frontend_connections = 100;
  return cell;
}

PlanCell bgl_dense_sharded_plan() {
  PlanCell cell{machine::bgl(), {}, {},
                tbon::TopologySpec::bgl(2).with_shards(4).with_placement(
                    tbon::ReducerPlacement::kSpread),
                400000.0};
  cell.job.num_tasks = 8192;
  cell.options.repr = TaskSetRepr::kDenseGlobal;
  cell.options.topology = tbon::TopologySpec::bgl(2);
  cell.options.fe_shards = 4;
  return cell;
}

/// The flat tree's 1,024 dense leaves overflow the front end's receive
/// buffers.
PlanCell petascale_dense_plan() {
  PlanCell cell{machine::petascale(), {}, {}, tbon::TopologySpec::balanced(2),
                1000000.0};
  cell.job.num_tasks = 65536;
  cell.options.repr = TaskSetRepr::kDenseGlobal;
  cell.options.topology = tbon::TopologySpec::balanced(2);
  return cell;
}

GoldenPrediction golden_prediction(const plan::RankedTopology& ranked) {
  const plan::PhasePrediction& p = ranked.prediction;
  return {ranked.spec.name(), p.viability.to_string(), p.launch, p.connect,
          p.startup, p.sampling, p.merge, p.remap, p.num_comm_procs};
}

GoldenStreamPrediction golden_stream(const plan::StreamSamplePrediction& p) {
  return {p.merge, p.delta_bytes, p.changed_daemons, p.remerged_procs,
          p.cached_procs};
}

GoldenLinks golden_links(const std::vector<plan::LinkBytesPrediction>& links) {
  GoldenLinks g;
  g.entries = links.size();
  std::uint64_t digest = 14695981039346656037ull;
  const auto mix = [&digest](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xffu;
      digest *= 1099511628211ull;
    }
  };
  for (const plan::LinkBytesPrediction& link : links) {
    g.messages += link.messages;
    g.bytes += link.bytes;
    if (link.bytes > g.busiest_bytes) {
      g.busiest = link.link;
      g.busiest_bytes = link.bytes;
    }
    mix(link.device);
    for (const char c : link.link) mix(static_cast<unsigned char>(c));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &link.bytes, sizeof bits);
    mix(bits);
    mix(link.messages);
  }
  g.digest = digest;
  return g;
}

/// Runs every pinned planner entry point for `cell`.
GoldenPlan collect_plan(const PlanCell& cell) {
  GoldenPlan g;
  const machine::CostModel costs = machine::default_cost_model(cell.machine);
  auto predictor =
      plan::PhasePredictor::create(cell.machine, cell.job, cell.options, costs);
  check(predictor.is_ok(), "planner golden: job does not fit");
  const plan::PhasePredictor& pp = predictor.value();

  auto search = plan::search_topologies(pp);
  check(search.is_ok(), "planner golden: no viable topology");
  for (const plan::RankedTopology& r : search.value().viable) {
    g.viable.push_back(golden_prediction(r));
  }
  for (const plan::RankedTopology& r : search.value().rejected) {
    g.rejected.push_back(golden_prediction(r));
  }

  const std::uint32_t daemons = pp.layout().num_daemons;
  std::vector<bool> band(daemons, false);
  for (std::uint32_t d = 0; d < daemons / 4; ++d) band[d] = true;
  g.stream_all =
      golden_stream(pp.predict_stream_sample(cell.probe_spec, std::vector<bool>{}).value());
  g.stream_band =
      golden_stream(pp.predict_stream_sample(cell.probe_spec, band).value());

  const plan::RecoveryPrediction r =
      pp.predict_recovery(cell.probe_spec, seconds(0.05)).value();
  g.recovery = {r.detection, r.remerge, r.orphan_leaves, r.adopters};
  g.links =
      golden_links(pp.predict_merge_link_bytes(cell.probe_spec).value());

  g.chosen_topology =
      plan::choose_topology(cell.machine, cell.job, cell.options, costs)
          .value()
          .name();
  g.chosen_fe_shards =
      plan::choose_fe_shards(cell.machine, cell.job, cell.options, costs)
          .value()
          .name();
  g.replanned = plan::replan_fe_shards(cell.machine, cell.job, cell.options,
                                       costs, cell.measured_leaf_bytes)
                    .value()
                    .name();
  return g;
}

void expect_predictions(const std::vector<GoldenPrediction>& got,
                        const std::vector<GoldenPrediction>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i) + " " + want[i].spec);
    EXPECT_EQ(got[i].spec, want[i].spec);
    EXPECT_EQ(got[i].viability, want[i].viability);
    EXPECT_EQ(got[i].launch, want[i].launch);
    EXPECT_EQ(got[i].connect, want[i].connect);
    EXPECT_EQ(got[i].startup, want[i].startup);
    EXPECT_EQ(got[i].sampling, want[i].sampling);
    EXPECT_EQ(got[i].merge, want[i].merge);
    EXPECT_EQ(got[i].remap, want[i].remap);
    EXPECT_EQ(got[i].comm_procs, want[i].comm_procs);
  }
}

void expect_stream(const GoldenStreamPrediction& got,
                   const GoldenStreamPrediction& want) {
  EXPECT_EQ(got.merge, want.merge);
  EXPECT_EQ(got.delta_bytes, want.delta_bytes);
  EXPECT_EQ(got.changed, want.changed);
  EXPECT_EQ(got.remerged, want.remerged);
  EXPECT_EQ(got.cached, want.cached);
}

void expect_plan(const GoldenPlan& got, const GoldenPlan& want) {
  {
    SCOPED_TRACE("viable");
    expect_predictions(got.viable, want.viable);
  }
  {
    SCOPED_TRACE("rejected");
    expect_predictions(got.rejected, want.rejected);
  }
  {
    SCOPED_TRACE("stream, every daemon changed");
    expect_stream(got.stream_all, want.stream_all);
  }
  {
    SCOPED_TRACE("stream, band changed");
    expect_stream(got.stream_band, want.stream_band);
  }
  EXPECT_EQ(got.recovery.detection, want.recovery.detection);
  EXPECT_EQ(got.recovery.remerge, want.recovery.remerge);
  EXPECT_EQ(got.recovery.orphans, want.recovery.orphans);
  EXPECT_EQ(got.recovery.adopters, want.recovery.adopters);
  EXPECT_EQ(got.links.entries, want.links.entries);
  EXPECT_EQ(got.links.messages, want.links.messages);
  EXPECT_EQ(got.links.bytes, want.links.bytes);
  EXPECT_EQ(got.links.busiest, want.links.busiest);
  EXPECT_EQ(got.links.busiest_bytes, want.links.busiest_bytes);
  EXPECT_EQ(got.links.digest, want.links.digest);
  EXPECT_EQ(got.chosen_topology, want.chosen_topology);
  EXPECT_EQ(got.chosen_fe_shards, want.chosen_fe_shards);
  EXPECT_EQ(got.replanned, want.replanned);
}

TEST(PlannerGolden, AtlasHier) {
  const std::vector<GoldenPrediction> viable = {
      {"2-deep[2]", "OK",
       4820000000, 943000000, 5763000000, 8939981892, 50424464, 3174400, 2},
      {"2-deep[4]", "OK",
       4820000000, 1392000000, 6212000000, 8939981892, 28196784, 3174400, 4},
      {"2-deep[8]", "OK",
       4820000000, 2362000000, 7182000000, 8939981892, 19315952, 3174400, 8},
      {"3-deep[4,4]", "OK",
       4820000000, 2381500000, 7201500000, 8939981892, 29689568, 3174400, 8},
      {"3-deep[4,8]", "OK",
       4820000000, 3347000000, 8167000000, 8939981892, 18575728, 3174400, 12},
      {"2-deep", "OK",
       4820000000, 3348500000, 8168500000, 8939981892, 18587616, 3174400, 12},
      {"2-deep[16]", "OK",
       4820000000, 4338000000, 9158000000, 8939981892, 19341552, 3174400, 16},
      {"3-deep[8,8]", "OK",
       4820000000, 4339500000, 9159500000, 8939981892, 20802080, 3174400, 16},
      {"3-deep[4,16]", "OK",
       4820000000, 5314000000, 10134000000, 8939981892, 14135312, 3174400, 20},
      {"3-deep[8,16]", "OK",
       4820000000, 6305000000, 11125000000, 8939981892, 15617328, 3174400, 24},
      {"2-deep[32]", "OK",
       4820000000, 8308000000, 13128000000, 8939981892, 28286384, 3174400, 32},
      {"3-deep[4,32]", "OK",
       4820000000, 9266000000, 14086000000, 8939981892, 14148112, 3174400, 36},
      {"3-deep[8,32]", "OK",
       4820000000, 10254000000, 15074000000, 8939981892, 14141456, 3174400, 40},
      {"3-deep", "OK",
       4820000000, 10748000000, 15568000000, 8939981892, 14143996, 3174400, 42},
      {"2-deep[64]", "OK",
       4820000000, 16257000000, 21077000000, 8939981892, 50625723, 3174400, 64},
      {"3-deep[4,64]", "OK",
       4820000000, 17179000000, 21999000000, 8939981892, 18621276, 3174400, 68},
      {"3-deep[8,64]", "OK",
       4820000000, 18161000000, 22981000000, 8939981892, 15636924, 3174400, 72},
      {"3-deep[4,128]", "OK",
       4820000000, 33009500000, 37829500000, 8939981892, 29673192, 3174400, 132},
      {"3-deep[8,128]", "OK",
       4820000000, 33979500000, 38799500000, 8939981892, 20793256, 3174400, 136},
  };
  const std::vector<GoldenPrediction> rejected = {
      {"1-deep",
       "RESOURCE_EXHAUSTED: front end cannot sustain 128 tool connections (limit 100)",
       4820000000, 542000000, 5362000000, 8939981892, 95578112, 3174400, 0},
      {"2-deep[128]",
       "RESOURCE_EXHAUSTED: front end cannot sustain 128 tool connections (limit 100)",
       4820000000, 32159500000, 36979500000, 8939981892, 97049144, 3174400, 128},
  };
  expect_plan(collect_plan(atlas_hier_plan()),
              GoldenPlan{viable, rejected,
                         {18777852, 51388, 128, 13, 0},
                         {12290177, 14317, 32, 4, 9},
                         {25151603, 1442859, 11, 11},
                         {138, 544, 409980, "leaf5--core", 99838,
                          3987297400094736022ull},
                         "2-deep[2]", "2-deep", "2-deep"});
}

TEST(PlannerGolden, BglDenseSharded) {
  const std::vector<GoldenPrediction> viable = {
      {"1-deep x4shard/pack", "OK",
       4820000000, 714000000, 5534000000, 11140928853, 57659015, 0, 4},
      {"1-deep x4shard/spread", "OK",
       4820000000, 1392000000, 6212000000, 11140928853, 57659015, 0, 4},
      {"1-deep x4shard/route", "OK",
       4820000000, 1392000000, 6212000000, 11140928853, 57659015, 0, 4},
      {"2-deep[4] x4shard/pack", "OK",
       4820000000, 1703500000, 6523500000, 11140928853, 60742079, 0, 8},
      {"2-deep[4] x4shard/spread", "OK",
       4820000000, 2381500000, 7201500000, 11140928853, 60742079, 0, 8},
      {"2-deep[4] x4shard/route", "OK",
       4820000000, 2381500000, 7201500000, 11140928853, 60742079, 0, 8},
      {"2-deep[8] x4shard/pack", "OK",
       4820000000, 2669000000, 7489000000, 11140928853, 46304929, 0, 12},
      {"3-deep[4,4] x4shard/pack", "OK",
       4820000000, 2693000000, 7513000000, 11140928853, 63825143, 0, 12},
      {"2-deep[8] x4shard/spread", "OK",
       4820000000, 3347000000, 8167000000, 11140928853, 46304929, 0, 12},
      {"2-deep[8] x4shard/route", "OK",
       4820000000, 3347000000, 8167000000, 11140928853, 46304929, 0, 12},
      {"3-deep[4,4] x4shard/spread", "OK",
       4820000000, 3371000000, 8191000000, 11140928853, 63825143, 0, 12},
      {"3-deep[4,4] x4shard/route", "OK",
       4820000000, 3371000000, 8191000000, 11140928853, 63825143, 0, 12},
      {"2-deep x4shard/pack", "OK",
       4820000000, 3651000000, 8471000000, 11140928853, 47817661, 0, 16},
      {"3-deep[4,8] x4shard/pack", "OK",
       4820000000, 3658500000, 8478500000, 11140928853, 49387993, 0, 16},
      {"2-deep x4shard/spread", "OK",
       4820000000, 4329000000, 9149000000, 11140928853, 47817661, 0, 16},
      {"2-deep x4shard/route", "OK",
       4820000000, 4329000000, 9149000000, 11140928853, 47817661, 0, 16},
      {"3-deep[4,8] x4shard/spread", "OK",
       4820000000, 4336500000, 9156500000, 11140928853, 49387993, 0, 16},
      {"3-deep[4,8] x4shard/route", "OK",
       4820000000, 4336500000, 9156500000, 11140928853, 49387993, 0, 16},
      {"2-deep[16] x4shard/pack", "OK",
       4820000000, 4636000000, 9456000000, 11140928853, 49330393, 0, 20},
      {"3-deep[8,8] x4shard/pack", "OK",
       4820000000, 4646500000, 9466500000, 11140928853, 49387993, 0, 20},
      {"2-deep[16] x4shard/spread", "OK",
       4820000000, 5314000000, 10134000000, 11140928853, 49330393, 0, 20},
      {"2-deep[16] x4shard/route", "OK",
       4820000000, 5314000000, 10134000000, 11140928853, 49330393, 0, 20},
      {"3-deep[8,8] x4shard/spread", "OK",
       4820000000, 5324500000, 10144500000, 11140928853, 49387993, 0, 20},
      {"3-deep[8,8] x4shard/route", "OK",
       4820000000, 5324500000, 10144500000, 11140928853, 49387993, 0, 20},
      {"3-deep(16) x4shard/pack", "OK",
       4820000000, 5625500000, 10445500000, 11140928853, 52413457, 0, 24},
      {"3-deep(16) x4shard/spread", "OK",
       4820000000, 6303500000, 11123500000, 11140928853, 52413457, 0, 24},
      {"3-deep(16) x4shard/route", "OK",
       4820000000, 6303500000, 11123500000, 11140928853, 52413457, 0, 24},
      {"3-deep[8,16] x4shard/pack", "OK",
       4820000000, 6612000000, 11432000000, 11140928853, 50900725, 0, 28},
      {"3-deep[8,16] x4shard/spread", "OK",
       4820000000, 7290000000, 12110000000, 11140928853, 50900725, 0, 28},
      {"3-deep[8,16] x4shard/route", "OK",
       4820000000, 7290000000, 12110000000, 11140928853, 50900725, 0, 28},
      {"3-deep(24) x4shard/pack", "OK",
       4820000000, 7601500000, 12421500000, 11140928853, 55438921, 0, 32},
      {"3-deep(24) x4shard/spread", "OK",
       4820000000, 8279500000, 13099500000, 11140928853, 55438921, 0, 32},
      {"3-deep(24) x4shard/route", "OK",
       4820000000, 8279500000, 13099500000, 11140928853, 55438921, 0, 32},
      {"2-deep[32] x4shard/pack", "OK",
       4820000000, 8588000000, 13408000000, 11140928853, 55381321, 0, 36},
      {"2-deep[32] x4shard/spread", "OK",
       4820000000, 9266000000, 14086000000, 11140928853, 55381321, 0, 36},
      {"2-deep[32] x4shard/route", "OK",
       4820000000, 9266000000, 14086000000, 11140928853, 55381321, 0, 36},
      {"3-deep[4,32] x4shard/pack", "OK",
       4820000000, 9577500000, 14397500000, 11140928853, 58464385, 0, 40},
      {"3-deep[4,32] x4shard/spread", "OK",
       4820000000, 10255500000, 15075500000, 11140928853, 58464385, 0, 40},
      {"3-deep[4,32] x4shard/route", "OK",
       4820000000, 10255500000, 15075500000, 11140928853, 58464385, 0, 40},
      {"3-deep[8,32] x4shard/pack", "OK",
       4820000000, 10561000000, 15381000000, 11140928853, 53926189, 0, 44},
      {"3-deep x4shard/pack", "OK",
       4820000000, 11058000000, 15878000000, 11140928853, 56951653, 0, 46},
      {"3-deep[8,32] x4shard/spread", "OK",
       4820000000, 11239000000, 16059000000, 11140928853, 53926189, 0, 44},
      {"3-deep[8,32] x4shard/route", "OK",
       4820000000, 11239000000, 16059000000, 11140928853, 53926189, 0, 44},
      {"3-deep x4shard/spread", "OK",
       4820000000, 11736000000, 16556000000, 11140928853, 56951653, 0, 46},
      {"3-deep x4shard/route", "OK",
       4820000000, 11736000000, 16556000000, 11140928853, 56951653, 0, 46},
      {"2-deep[64] x4shard/pack", "OK",
       4820000000, 16501000000, 21321000000, 11140928853, 67483177, 0, 68},
      {"2-deep[64] x4shard/spread", "OK",
       4820000000, 17179000000, 21999000000, 11140928853, 67483177, 0, 68},
      {"2-deep[64] x4shard/route", "OK",
       4820000000, 17179000000, 21999000000, 11140928853, 67483177, 0, 68},
      {"3-deep[4,64] x4shard/pack", "OK",
       4820000000, 17490500000, 22310500000, 11140928853, 70566241, 0, 72},
      {"3-deep[4,64] x4shard/spread", "OK",
       4820000000, 18168500000, 22988500000, 11140928853, 70566241, 0, 72},
      {"3-deep[4,64] x4shard/route", "OK",
       4820000000, 18168500000, 22988500000, 11140928853, 70566241, 0, 72},
      {"3-deep[8,64] x4shard/pack", "OK",
       4820000000, 18468000000, 23288000000, 11140928853, 59977117, 0, 76},
      {"3-deep[8,64] x4shard/spread", "OK",
       4820000000, 19146000000, 23966000000, 11140928853, 59977117, 0, 76},
      {"3-deep[8,64] x4shard/route", "OK",
       4820000000, 19146000000, 23966000000, 11140928853, 59977117, 0, 76},
      {"2-deep[128] x4shard/pack", "OK",
       4820000000, 32331500000, 37151500000, 11140928853, 91686889, 0, 132},
      {"2-deep[128] x4shard/spread", "OK",
       4820000000, 33009500000, 37829500000, 11140928853, 91686889, 0, 132},
      {"2-deep[128] x4shard/route", "OK",
       4820000000, 33009500000, 37829500000, 11140928853, 91686889, 0, 132},
      {"3-deep[4,128] x4shard/pack", "OK",
       4820000000, 33321000000, 38141000000, 11140928853, 94769953, 0, 136},
      {"3-deep[4,128] x4shard/spread", "OK",
       4820000000, 33999000000, 38819000000, 11140928853, 94769953, 0, 136},
      {"3-deep[4,128] x4shard/route", "OK",
       4820000000, 33999000000, 38819000000, 11140928853, 94769953, 0, 136},
      {"3-deep[8,128] x4shard/pack", "OK",
       4820000000, 34286500000, 39106500000, 11140928853, 72078973, 0, 140},
      {"3-deep[8,128] x4shard/spread", "OK",
       4820000000, 34964500000, 39784500000, 11140928853, 72078973, 0, 140},
      {"3-deep[8,128] x4shard/route", "OK",
       4820000000, 34964500000, 39784500000, 11140928853, 72078973, 0, 140},
  };
  const std::vector<GoldenPrediction> rejected = {
  };
  expect_plan(collect_plan(bgl_dense_sharded_plan()),
              GoldenPlan{viable, rejected,
                         {32340640, 1813968, 128, 17, 0},
                         {27978658, 455004, 32, 5, 12},
                         {25874449, 21004341, 32, 3},
                         {152, 544, 13690304, "svc-leaf--gige-core", 3221248,
                          16697310824391231633ull},
                         "1-deep x4shard/pack", "2-deep", "2-deep"});
}

TEST(PlannerGolden, PetascaleDense) {
  const std::vector<GoldenPrediction> viable = {
      {"2-deep[4]", "OK",
       4820000000, 1728000000, 6548000000, 9150022826, 298055751, 0, 4},
      {"2-deep[2]", "OK",
       4820000000, 1615000000, 6435000000, 9150022826, 587005136, 0, 2},
      {"2-deep[8]", "OK",
       4820000000, 2530000000, 7350000000, 9150022826, 157003847, 0, 8},
      {"3-deep[4,4]", "OK",
       4820000000, 2717500000, 7537500000, 9150022826, 300333743, 0, 8},
      {"3-deep[4,8]", "OK",
       4820000000, 3515000000, 8335000000, 9150022826, 155859051, 0, 12},
      {"2-deep[16]", "OK",
       4820000000, 4422000000, 9242000000, 9150022826, 93298471, 0, 16},
      {"3-deep[8,8]", "OK",
       4820000000, 4507500000, 9327500000, 9150022826, 159291839, 0, 16},
      {"3-deep(16)", "OK",
       4820000000, 5398000000, 10218000000, 9150022826, 95575373, 0, 20},
      {"3-deep[8,16]", "OK",
       4820000000, 6389000000, 11209000000, 9150022826, 181998378, 0, 24},
      {"3-deep(24)", "OK",
       4820000000, 7345500000, 12165500000, 9150022826, 153887663, 0, 28},
      {"2-deep", "OK",
       4820000000, 7363500000, 12183500000, 9150022826, 141024989, 0, 28},
      {"2-deep", "OK",
       4820000000, 8350000000, 13170000000, 9150022826, 163816188, 0, 32},
      {"3-deep[4,32]", "OK",
       4820000000, 9308000000, 14128000000, 9150022826, 142194664, 0, 36},
      {"3-deep[8,32]", "OK",
       4820000000, 10296000000, 15116000000, 9150022826, 142204664, 0, 40},
      {"2-deep[64]", "OK",
       4820000000, 16278000000, 21098000000, 9150022826, 158150353, 0, 64},
      {"3-deep[4,64]", "OK",
       4820000000, 17200000000, 22020000000, 9150022826, 109226525, 0, 68},
      {"3-deep[8,64]", "OK",
       4820000000, 18182000000, 23002000000, 9150022826, 104686141, 0, 72},
      {"2-deep[128]", "OK",
       4820000000, 32170000000, 36990000000, 9150022826, 230956497, 0, 128},
      {"3-deep", "OK",
       4820000000, 33000500000, 37820500000, 9150022826, 107742089, 0, 132},
      {"3-deep[4,128]", "OK",
       4820000000, 33020000000, 37840000000, 9150022826, 127428061, 0, 132},
      {"3-deep[8,128]", "OK",
       4820000000, 33990000000, 38810000000, 9150022826, 113786909, 0, 136},
      {"2-deep[256]", "OK",
       4820000000, 63972000000, 68792000000, 9150022826, 376568785, 0, 256},
      {"3-deep[4,256]", "OK",
       4820000000, 64678000000, 69498000000, 9150022826, 163831133, 0, 260},
      {"3-deep[8,256]", "OK",
       4820000000, 65624000000, 70444000000, 9150022826, 131988445, 0, 264},
      {"3-deep[4,512]", "OK",
       4820000000, 128003000000, 132823000000, 9150022826, 236637277, 0, 516},
      {"2-deep[512]", "OK",
       4820000000, 127585000000, 132405000000, 9150022826, 667793361, 0, 512},
      {"3-deep[8,512]", "OK",
       4820000000, 128901000000, 133721000000, 9150022826, 168391517, 0, 520},
  };
  const std::vector<GoldenPrediction> rejected = {
      {"1-deep",
       "RESOURCE_EXHAUSTED: front-end receive buffers overflow: 201930752 bytes inbound",
       4820000000, 1886000000, 6706000000, 9150022826, 1166048700, 0, 0},
  };
  expect_plan(collect_plan(petascale_dense_plan()),
              GoldenPlan{viable, rejected,
                         {94425976, 104135328, 1024, 33, 0},
                         {39619090, 26044920, 256, 9, 24},
                         {25234240, 3698251, 32, 31},
                         {1101, 5800, 1143748400, "agg1--core", 153025648,
                          8883293485881126545ull},
                         "2-deep[4]", "2-deep", "2-deep"});
}

}  // namespace
}  // namespace petastat::stat
