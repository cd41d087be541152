// Cross-configuration end-to-end property suite: for every (machine,
// topology, representation) combination that is valid on the platform, the
// full pipeline must produce classes that cover the job, isolate the
// injected bug, and satisfy structural invariants. This is the broad sweep
// that catches interactions no single-module test sees.
#include <gtest/gtest.h>

#include "stat/prefix_tree.hpp"
#include "stat/scenario.hpp"

namespace petastat::stat {
namespace {

struct GridCase {
  const char* machine;
  std::uint32_t tasks;
  machine::BglMode mode;
  std::uint32_t depth;
  bool bgl_rules;
  TaskSetRepr repr;
};

std::string case_name(const ::testing::TestParamInfo<GridCase>& info) {
  const GridCase& c = info.param;
  return std::string(c.machine) + "_" + std::to_string(c.tasks) + "_" +
         machine::bgl_mode_name(c.mode) + "_d" + std::to_string(c.depth) +
         (c.repr == TaskSetRepr::kDenseGlobal ? "_dense" : "_hier");
}

class EndToEndGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(EndToEndGrid, PipelineInvariantsHold) {
  const GridCase& c = GetParam();
  const machine::MachineConfig m =
      std::string(c.machine) == "bgl" ? machine::bgl() : machine::atlas();

  machine::JobConfig job;
  job.num_tasks = c.tasks;
  job.mode = c.mode;

  StatOptions options;
  options.topology = c.bgl_rules ? tbon::TopologySpec::bgl(c.depth)
                     : c.depth == 1 ? tbon::TopologySpec::flat()
                                    : tbon::TopologySpec::balanced(c.depth);
  options.repr = c.repr;
  options.launcher = std::string(c.machine) == "bgl"
                         ? LauncherKind::kCiodPatched
                         : LauncherKind::kLaunchMon;

  StatScenario scenario(m, job, options);
  const StatRunResult result = scenario.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();

  // 1. Phase ordering and positivity.
  EXPECT_GT(result.phases.startup_total, 0u);
  EXPECT_GT(result.phases.sample_time, 0u);
  EXPECT_GT(result.phases.merge_time, 0u);

  // 2. Classes partition the job.
  TaskSet all;
  std::uint64_t total = 0;
  for (const auto& cls : result.classes) {
    EXPECT_FALSE(all.intersects(cls.tasks));
    all.union_with(cls.tasks);
    total += cls.size();
  }
  EXPECT_EQ(total, c.tasks);
  EXPECT_EQ(all.count(), c.tasks);

  // 3. The injected bug is isolated.
  bool task1_isolated = false;
  for (const auto& cls : result.classes) {
    if (cls.size() == 1 && cls.tasks.contains(1)) task1_isolated = true;
  }
  EXPECT_TRUE(task1_isolated);

  // 4. Both trees share the root and the 2D tree is a subset (same sample-0
  //    structure contained in the union of all samples).
  EXPECT_FALSE(result.tree_2d.empty());
  EXPECT_FALSE(result.tree_3d.empty());
  EXPECT_LE(result.tree_2d.node_count(), result.tree_3d.node_count());
  EXPECT_LE(result.tree_2d.depth(), result.tree_3d.depth());

  // 5. Every 3D root-level edge carries the full job (all tasks ran main).
  ASSERT_EQ(result.tree_3d.root().children.size(), 1u);
  EXPECT_EQ(result.tree_3d.root().children.front().label.tasks.count(), c.tasks);

  // 6. Folded-stack output weights sum to the task count.
  const std::string folded =
      to_folded(result.tree_3d, scenario.app().frames());
  std::uint64_t folded_total = 0;
  std::size_t pos = 0;
  while (pos < folded.size()) {
    const std::size_t space = folded.find(' ', pos);
    const std::size_t eol = folded.find('\n', pos);
    folded_total += std::stoull(folded.substr(space + 1, eol - space - 1));
    pos = eol + 1;
  }
  EXPECT_EQ(folded_total, c.tasks);
}

INSTANTIATE_TEST_SUITE_P(
    Atlas, EndToEndGrid,
    ::testing::Values(
        GridCase{"atlas", 256, machine::BglMode::kCoprocessor, 1, false,
                 TaskSetRepr::kDenseGlobal},
        GridCase{"atlas", 256, machine::BglMode::kCoprocessor, 1, false,
                 TaskSetRepr::kHierarchical},
        GridCase{"atlas", 1024, machine::BglMode::kCoprocessor, 2, false,
                 TaskSetRepr::kDenseGlobal},
        GridCase{"atlas", 1024, machine::BglMode::kCoprocessor, 2, false,
                 TaskSetRepr::kHierarchical},
        GridCase{"atlas", 4096, machine::BglMode::kCoprocessor, 3, false,
                 TaskSetRepr::kHierarchical}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    Bgl, EndToEndGrid,
    ::testing::Values(
        GridCase{"bgl", 8192, machine::BglMode::kCoprocessor, 2, true,
                 TaskSetRepr::kDenseGlobal},
        GridCase{"bgl", 8192, machine::BglMode::kCoprocessor, 2, true,
                 TaskSetRepr::kHierarchical},
        GridCase{"bgl", 16384, machine::BglMode::kVirtualNode, 2, true,
                 TaskSetRepr::kHierarchical},
        GridCase{"bgl", 16384, machine::BglMode::kVirtualNode, 3, true,
                 TaskSetRepr::kHierarchical},
        GridCase{"bgl", 4096, machine::BglMode::kCoprocessor, 1, true,
                 TaskSetRepr::kHierarchical}),
    case_name);

// --------------------------------------------------------------------------
// The TBON reduction must equal a sequential merge of all leaf payloads —
// the associativity/ordering-independence property that makes streaming
// filters sound.

TEST(ReductionSemantics, TreeReductionEqualsSequentialMerge) {
  app::RingHangOptions ring;
  ring.num_tasks = 512;
  ring.bgl_frames = false;
  app::RingHangApp app(ring);

  // Per-daemon local trees (64 daemons x 8 tasks, 3 samples).
  std::vector<GlobalTree> locals(64);
  GlobalTree sequential;
  for (std::uint32_t t = 0; t < 512; ++t) {
    for (std::uint32_t s = 0; s < 3; ++s) {
      const auto path = app.stack(TaskId(t), 0, s);
      locals[t / 8].insert(path, t);
      sequential.insert(path, t);
    }
  }

  // Simulate a 3-level reduction: merge in arbitrary groups, then merge the
  // groups — any grouping must agree with the sequential merge.
  GlobalTree grouped;
  for (std::size_t g = 0; g < 8; ++g) {
    GlobalTree group;
    for (std::size_t d = g * 8; d < (g + 1) * 8; ++d) group.merge(locals[d]);
    grouped.merge(group);
  }
  EXPECT_EQ(grouped, sequential);

  // Reverse order too.
  GlobalTree reversed;
  for (auto it = locals.rbegin(); it != locals.rend(); ++it) {
    reversed.merge(*it);
  }
  EXPECT_EQ(reversed, sequential);
}

TEST(FoldedStacks, VisitWeightingCountsAllTraces) {
  app::RingHangOptions ring;
  ring.num_tasks = 64;
  ring.bgl_frames = false;
  app::RingHangApp app(ring);
  GlobalTree tree;
  const std::uint32_t samples = 5;
  for (std::uint32_t t = 0; t < 64; ++t) {
    for (std::uint32_t s = 0; s < samples; ++s) {
      tree.insert(app.stack(TaskId(t), 0, s), t);
    }
  }
  const std::string folded = to_folded(tree, app.frames(), /*by_visits=*/true);
  std::uint64_t total = 0;
  std::size_t pos = 0;
  while (pos < folded.size()) {
    const std::size_t space = folded.find(' ', pos);
    const std::size_t eol = folded.find('\n', pos);
    total += std::stoull(folded.substr(space + 1, eol - space - 1));
    pos = eol + 1;
  }
  EXPECT_EQ(total, 64u * samples);
}

}  // namespace
}  // namespace petastat::stat
