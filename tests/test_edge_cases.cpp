// Edge cases across modules: minimal jobs, single-daemon trees, boundary
// values, and empty structures.
#include <gtest/gtest.h>

#include "stat/scenario.hpp"
#include "tbon/multicast.hpp"
#include "tbon/reduction.hpp"

namespace petastat {
namespace {

TEST(EdgeCases, MinimalRingJobEndToEnd) {
  // 3 tasks is the smallest ring; it fits in a single Atlas daemon.
  machine::JobConfig job;
  job.num_tasks = 3;
  stat::StatOptions options;
  options.topology = tbon::TopologySpec::flat();
  stat::StatScenario scenario(machine::atlas(), job, options);
  const auto result = scenario.run();
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.layout.num_daemons, 1u);
  std::uint64_t total = 0;
  for (const auto& cls : result.classes) total += cls.size();
  EXPECT_EQ(total, 3u);
}

TEST(EdgeCases, SingleDaemonReduction) {
  const auto m = machine::atlas();
  machine::JobConfig job;
  job.num_tasks = 8;  // exactly one daemon
  const auto layout = machine::layout_daemons(m, job).value();
  const auto topo =
      tbon::build_topology(m, layout, tbon::TopologySpec::flat()).value();
  EXPECT_EQ(topo.procs.size(), 2u);  // FE + one leaf

  sim::Simulator simulator;
  net::Network network(simulator, net::build_switch_graph(m));
  tbon::ReduceOps<int> ops;
  ops.merge_cpu = [](const int&) { return SimTime{0}; };
  ops.merge_into = [](int& acc, const int& child) { acc += child; };
  ops.wire_bytes = [](const int&) { return std::uint64_t{8}; };
  ops.codec_cost = [](std::uint64_t) { return SimTime{10}; };
  tbon::Reduction<int> reduction(simulator, network, topo, ops);
  int final_value = 0;
  reduction.run_round(0, {41}, [&](tbon::ReduceResult<int> r) {
    final_value = r.payload;
  });
  simulator.run();
  EXPECT_EQ(final_value, 41);
}

TEST(EdgeCases, TaskSetAtUint32Boundary) {
  stat::TaskSet s;
  s.insert(UINT32_MAX);
  s.insert(UINT32_MAX - 1);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(s.interval_count(), 1u);
  EXPECT_TRUE(s.contains(UINT32_MAX));
  s.insert_range(0, 2);
  EXPECT_EQ(s.count(), 5u);
  // Union with another boundary-touching set.
  stat::TaskSet t = stat::TaskSet::range(UINT32_MAX - 3, UINT32_MAX);
  s.union_with(t);
  EXPECT_EQ(s.count(), 7u);
}

TEST(EdgeCases, EmptyTreeBehaviour) {
  stat::GlobalTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.node_count(), 0u);
  EXPECT_EQ(tree.depth(), 0u);
  EXPECT_TRUE(stat::equivalence_classes(tree).empty());
  app::FrameTable frames;
  EXPECT_EQ(stat::to_folded(tree, frames), "");
  const std::string dot = stat::to_dot(tree, frames);
  EXPECT_NE(dot.find("digraph"), std::string::npos);

  // Merging an empty tree is a no-op; merging into empty copies.
  stat::GlobalTree other;
  other.insert(frames.make_path({"a"}), 0);
  tree.merge(other);
  EXPECT_EQ(tree.node_count(), 1u);
  stat::GlobalTree empty;
  tree.merge(empty);
  EXPECT_EQ(tree.node_count(), 1u);
}

TEST(EdgeCases, SingleFramePathsAndDuplicateInserts) {
  app::FrameTable frames;
  stat::GlobalTree tree;
  const auto path = frames.make_path({"only_frame"});
  for (int i = 0; i < 100; ++i) {
    tree.insert(path, 7);
  }
  EXPECT_EQ(tree.node_count(), 1u);
  const auto& node = tree.root().children.front();
  EXPECT_EQ(node.label.tasks.count(), 1u);
  EXPECT_EQ(node.label.visits, 100u);
}

TEST(EdgeCases, HierTaskSetEmptyMergesAndEncoding) {
  stat::HierTaskSet empty;
  stat::HierTaskSet other = stat::HierTaskSet::single(5, 2);
  other.merge(empty);
  EXPECT_EQ(other.count(), 1u);
  empty.merge(other);
  EXPECT_EQ(empty.count(), 1u);

  stat::HierTaskSet fresh;
  ByteSink sink;
  fresh.encode(sink);
  auto bytes = sink.take();
  ByteSource source(bytes);
  auto decoded = stat::HierTaskSet::decode(source);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(EdgeCases, MulticastOverSingleLeaf) {
  const auto m = machine::atlas();
  machine::JobConfig job;
  job.num_tasks = 8;
  const auto layout = machine::layout_daemons(m, job).value();
  const auto topo =
      tbon::build_topology(m, layout, tbon::TopologySpec::flat()).value();
  sim::Simulator simulator;
  net::Network network(simulator, net::build_switch_graph(m));
  bool fired = false;
  tbon::multicast(simulator, network, topo, 32, [&](SimTime) { fired = true; });
  simulator.run();
  EXPECT_TRUE(fired);
}

TEST(EdgeCases, SbrsWithVirtualNodeJobOnBgl) {
  // SBRS on BG/L: single static binary relocated over the functional tree.
  machine::JobConfig job;
  job.num_tasks = 16384;
  job.mode = machine::BglMode::kVirtualNode;
  stat::StatOptions options;
  options.topology = tbon::TopologySpec::bgl(2);
  options.launcher = stat::LauncherKind::kCiodPatched;
  options.use_sbrs = true;
  stat::StatScenario scenario(machine::bgl(), job, options);
  const auto result = scenario.run();
  ASSERT_TRUE(result.status.is_ok());
  EXPECT_GT(result.phases.sbrs_relocation, 0u);
  // With the 8 MB image local everywhere, symbol I/O no longer grows with
  // the shared server's queue.
  EXPECT_LT(result.phases.sample_symbol_io_max, seconds(0.5));
}

TEST(EdgeCases, ScenarioRejectsOversizedJobAtConstruction) {
  machine::JobConfig job;
  job.num_tasks = 100000;  // does not fit Atlas
  stat::StatOptions options;
  EXPECT_THROW(stat::StatScenario(machine::atlas(), job, options),
               std::logic_error);
}

}  // namespace
}  // namespace petastat
