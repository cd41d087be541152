// Micro-benchmarks of the core data structures and the simulation engine:
// prefix-tree insert/merge throughput, trace generation, interval-set
// algebra, the front-end remap, the discrete-event queue, the planner's
// topology search and the switch-graph route walk.
#include <benchmark/benchmark.h>

#include <vector>

#include "app/appmodel.hpp"
#include "machine/cost_model.hpp"
#include "machine/machine.hpp"
#include "net/network.hpp"
#include "plan/search.hpp"
#include "sim/simulator.hpp"
#include "stat/filter.hpp"
#include "stat/prefix_tree.hpp"

namespace {

using namespace petastat;

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t fired = 0;
    for (int i = 0; i < 1000; ++i) {
      simulator.schedule_in(static_cast<SimTime>(i) * kMicrosecond,
                            [&fired]() { ++fired; });
    }
    simulator.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_RingStackGeneration(benchmark::State& state) {
  app::RingHangOptions options;
  options.num_tasks = 4096;
  app::RingHangApp app(options);
  std::uint32_t task = 0;
  for (auto _ : state) {
    const auto path = app.stack(TaskId(task % 4096), 0, task / 4096);
    benchmark::DoNotOptimize(path);
    ++task;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RingStackGeneration);

void BM_PrefixTreeInsert(benchmark::State& state) {
  app::RingHangOptions options;
  options.num_tasks = 4096;
  app::RingHangApp app(options);
  std::vector<app::CallPath> paths;
  for (std::uint32_t t = 0; t < 4096; ++t) paths.push_back(app.stack(TaskId(t), 0, 0));

  for (auto _ : state) {
    stat::GlobalTree tree;
    for (std::uint32_t t = 0; t < 4096; ++t) {
      stat::add_trace(tree, paths[t], 0, t, TaskId(t));
    }
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_PrefixTreeInsert);

void BM_PrefixTreeInsertHier(benchmark::State& state) {
  // One daemon's payload at the 208K run's shape: 128 tasks x 10 samples
  // into the 2D and 3D hierarchical trees.
  constexpr std::uint32_t kTasks = 128;
  constexpr std::uint32_t kSamples = 10;
  app::RingHangOptions options;
  options.num_tasks = 4096;
  app::RingHangApp app(options);
  std::vector<app::CallPath> paths;
  for (std::uint32_t s = 0; s < kSamples; ++s) {
    for (std::uint32_t t = 0; t < kTasks; ++t) {
      paths.push_back(app.stack(TaskId(t), 0, s));
    }
  }

  for (auto _ : state) {
    stat::StatPayload<stat::HierLabel> payload;
    for (std::uint32_t i = 0; i < kTasks * kSamples; ++i) {
      stat::insert_trace(payload, paths[i], 0, i % kTasks, TaskId(i % kTasks),
                         i / kTasks);
    }
    benchmark::DoNotOptimize(payload);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kTasks * kSamples);
}
BENCHMARK(BM_PrefixTreeInsertHier);

void BM_PrefixTreeMerge(benchmark::State& state) {
  // Two daemons' local trees (128 tasks each) merged, the hot loop of every
  // comm process.
  app::RingHangOptions options;
  options.num_tasks = 4096;
  app::RingHangApp app(options);
  stat::GlobalTree a, b;
  for (std::uint32_t t = 0; t < 128; ++t) {
    stat::add_trace(a, app.stack(TaskId(t), 0, 0), 0, t, TaskId(t));
    stat::add_trace(b, app.stack(TaskId(t + 128), 0, 0), 1, t,
                    TaskId(t + 128));
  }
  for (auto _ : state) {
    stat::GlobalTree acc = a;
    acc.merge(b);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_PrefixTreeMerge);

void BM_TaskSetUnion(benchmark::State& state) {
  // Fragmented sets (every other task), the worst realistic case.
  stat::TaskSet a, b;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(state.range(0)); ++i) {
    if (i % 2 == 0) a.insert(i);
    else b.insert(i);
  }
  for (auto _ : state) {
    stat::TaskSet acc = a;
    acc.union_with(b);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_TaskSetUnion)->Arg(1024)->Arg(16384);

void BM_RemapShuffled(benchmark::State& state) {
  // The front-end remap of one job-wide label at the 208K BG/L VN layout
  // (1,664 daemons x 128 tasks) under a shuffled process table; each
  // daemon's block holds state.range(0) intervals.
  machine::DaemonLayout layout;
  layout.num_daemons = 1664;
  layout.tasks_per_daemon = 128;
  layout.num_tasks = 1664 * 128;
  const stat::TaskMap map = stat::TaskMap::shuffled(layout, 7);
  const auto per_block = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t stride = layout.tasks_per_daemon / per_block;
  stat::HierTaskSet hier;
  for (std::uint32_t d = 0; d < layout.num_daemons; ++d) {
    for (std::uint32_t local = 0; local < layout.tasks_per_daemon; ++local) {
      // Leave the last slot of every stride out, so intervals stay apart.
      if (per_block == 1 || local % stride != stride - 1) hier.insert(d, local);
    }
  }
  for (auto _ : state) {
    const stat::TaskSet global = map.remap(hier);
    benchmark::DoNotOptimize(global);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          layout.num_daemons * per_block);
}
BENCHMARK(BM_RemapShuffled)->Arg(1)->Arg(8);

void BM_TreeSerializeRoundtrip(benchmark::State& state) {
  app::RingHangOptions options;
  options.num_tasks = 1024;
  app::RingHangApp app(options);
  stat::GlobalTree tree;
  for (std::uint32_t t = 0; t < 1024; ++t) {
    stat::add_trace(tree, app.stack(TaskId(t), 0, 0), 0, t, TaskId(t));
  }
  const stat::LabelContext ctx{1024};
  for (auto _ : state) {
    ByteSink sink;
    tree.encode(sink, app.frames(), ctx);
    auto bytes = sink.take();
    ByteSource source(bytes);
    auto decoded = stat::GlobalTree::decode(source, app.frames(), ctx);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_TreeSerializeRoundtrip);

// One `--topology auto --fe-shards auto` plan of an 8,192-task petascale
// session with the profile cache warm: predictor construction (one cache
// hit) plus pricing every candidate spec. Items are specs priced.
void BM_SearchTopologies(benchmark::State& state) {
  const machine::MachineConfig machine = machine::petascale();
  const machine::JobConfig job{.num_tasks = 8192};
  stat::StatOptions options;
  options.topology_auto = true;
  options.fe_shards_auto = true;
  const machine::CostModel costs = machine::default_cost_model(machine);
  (void)plan::PhasePredictor::create(machine, job, options, costs);  // warm
  std::size_t specs = 0;
  for (auto _ : state) {
    auto predictor = plan::PhasePredictor::create(machine, job, options, costs);
    auto ranked = plan::search_topologies(predictor.value());
    specs = ranked.value().viable.size() + ranked.value().rejected.size();
    benchmark::DoNotOptimize(ranked);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    specs));
}
BENCHMARK(BM_SearchTopologies)->Unit(benchmark::kMillisecond);

// net::route_between over every ordered pair of 32 petascale hosts spread
// over the front end, the login, I/O and compute tiers.
void BM_RouteBetween(benchmark::State& state) {
  const machine::MachineConfig machine = machine::petascale();
  const net::SwitchGraph graph = net::build_switch_graph(machine);
  std::vector<NodeId> hosts{machine.front_end()};
  for (std::uint32_t i = 0; i < 7; ++i) {
    hosts.push_back(machine.login_node(i * machine.login_nodes / 7));
    hosts.push_back(machine.io_node(i * machine.io_nodes / 7));
  }
  while (hosts.size() < 32) {
    hosts.push_back(machine.compute_node(static_cast<std::uint32_t>(
        hosts.size() * (machine.compute_nodes / 32))));
  }
  for (auto _ : state) {
    double rate = 0.0;
    for (const NodeId src : hosts) {
      for (const NodeId dst : hosts) {
        rate += net::bottleneck_rate(net::route_between(graph, src, dst));
      }
    }
    benchmark::DoNotOptimize(rate);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * hosts.size() * hosts.size()));
}
BENCHMARK(BM_RouteBetween);

}  // namespace
