// Reference-oracle property tests for the edge labels: a naive prefix tree
// that keeps a std::set of members per node is the oracle for the
// production tree (in-place insertion, both label representations, any
// insert order), for the union/merge fast paths, and for the sort-once
// front-end remap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "stat/filter.hpp"
#include "stat/prefix_tree.hpp"

namespace petastat::stat {
namespace {

using Slot = std::pair<std::uint32_t, std::uint32_t>;  // (daemon, local)

struct Trace {
  app::CallPath path;
  std::uint32_t daemon = 0;
  std::uint32_t local = 0;
  std::uint32_t task = 0;
};

/// The oracle: one node per frame, members as plain sets.
struct OracleNode {
  std::set<std::uint32_t> tasks;
  std::set<Slot> slots;
  std::uint64_t visits = 0;
  std::map<FrameId, OracleNode> children;
};

OracleNode oracle_tree(const std::vector<Trace>& traces) {
  OracleNode root;
  for (const Trace& t : traces) {
    OracleNode* node = &root;
    for (const FrameId f : t.path) {
      node = &node->children[f];
      node->tasks.insert(t.task);
      node->slots.insert({t.daemon, t.local});
      ++node->visits;
    }
  }
  return root;
}

/// Sorted, disjoint, non-adjacent intervals: the canonical form that makes
/// products bit-identical whatever the insert order.
void expect_canonical(const TaskSet& set) {
  const auto& ivs = set.intervals();
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    ASSERT_LE(ivs[i].lo, ivs[i].hi);
    if (i > 0) {
      ASSERT_LT(ivs[i - 1].hi, UINT32_MAX);
      ASSERT_GT(ivs[i].lo, ivs[i - 1].hi + 1);
    }
  }
}

std::set<std::uint32_t> members(const TaskSet& set) {
  std::set<std::uint32_t> out;
  for (const auto& iv : set.intervals()) {
    for (std::uint64_t v = iv.lo; v <= iv.hi; ++v) {
      out.insert(static_cast<std::uint32_t>(v));
    }
  }
  return out;
}

std::set<Slot> members(const HierTaskSet& set) {
  std::set<Slot> out;
  for (std::size_t i = 0; i < set.blocks().size(); ++i) {
    const auto& block = set.blocks()[i];
    if (i > 0) {
      EXPECT_LT(set.blocks()[i - 1].daemon, block.daemon);
    }
    EXPECT_FALSE(block.local.empty());
    expect_canonical(block.local);
    for (const std::uint32_t l : members(block.local)) {
      out.insert({block.daemon, l});
    }
  }
  return out;
}

template <typename Label>
void expect_matches(const typename PrefixTree<Label>::Node& node,
                    const OracleNode& oracle) {
  ASSERT_EQ(node.children.size(), oracle.children.size());
  auto it = oracle.children.begin();
  for (const auto& child : node.children) {
    ASSERT_EQ(child.frame, it->first);
    const OracleNode& want = it->second;
    EXPECT_EQ(child.label.visits, want.visits);
    if constexpr (std::is_same_v<Label, GlobalLabel>) {
      expect_canonical(child.label.tasks);
      EXPECT_EQ(members(child.label.tasks), want.tasks);
    } else {
      EXPECT_EQ(members(child.label.tasks), want.slots);
    }
    expect_matches<Label>(child, want);
    ++it;
  }
}

template <typename Label>
PrefixTree<Label> build(const std::vector<Trace>& traces) {
  PrefixTree<Label> tree;
  for (const Trace& t : traces) {
    add_trace(tree, t.path, t.daemon, t.local, TaskId(t.task));
  }
  return tree;
}

/// The same traces folded one single-trace tree at a time through
/// PrefixTree::merge: exercises the label merge paths instead of insert.
template <typename Label>
PrefixTree<Label> build_by_merging(const std::vector<Trace>& traces) {
  PrefixTree<Label> tree;
  for (const Trace& t : traces) {
    PrefixTree<Label> one;
    add_trace(one, t.path, t.daemon, t.local, TaskId(t.task));
    tree.merge(one);
  }
  return tree;
}

/// Random traces over `daemons` daemons of `per` tasks whose slots start at
/// `local_base` and whose ranks at `task_base` (UINT32_MAX edges when the
/// bases sit near the top of the range).
std::vector<Trace> random_traces(Rng& rng, app::FrameTable& frames,
                                 std::uint32_t daemons, std::uint32_t per,
                                 std::uint32_t daemon_base,
                                 std::uint32_t local_base,
                                 std::uint32_t task_base,
                                 std::uint32_t samples) {
  std::vector<FrameId> alphabet;
  for (int i = 0; i < 6; ++i) alphabet.push_back(frames.intern("f" + std::to_string(i)));
  std::vector<Trace> traces;
  for (std::uint32_t s = 0; s < samples; ++s) {
    for (std::uint32_t d = 0; d < daemons; ++d) {
      for (std::uint32_t l = 0; l < per; ++l) {
        Trace t;
        t.daemon = daemon_base + d;
        t.local = local_base + l;
        t.task = task_base + d * per + l;
        // Few distinct shapes so labels hold runs that split and rejoin
        // across interval boundaries.
        const auto depth = 1 + static_cast<std::size_t>(rng.next_below(4));
        for (std::size_t k = 0; k < depth; ++k) {
          t.path.push_back(alphabet[rng.next_below(k == 0 ? 1 : 3)]);
        }
        traces.push_back(std::move(t));
      }
    }
  }
  return traces;
}

struct Shape {
  std::uint32_t daemons, per, daemon_base, local_base, task_base, samples;
};

class TreeOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeOracle, ProductionTreeMatchesNaiveSets) {
  const std::vector<Shape> shapes = {
      {1, 1, 0, 0, 0, 1},
      {3, 63, 0, 0, 0, 3},   // task counts crossing interval runs
      {8, 65, 5, 0, 0, 2},
      {2, 40, UINT32_MAX - 1, UINT32_MAX - 39, UINT32_MAX - 79, 2},
  };
  Rng rng(GetParam() * 7919 + 3);
  for (const Shape& sh : shapes) {
    app::FrameTable frames;
    std::vector<Trace> traces =
        random_traces(rng, frames, sh.daemons, sh.per, sh.daemon_base,
                      sh.local_base, sh.task_base, sh.samples);
    const OracleNode oracle = oracle_tree(traces);

    const GlobalTree global = build<GlobalLabel>(traces);
    const HierTree hier = build<HierLabel>(traces);
    expect_matches<GlobalLabel>(global.root(), oracle);
    expect_matches<HierLabel>(hier.root(), oracle);

    // Any insert order, and folding by merges, give the identical tree.
    std::vector<Trace> shuffled = traces;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
    }
    EXPECT_EQ(build<GlobalLabel>(shuffled), global);
    EXPECT_EQ(build<HierLabel>(shuffled), hier);
    EXPECT_EQ(build_by_merging<GlobalLabel>(shuffled), global);
    EXPECT_EQ(build_by_merging<HierLabel>(shuffled), hier);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeOracle, ::testing::Range<std::uint64_t>(0, 6));

// --- union_with / merge fast paths against a reference union --------------
//
// A set has exactly one canonical form (sorted, disjoint, non-adjacent
// intervals; sorted non-empty blocks), so a fast path whose result has the
// right members and is canonical is bit-identical to the two-pointer merge.

/// The union of two interval lists, computed apart from TaskSet: sort all
/// intervals, then coalesce overlapping and adjacent ones.
std::vector<TaskSet::Interval> reference_union(const TaskSet& a,
                                                 const TaskSet& b) {
  std::vector<TaskSet::Interval> all = a.intervals();
  all.insert(all.end(), b.intervals().begin(), b.intervals().end());
  std::stable_sort(all.begin(), all.end(),
                   [](const auto& x, const auto& y) { return x.lo < y.lo; });
  std::vector<TaskSet::Interval> out;
  for (const auto& iv : all) {
    if (!out.empty() &&
        (out.back().hi == UINT32_MAX || iv.lo <= out.back().hi + 1)) {
      out.back().hi = std::max(out.back().hi, iv.hi);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

TaskSet of(std::initializer_list<std::pair<std::uint32_t, std::uint32_t>> ivs) {
  TaskSet s;
  for (const auto& [lo, hi] : ivs) s.insert_range(lo, hi);
  return s;
}

TEST(UnionFastPaths, EachPathMatchesTwoPointerMerge) {
  constexpr std::uint32_t M = UINT32_MAX;
  const TaskSet base = of({{10, 19}, {30, 39}, {50, 59}});
  const std::vector<TaskSet> operands = {
      TaskSet{},                          // empty
      of({{0, 5}}),                       // single, before everything
      of({{20, 29}}),                     // single, bridging two
      of({{55, 70}}),                     // single, extending the tail
      of({{60, 60}}),                     // single, adjacent to the tail
      of({{80, 90}}),                     // single, past the tail
      of({{50, 52}, {61, 70}}),           // append starting on the tail
      of({{60, 62}, {64, 70}, {M, M}}),   // append, adjacent, UINT32_MAX
      of({{100, 110}, {120, M}}),         // disjoint append to UINT32_MAX
      of({{0, 12}, {45, 47}}),            // interleave
      of({{5, 5}, {21, 21}, {58, 90}}),   // interleave bridging the tail
  };
  for (const TaskSet& other : operands) {
    TaskSet got = base;
    got.union_with(other);
    EXPECT_EQ(got.intervals(), reference_union(base, other));
    expect_canonical(got);
    TaskSet reverse = other;
    reverse.union_with(base);
    EXPECT_EQ(reverse, got);
  }
  TaskSet top = of({{M - 3, M}});
  top.union_with(of({{M - 1, M}}));
  EXPECT_EQ(top.intervals(), (std::vector<TaskSet::Interval>{{M - 3, M}}));
  top.insert(M - 5);
  EXPECT_EQ(top.interval_count(), 2u);
  top.insert(M - 4);
  EXPECT_EQ(top.intervals(), (std::vector<TaskSet::Interval>{{M - 5, M}}));
}

class UnionOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnionOracle, RandomOperandsMatchTwoPointerMerge) {
  Rng rng(GetParam() * 131 + 17);
  const auto random_set = [&rng](std::uint32_t lo_base, std::uint32_t span,
                                 int n) {
    TaskSet s;
    for (int i = 0; i < n; ++i) {
      const auto lo = lo_base + static_cast<std::uint32_t>(rng.next_below(span));
      const auto len = static_cast<std::uint32_t>(rng.next_below(4));
      s.insert_range(lo, lo + std::min(len, UINT32_MAX - lo));
    }
    return s;
  };
  for (int round = 0; round < 200; ++round) {
    // Mix operand shapes so every path is hit: singletons, operands that
    // start inside or past the tail, and full interleaves, also at the
    // top of the range.
    const std::uint32_t base =
        rng.bernoulli(0.2) ? UINT32_MAX - 400 : 0;
    const TaskSet a = random_set(base, 200, 1 + static_cast<int>(rng.next_below(12)));
    const std::uint32_t b_base =
        base + static_cast<std::uint32_t>(rng.next_below(300));
    const TaskSet b = random_set(b_base, 100, 1 + static_cast<int>(rng.next_below(6)));
    TaskSet got = a;
    got.union_with(b);
    EXPECT_EQ(got.intervals(), reference_union(a, b));
    std::set<std::uint32_t> want = members(a);
    const auto mb = members(b);
    want.insert(mb.begin(), mb.end());
    EXPECT_EQ(members(got), want);
  }
}

TEST_P(UnionOracle, RandomHierOperandsMatchSetUnion) {
  Rng rng(GetParam() * 389 + 2);
  const auto random_hier = [&rng](std::uint32_t daemon_base, int n) {
    HierTaskSet s;
    for (int i = 0; i < n; ++i) {
      s.insert(daemon_base + static_cast<std::uint32_t>(rng.next_below(6)),
               static_cast<std::uint32_t>(rng.next_below(40)));
    }
    return s;
  };
  for (int round = 0; round < 200; ++round) {
    // Operands that start before, on, or past the accumulator's last
    // daemon, with one block or several.
    const HierTaskSet a = random_hier(0, 1 + static_cast<int>(rng.next_below(20)));
    const HierTaskSet b = random_hier(
        static_cast<std::uint32_t>(rng.next_below(8)),
        1 + static_cast<int>(rng.next_below(rng.bernoulli(0.5) ? 2 : 12)));
    HierTaskSet got = a;
    got.merge(b);
    std::set<Slot> want = members(a);
    const auto mb = members(b);
    want.insert(mb.begin(), mb.end());
    EXPECT_EQ(members(got), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionOracle, ::testing::Range<std::uint64_t>(0, 6));

TEST(MergeFastPaths, EachPathMatchesSetUnion) {
  const auto hier = [](std::initializer_list<Slot> slots) {
    HierTaskSet s;
    for (const auto& [d, l] : slots) s.insert(d, l);
    return s;
  };
  const HierTaskSet base = hier({{2, 0}, {2, 1}, {5, 3}, {9, 0}, {9, 7}});
  const std::vector<HierTaskSet> operands = {
      HierTaskSet{},
      hier({{0, 4}}),                        // one block, before all
      hier({{5, 4}}),                        // one block, existing daemon
      hier({{7, 1}}),                        // one block, new, in the middle
      hier({{9, 8}, {12, 0}}),               // append starting on the tail
      hier({{10, 0}, {UINT32_MAX, 3}}),      // disjoint append
      hier({{1, 1}, {5, 0}, {11, 2}}),       // interleave
  };
  for (const HierTaskSet& other : operands) {
    HierTaskSet got = base;
    got.merge(other);
    std::set<Slot> want = members(base);
    const auto mo = members(other);
    want.insert(mo.begin(), mo.end());
    EXPECT_EQ(members(got), want);
    HierTaskSet reverse = other;
    reverse.merge(base);
    EXPECT_EQ(reverse, got);
  }
}

// --- the sort-once remap against element-wise global_rank ------------------

class RemapOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RemapOracle, ShuffledRemapMatchesElementwiseRanks) {
  // 1,031 daemons of 24 tasks, the last one short: block sizes and the
  // shuffled process table as the scenario builds them.
  machine::DaemonLayout layout;
  layout.num_daemons = 1031;
  layout.tasks_per_daemon = 24;
  layout.num_tasks = 1030 * 24 + 7;
  const TaskMap map = TaskMap::shuffled(layout, GetParam() + 1);
  Rng rng(GetParam() * 31 + 9);
  HierTaskSet hier;
  std::set<std::uint32_t> want;
  const double density = 0.2 + 0.6 * rng.next_double();
  for (std::uint32_t d = 0; d < layout.num_daemons; ++d) {
    for (std::uint32_t l = 0; l < layout.tasks_of(DaemonId(d)); ++l) {
      if (rng.bernoulli(density)) {
        hier.insert(d, l);
        want.insert(map.global_rank(d, l));
      }
    }
  }
  const TaskSet got = map.remap(hier);
  expect_canonical(got);
  EXPECT_EQ(members(got), want);

  // Through the tree: every remapped edge equals its element-wise image.
  app::FrameTable frames;
  const FrameId a = frames.intern("a");
  const FrameId b = frames.intern("b");
  HierTree tree;
  for (const auto& block : hier.blocks()) {
    for (const std::uint32_t l : members(block.local)) {
      tree.insert(std::vector<FrameId>{a, (l % 3 == 0) ? a : b},
                  {block.daemon, l});
    }
  }
  const GlobalTree remapped = remap_tree(tree, map);
  tree.visit([&](std::span<const FrameId> path, const HierTree::Node& node) {
    const GlobalTree::Node* g = &remapped.root();
    for (const FrameId f : path) g = g->find_child(f);
    ASSERT_NE(g, nullptr);
    std::set<std::uint32_t> image;
    for (const auto& [d, l] : members(node.label.tasks)) {
      image.insert(map.global_rank(d, l));
    }
    EXPECT_EQ(members(g->label.tasks), image);
    expect_canonical(g->label.tasks);
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, RemapOracle, ::testing::Range<std::uint64_t>(0, 4));

}  // namespace
}  // namespace petastat::stat
