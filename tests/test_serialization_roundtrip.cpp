// Round-trip serialization properties: for every wire format the decoded
// value must equal the original, and the arithmetic wire_bytes() accounting
// (which feeds the network model) must exactly match the bytes actually
// produced by encode().
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "app/appmodel.hpp"
#include "common/rng.hpp"
#include "common/serializer.hpp"
#include "stat/hier_taskset.hpp"
#include "stat/prefix_tree.hpp"
#include "stat/taskset.hpp"

namespace petastat::stat {
namespace {

TaskSet fragmented_set() {
  TaskSet set;
  set.insert_range(0, 3);
  set.insert(9);
  set.insert_range(100, 240);
  set.insert(1023);
  set.insert_range(4000, 4096);
  return set;
}

// --- TaskSet: dense wire ----------------------------------------------------

TEST(DenseWire, RoundTripAndExactSize) {
  const TaskSet set = fragmented_set();
  const std::uint32_t job_size = 5000;

  ByteSink sink;
  set.encode_dense(sink, job_size);
  EXPECT_EQ(sink.size(), set.dense_wire_bytes(job_size));

  ByteSource source(sink.bytes());
  auto decoded = TaskSet::decode_dense(source, job_size);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), set);
  EXPECT_TRUE(source.exhausted());
}

TEST(DenseWire, MatchesRealBitVectorBytes) {
  const TaskSet set = fragmented_set();
  const std::uint32_t job_size = 5000;

  ByteSink from_set;
  set.encode_dense(from_set, job_size);
  ByteSink from_bits;
  DenseBitVector::from_task_set(set, job_size).encode(from_bits);

  ASSERT_EQ(from_set.size(), from_bits.size());
  const auto a = from_set.bytes();
  const auto b = from_bits.bytes();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "byte " << i;
  }
}

TEST(DenseWire, EmptySetRoundTrips) {
  const TaskSet set;
  ByteSink sink;
  set.encode_dense(sink, 64);
  EXPECT_EQ(sink.size(), set.dense_wire_bytes(64));
  ByteSource source(sink.bytes());
  auto decoded = TaskSet::decode_dense(source, 64);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), set);
}

// --- TaskSet: ranged wire ---------------------------------------------------

TEST(RangedWire, RoundTripAndExactSize) {
  for (const TaskSet& set :
       {fragmented_set(), TaskSet::single(0), TaskSet::single(UINT32_MAX),
        TaskSet::range(7, 7), TaskSet::range(0, 1 << 20), TaskSet{}}) {
    ByteSink sink;
    set.encode_ranged(sink);
    EXPECT_EQ(sink.size(), set.ranged_wire_bytes());

    ByteSource source(sink.bytes());
    auto decoded = TaskSet::decode_ranged(source);
    ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded.value(), set);
    EXPECT_TRUE(source.exhausted());
  }
}

// --- HierTaskSet: ranged wire -----------------------------------------------

HierTaskSet sample_hier() {
  HierTaskSet set;
  for (std::uint32_t local = 0; local < 8; ++local) set.insert(3, local);
  set.insert(17, 0);
  set.insert(17, 63);
  set.insert(900, 5);
  return set;
}

TEST(HierWire, RoundTripAndExactSize) {
  for (const HierTaskSet& set :
       {sample_hier(), HierTaskSet::single(0, 0), HierTaskSet{}}) {
    ByteSink sink;
    set.encode(sink);
    EXPECT_EQ(sink.size(), set.wire_bytes());

    ByteSource source(sink.bytes());
    auto decoded = HierTaskSet::decode(source);
    ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded.value(), set);
    EXPECT_TRUE(source.exhausted());
  }
}

TEST(HierWire, MergeThenRoundTrip) {
  HierTaskSet a = sample_hier();
  HierTaskSet b;
  b.insert(1, 2);
  b.insert(17, 12);
  a.merge(b);

  ByteSink sink;
  a.encode(sink);
  EXPECT_EQ(sink.size(), a.wire_bytes());
  ByteSource source(sink.bytes());
  auto decoded = HierTaskSet::decode(source);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), a);
}

// --- Arithmetic sizes vs the encoders ----------------------------------------

// ranged_body_bytes() and body_wire_bytes() count varints instead of
// encoding; they feed virtual time, so they must equal the encoders' output
// exactly, including varint-length boundaries and UINT32_MAX ends.
TEST(ArithmeticWireSize, MatchesEncoderForRandomSets) {
  Rng rng(20081115);
  const auto random_value = [&rng]() -> std::uint32_t {
    switch (rng.next_below(4)) {
      case 0: return static_cast<std::uint32_t>(rng.next_below(300));
      case 1: return UINT32_MAX - static_cast<std::uint32_t>(rng.next_below(300));
      case 2: {  // near a varint length boundary (2^7k)
        const std::uint32_t edge = 1u << (7 * (1 + rng.next_below(4)));
        return edge - 2 + static_cast<std::uint32_t>(rng.next_below(4));
      }
      default: return static_cast<std::uint32_t>(rng.next_u64());
    }
  };
  for (int round = 0; round < 400; ++round) {
    TaskSet set;
    HierTaskSet hier;
    const auto n = rng.next_below(12);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint32_t lo = random_value();
      const std::uint32_t hi =
          lo + std::min<std::uint32_t>(UINT32_MAX - lo, random_value() % 1000);
      set.insert_range(lo, hi);
      hier.insert(random_value(), lo);
      hier.insert(random_value(), hi);
    }
    ByteSink ranged;
    set.encode_ranged_body(ranged);
    EXPECT_EQ(set.ranged_body_bytes(), ranged.size());
    ByteSink body;
    hier.encode_body(body);
    EXPECT_EQ(hier.body_wire_bytes(), body.size());
  }
  TaskSet top = TaskSet::range(0, UINT32_MAX);
  ByteSink sink;
  top.encode_ranged_body(sink);
  EXPECT_EQ(top.ranged_body_bytes(), sink.size());
}

// --- PrefixTree: both label representations ---------------------------------

/// Small three-branch tree over an interned frame table.
template <typename Label, typename KeyFn>
PrefixTree<Label> sample_tree(app::FrameTable& frames, KeyFn key_for) {
  PrefixTree<Label> tree;
  const app::CallPath barrier =
      frames.make_path({"_start", "main", "MPI_Barrier", "poll"});
  const app::CallPath recv =
      frames.make_path({"_start", "main", "MPI_Recv", "poll"});
  const app::CallPath compute = frames.make_path({"_start", "main", "compute"});
  for (std::uint32_t t = 0; t < 60; ++t) tree.insert(barrier, key_for(t));
  tree.insert(recv, key_for(60));
  for (std::uint32_t t = 61; t < 64; ++t) tree.insert(compute, key_for(t));
  return tree;
}

TEST(TreeWire, GlobalTreeRoundTripAndExactSize) {
  app::FrameTable frames;
  GlobalTree tree = sample_tree<GlobalLabel>(
      frames, [](std::uint32_t t) { return t; });
  const LabelContext ctx{64};

  ByteSink sink;
  tree.encode(sink, frames, ctx);
  EXPECT_EQ(sink.size(), tree.wire_bytes(frames, ctx));

  // Decoding back through the same intern table must reproduce the tree
  // exactly (same FrameIds, labels, and structure).
  ByteSource source(sink.bytes());
  auto decoded = GlobalTree::decode(source, frames, ctx);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_TRUE(source.exhausted());
  EXPECT_EQ(decoded.value(), tree);
}

TEST(TreeWire, HierTreeRoundTripAndExactSize) {
  app::FrameTable frames;
  HierTree tree = sample_tree<HierLabel>(frames, [](std::uint32_t t) {
    return HierLabel::Key{t / 8, t % 8};
  });
  const LabelContext ctx{64};

  ByteSink sink;
  tree.encode(sink, frames, ctx);
  EXPECT_EQ(sink.size(), tree.wire_bytes(frames, ctx));

  ByteSource source(sink.bytes());
  auto decoded = HierTree::decode(source, frames, ctx);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_TRUE(source.exhausted());
  EXPECT_EQ(decoded.value(), tree);
}

TEST(TreeWire, FreshTableDecodePreservesStructureByName) {
  app::FrameTable frames;
  GlobalTree tree = sample_tree<GlobalLabel>(
      frames, [](std::uint32_t t) { return t; });
  const LabelContext ctx{64};
  ByteSink sink;
  tree.encode(sink, frames, ctx);

  // A receiver with its own (empty) intern table sees the same named shape.
  app::FrameTable fresh;
  ByteSource source(sink.bytes());
  auto decoded = GlobalTree::decode(source, fresh, ctx);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().node_count(), tree.node_count());
  EXPECT_EQ(decoded.value().depth(), tree.depth());
  std::vector<std::string> original_paths, decoded_paths;
  tree.visit([&](std::span<const FrameId> path, const auto&) {
    original_paths.push_back(frames.render(path));
  });
  decoded.value().visit([&](std::span<const FrameId> path, const auto&) {
    decoded_paths.push_back(fresh.render(path));
  });
  EXPECT_EQ(original_paths, decoded_paths);
}

TEST(TreeWire, EmptyTreeRoundTrips) {
  app::FrameTable frames;
  const GlobalTree tree;
  const LabelContext ctx{8};
  ByteSink sink;
  tree.encode(sink, frames, ctx);
  EXPECT_EQ(sink.size(), tree.wire_bytes(frames, ctx));
  ByteSource source(sink.bytes());
  auto decoded = GlobalTree::decode(source, frames, ctx);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded.value().empty());
}

// Encode -> decode -> encode must be byte-identical (canonical encoding).
TEST(TreeWire, ReEncodeIsByteIdentical) {
  app::FrameTable frames;
  GlobalTree tree = sample_tree<GlobalLabel>(
      frames, [](std::uint32_t t) { return t; });
  const LabelContext ctx{64};

  ByteSink first;
  tree.encode(first, frames, ctx);
  ByteSource source(first.bytes());
  auto decoded = GlobalTree::decode(source, frames, ctx);
  ASSERT_TRUE(decoded.is_ok());

  ByteSink second;
  decoded.value().encode(second, frames, ctx);
  ASSERT_EQ(first.size(), second.size());
  const auto a = first.bytes();
  const auto b = second.bytes();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "byte " << i;
  }
}

}  // namespace
}  // namespace petastat::stat
