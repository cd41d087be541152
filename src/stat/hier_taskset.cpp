#include "stat/hier_taskset.hpp"

#include <algorithm>
#include <numeric>

namespace petastat::stat {

HierTaskSet HierTaskSet::single(std::uint32_t daemon,
                                std::uint32_t local_index) {
  HierTaskSet s;
  s.blocks_.push_back({daemon, TaskSet::single(local_index)});
  return s;
}

HierTaskSet::Block& HierTaskSet::block_for(std::uint32_t daemon) {
  // Tail fast path: a daemon's own labels hold one block, and TBON folds
  // visit daemons in ascending order.
  if (blocks_.empty() || blocks_.back().daemon < daemon) {
    return blocks_.emplace_back(Block{daemon, {}});
  }
  if (blocks_.back().daemon == daemon) return blocks_.back();
  auto it = std::lower_bound(blocks_.begin(), blocks_.end(), daemon,
                             [](const Block& b, std::uint32_t d) {
                               return b.daemon < d;
                             });
  if (it != blocks_.end() && it->daemon == daemon) return *it;
  return *blocks_.insert(it, Block{daemon, {}});
}

void HierTaskSet::insert(std::uint32_t daemon, std::uint32_t local_index) {
  block_for(daemon).local.insert(local_index);
}

void HierTaskSet::merge(const HierTaskSet& other) {
  if (other.blocks_.empty()) return;
  if (blocks_.empty()) {
    blocks_ = other.blocks_;
    return;
  }
  // In place for one block, and for the disjoint append TBON folds produce
  // (`other` starts at or past our last daemon): each block lands on the
  // tail.
  if (other.blocks_.size() == 1 ||
      other.blocks_.front().daemon >= blocks_.back().daemon) {
    for (const Block& block : other.blocks_) {
      block_for(block.daemon).local.union_with(block.local);
    }
    return;
  }
  // Genuine interleave: two-pointer merge into a fresh list.
  std::vector<Block> result;
  result.reserve(blocks_.size() + other.blocks_.size());
  std::size_t i = 0, j = 0;
  while (i < blocks_.size() || j < other.blocks_.size()) {
    if (j >= other.blocks_.size()) {
      result.push_back(std::move(blocks_[i++]));
    } else if (i >= blocks_.size()) {
      result.push_back(other.blocks_[j++]);
    } else if (blocks_[i].daemon < other.blocks_[j].daemon) {
      result.push_back(std::move(blocks_[i++]));
    } else if (other.blocks_[j].daemon < blocks_[i].daemon) {
      result.push_back(other.blocks_[j++]);
    } else {
      Block merged = std::move(blocks_[i++]);
      merged.local.union_with(other.blocks_[j++].local);
      result.push_back(std::move(merged));
    }
  }
  blocks_ = std::move(result);
}

std::uint64_t HierTaskSet::count() const {
  return std::accumulate(blocks_.begin(), blocks_.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const Block& b) {
                           return acc + b.local.count();
                         });
}

std::uint64_t HierTaskSet::wire_bytes() const {
  return 1 + body_wire_bytes();  // version byte + body
}

void HierTaskSet::encode(ByteSink& sink) const {
  put_wire_version(sink);
  encode_body(sink);
}

Result<HierTaskSet> HierTaskSet::decode(ByteSource& source) {
  if (auto s = check_wire_version(source); !s.is_ok()) return s;
  return decode_body(source);
}

std::uint64_t HierTaskSet::body_wire_bytes() const {
  // Arithmetic twin of encode_body: the same varints, only counted.
  std::uint64_t bytes = varint_bytes(blocks_.size());
  std::uint32_t prev = 0;
  bool first = true;
  for (const auto& block : blocks_) {
    bytes += varint_bytes(first ? block.daemon : block.daemon - prev - 1);
    bytes += block.local.ranged_body_bytes();
    prev = block.daemon;
    first = false;
  }
  return bytes;
}

void HierTaskSet::encode_body(ByteSink& sink) const {
  sink.put_varint(blocks_.size());
  std::uint32_t prev = 0;
  bool first = true;
  for (const auto& block : blocks_) {
    sink.put_varint(first ? block.daemon : block.daemon - prev - 1);
    block.local.encode_ranged_body(sink);
    prev = block.daemon;
    first = false;
  }
}

Result<HierTaskSet> HierTaskSet::decode_body(ByteSource& source) {
  std::uint64_t n = 0;
  if (auto s = source.get_varint(n); !s.is_ok()) return s;
  HierTaskSet set;
  set.blocks_.reserve(source.clamped_count(n));
  std::uint64_t cursor = 0;
  bool first = true;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t delta = 0;
    if (auto s = source.get_varint(delta); !s.is_ok()) return s;
    if (delta > UINT32_MAX) return invalid_argument("daemon id overflow");
    const std::uint64_t daemon = first ? delta : cursor + 1 + delta;
    if (daemon > UINT32_MAX) return invalid_argument("daemon id overflow");
    auto local = TaskSet::decode_ranged_body(source);
    if (!local.is_ok()) return local.status();
    set.blocks_.push_back(
        {static_cast<std::uint32_t>(daemon), std::move(local).value()});
    cursor = daemon;
    first = false;
  }
  return set;
}

// ---------------------------------------------------------------------------
// TaskMap

TaskMap TaskMap::identity(const machine::DaemonLayout& layout) {
  TaskMap map;
  map.base_rank_.resize(layout.num_daemons);
  for (std::uint32_t d = 0; d < layout.num_daemons; ++d) {
    map.base_rank_[d] = layout.first_task_of(DaemonId(d));
  }
  return map;
}

TaskMap TaskMap::shuffled(const machine::DaemonLayout& layout,
                          std::uint64_t seed) {
  // Permute which rank block each daemon owns. All daemons except possibly
  // the last serve exactly tasks_per_daemon ranks; to keep block sizes
  // aligned under permutation, the (short) last daemon keeps its block.
  TaskMap map = identity(layout);
  Rng rng(seed, /*stream_id=*/0x3a9);
  const std::uint32_t n = layout.num_daemons;
  const std::uint32_t full =
      (layout.num_tasks % layout.tasks_per_daemon == 0) ? n : n - 1;
  for (std::uint32_t i = full; i > 1; --i) {
    const auto j = static_cast<std::uint32_t>(rng.next_below(i));
    std::swap(map.base_rank_[i - 1], map.base_rank_[j]);
  }
  return map;
}

std::uint32_t TaskMap::global_rank(std::uint32_t daemon,
                                   std::uint32_t local_index) const {
  check(daemon < base_rank_.size(), "TaskMap::global_rank unknown daemon");
  return base_rank_[daemon] + local_index;
}

TaskSet TaskMap::remap(const HierTaskSet& hier) const {
  // Each local interval maps to one global interval shifted by its block's
  // base (daemons own contiguous rank blocks). Shuffled daemons leave the
  // shifted intervals out of order: collect them all, then sort once.
  std::vector<TaskSet::Interval> shifted;
  for (const auto& block : hier.blocks()) {
    check(block.daemon < base_rank_.size(), "TaskMap::remap unknown daemon");
    const std::uint32_t base = base_rank_[block.daemon];
    for (const auto& iv : block.local.intervals()) {
      shifted.push_back({base + iv.lo, base + iv.hi});
    }
  }
  return TaskSet::from_intervals(std::move(shifted));
}

}  // namespace petastat::stat
