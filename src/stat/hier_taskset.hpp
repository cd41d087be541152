// Hierarchical task lists: the optimized edge-label representation (Sec. V-B,
// Fig. 6b).
//
// Each analysis node only represents tasks within its own subtree, as a list
// of (daemon, daemon-local task indices) blocks. Merging along the tree is
// block concatenation (daemon ids are disjoint across sibling subtrees).
// Because compute nodes are not guaranteed to map to daemons in MPI rank
// order, the front end performs a final remap from (daemon, local index) to
// global MPI rank using the process-table map collected once at setup.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/serializer.hpp"
#include "common/status.hpp"
#include "machine/machine.hpp"
#include "stat/taskset.hpp"

namespace petastat::stat {

/// Per-subtree task membership: sorted (daemon, local-index set) blocks.
class HierTaskSet {
 public:
  struct Block {
    std::uint32_t daemon = 0;
    TaskSet local;  // daemon-local task indices
    friend bool operator==(const Block&, const Block&) = default;
  };

  HierTaskSet() = default;

  /// Singleton: local task `local_index` of `daemon`.
  static HierTaskSet single(std::uint32_t daemon, std::uint32_t local_index);

  /// Merge another subtree's membership into this one. Sibling subtrees
  /// cover disjoint daemons, so this is concatenation; same-daemon blocks
  /// (re-merging within one daemon) union their local sets. In place for a
  /// single-block operand and for a disjoint append; only a genuine
  /// interleave allocates a merged list.
  void merge(const HierTaskSet& other);

  /// In place; an insert into the last daemon's block touches only it.
  void insert(std::uint32_t daemon, std::uint32_t local_index);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] bool empty() const { return blocks_.empty(); }
  /// Releases spare capacity of the block list and every block's set.
  void shrink_to_fit() {
    blocks_.shrink_to_fit();
    for (Block& block : blocks_) block.local.shrink_to_fit();
  }
  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }

  friend bool operator==(const HierTaskSet&, const HierTaskSet&) = default;

  /// Wire format: version byte, varint block count, then per block varint
  /// daemon delta and the local set's ranged body. The *_body variants omit
  /// the version byte — the nested form prefix-tree labels embed inside the
  /// tree's versioned envelope.
  [[nodiscard]] std::uint64_t wire_bytes() const;
  void encode(ByteSink& sink) const;
  static Result<HierTaskSet> decode(ByteSource& source);
  /// Computed arithmetically (exactly what encode_body writes).
  [[nodiscard]] std::uint64_t body_wire_bytes() const;
  void encode_body(ByteSink& sink) const;
  static Result<HierTaskSet> decode_body(ByteSource& source);

 private:
  /// The block of `daemon`, created empty in sorted position if missing.
  Block& block_for(std::uint32_t daemon);

  std::vector<Block> blocks_;  // sorted by daemon
};

/// The process-table map: daemon + local index -> global MPI rank. The
/// paper's point is that this mapping is *not* guaranteed to follow rank
/// order, hence the explicit remap step at the front end; `shuffled()`
/// produces such an out-of-order assignment for testing and benching.
class TaskMap {
 public:
  /// Rank-ordered map: daemon d starts at d * tasks_per_daemon.
  static TaskMap identity(const machine::DaemonLayout& layout);

  /// Deterministically permuted daemon-to-rank-block assignment: daemons
  /// still own contiguous rank blocks, but block order is shuffled (the
  /// realistic "nodes not in MPI rank order" case).
  static TaskMap shuffled(const machine::DaemonLayout& layout,
                          std::uint64_t seed);

  [[nodiscard]] std::uint32_t global_rank(std::uint32_t daemon,
                                          std::uint32_t local_index) const;

  /// Remaps a hierarchical set to global MPI ranks (the Fig. 6b remap):
  /// every shifted interval is collected, sorted once and coalesced.
  [[nodiscard]] TaskSet remap(const HierTaskSet& hier) const;

  [[nodiscard]] std::uint32_t num_daemons() const {
    return static_cast<std::uint32_t>(base_rank_.size());
  }

 private:
  std::vector<std::uint32_t> base_rank_;  // per daemon
};

}  // namespace petastat::stat
