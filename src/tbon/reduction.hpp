// Upstream reduction over a TbonTopology: the one engine behind STAT's merge
// phase, the streaming rounds of --stream, and the STATBench emulation.
//
// Every leaf (daemon) packs its payload and sends it to its parent; each
// comm process merges child payloads *as they arrive* (MRNet filters are
// streaming) and forwards one merged payload upward; the front end's merged
// payload completes the round. A Reduction persists across rounds: the tree
// structure (parents, children, dead procs, re-parented leaves) and any
// caches live on, and run_round() merges one round of leaf payloads. A batch
// merge is a single round.
//
// Payload is a template parameter; ReduceOps supplies the real merge (the
// STAT filter runs actual prefix-tree merges here) plus wire-size and CPU
// accounting. Network transfers and per-proc CPU serialization are modelled
// with real contention: a comm process with 28 children unpacks/merges them
// one after another on its core, and its NIC drains them one after another.
//
// Delta protocol (streaming rounds; on when ReduceOps::signature_cpu is
// set). Each round every daemon hashes its fresh payload: an unchanged
// daemon acknowledges with a bare DeltaHeader, a changed one sends its packed
// payload behind the header. Every internal proc keeps a per-child cache of
// the last payload it received; a proc with a changed child is *dirty* — it
// re-merges the changed arrivals (codec + merge per arrival) plus its cached
// copies of the unchanged children (ReduceOps::cached_merge_cpu, no codec)
// and forwards the re-merged payload. A proc whose children all acknowledged
// forwards an ack itself, and the front end answers a clean round from its
// cached accumulator. Without the protocol every round sends every payload
// in full, every proc re-merges, and nothing is cached between rounds. The
// prefix-tree merge is canonical (order-independent and associative), so
// either way a round's result is bit-identical to a from-scratch merge —
// set_full_remerge(true) drives the protocol through the full path for
// exactly that comparison.
//
// Execution engine: the modelled CPU cost of a merge (merge_cpu) is a
// function of the incoming payload alone, so all virtual timestamps are
// fixed on the simulator thread at arrival — the *real* structural merge
// only has to be finished by the time the proc forwards its accumulator.
// With a parallel sim::Executor, each proc's merges run on a per-proc strand
// (serialized in arrival order, exactly as the proc's single modelled core
// would) while independent sibling subtrees merge concurrently on other
// workers; the forward event wait()s on the strand before reading the
// accumulator. Timestamps, merge order, and therefore results are
// bit-identical to a serial run.
//
// Failure model: mark_dead(proc) makes a proc drop every subsequent arrival
// and never forward; recover(proc) — normally driven by a HealthMonitor
// detection through the TriggerManager — acts at once. It re-parents the
// corpse's orphaned leaves round-robin onto the nearest alive ancestor's
// surviving non-leaf children (the ancestor itself when it has none),
// detaches the dead branch, marks daemons under a dead leaf as lost and
// invalidates the caches the edit touches, so every later round equals a
// from-scratch merge of the survivors. When a round is in flight it also
// re-sends the orphans' retained payloads to their adopters, re-opening
// adopters that already forwarded, so only the lost subtree moves again.
// All recovery timestamps are fixed on the simulator thread, so the
// determinism contract holds at any thread count.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "sim/executor.hpp"
#include "sim/simulator.hpp"
#include "tbon/topology.hpp"

namespace petastat::tbon {

template <typename Payload>
struct ReduceOps {
  /// Modelled CPU cost of merging `child` into an accumulator. Streaming
  /// filters charge per arrival, so the cost may depend only on the child —
  /// this is what lets the real merge run off the simulator thread.
  std::function<SimTime(const Payload& child)> merge_cpu;
  /// The real merge (acc starts default-constructed at every internal proc).
  std::function<void(Payload& acc, const Payload& child)> merge_into;
  /// Real serialized size of a payload.
  std::function<std::uint64_t(const Payload&)> wire_bytes;
  /// CPU to pack or unpack `bytes` of payload.
  std::function<SimTime(std::uint64_t bytes)> codec_cost;

  // --- Delta protocol: leave signature_cpu empty for plain full rounds. ---
  /// Header bytes leading every upward message; an ack is the bare header.
  std::uint64_t header_bytes = 0;
  /// Daemon CPU to fold a payload into its class-signature hash — paid
  /// every round whether or not anything changed.
  std::function<SimTime(const Payload&)> signature_cpu;
  /// Proc CPU to re-merge one *cached* child payload (no unpack codec).
  std::function<SimTime(const Payload&)> cached_merge_cpu;
  /// CPU to encode or decode one ack — a control packet, an order of
  /// magnitude below the merge codec's per-packet charge.
  SimTime ack_cpu = 0;
};

/// What one round produced.
template <typename Payload>
struct ReduceResult {
  /// The front end's merged payload (served from its cache when `changed`
  /// is false).
  Payload payload{};
  /// False when every subtree acknowledged and no payload moved to the FE.
  bool changed = true;
  SimTime finished_at = 0;
  std::uint64_t bytes_moved = 0;  // all network traffic during the round
  std::uint64_t messages = 0;
  std::uint32_t changed_daemons = 0;
  std::uint32_t remerged_procs = 0;  // dirty non-leaf procs (incl. the FE)
  std::uint32_t cached_procs = 0;    // clean non-leaf procs (incl. the FE)
};

/// What recover() did for one dead proc.
struct RecoveryReport {
  /// False when there was nothing to do: the proc was the front end, had no
  /// alive ancestor, or already forwarded its payload in the round in flight
  /// (death after contribution costs that round nothing; the structure is
  /// still repaired for later rounds).
  bool acted = false;
  /// Daemons re-parented onto adopters (mid-round: and re-sent from their
  /// retained payloads).
  std::uint32_t orphan_daemons = 0;
  /// Surviving procs the orphans were folded into.
  std::uint32_t adopters = 0;
  /// Daemons under the corpse whose data could not be recovered (their leaf
  /// proc died too, or — mid-round — retention was off).
  std::uint32_t lost_daemons = 0;
};

/// The persistent round-based upward merge. Leaf payloads are indexed by
/// daemon id. `executor` may be null (serial); a parallel executor must
/// outlive the reduction.
template <typename Payload>
class Reduction {
 public:
  Reduction(sim::Simulator& simulator, net::Network& network,
            const TbonTopology& topology, ReduceOps<Payload> ops,
            sim::Executor* executor = nullptr)
      : sim_(simulator),
        net_(network),
        topo_(topology),
        ops_(std::move(ops)),
        executor_(executor),
        delta_(ops_.signature_cpu != nullptr) {
    const std::size_t n = topo_.procs.size();
    parent_of_.resize(n);
    children_of_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      parent_of_[i] = topo_.procs[i].parent;
      children_of_[i] = topo_.procs[i].children;
    }
    dead_.assign(n, false);
    recovered_.assign(n, false);
    last_contrib_.resize(n);
    caches_.resize(n);
    strands_.resize(n);
    const std::size_t daemons = topo_.leaf_of_daemon.size();
    dead_daemons_.assign(daemons, false);
    kept_.resize(daemons);
    force_full_daemon_.assign(daemons, false);
  }

  /// Daemons flagged here never send, and a proc whose whole subtree is dead
  /// forwards nothing (its parent does not wait for it). Call before the
  /// first round. At least one daemon must stay alive.
  void set_dead_daemons(std::vector<bool> dead) {
    check(dead.empty() || dead.size() == topo_.leaf_of_daemon.size(),
          "Reduction dead-daemon mask size != daemon count");
    if (!dead.empty()) dead_daemons_ = std::move(dead);
  }

  /// Keep every leaf payload so a mid-round recover() can re-send orphaned
  /// shards. The delta protocol keeps them anyway (they are its change
  /// baselines); a plain merge should enable this only when a kill is armed.
  void set_retain_payloads(bool retain) { retain_ = retain; }

  /// Disable every cache: all daemons send full payloads, all procs
  /// re-merge, every round — the from-scratch baseline through the same
  /// code path, for bit-identity checks and the incremental-vs-full bench.
  void set_full_remerge(bool full) { full_remerge_ = full; }

  /// Injected dead daemons plus those lost to failure (their leaf proc
  /// died), which count as dead from the moment recover() finds them.
  [[nodiscard]] const std::vector<bool>& dead_daemons() const {
    return dead_daemons_;
  }

  /// Per daemon: the leaf holds a baseline payload for the delta protocol.
  /// Recorded into a SessionCheckpoint at round boundaries; a restored run
  /// starts cold (first resumed round is a full merge) so the bits document
  /// warmth, they are not replayed.
  [[nodiscard]] std::vector<bool> daemon_cache_valid() const {
    std::vector<bool> valid(kept_.size(), false);
    for (std::size_t d = 0; d < kept_.size(); ++d) {
      valid[d] = kept_[d] != nullptr;
    }
    return valid;
  }

  /// Per proc: every child that contributed last round has a cached payload
  /// (a clean round can be answered from cache). Leaves report false — they
  /// hold no child caches.
  [[nodiscard]] std::vector<bool> proc_cache_complete() const {
    std::vector<bool> complete(caches_.size(), false);
    for (std::size_t i = 0; i < caches_.size(); ++i) {
      if (topo_.procs[i].is_leaf() || last_contrib_[i].empty()) continue;
      complete[i] = std::all_of(
          last_contrib_[i].begin(), last_contrib_[i].end(),
          [&](std::uint32_t child) { return caches_[i].count(child) != 0; });
    }
    return complete;
  }

  /// Runs one round: merges the per-daemon payloads (incrementally under the
  /// delta protocol). `cursor` is the sample index the round's DeltaHeaders
  /// carry; only their size is modelled. `done` fires at the front end's
  /// completion time. Rounds are strictly sequential — do not call again
  /// before `done`.
  void run_round([[maybe_unused]] std::uint32_t cursor,
                 std::vector<Payload> leaf_payloads,
                 std::function<void(ReduceResult<Payload>)> done) {
    check(leaf_payloads.size() == topo_.leaf_of_daemon.size(),
          "Reduction::run_round payload count != daemon count");
    check(!in_flight(), "Reduction::run_round while a round is in flight");

    auto round = std::make_shared<Round>();
    round_ = round;
    round->done = std::move(done);
    round->bytes_at_start = net_.total_bytes_moved();
    round->messages_at_start = net_.total_messages();
    round->procs.resize(topo_.procs.size());
    mark_contributing(*round, 0);
    check(round->procs[0].contributes,
          "Reduction::run_round with no reachable daemon");

    const bool full = full_remerge_ || !delta_;
    const bool threaded = executor_ != nullptr && executor_->parallel();
    for (std::size_t i = 0; i < topo_.procs.size(); ++i) {
      RoundProc& rp = round->procs[i];
      rp.cpu_free_at = sim_.now();
      if (!rp.contributes || topo_.procs[i].is_leaf()) continue;
      std::vector<std::uint32_t> contrib;
      for (const std::uint32_t child : children_of_[i]) {
        if (round->procs[child].contributes) contrib.push_back(child);
      }
      rp.pending = contrib.size();
      // A changed contributing-child composition (death, adoption) makes the
      // cached accumulator meaningless: force a full re-merge this round.
      rp.dirty = full || contrib != last_contrib_[i];
      last_contrib_[i] = std::move(contrib);
      if (threaded && strands_[i] == nullptr) {
        strands_[i] = std::make_unique<sim::Executor::Strand>(*executor_);
      }
    }

    // Leaves hash (delta protocol), pack and send, in daemon order. Each
    // send's target is fixed now: a recovery that re-parents the leaf
    // mid-round re-sends its payload itself.
    for (std::uint32_t d = 0; d < topo_.leaf_of_daemon.size(); ++d) {
      if (dead_daemons_[d]) continue;
      const std::uint32_t leaf = topo_.leaf_of_daemon[d];
      if (!round->procs[leaf].contributes) continue;  // unreachable this round
      const auto parent = static_cast<std::uint32_t>(parent_of_[leaf]);
      Payload payload = std::move(leaf_payloads[d]);
      const SimTime sig = delta_ ? ops_.signature_cpu(payload) : 0;
      const bool changed = full || force_full_daemon_[d] ||
                           kept_[d] == nullptr || !(payload == *kept_[d]);
      if (!changed) {
        sim_.schedule_at(sim_.now() + sig + ops_.ack_cpu,
                         [this, round, leaf, parent]() {
                           send_ack(round, leaf, parent);
                         });
        continue;
      }
      auto kept = std::make_shared<const Payload>(std::move(payload));
      if (delta_ || retain_) kept_[d] = kept;
      force_full_daemon_[d] = false;
      ++round->changed_daemons;
      const std::uint64_t wire = ops_.header_bytes + ops_.wire_bytes(*kept);
      sim_.schedule_at(sim_.now() + sig + ops_.codec_cost(wire),
                       [this, round, leaf, parent, kept, wire]() {
                         send_payload(round, leaf, parent, kept, wire,
                                      /*supplement=*/false);
                       });
    }
  }

  /// Marks a proc dead at the current virtual time: it drops every arrival
  /// from now on and never forwards. Detection and re-routing are the health
  /// monitor's and trigger manager's business.
  void mark_dead(std::uint32_t proc_index) { dead_[proc_index] = true; }

  /// Repairs the tree around a dead proc at once (see the failure model
  /// above). Idempotent per proc.
  RecoveryReport recover(std::uint32_t proc_index) {
    RecoveryReport report;
    check(dead_[proc_index], "Reduction::recover on a live proc");
    if (parent_of_[proc_index] < 0) return report;  // FE: no recovery
    if (recovered_[proc_index]) return report;
    recovered_[proc_index] = true;

    // Nearest alive ancestor adopts; branch_child is its dead child on the
    // path down to the corpse, which will never deliver.
    std::uint32_t branch_child = proc_index;
    auto ancestor = static_cast<std::uint32_t>(parent_of_[proc_index]);
    while (dead_[ancestor] && parent_of_[ancestor] >= 0) {
      branch_child = ancestor;
      ancestor = static_cast<std::uint32_t>(parent_of_[ancestor]);
    }
    if (dead_[ancestor]) return report;  // dead all the way up
    const std::shared_ptr<Round> round = in_flight() ? round_ : nullptr;
    report.acted = round == nullptr || !round->procs[proc_index].forwarded;

    // The ancestor's composition changes: the dead branch is detached and
    // its cached payload dropped (the composition check in run_round forces
    // the ancestor dirty next round) — unless the branch delivered to the
    // round in flight, which may still fold that copy.
    detach_child(ancestor, branch_child);
    if (round == nullptr || !round->procs[branch_child].forwarded) {
      caches_[ancestor].erase(branch_child);
    }

    // Sort the corpse's daemons into orphans and lost ones.
    std::vector<std::uint32_t> orphans;
    std::uint32_t lost = 0;
    for (std::uint32_t d = 0; d < topo_.leaf_of_daemon.size(); ++d) {
      if (dead_daemons_[d]) continue;
      const std::uint32_t leaf = topo_.leaf_of_daemon[d];
      if (!under(leaf, proc_index)) continue;
      if (dead_[leaf]) {
        dead_daemons_[d] = true;  // unreachable for every later round
        ++lost;
      } else {
        orphans.push_back(d);
      }
    }

    std::vector<std::uint32_t> adopters;
    if (!orphans.empty()) {
      for (const std::uint32_t child : children_of_[ancestor]) {
        if (topo_.procs[child].is_leaf() || dead_[child]) continue;
        adopters.push_back(child);
      }
      if (adopters.empty()) adopters.push_back(ancestor);
    }
    // Orphan leaves re-parent round-robin in daemon order — deterministic at
    // any thread count. The adopter holds no cache for an adopted leaf, so
    // the leaf must send a full payload next round.
    for (std::size_t i = 0; i < orphans.size(); ++i) {
      const std::uint32_t leaf = topo_.leaf_of_daemon[orphans[i]];
      const std::uint32_t target = adopters[i % adopters.size()];
      detach_child(static_cast<std::uint32_t>(parent_of_[leaf]), leaf);
      parent_of_[leaf] = static_cast<std::int32_t>(target);
      children_of_[target].push_back(leaf);
      force_full_daemon_[orphans[i]] = true;
    }
    if (!report.acted) return report;
    report.orphan_daemons = static_cast<std::uint32_t>(orphans.size());
    report.adopters = static_cast<std::uint32_t>(adopters.size());
    report.lost_daemons = lost;
    if (round != nullptr) {
      rescue(round, ancestor, branch_child, orphans, adopters, report);
    }
    return report;
  }

 private:
  struct RoundProc {
    Payload acc{};
    std::size_t pending = 0;
    SimTime cpu_free_at = 0;
    bool contributes = false;  // subtree holds at least one reachable daemon
    bool dirty = false;
    bool forwarded = false;  // sent its (first) payload or ack up
    // Bumped when recovery re-opens the proc for orphan arrivals: forward
    // events capture the epoch they were scheduled under and abort when it
    // moved, so a chain in flight across a re-open cannot forward a stale
    // (or already-drained) accumulator a second time.
    std::uint32_t epoch = 0;
    std::vector<std::uint32_t> acked;  // children that acknowledged
    sim::Executor::TaskRef last_merge;
  };
  struct Round {
    bool completed = false;
    std::vector<RoundProc> procs;
    std::uint64_t bytes_at_start = 0;
    std::uint64_t messages_at_start = 0;
    std::uint32_t changed_daemons = 0;
    std::uint32_t remerged_procs = 0;
    std::uint32_t cached_procs = 0;
    std::function<void(ReduceResult<Payload>)> done;
  };

  [[nodiscard]] bool in_flight() const {
    return round_ != nullptr && !round_->completed;
  }

  /// The mid-round half of recover(): the ancestor stops waiting for the
  /// dead branch, the adopters re-open for the orphans, and the orphan
  /// leaves re-pack their retained payloads and send them to the adopters.
  void rescue(const std::shared_ptr<Round>& round, std::uint32_t ancestor,
              std::uint32_t branch_child,
              const std::vector<std::uint32_t>& orphans,
              const std::vector<std::uint32_t>& adopters,
              RecoveryReport& report) {
    RoundProc& gs = round->procs[ancestor];
    const RoundProc& bs = round->procs[branch_child];
    if (bs.contributes && !bs.forwarded) {
      check(gs.pending > 0, "Reduction::recover ancestor not waiting");
      --gs.pending;
    }
    gs.dirty = true;  // its subtree changed under it

    // Orphans this round reached re-send their retained payloads; without a
    // copy they are lost to it.
    std::vector<std::size_t> extra(adopters.size(), 0);
    std::vector<std::size_t> resend;  // indices into orphans
    for (std::size_t i = 0; i < orphans.size(); ++i) {
      if (!round->procs[topo_.leaf_of_daemon[orphans[i]]].contributes) continue;
      if (kept_[orphans[i]] == nullptr) {
        --report.orphan_daemons;
        ++report.lost_daemons;
        continue;
      }
      ++extra[i % adopters.size()];
      resend.push_back(i);
    }
    // Open the adopters up for the re-sent arrivals. An adopter that already
    // forwarded (or never counted) will produce a supplement payload the
    // ancestor is not yet waiting for.
    for (std::size_t a = 0; a < adopters.size(); ++a) {
      if (extra[a] == 0) continue;
      RoundProc& as = round->procs[adopters[a]];
      if (adopters[a] != ancestor && (as.forwarded || !as.contributes)) {
        ++gs.pending;
      }
      as.contributes = true;
      as.pending += extra[a];
      ++as.epoch;  // invalidate any forward chain scheduled before re-open
    }

    for (const std::size_t i : resend) {
      const std::shared_ptr<const Payload>& kept = kept_[orphans[i]];
      const std::uint32_t leaf = topo_.leaf_of_daemon[orphans[i]];
      const std::uint32_t target = adopters[i % adopters.size()];
      const std::uint64_t wire = ops_.header_bytes + ops_.wire_bytes(*kept);
      sim_.schedule_at(sim_.now() + ops_.codec_cost(wire),
                       [this, round, leaf, target, kept, wire]() {
                         send_payload(round, leaf, target, kept, wire,
                                      /*supplement=*/false);
                       });
    }

    // All the corpse held may already be accounted for (or lost): the
    // ancestor might be complete right now.
    if (gs.pending == 0 && !gs.forwarded) finish(round, ancestor);
  }

  /// Computes RoundProc::contributes for the subtree rooted at proc_index:
  /// one visit per proc (a leaf's own daemon decides it).
  bool mark_contributing(Round& round, std::uint32_t proc_index) {
    if (dead_[proc_index]) return false;
    const auto& proc = topo_.procs[proc_index];
    bool contributes = false;
    if (proc.is_leaf()) {
      contributes = !dead_daemons_[proc.daemon.value()];
    } else {
      for (const std::uint32_t child : children_of_[proc_index]) {
        if (mark_contributing(round, child)) contributes = true;
      }
    }
    round.procs[proc_index].contributes = contributes;
    return contributes;
  }

  void detach_child(std::uint32_t parent, std::uint32_t child) {
    auto& kids = children_of_[parent];
    kids.erase(std::remove(kids.begin(), kids.end(), child), kids.end());
  }

  [[nodiscard]] bool under(std::uint32_t proc_index,
                           std::uint32_t ancestor) const {
    std::int32_t walk = static_cast<std::int32_t>(proc_index);
    while (walk >= 0) {
      if (static_cast<std::uint32_t>(walk) == ancestor) return true;
      walk = parent_of_[static_cast<std::uint32_t>(walk)];
    }
    return false;
  }

  /// A forward scheduled under `epoch` that must not fire any more: the
  /// proc died, or recovery re-opened it in between.
  [[nodiscard]] bool stale(const Round& round, std::uint32_t proc_index,
                           std::uint32_t epoch) const {
    const RoundProc& rp = round.procs[proc_index];
    return dead_[proc_index] || rp.pending != 0 || rp.epoch != epoch;
  }

  /// `supplement`: a re-opened proc's second forward this round — merged by
  /// the target but never cached as the sender's whole subtree.
  void send_payload(const std::shared_ptr<Round>& round, std::uint32_t from,
                    std::uint32_t to, std::shared_ptr<const Payload> payload,
                    std::uint64_t wire, bool supplement) {
    if (dead_[from]) return;  // died between scheduling and the send event
    round->procs[from].forwarded = true;
    net_.transfer_async(
        topo_.procs[from].host, topo_.procs[to].host, wire,
        [this, round, from, to, payload = std::move(payload), wire,
         supplement]() {
          receive_payload(round, to, from, payload, wire, supplement);
        });
  }

  void send_ack(const std::shared_ptr<Round>& round, std::uint32_t from,
                std::uint32_t to) {
    if (dead_[from]) return;
    RoundProc& rp = round->procs[from];
    rp.forwarded = true;
    rp.acked.clear();  // represented by the parent's cache from now on
    net_.transfer_async(topo_.procs[from].host, topo_.procs[to].host,
                        ops_.header_bytes, [this, round, from, to]() {
                          receive_ack(round, to, from);
                        });
  }

  void receive_payload(const std::shared_ptr<Round>& round,
                       std::uint32_t proc_index, std::uint32_t from,
                       const std::shared_ptr<const Payload>& payload,
                       std::uint64_t wire, bool supplement) {
    if (dead_[proc_index]) return;  // arrivals at a corpse vanish
    RoundProc& rp = round->procs[proc_index];
    check(rp.pending > 0, "Reduction::receive with no pending children");
    // The proc's single core unpacks and merges arrivals serially: all
    // timestamps are fixed here, before any real merge work runs.
    const SimTime cpu = ops_.codec_cost(wire) + ops_.merge_cpu(*payload);
    rp.cpu_free_at = std::max(sim_.now(), rp.cpu_free_at) + cpu;
    --rp.pending;
    rp.dirty = true;
    if (delta_ && !supplement) caches_[proc_index][from] = payload;
    merge_in(round, proc_index, payload);
    if (rp.pending == 0) finish(round, proc_index);
  }

  void receive_ack(const std::shared_ptr<Round>& round,
                   std::uint32_t proc_index, std::uint32_t from) {
    if (dead_[proc_index]) return;
    RoundProc& rp = round->procs[proc_index];
    check(rp.pending > 0, "Reduction::receive with no pending children");
    rp.cpu_free_at = std::max(sim_.now(), rp.cpu_free_at) + ops_.ack_cpu;
    --rp.pending;
    rp.acked.push_back(from);
    if (rp.pending == 0) finish(round, proc_index);
  }

  /// The real merge: serialized per proc (arrival order), concurrent across
  /// sibling subtrees.
  void merge_in(const std::shared_ptr<Round>& round, std::uint32_t proc_index,
                std::shared_ptr<const Payload> child) {
    RoundProc& rp = round->procs[proc_index];
    if (strands_[proc_index] != nullptr) {
      rp.last_merge = strands_[proc_index]->run(
          [this, round, proc_index, child = std::move(child)]() {
            ops_.merge_into(round->procs[proc_index].acc, *child);
          });
    } else {
      ops_.merge_into(rp.acc, *child);
    }
  }

  /// All children accounted for. A clean proc forwards an ack (the front
  /// end completes the round from its cache). A dirty proc folds its cached
  /// copies of the acknowledged children (in ack arrival order); when the
  /// modelled core frees up it collects the real accumulator (waiting out
  /// any in-flight merge), then packs and forwards it. Every forward event
  /// re-checks staleness — recovery may re-open the proc in between, after
  /// which the drain back to zero pending runs a fresh chain and this one
  /// must die. The forward leaves a fresh accumulator behind so a later
  /// supplement forward starts clean.
  void finish(const std::shared_ptr<Round>& round, std::uint32_t proc_index) {
    RoundProc& rp = round->procs[proc_index];
    const std::uint32_t epoch = rp.epoch;
    if (!rp.dirty) {
      ++round->cached_procs;
      if (parent_of_[proc_index] < 0) {
        complete(round, /*changed=*/false);
        return;
      }
      const SimTime at = std::max(sim_.now(), rp.cpu_free_at) + ops_.ack_cpu;
      sim_.schedule_at(at, [this, round, proc_index, epoch]() {
        if (stale(*round, proc_index, epoch)) return;
        send_ack(round, proc_index,
                 static_cast<std::uint32_t>(parent_of_[proc_index]));
      });
      return;
    }

    ++round->remerged_procs;
    for (const std::uint32_t child : rp.acked) {
      const std::shared_ptr<const Payload>& kept =
          caches_[proc_index].at(child);
      rp.cpu_free_at = std::max(sim_.now(), rp.cpu_free_at) +
                       ops_.cached_merge_cpu(*kept);
      merge_in(round, proc_index, kept);
    }
    rp.acked.clear();
    const SimTime at = std::max(sim_.now(), rp.cpu_free_at);
    sim_.schedule_at(at, [this, round, proc_index, epoch]() {
      if (stale(*round, proc_index, epoch)) return;
      RoundProc& finished = round->procs[proc_index];
      if (executor_) executor_->wait(finished.last_merge);
      const bool root = parent_of_[proc_index] < 0;
      const std::uint64_t wire =
          (root ? 0 : ops_.header_bytes) + ops_.wire_bytes(finished.acc);
      const SimTime packed_at = sim_.now() + ops_.codec_cost(wire);
      sim_.schedule_at(packed_at, [this, round, proc_index, epoch, wire]() {
        if (stale(*round, proc_index, epoch)) return;
        if (parent_of_[proc_index] < 0) {
          complete(round, /*changed=*/true);
          return;
        }
        RoundProc& ready = round->procs[proc_index];
        auto out = std::make_shared<const Payload>(std::move(ready.acc));
        ready.acc = Payload{};
        send_payload(round, proc_index,
                     static_cast<std::uint32_t>(parent_of_[proc_index]),
                     std::move(out), wire, /*supplement=*/ready.forwarded);
      });
    });
  }

  void complete(const std::shared_ptr<Round>& round, bool changed) {
    round->completed = true;
    ReduceResult<Payload> result;
    Payload& merged = round->procs[0].acc;
    if (!delta_) {
      result.payload = std::move(merged);
    } else {
      if (changed) {
        last_out_ = std::make_shared<const Payload>(std::move(merged));
      }
      check(last_out_ != nullptr,
            "Reduction: clean round before any merged round");
      result.payload = *last_out_;
    }
    result.changed = changed;
    result.finished_at = sim_.now();
    result.bytes_moved = net_.total_bytes_moved() - round->bytes_at_start;
    result.messages = net_.total_messages() - round->messages_at_start;
    result.changed_daemons = round->changed_daemons;
    result.remerged_procs = round->remerged_procs;
    result.cached_procs = round->cached_procs;
    if (round->done) round->done(std::move(result));
  }

  sim::Simulator& sim_;
  net::Network& net_;
  const TbonTopology& topo_;
  ReduceOps<Payload> ops_;
  sim::Executor* executor_;
  const bool delta_;  // the delta protocol is on (ops carry a signature)
  bool retain_ = false;
  bool full_remerge_ = false;

  // Effective tree structure (recovery re-parents orphan leaves here).
  std::vector<std::int32_t> parent_of_;
  std::vector<std::vector<std::uint32_t>> children_of_;
  std::vector<bool> dead_;
  std::vector<bool> recovered_;
  std::vector<bool> dead_daemons_;  // injected dead + lost-to-failure

  // State surviving across rounds.
  std::vector<std::unordered_map<std::uint32_t, std::shared_ptr<const Payload>>>
      caches_;  // per proc, by child (delta protocol only)
  std::vector<std::vector<std::uint32_t>> last_contrib_;
  std::vector<std::unique_ptr<sim::Executor::Strand>> strands_;  // parallel
  // Per daemon: the delta baseline, or the retained copy of a plain round.
  std::vector<std::shared_ptr<const Payload>> kept_;
  std::vector<bool> force_full_daemon_;
  std::shared_ptr<const Payload> last_out_;  // FE accumulator cache

  std::shared_ptr<Round> round_;
};

}  // namespace petastat::tbon
