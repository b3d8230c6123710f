// Distributed storage of the PIM-kd-tree (§3.1's replication strategies).
//
// Every tree node has one *master* copy on module h(id) plus cache copies:
//   * Group 0 nodes are replicated on all P modules,
//   * a Group j>=1 node d is copied onto h(a) for every ancestor a of d in
//     the same intra-group component (a's top-down cache), and
//   * a node a is copied onto h(d) for every component descendant d (d's
//     bottom-up ancestor chain),
// per the active CachingMode. Leaf payloads travel with leaf-node copies.
//
// DistStore keeps each node's copy table in the node's pool slot
// (NodeCold::copies): the registration list (intent, so demolition and
// counter broadcast are exact) and one replica per registered module (the
// copy's counter, physical presence and, for a leaf, the payload it holds, so
// per-module space and load are measurable and traversals can assert a node
// is really present where the algorithm claims). Every module's copy of a
// leaf payload equals the mirror's NodeCold::leaf_pts, so a replica records
// only how many points it holds. Every word shipped is charged to Metrics.
//
// Charge batching: the counter writes and routing of an update batch charge
// into a per-module accumulator (ChargeBatch) that is folded into Metrics once
// when the batch's routing ends, still inside its round. Metrics keeps
// per-round, per-module sums of commutative adds and faults fire only at
// round barriers, so the ledger, per-round maxima and trace are exactly those
// of charging each message as it is sent.
//
// Fault model: when a module is dead (crashed, see pim/fault.hpp), the
// orchestrator suppresses every message addressed to it — registrations
// proceed (so recovery knows what to restore) but no state is written, no
// words are charged and no storage moves. A crash bumps the module's
// incarnation, so its replicas read as absent until rebuild_module() restores
// them from surviving replicas, falling back to the host-side authoritative
// store when a node has no live replica. Lost counter messages
// (kMessageLoss) are charged (the word left the host) but not applied,
// leaving a stale replica for check_integrity to flag and resync_counters to
// repair.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/tree.hpp"
#include "pim/system.hpp"
#include "util/geometry.hpp"

namespace pimkd::durability {
class Checkpoint;
}

namespace pimkd::core {

// Per-module simulator state. Everything a module physically holds lives in
// the copy tables (Replica), stamped with the module's incarnation, so a
// crash's wipe of this state loses nothing the stamps do not already hide.
struct ModuleState {};

class DistStore {
 public:
  DistStore(const PimKdConfig& cfg, pim::PimSystem<ModuleState>& sys,
            NodePool& pool)
      : cfg_(cfg),
        sys_(sys),
        pool_(pool),
        pending_(sys.P()),
        drops_(sys.P(), 0) {}

  // Master placement: the hash home h(id). Every caching rule, traversal,
  // recovery and checkpoint path routes through here.
  std::size_t master_of(NodeId id) const { return sys_.module_of(id); }

  // Adds one copy of `id` on `module`, shipping the node record (and the
  // leaf payload if `id` is a leaf) from the CPU: charges communication and
  // storage, and returns the words charged. Must be called inside a round.
  std::uint64_t add_copy(NodeId id, std::size_t module);

  // Removes every copy of `id` everywhere (node destroyed or component being
  // re-materialized). Frees storage; dropping data charges nothing.
  void remove_all_copies(NodeId id);

  // Removes exactly one copy of `id` from `module` (incremental component
  // maintenance when a node leaves a component). The copy must be
  // registered; a missing registration throws PimError(kCorruptState) so
  // callers (and tests) can observe the damage instead of the process dying.
  void remove_one_copy(NodeId id, std::size_t module);

  // Is a copy of `id` present on `module`? (Traversal assertion hook.)
  bool module_has(std::size_t module, NodeId id) const {
    return present_copy(id, module) != nullptr;
  }
  // The copy of `id` physically present on `module`, or null.
  const Replica* present_copy(NodeId id, std::size_t module) const;
  bool present(const Replica& r) const {
    return r.refs != 0 && r.stamp == sys_.incarnation(r.module);
  }

  // --- Fault surface ---------------------------------------------------------
  bool module_alive(std::size_t m) const { return sys_.module_alive(m); }
  bool any_module_dead() const { return sys_.dead_module_count() != 0; }

  // Re-ships every registered copy of (revived, empty) module `m` — node
  // records, counters, leaf payloads — preferring a surviving replica as the
  // source and falling back to the host point store. Charges communication to
  // both ends (or CPU work for host-sourced copies), module work and storage.
  struct RecoverySummary {
    std::uint64_t copies = 0;         // copy instances restored (with refs)
    std::uint64_t words = 0;          // words shipped to the module
    std::uint64_t from_replicas = 0;  // copies sourced from surviving replicas
    std::uint64_t from_host = 0;      // copies rebuilt from the host store
  };
  RecoverySummary rebuild_module(std::size_t m);

  // Rewrites every replica counter that disagrees with the canonical mirror
  // value (message-loss damage); charges one word per rewritten replica.
  // Returns the number of replicas fixed.
  std::uint64_t resync_counters();

  // All modules registered to hold a copy (with multiplicity, in
  // registration order). Used for counter broadcast cost accounting.
  const std::vector<std::uint32_t>& copy_modules(NodeId id) const {
    return pool_.cold(id).copies.modules;
  }
  std::size_t copy_count(NodeId id) const { return copy_modules(id).size(); }
  // One entry per distinct registered module, sorted by module.
  const std::vector<Replica>& replicas(NodeId id) const {
    return pool_.cold(id).copies.replicas;
  }

  // --- Charge batching -------------------------------------------------------
  // Module work and words charged through charge_work/charge_comm (and by
  // the counter writes below) are summed per module and reach Metrics when
  // the open ChargeBatch closes. A batch opens and closes inside one round
  // and does not nest; closing on unwind flushes too, so an exception cannot
  // carry charges into a later round. Control thread only.
  class ChargeBatch {
   public:
    explicit ChargeBatch(DistStore& s) : s_(s) {
      assert(!s_.batch_open_);
      s_.batch_open_ = true;
    }
    ~ChargeBatch() {
      s_.batch_open_ = false;
      s_.flush_charges();
    }
    ChargeBatch(const ChargeBatch&) = delete;
    ChargeBatch& operator=(const ChargeBatch&) = delete;

   private:
    DistStore& s_;
  };
  void charge_work(std::size_t m, std::uint64_t w) { charge(m, w, 0); }
  void charge_comm(std::size_t m, std::uint64_t words) { charge(m, 0, words); }

  // Broadcasts the node's canonical counter value to every copy; charges one
  // word of communication and one unit of PIM work per copy written, and
  // returns the words charged. Inside a ChargeBatch only.
  std::uint64_t broadcast_counter(NodeId id) {
    return write_counter_copies(id, true);
  }
  // Same write, but charged as module-local work only. Used for the in-group
  // ancestor chain updates of §3.3/Lemma 4.2: the message that reaches a
  // module carrying a copy of the lowest node lets its PIM core walk the
  // locally cached ancestor chain, so those updates cost PIM work, not
  // off-chip words.
  void sync_counter_local(NodeId id) { write_counter_copies(id, false); }

  // Re-ships the leaf payload of `leaf` (already updated in the mirror) to
  // every module holding a copy; charges `words_changed` words per module.
  void refresh_leaf_payload(NodeId leaf, std::uint64_t words_changed);

  // Words currently attributed to stored state (matches Metrics storage).
  std::uint64_t node_storage_words(NodeId id) const;

 private:
  // Checkpointing (src/durability/checkpoint.cpp) serializes the
  // registration lists — the durable intent — directly and rehydrates
  // physical module state from them on load through register_copy/install,
  // charging storage (not communication: a restore is host-side rehydration,
  // not a PIM transfer).
  friend class pimkd::durability::Checkpoint;

  Replica* mutable_copy(NodeId id, std::size_t module) {
    return const_cast<Replica*>(present_copy(id, module));
  }
  // Appends `module` to the registration list and returns its replica,
  // inserting an absent one for a module registered for the first time.
  static Replica& register_copy(CopyTable& t, std::uint32_t module);
  // Physically stores one more reference of `id` in replica `r` (alive
  // module): the node record, plus the leaf payload with the first
  // reference. Returns the words now held.
  std::uint64_t install(NodeId id, Replica& r);
  // Frees `refs` references of present replica `r` (the leaf payload goes
  // with the last one); returns the words freed.
  std::uint64_t release(Replica& r, std::uint32_t refs);
  // A replica whose stamp predates its module's last crash holds nothing:
  // restamp it as an empty copy before writing to it.
  void restamp(Replica& r) const {
    const std::uint32_t now = sys_.incarnation(r.module);
    if (r.stamp == now) return;
    r.stamp = now;
    r.refs = 0;
    r.payload_pts = 0;
  }
  std::uint64_t write_counter_copies(NodeId id, bool charge_comm);

  struct PendingCharge {
    std::uint64_t work = 0;
    std::uint64_t comm = 0;
  };
  void charge(std::size_t m, std::uint64_t work, std::uint64_t comm) {
    assert(batch_open_);
    pending_[m].work += work;
    pending_[m].comm += comm;
  }
  void flush_charges();

  const PimKdConfig& cfg_;
  pim::PimSystem<ModuleState>& sys_;
  NodePool& pool_;
  // Charge batching (see ChargeBatch): per-module sums.
  std::vector<PendingCharge> pending_;
  bool batch_open_ = false;
  // Per-module dropped-word counts of one lossy counter broadcast (all zero
  // between broadcasts).
  std::vector<std::uint32_t> drops_;
};

}  // namespace pimkd::core
