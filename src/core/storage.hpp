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
// copy's counter and physical presence, so per-module space and load are
// measurable and traversals can assert a node is really present where the
// algorithm claims). Leaf payloads sit in the owning module's state. Every
// word shipped is charged to Metrics.
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

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/tree.hpp"
#include "pim/system.hpp"
#include "util/geometry.hpp"

namespace pimkd::durability {
class Checkpoint;
}

namespace pimkd::core {

struct ModuleState {
  std::unordered_map<NodeId, std::vector<PointId>> leaf_points;
};

class DistStore {
 public:
  DistStore(const PimKdConfig& cfg, pim::PimSystem<ModuleState>& sys,
            NodePool& pool)
      : cfg_(cfg), sys_(sys), pool_(pool) {}

  // Master placement: the hash home h(id) unless a live migration has pinned
  // the node elsewhere (core/migration.cpp). Every caching rule, traversal,
  // recovery and checkpoint path routes through here, so a remap entry moves
  // the node's entire placement footprint consistently by construction.
  std::size_t master_of(NodeId id) const {
    if (!remap_.empty()) {
      const auto it = remap_.find(id);
      if (it != remap_.end()) return it->second;
    }
    return sys_.module_of(id);
  }

  // --- Placement overrides (live subtree migration) --------------------------
  // Pin `id`'s master to `module`; pinning back to the hash home clears the
  // entry so the empty-map fast path in master_of stays hot.
  void set_remap(NodeId id, std::size_t module) {
    if (module == sys_.module_of(id))
      remap_.erase(id);
    else
      remap_[id] = static_cast<std::uint32_t>(module);
  }
  void drop_remap(NodeId id) {
    if (!remap_.empty()) remap_.erase(id);
  }
  const std::unordered_map<NodeId, std::uint32_t>& remap() const {
    return remap_;
  }

  // --- Read-heat tracking (migration planner input) ---------------------------
  // Per-component hop counter, indexed by the component root's NodeId (dense,
  // never reused). Commutative relaxed adds, so totals are thread-count
  // invariant; the capacity only changes at control points (epoch boundaries),
  // never while queries are in flight, so the bounds check below is race-free.
  void enable_heat(std::size_t capacity) {
    if (capacity <= heat_size_) return;
    auto grown = std::make_unique<std::atomic<std::uint64_t>[]>(capacity);
    for (std::size_t i = 0; i < capacity; ++i)
      grown[i].store(i < heat_size_
                         ? heat_[i].load(std::memory_order_relaxed)
                         : 0,
                     std::memory_order_relaxed);
    heat_ = std::move(grown);
    heat_size_ = capacity;
  }
  bool heat_enabled() const { return heat_size_ != 0; }
  std::size_t heat_capacity() const { return heat_size_; }
  // Charged by Cursor on every off-component hop; a component root beyond the
  // tracked capacity (born since the last control point) is simply not
  // counted until the planner grows the array.
  void note_hop(NodeId comp_root) const {
    if (comp_root < heat_size_)
      heat_[comp_root].fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t heat(NodeId comp_root) const {
    return comp_root < heat_size_
               ? heat_[comp_root].load(std::memory_order_relaxed)
               : 0;
  }

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

  // Broadcasts the node's canonical counter value to every copy; charges one
  // word of communication and one unit of PIM work per copy written, and
  // returns the words charged.
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
  std::uint64_t release(NodeId id, Replica& r, std::uint32_t refs);
  std::uint64_t write_counter_copies(NodeId id, bool charge_comm);

  const PimKdConfig& cfg_;
  pim::PimSystem<ModuleState>& sys_;
  NodePool& pool_;
  // Migration placement overrides: id -> pinned master module. Consulted by
  // master_of before the hash; empty in the common (no-migration) case.
  std::unordered_map<NodeId, std::uint32_t> remap_;
  // Read-heat counters (see note_hop). Mutable: charging heat from a const
  // traversal is bookkeeping, not logical mutation of the store.
  mutable std::unique_ptr<std::atomic<std::uint64_t>[]> heat_;
  std::size_t heat_size_ = 0;
};

}  // namespace pimkd::core
