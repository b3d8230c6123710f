// Host-side mirror of the PIM-kd-tree topology.
//
// The host CPU in the PIM Model orchestrates every operation, so it knows the
// tree's shape (ids, children, groups). The mirror holds exactly that
// orchestration state plus the *exact* subtree sizes used as a testing
// oracle. Each node's copy table (NodeCold::copies) records where its copies
// live and what each module physically holds — counter replica, reference
// count and, for a leaf, the size of the payload stored with the copy;
// DistStore (core/storage.hpp) owns it, and the cost accounting stands on
// it. NodeIds are never reused, so stale references are detectable.
//
// Storage layout: a flat slab. Records live in contiguous vectors indexed by
// a slot; `slot_of_[id]` maps the never-reused NodeId to its current slot and
// freed slots go on a free-list. `at()` is two array indexations instead of a
// hash probe, and the traversal-hot fields (children, split, box, group /
// component metadata) are split from the cold per-leaf payload (`leaf_pts`,
// DPC priorities) so the query/update recursions walk dense cache lines.
//
// Reference stability: unlike the previous unordered_map-backed pool,
// references returned by at() / cold() are INVALIDATED by create() (the
// backing vectors may reallocate). Never hold a NodeRec& across a call that
// can create nodes; re-fetch via at(id) instead. destroy() never moves
// records, so references to *other* nodes survive it.

#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "util/geometry.hpp"
#include "util/kernels.hpp"

namespace pimkd::core {

using NodeId = std::uint64_t;
inline constexpr NodeId kNoNode = 0;

// Hot traversal record: everything the knn/range/update recursions touch per
// visit. The cold payload (leaf point lists, DPC priority aggregates) lives
// in a parallel NodeCold slab reached through NodePool::cold().
struct NodeRec {
  NodeId id = kNoNode;
  NodeId parent = kNoNode;
  NodeId left = kNoNode;
  NodeId right = kNoNode;
  NodeId comp_root = kNoNode;   // root of this node's intra-group component
  std::uint64_t exact_size = 0; // ground truth (oracle; not used by algorithms)
  double counter = 0;           // canonical approximate-counter value
  Coord split_val = 0;
  std::int16_t split_dim = -1;  // -1 => leaf
  bool comp_finished = true;    // false while delayed construction is pending
  int group = 0;                // log-star group (recomputed from counter)
  std::uint32_t depth = 0;      // distance from the tree root (ancestry tests)
  Box box;
  bool is_leaf() const { return split_dim < 0; }
};

// One module's copy of a node (DistStore, core/storage.hpp). It is physically
// present while refs != 0 and `stamp` equals the module's incarnation: a crash
// bumps the incarnation, so every copy written before it reads as absent
// until recovery rewrites it. A leaf's copy carries the leaf payload, so the
// module's share of the leaf's points is the copy's own field.
struct Replica {
  double counter = 0;        // this copy's replica of the approximate counter
  std::uint32_t module = 0;
  std::uint32_t refs = 0;    // same node cached on this module via several owners
  std::uint32_t stamp = 0;   // module incarnation the copy was written under
  std::uint32_t payload_pts = 0;  // leaf points held with the copy (leaves)
};

// A node's copy table. `modules` is the registration list (intent), verbatim:
// with multiplicity and in registration order, which counter broadcasts and
// message-loss draws follow. `replicas` holds one entry per distinct
// registered module, sorted by module (physical truth).
struct CopyTable {
  std::vector<std::uint32_t> modules;
  std::vector<Replica> replicas;
};

struct NodeCold {
  std::vector<PointId> leaf_pts;  // orchestration copy of the leaf payload
  CopyTable copies;               // where the node's copies live (DistStore)
  // Structure-of-arrays mirror of leaf_pts' coordinates (one padded row per
  // dimension) — what the vectorized leaf-scan kernels read. Kept in sync
  // via refresh_leaf_soa below at every leaf payload mutation; queries never
  // rebuild it.
  kernels::LeafSoa soa;
  double max_priority = 0;        // max point priority in subtree (DPC, §6.1)
  PointId max_priority_id = kInvalidPoint;
};

// Rebuilds the SoA mirror from leaf_pts. Must follow every mutation of
// nc.leaf_pts (build, insert-append, erase, checkpoint restore);
// check_invariants() verifies the two stay equal.
inline void refresh_leaf_soa(NodeCold& nc, std::span<const Point> all_points,
                             int dim) {
  nc.soa.reset(static_cast<std::uint32_t>(nc.leaf_pts.size()), dim);
  for (std::uint32_t i = 0; i < nc.soa.n; ++i)
    nc.soa.set(i, all_points[nc.leaf_pts[i]].x.data(), dim);
}

class NodePool {
 public:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  NodePool() { slot_of_.push_back(kNoSlot); }  // id 0 is kNoNode

  NodeId create() {
    const NodeId id = next_id_++;
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      hot_[slot] = NodeRec{};
      cold_[slot] = NodeCold{};
    } else {
      slot = static_cast<std::uint32_t>(hot_.size());
      hot_.emplace_back();
      cold_.emplace_back();
    }
    hot_[slot].id = id;
    assert(slot_of_.size() == id);
    slot_of_.push_back(slot);
    ++live_;
    return id;
  }

  void destroy(NodeId id) {
    assert(contains(id));
    const std::uint32_t slot = slot_of_[id];
    slot_of_[id] = kNoSlot;
    hot_[slot] = NodeRec{};
    cold_[slot] = NodeCold{};  // releases the leaf payload allocation
    free_slots_.push_back(slot);
    --live_;
  }

  NodeRec& at(NodeId id) {
    assert(contains(id));
    return hot_[slot_of_[id]];
  }
  const NodeRec& at(NodeId id) const {
    assert(contains(id));
    return hot_[slot_of_[id]];
  }
  NodeCold& cold(NodeId id) {
    assert(contains(id));
    return cold_[slot_of_[id]];
  }
  const NodeCold& cold(NodeId id) const {
    assert(contains(id));
    return cold_[slot_of_[id]];
  }

  bool contains(NodeId id) const {
    return id < slot_of_.size() && slot_of_[id] != kNoSlot;
  }

  // Software prefetch of a node's hot record ahead of the NodeId-indexed
  // descent (query recursions issue it for both children while the current
  // node's pruning arithmetic runs). Harmless on dead/kNoNode ids.
  void prefetch(NodeId id) const {
#if defined(__GNUC__) || defined(__clang__)
    if (id < slot_of_.size()) {
      const std::uint32_t slot = slot_of_[id];
      if (slot != kNoSlot) __builtin_prefetch(&hot_[slot], 0, 3);
    }
#else
    (void)id;
#endif
  }
  std::size_t size() const { return live_; }

  // Grow the slabs ahead of a bulk build so create() cannot reallocate
  // mid-construction (capacity only; size/ids are unaffected).
  void reserve(std::size_t extra_nodes) {
    hot_.reserve(hot_.size() + extra_nodes);
    cold_.reserve(cold_.size() + extra_nodes);
    slot_of_.reserve(slot_of_.size() + extra_nodes);
  }

  // Deterministic: visits live nodes in ascending id order regardless of the
  // pool's creation/destruction history (ids are never reused).
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (NodeId id = 1; id < slot_of_.size(); ++id)
      if (slot_of_[id] != kNoSlot) fn(hot_[slot_of_[id]]);
  }

  // The id the next create() will hand out (checkpointed so a restored pool
  // continues the never-reused id sequence exactly where the original was).
  NodeId next_id() const { return next_id_; }

  // --- Checkpoint restore (durability::Checkpoint) ---------------------------
  // Recreates a node under its original id. Ids must arrive in ascending
  // order; skipped ids were destroyed before the checkpoint and stay dead
  // (contains() is false for them). Only valid on a pool that has never
  // created a node. Returns the record to fill in; the matching cold slab
  // entry is reachable via cold(id) afterwards.
  NodeRec& restore_node(NodeId id) {
    assert(free_slots_.empty());
    assert(id >= slot_of_.size());
    while (slot_of_.size() < id) slot_of_.push_back(kNoSlot);
    const auto slot = static_cast<std::uint32_t>(hot_.size());
    hot_.emplace_back();
    cold_.emplace_back();
    hot_[slot].id = id;
    slot_of_.push_back(slot);
    ++live_;
    return hot_[slot];
  }
  // After the last restore_node: re-establish next_id so freshly created
  // nodes continue the original id sequence (ids in [last restored + 1,
  // next_id) were live at some point and destroyed; they stay dead).
  void finish_restore(NodeId next_id) {
    assert(next_id >= slot_of_.size());
    while (slot_of_.size() < next_id) slot_of_.push_back(kNoSlot);
    next_id_ = next_id;
  }

 private:
  std::vector<NodeRec> hot_;
  std::vector<NodeCold> cold_;
  std::vector<std::uint32_t> slot_of_;  // NodeId -> slot, kNoSlot when dead
  std::vector<std::uint32_t> free_slots_;
  NodeId next_id_ = 1;
  std::size_t live_ = 0;
};

}  // namespace pimkd::core
