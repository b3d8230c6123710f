// Traversal cursor enforcing the dual-way caching locality rule (§3.1).
//
// A search "stands" on one PIM module at a time: the module h(anchor) of the
// node it last hopped to (or the module a batched query was assigned to, when
// still inside the replicated Group 0). From there, exactly these nodes are
// readable without off-chip traffic:
//   * any Group 0 node (replicated everywhere),
//   * the anchor itself,
//   * component descendants of the anchor    (top-down cache, Fig. 2c),
//   * component ancestors of the anchor      (bottom-up chain, Fig. 2d),
// subject to the active CachingMode and the component being finished
// (delayed construction, §3.4). Stepping anywhere else is an off-chip hop:
// kHopWords communication charged to the modules on both ends, and the
// anchor moves to the target's master module.
//
// The cursor keeps an anchor *stack* so depth-first searches (kNN / range
// backtracking) return into the enclosing component without a new hop — the
// return message is part of the hop that entered. Every local read asserts
// the node copy is physically present in the current module's storage,
// catching replication bugs in tests.
//
// The Cursor is the PIM visit policy of the query walks; HostVisit
// (core/walk.hpp) is its host-mirror counterpart for dead modules.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/storage.hpp"
#include "core/tree.hpp"

namespace pimkd::core {

class Cursor {
 public:
  // Starts anchored "in Group 0" on `start_module` (Algorithm 4 assigns each
  // query of a batch to a module round-robin).
  Cursor(const PimKdConfig& cfg, const NodePool& pool, const DistStore& store,
         pim::Metrics& metrics, std::size_t start_module);

  // Visits node `id` (a parent/child step from the current position). Charges
  // one unit of PIM work at the current module, plus a hop if non-local.
  // Returns true when the visit required an off-chip hop.
  bool visit(NodeId id);

  // Would visit(id) land on an alive module? False means the subtree under
  // `id` is unreachable in-PIM and the caller must degrade to the host mirror.
  // Fast path: always true while every module is alive.
  bool can_visit(NodeId id) const;

  // Depth-first scope: pops the anchors pushed since the matching mark when
  // the traversal returns past this point.
  std::size_t mark() const { return stack_.size(); }
  void release(std::size_t mark);

  // Charges `units` of PIM work at the module the cursor currently occupies
  // (leaf payload scans).
  void charge_work(std::uint64_t units);

  std::size_t current_module() const;
  std::uint64_t hops() const { return hops_; }

  // The ledger this traversal charges (a dead module's subtree is walked on
  // the host mirror, charging CPU work on it).
  pim::Metrics& ledger() const { return metrics_; }

 private:
  struct Anchor {
    NodeId node;         // kNoNode = the Group-0 base anchor
    std::size_t module;
  };

  bool is_local(NodeId id) const;
  bool is_comp_related(NodeId id, NodeId anchor) const;

  const PimKdConfig& cfg_;
  const NodePool& pool_;
  const DistStore& store_;
  pim::Metrics& metrics_;
  std::vector<Anchor> stack_;
  std::uint64_t hops_ = 0;
};

}  // namespace pimkd::core
