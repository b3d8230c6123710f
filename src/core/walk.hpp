// Shared machinery of the query walks (§4.3, §6.1): the host visit policy,
// the per-node visit scope, the degraded-mode handoff and the batch driver.
//
// Each query kind (kNN/ANN, dependent point, range, radius) is one recursion,
// a PimKdTree member template on a visit policy V with this interface:
//   can_visit(id)   may the walk step onto `id` here?
//   mark()/visit()  on entry to a node; release(mark) on every exit
//   charge_work(n)  a leaf scan over n points
//   ledger()        the Metrics the walk charges
// Two policies implement it, dispatched statically:
//   * Cursor (core/cursor.hpp) walks the PIM modules under the dual-way
//     caching locality rule, charging module work and hops;
//   * HostVisit walks the host mirror, charging CPU work: 1 per node, n per
//     leaf scan, nothing on exit.
// When a Cursor cannot visit a node (its module is dead), the walk counts one
// subtree fallback and continues that subtree in the HostVisit instantiation
// of the same template, so degraded results stay exact by construction.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/pim_kdtree.hpp"
#include "parallel/primitives.hpp"

namespace pimkd::core {

class HostVisit {
 public:
  explicit HostVisit(pim::Metrics& led) : led_(led) {}
  static constexpr bool can_visit(NodeId) { return true; }
  static constexpr std::size_t mark() { return 0; }
  void visit(NodeId) { led_.add_cpu_work(1); }
  void charge_work(std::uint64_t units) { led_.add_cpu_work(units); }
  static constexpr void release(std::size_t) {}
  pim::Metrics& ledger() const { return led_; }

 private:
  pim::Metrics& led_;
};

// Enters a node under policy V for the lifetime of the scope: mark + visit on
// construction, release on destruction, so every early return of a walk
// unwinds the policy's state.
template <class V>
class VisitScope {
 public:
  VisitScope(V& v, NodeId id) : v_(v), mark_(v.mark()) { v.visit(id); }
  ~VisitScope() { v_.release(mark_); }
  VisitScope(const VisitScope&) = delete;
  VisitScope& operator=(const VisitScope&) = delete;

 private:
  V& v_;
  std::size_t mark_;
};

inline HostVisit PimKdTree::host_subtree(pim::Metrics& led) const {
  deg_subtrees_.fetch_add(1, std::memory_order_relaxed);
  return HostVisit(led);
}

template <class Walk>
void PimKdTree::run_queries(std::size_t n, std::size_t grain, Walk&& walk) {
  if (root_ == kNoNode) return;
  const auto starts = query_start_modules();
  // Queries of a batch are independent: they run across the host's cores and
  // charge the (thread-safe) ledger concurrently.
  parallel_for(0, n, [&](std::size_t i) {
    if (starts.empty()) {
      // Every module is down: the whole query runs on the host mirror.
      deg_queries_.fetch_add(1, std::memory_order_relaxed);
      HostVisit host(sys_.metrics());
      walk(host, i);
      return;
    }
    const std::size_t start = starts[i % starts.size()];
    sys_.metrics().add_comm(start, kQueryWords);
    Cursor cur(cfg_, pool_, store_, sys_.metrics(), start);
    // The result travels back off-chip from the start module.
    if (const std::uint64_t words = walk(cur, i))
      sys_.metrics().add_comm(start, words);
  }, grain);
}

}  // namespace pimkd::core
