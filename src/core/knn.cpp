// kNN / (1+eps)-ANN (§4.3) and the DPC dependent-point priority search
// (§6.1). Each is one walk templated on the visit policy (core/walk.hpp): on
// the PIM modules through the dual-way-caching Cursor — descending into a
// component costs one off-chip hop, traversal inside it is on-chip, and
// backtracking returns through the anchor stack for free (the return message
// is part of the hop that entered) — or on the host mirror for subtrees whose
// module is dead.
#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/walk.hpp"

namespace pimkd::core {

namespace {
struct HeapCmp {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    return a.sq_dist != b.sq_dist ? a.sq_dist < b.sq_dist : a.id < b.id;
  }
};

// Strictly-higher-priority order: (prio, id) lexicographic.
bool higher(double prio, PointId id, double q_prio, PointId self) {
  return prio > q_prio || (prio == q_prio && id > self);
}
}  // namespace

template <class V>
void PimKdTree::knn_walk(V& v, NodeId nid, const Point& q,
                         std::vector<Neighbor>& heap, std::size_t k,
                         double prune) const {
  if (!v.can_visit(nid)) {
    HostVisit host = host_subtree(v.ledger());
    return knn_walk(host, nid, q, heap, k, prune);
  }
  const VisitScope<V> scope(v, nid);
  const NodeRec& n = pool_.at(nid);
  const auto worst = [&] {
    return heap.size() < k ? std::numeric_limits<Coord>::infinity()
                           : heap.front().sq_dist;
  };
  // Strict prune: a box at distance exactly worst() may still hold a point
  // that wins the (sq_dist, id) tie-break at the k-th place, so boundary
  // ties stay brute-force-exact (the router's cross-shard merge relies on
  // every shard answering in that total order).
  if (n.box.sq_dist_to(q, cfg_.dim) * prune > worst()) return;
  if (n.is_leaf()) {
    const NodeCold& nc = pool_.cold(nid);
    v.charge_work(nc.leaf_pts.size());
    // Batched leaf scan: distances come from the SoA kernel (bit-identical
    // per lane to sq_dist); the heap consumption below runs in the exact
    // scalar visit order, so results and tie-breaks are unchanged.
    double d2[kernels::kScanChunk];
    for (std::uint32_t base = 0; base < nc.soa.n; base += kernels::kScanChunk) {
      const std::uint32_t cnt = std::min(kernels::kScanChunk, nc.soa.n - base);
      kernels::leaf_sq_dists(isa_, nc.soa, base, cnt, q.x.data(), cfg_.dim,
                             d2);
      for (std::uint32_t j = 0; j < cnt; ++j) {
        const PointId id = nc.leaf_pts[base + j];
        if (!alive_[id]) continue;
        const Neighbor cand{id, d2[j]};
        if (heap.size() < k) {
          heap.push_back(cand);
          std::push_heap(heap.begin(), heap.end(), HeapCmp{});
        } else if (HeapCmp{}(cand, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), HeapCmp{});
          heap.back() = cand;
          std::push_heap(heap.begin(), heap.end(), HeapCmp{});
        }
      }
    }
    return;
  }
  pool_.prefetch(n.left);
  pool_.prefetch(n.right);
  const bool left_first = q[n.split_dim] < n.split_val;
  const NodeId first = left_first ? n.left : n.right;
  const NodeId second = left_first ? n.right : n.left;
  knn_walk(v, first, q, heap, k, prune);
  if (pool_.at(second).box.sq_dist_to(q, cfg_.dim) * prune <= worst())
    knn_walk(v, second, q, heap, k, prune);
}

std::vector<std::vector<Neighbor>> PimKdTree::knn(
    std::span<const Point> queries, std::size_t k, double eps) {
  validate_points(queries, cfg_.dim, "knn");
  if (k == 0) throw std::invalid_argument("knn: k must be >= 1, got 0");
  if (!(std::isfinite(eps) && eps >= 0.0)) {
    std::ostringstream os;
    os << "knn: eps must be finite and >= 0, got " << eps;
    throw std::invalid_argument(os.str());
  }
  pim::TraceScope span(sys_.metrics(), eps > 0.0 ? "ann" : "knn",
                       queries.size());
  pim::RoundGuard round(sys_.metrics());
  std::vector<std::vector<Neighbor>> out(queries.size());
  const double prune = (1.0 + eps) * (1.0 + eps);
  run_queries(queries.size(), /*grain=*/16, [&](auto& v, std::size_t i) {
    std::vector<Neighbor> heap;
    heap.reserve(k);
    knn_walk(v, root_, queries[i], heap, k, prune);
    std::sort_heap(heap.begin(), heap.end(), HeapCmp{});
    out[i] = std::move(heap);
    return 0;
  });
  return out;
}

// --- DPC dependent point (priority 1NN, §6.1) ---------------------------------

template <class V>
void PimKdTree::dep_walk(V& v, NodeId nid, const Point& q, double q_prio,
                         PointId self, Neighbor& best) const {
  if (!v.can_visit(nid)) {
    HostVisit host = host_subtree(v.ledger());
    return dep_walk(host, nid, q, q_prio, self, best);
  }
  const VisitScope<V> scope(v, nid);
  const NodeRec& n = pool_.at(nid);
  // Priority pruning: skip subtrees with no higher-priority point.
  const NodeCold& nc = pool_.cold(nid);
  if (nc.max_priority_id == kInvalidPoint ||
      !higher(nc.max_priority, nc.max_priority_id, q_prio, self) ||
      n.box.sq_dist_to(q, cfg_.dim) >= best.sq_dist)
    return;
  if (n.is_leaf()) {
    v.charge_work(nc.leaf_pts.size());
    double d2s[kernels::kScanChunk];
    for (std::uint32_t base = 0; base < nc.soa.n; base += kernels::kScanChunk) {
      const std::uint32_t cnt = std::min(kernels::kScanChunk, nc.soa.n - base);
      kernels::leaf_sq_dists(isa_, nc.soa, base, cnt, q.x.data(), cfg_.dim,
                             d2s);
      for (std::uint32_t j = 0; j < cnt; ++j) {
        const PointId id = nc.leaf_pts[base + j];
        if (!alive_[id] || !higher(priorities_[id], id, q_prio, self)) continue;
        const Coord d2 = d2s[j];
        if (d2 < best.sq_dist || (d2 == best.sq_dist && id < best.id))
          best = Neighbor{id, d2};
      }
    }
    return;
  }
  pool_.prefetch(n.left);
  pool_.prefetch(n.right);
  const bool left_first = q[n.split_dim] < n.split_val;
  const NodeId first = left_first ? n.left : n.right;
  const NodeId second = left_first ? n.right : n.left;
  dep_walk(v, first, q, q_prio, self, best);
  if (pool_.at(second).box.sq_dist_to(q, cfg_.dim) < best.sq_dist)
    dep_walk(v, second, q, q_prio, self, best);
}

std::vector<Neighbor> PimKdTree::dependent_points(
    std::span<const Point> queries, std::span<const double> query_priority,
    std::span<const PointId> self_id) {
  validate_points(queries, cfg_.dim, "dependent_points");
  const auto check_size = [&](const char* field, std::size_t size) {
    if (size == queries.size()) return;
    std::ostringstream os;
    os << "dependent_points: " << field << " has " << size << " entries for "
       << queries.size() << " queries";
    throw std::invalid_argument(os.str());
  };
  check_size("query_priority", query_priority.size());
  check_size("self_id", self_id.size());
  if (priorities_.empty())
    throw std::invalid_argument(
        "dependent_points: priorities unset (call set_priorities first)");
  pim::TraceScope span(sys_.metrics(), "dependent_points", queries.size());
  pim::RoundGuard round(sys_.metrics());
  std::vector<Neighbor> out(
      queries.size(),
      Neighbor{kInvalidPoint, std::numeric_limits<Coord>::infinity()});
  run_queries(queries.size(), /*grain=*/16, [&](auto& v, std::size_t i) {
    dep_walk(v, root_, queries[i], query_priority[i], self_id[i], out[i]);
    return 0;
  });
  return out;
}

void PimKdTree::set_priorities(std::span<const double> priority_by_id) {
  if (priority_by_id.size() < all_points_.size()) {
    std::ostringstream os;
    os << "set_priorities: priority_by_id has " << priority_by_id.size()
       << " entries for " << all_points_.size() << " point ids";
    throw std::invalid_argument(os.str());
  }
  ++mutation_epoch_;
  priorities_.assign(priority_by_id.begin(), priority_by_id.end());
  pim::TraceScope span(sys_.metrics(), "set_priorities", priority_by_id.size());
  pim::RoundGuard round(sys_.metrics());
  // Recompute per-node (max-priority, id) aggregates bottom-up and refresh
  // every copy — two words per copy, charged like a counter broadcast.
  auto rec = [&](auto&& self, NodeId nid) -> void {
    const NodeRec& n = pool_.at(nid);
    NodeCold& nc = pool_.cold(nid);
    nc.max_priority = 0;
    nc.max_priority_id = kInvalidPoint;
    auto fold = [&](double prio, PointId id) {
      if (id == kInvalidPoint) return;
      if (nc.max_priority_id == kInvalidPoint || prio > nc.max_priority ||
          (prio == nc.max_priority && id > nc.max_priority_id)) {
        nc.max_priority = prio;
        nc.max_priority_id = id;
      }
    };
    if (n.is_leaf()) {
      for (const PointId id : nc.leaf_pts)
        if (alive_[id]) fold(priorities_[id], id);
    } else {
      self(self, n.left);
      self(self, n.right);
      const NodeCold& l = pool_.cold(n.left);
      const NodeCold& r = pool_.cold(n.right);
      fold(l.max_priority, l.max_priority_id);
      fold(r.max_priority, r.max_priority_id);
    }
    for (const std::uint32_t m : store_.copy_modules(nid)) {
      if (!sys_.module_alive(m)) continue;  // send suppressed: module down
      sys_.metrics().add_comm(m, 2);
      sys_.metrics().add_module_work(m, 1);
    }
  };
  if (root_ != kNoNode) rec(rec, root_);
}

}  // namespace pimkd::core
