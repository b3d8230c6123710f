// Batch-dynamic updates (§4.2) and the shared push-pull routing used by
// LeafSearch (§4.1): counter maintenance during the search helper, imbalance
// detection, partial reconstruction, and group promotion repair.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "core/approx_counter.hpp"
#include "core/pim_kdtree.hpp"

namespace pimkd::core {

// --- Approximate counters ----------------------------------------------------

void PimKdTree::set_counter(NodeId id, double value, bool broadcast) {
  pool_.at(id).counter = std::max(value, 0.0);
  if (broadcast) store_.broadcast_counter(id);
}

void PimKdTree::counter_attempt(NodeId lowest, int sign) {
  const double n = static_cast<double>(std::max<std::size_t>(live_, 2));
  const double v = std::max(pool_.at(lowest).counter, 0.0);
  CounterStep step;
  if (cfg_.use_approx_counters) {
    step = sign > 0 ? counter_increment(v, cfg_.beta, n, rng_)
                    : counter_decrement(v, cfg_.beta, n, rng_);
  } else {
    step = CounterStep{true, sign > 0 ? 1.0 : -1.0};
  }
  if (!step.updated) return;
  ++op_stats_.counter_updates;
  // Lemma 4.2 cost model: one off-chip word per copy of the *lowest* node;
  // the in-group ancestor chain is then updated locally on each module that
  // received the message (dual-way caching collocates the chain), so those
  // writes are PIM work rather than communication.
  NodeId cur = lowest;
  for (bool first = true;; first = false) {
    NodeRec& rec = pool_.at(cur);
    rec.counter = std::max(rec.counter + step.delta, 0.0);
    if (first) {
      op_stats_.words_counters += store_.broadcast_counter(cur);
    } else {
      store_.sync_counter_local(cur);
    }
    if (rec.comp_root == cur || rec.parent == kNoNode) break;
    cur = rec.parent;
  }
}

bool PimKdTree::counters_violated(NodeId interior) const {
  const NodeRec& rec = pool_.at(interior);
  assert(!rec.is_leaf());
  const double l = std::max(pool_.at(rec.left).counter, 0.0);
  const double r = std::max(pool_.at(rec.right).counter, 0.0);
  if (l + r <= 2.0 * static_cast<double>(cfg_.leaf_cap)) return false;
  const double big = std::max(l, r);
  const double small = std::min(l, r) + 1.0;
  return big / small > 1.0 + cfg_.alpha;
}

// --- Shared batched routing (LeafSearch core + the update helper) -------------

namespace {
// Projected violation test with this batch's contribution folded in; the
// update helper stops at the highest violated node (§4.2 Modification II).
bool projected_violation(double l, double r, double leaf_cap, double alpha) {
  if (l + r <= 2.0 * leaf_cap) return false;
  const double big = std::max(l, r);
  const double small = std::min(l, r) + 1.0;
  return big / small > 1.0 + alpha;
}
}  // namespace

std::vector<PimKdTree::RouteStop> PimKdTree::route_batch(
    std::span<const Point> queries, int update_sign) {
  std::vector<RouteStop> out(queries.size());
  if (root_ == kNoNode || queries.empty()) return out;
  const std::uint64_t tau = push_pull_threshold();

  // Distribute the batch: query i lands on module i mod P (Alg. 4 lines 2-5).
  // Degraded mode rotates over the alive modules only (starts == all modules
  // when healthy, so the fault-free charge pattern is unchanged); with every
  // module down the whole descent runs on the CPU.
  const auto starts = query_start_modules();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!starts.empty())
      sys_.metrics().add_comm(starts[i % starts.size()], kQueryWords);
  }

  // push_anchor == kNoNode means the descent currently runs on the CPU
  // (pulled) or inside the replicated Group 0.
  auto solve = [&](auto&& self, NodeId nid, std::vector<std::uint32_t> qs,
                   NodeId push_anchor) -> void {
    NodeRec& rec = pool_.at(nid);
    const bool g0 =
        rec.group == 0 && cfg_.replicate_group0 && cfg_.cached_groups != 0;

    // --- Arrival: charge per the execution site -----------------------------
    if (g0) {
      // Group 0 is replicated everywhere: each query works on its own module
      // (its alive start module when degraded, the CPU when none remain).
      for (const std::uint32_t qi : qs) {
        if (!starts.empty())
          sys_.metrics().add_module_work(starts[qi % starts.size()], 1);
        else
          sys_.metrics().add_cpu_work(1);
      }
      push_anchor = kNoNode;
    } else {
      bool local = false;
      if (push_anchor != kNoNode) {
        const NodeRec& anc = pool_.at(push_anchor);
        local = rec.comp_root == anc.comp_root &&
                pool_.at(rec.comp_root).comp_finished &&
                (cfg_.cached_groups < 0 || rec.group < cfg_.cached_groups) &&
                (cfg_.caching == CachingMode::kTopDown ||
                 cfg_.caching == CachingMode::kDual);
      }
      if (local) {
        // Still inside the pushed component: pure on-chip work.
        const std::size_t m = store_.master_of(push_anchor);
        assert(store_.module_has(m, nid));
        sys_.metrics().add_module_work(m, qs.size());
      } else if (cfg_.use_push_pull && qs.size() > tau) {
        // Pull: fetch this node's record (and, for a contended leaf, its
        // O(1)-sized payload) to the CPU and resolve there — this is what
        // keeps an adversarial all-one-leaf batch off any single module.
        std::uint64_t words = node_words(cfg_.dim);
        if (rec.is_leaf())
          words += static_cast<std::uint64_t>(pool_.cold(nid).leaf_pts.size()) *
                   point_words(cfg_.dim);
        const std::size_t m = store_.master_of(nid);
        if (sys_.module_alive(m)) {
          sys_.metrics().add_comm(m, words);
        } else {
          // Degraded: the master is down; the CPU reads its own mirror.
          deg_routes_.fetch_add(1, std::memory_order_relaxed);
          sys_.metrics().add_cpu_work(words);
        }
        sys_.metrics().add_cpu_work(qs.size());
        push_anchor = kNoNode;
      } else {
        const std::size_t m = store_.master_of(nid);
        if (!sys_.module_alive(m)) {
          // Degraded: the push target is down; the host resolves this batch
          // segment from its mirror (still exact, CPU-charged).
          deg_routes_.fetch_add(1, std::memory_order_relaxed);
          sys_.metrics().add_cpu_work(qs.size());
          push_anchor = kNoNode;
        } else {
          // Push: ship the queries to the node's module and continue there.
          assert(store_.module_has(m, nid));
          sys_.metrics().add_comm(m, qs.size() * kQueryWords);
          sys_.metrics().add_module_work(m, qs.size());
          push_anchor = nid;
        }
      }
    }

    // --- Update-helper bookkeeping ------------------------------------------
    if (update_sign > 0) {
      // Tight bounding boxes piggyback on the routing message (mirror-only;
      // see DESIGN.md) so later pruning remains correct after inserts.
      for (const std::uint32_t qi : qs)
        rec.box.extend(queries[qi], cfg_.dim);
    }

    if (rec.is_leaf()) {
      // The leaf is the lowest node of its group on every path through it.
      if (update_sign != 0)
        for (std::size_t i = 0; i < qs.size(); ++i)
          counter_attempt(nid, update_sign);
      for (const std::uint32_t qi : qs) out[qi] = RouteStop{nid, false};
      return;
    }

    // Partition the queries by the splitting hyperplane (prefetch the
    // children while the partition's comparisons run).
    pool_.prefetch(rec.left);
    pool_.prefetch(rec.right);
    std::vector<std::uint32_t> lqs;
    std::vector<std::uint32_t> rqs;
    lqs.reserve(qs.size());
    for (const std::uint32_t qi : qs) {
      if (queries[qi][rec.split_dim] < rec.split_val)
        lqs.push_back(qi);
      else
        rqs.push_back(qi);
    }

    if (update_sign != 0) {
      // Modification II: stop at the highest node whose alpha-balance the
      // batch violates; the whole subtree is reconstructed afterwards.
      const double sgn = update_sign > 0 ? 1.0 : -1.0;
      const double pl = std::max(pool_.at(rec.left).counter, 0.0) +
                        sgn * static_cast<double>(lqs.size());
      const double pr = std::max(pool_.at(rec.right).counter, 0.0) +
                        sgn * static_cast<double>(rqs.size());
      if (projected_violation(pl, pr, static_cast<double>(cfg_.leaf_cap),
                              cfg_.alpha)) {
        // The search ends here (the subtree is about to be reconstructed);
        // settle this group's counter attempts at the stopping node so its
        // in-group ancestors still see the batch.
        for (std::size_t i = 0; i < qs.size(); ++i)
          counter_attempt(nid, update_sign);
        for (const std::uint32_t qi : qs) out[qi] = RouteStop{nid, true};
        return;
      }
      // Modification I: one Algorithm-3 attempt per query at the lowest node
      // of this group on the query's path — i.e. here, when the child lies in
      // a different group.
      if (!lqs.empty() && pool_.at(rec.left).group != rec.group)
        for (std::size_t i = 0; i < lqs.size(); ++i)
          counter_attempt(nid, update_sign);
      if (!rqs.empty() && pool_.at(rec.right).group != rec.group)
        for (std::size_t i = 0; i < rqs.size(); ++i)
          counter_attempt(nid, update_sign);
    }

    if (!lqs.empty()) self(self, rec.left, std::move(lqs), push_anchor);
    if (!rqs.empty()) self(self, rec.right, std::move(rqs), push_anchor);
  };

  std::vector<std::uint32_t> all(queries.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    all[i] = static_cast<std::uint32_t>(i);
  solve(solve, root_, std::move(all), kNoNode);
  return out;
}

// --- Group promotion / demotion repair (§4.2 stage 2) -------------------------

void PimKdTree::repair_groups_batch(const std::vector<NodeId>& touched) {
  // Gather every node on a root path above a touched position (deduped; a
  // path stops as soon as it meets one already gathered).
  std::unordered_set<NodeId> visited;
  std::vector<NodeId> path_nodes;
  for (const NodeId t : touched) {
    for (NodeId cur = t; cur != kNoNode; cur = pool_.at(cur).parent) {
      if (!visited.insert(cur).second) break;
      path_nodes.push_back(cur);
    }
  }
  // Which of them cross a group boundary under their current counter?
  std::vector<std::pair<NodeId, int>> changes;
  for (const NodeId u : path_nodes) {
    const NodeRec& rec = pool_.at(u);
    const int g = group_of(std::max(rec.counter, 1.0), thresholds_);
    if (g != rec.group) changes.emplace_back(u, g);
  }
  if (changes.empty()) return;

  // Fast path: the overwhelmingly common promotion is a single node crossing
  // a boundary with no same-group children before or after — it simply
  // leaves one component as a bottom member and (possibly) joins the
  // parent's. Only the pair copies incident to it move. Structural cases
  // (merges, splits, Group 0, interacting changes) take the slow path below.
  std::unordered_set<NodeId> changing;
  for (const auto& [v, g] : changes) changing.insert(v);
  std::vector<std::pair<NodeId, int>> slow;
  for (const auto& [v, g] : changes) {
    NodeRec& vr = pool_.at(v);
    bool fast = vr.group != 0 && g != 0 && vr.parent != kNoNode &&
                !changing.count(vr.parent);
    if (fast && !vr.is_leaf()) {
      for (const NodeId c : {vr.left, vr.right}) {
        const NodeRec& crec = pool_.at(c);
        if (crec.group == vr.group || crec.group == g || changing.count(c))
          fast = false;
      }
    }
    if (!fast) {
      slow.emplace_back(v, g);
      continue;
    }
    if (vr.comp_root != v) fast_leave_member(v);
    vr.group = g;
    ++op_stats_.group_changes;
    const NodeRec& p = pool_.at(vr.parent);
    if (p.group == g) {
      vr.comp_root = p.comp_root;
      fast_join_member(v);
    } else {
      vr.comp_root = v;
      vr.comp_finished = true;
    }
  }
  if (slow.empty()) return;
  changes = std::move(slow);

  // Dirty components: a change at v can only re-wire v's old component, the
  // parent's component (v leaving or joining it), and any child component v
  // merges into. New connections form only across edges incident to changed
  // nodes, so the union of these components contains every affected node.
  // The replicated Group-0 component is never dirtied wholesale: each of its
  // nodes owns exactly P replicas regardless of its neighbours, so joins and
  // leaves are handled per node below.
  const bool g0rep = cfg_.replicate_group0 && cfg_.cached_groups != 0;
  auto is_g0_comp = [&](NodeId cr) {
    return g0rep && pool_.at(cr).group == 0;
  };
  std::unordered_set<NodeId> dirty;
  auto mark_dirty = [&](NodeId cr) {
    if (!is_g0_comp(cr)) dirty.insert(cr);
  };
  for (const auto& [v, g] : changes) {
    const NodeRec& vr = pool_.at(v);
    mark_dirty(vr.comp_root);
    if (vr.parent != kNoNode) {
      const NodeRec& p = pool_.at(vr.parent);
      if (p.group == vr.group || p.group == g) mark_dirty(p.comp_root);
    }
    if (!vr.is_leaf()) {
      for (const NodeId c : {vr.left, vr.right})
        if (pool_.at(c).group == g) mark_dirty(pool_.at(c).comp_root);
    }
  }

  // Region = members of every dirty component (collected while the old
  // assignment is intact) plus the changed nodes themselves.
  std::vector<NodeId> region;
  for (const NodeId cr : dirty) {
    const auto members = component_members(cr);
    region.insert(region.end(), members.begin(), members.end());
  }
  for (const auto& [v, g] : changes) region.push_back(v);
  std::sort(region.begin(), region.end());
  region.erase(std::unique(region.begin(), region.end()), region.end());

  // Nodes leaving replicated Group 0 drop their P replicas.
  for (const auto& [v, g] : changes)
    if (g0rep && pool_.at(v).group == 0 && g != 0) store_.remove_all_copies(v);
  for (const NodeId cr : dirty) demolish_component(cr);
  for (const auto& [v, g] : changes) pool_.at(v).group = g;
  op_stats_.group_changes += changes.size();

  // Recompute component roots top-down inside the region (parents outside
  // the region already carry valid assignments).
  std::sort(region.begin(), region.end(), [&](NodeId a, NodeId b) {
    return pool_.at(a).depth < pool_.at(b).depth;
  });
  for (const NodeId u : region) {
    NodeRec& ur = pool_.at(u);
    if (ur.parent != kNoNode && pool_.at(ur.parent).group == ur.group) {
      ur.comp_root = pool_.at(ur.parent).comp_root;
    } else {
      ur.comp_root = u;
      ur.comp_finished = true;
    }
  }
  // Group-0 merges/splits around changed nodes: replicas never move (every
  // Group-0 node owns P copies regardless of neighbours), but the comp_root
  // fields of adjacent Group-0 components must follow the change.
  std::vector<std::pair<NodeId, int>> by_depth = changes;
  std::sort(by_depth.begin(), by_depth.end(), [&](const auto& a, const auto& b) {
    return pool_.at(a.first).depth < pool_.at(b.first).depth;
  });
  for (const auto& [v, g] : by_depth) {
    NodeRec& vr = pool_.at(v);
    if (!g0rep || vr.is_leaf()) continue;
    for (const NodeId c : {vr.left, vr.right}) {
      NodeRec& crec = pool_.at(c);
      if (crec.group != 0) continue;
      const NodeId want = vr.group == 0 ? vr.comp_root : c;
      if (crec.comp_root == want) continue;
      const NodeId old_root = crec.comp_root;
      auto walk = [&](auto&& self, NodeId nid) -> void {
        NodeRec& nrec = pool_.at(nid);
        nrec.comp_root = want;
        if (nrec.is_leaf()) return;
        for (const NodeId cc : {nrec.left, nrec.right})
          if (pool_.at(cc).comp_root == old_root) self(self, cc);
      };
      walk(walk, c);
      if (want == c) crec.comp_finished = true;
    }
  }

  std::unordered_set<NodeId> roots;
  for (const NodeId u : region) roots.insert(pool_.at(u).comp_root);
  for (const NodeId cr : roots) {
    if (is_g0_comp(cr)) {
      // Per-node Group-0 join: replicate only the region members that now
      // belong to it (the rest of the component is untouched).
      for (const NodeId u : region) {
        if (pool_.at(u).comp_root != cr) continue;
        if (store_.copy_count(u) != 0) continue;  // already replicated
        for (std::size_t mod = 0; mod < sys_.P(); ++mod)
          store_.add_copy(u, mod);
      }
    } else {
      materialize_component(cr);
    }
  }
  op_stats_.comps_rematerialized += roots.size();
}

// --- Insert / Delete -----------------------------------------------------------

std::vector<PointId> PimKdTree::insert(std::span<const Point> pts) {
  validate_points(pts, cfg_.dim, "insert");
  const WriteGate gate(*this);  // wait out in-flight pinned read phases
  pim::TraceScope span(sys_.metrics(), "insert", pts.size());
  std::vector<PointId> new_ids;
  new_ids.reserve(pts.size());
  if (!pts.empty()) ++mutation_epoch_;
  for (const Point& p : pts) {
    const auto id = static_cast<PointId>(all_points_.size());
    all_points_.push_back(p);
    alive_.push_back(1);
    new_ids.push_back(id);
  }
  live_ += pts.size();
  peak_live_ = std::max(peak_live_, live_);
  if (root_ == kNoNode) {
    full_build(new_ids);  // manages its own construction rounds
    return new_ids;
  }
  pim::RoundGuard round(sys_.metrics());

  // Stage 1: LeafSearch helper with counter updates + imbalance detection.
  const auto stops = route_batch(pts, +1);

  // Stage 2: group the stops and commit (append or partial reconstruction).
  std::unordered_map<NodeId, std::vector<std::uint32_t>> by_node;
  for (std::size_t i = 0; i < stops.size(); ++i)
    by_node[stops[i].node].push_back(static_cast<std::uint32_t>(i));

  std::vector<NodeId> touched_all;
  for (auto& [node, qis] : by_node) {
    const bool imbalanced = stops[qis.front()].imbalanced;
    std::vector<PointId> batch_ids;
    batch_ids.reserve(qis.size());
    for (const std::uint32_t qi : qis) batch_ids.push_back(new_ids[qi]);

    NodeId touched;
    if (imbalanced) {
      touched = rebuild_subtree(node, std::move(batch_ids), /*drop_dead=*/true);
    } else {
      NodeCold& nc = pool_.cold(node);
      std::vector<PointId>& leaf_pts = nc.leaf_pts;
      leaf_pts.insert(leaf_pts.end(), batch_ids.begin(), batch_ids.end());
      refresh_leaf_soa(nc, all_points_, cfg_.dim);
      pool_.at(node).exact_size = leaf_pts.size();
      store_.refresh_leaf_payload(
          node, batch_ids.size() * point_words(cfg_.dim));
      if (leaf_pts.size() > cfg_.leaf_cap) {
        touched = rebuild_subtree(node, {}, /*drop_dead=*/true);
      } else {
        touched = node;
      }
    }
    // Oracle maintenance: exact sizes above the touched position.
    if (touched != kNoNode) {
      for (NodeId cur = pool_.at(touched).parent; cur != kNoNode;
           cur = pool_.at(cur).parent)
        pool_.at(cur).exact_size += qis.size();
      touched_all.push_back(touched);
    }
  }
  repair_groups_batch(touched_all);
  return new_ids;
}

void PimKdTree::erase(std::span<const PointId> ids) {
  const WriteGate gate(*this);  // wait out in-flight pinned read phases
  pim::TraceScope span(sys_.metrics(), "erase", ids.size());
  std::vector<PointId> victims;
  victims.reserve(ids.size());
  for (const PointId id : ids) {
    if (id < alive_.size() && alive_[id]) {
      alive_[id] = 0;
      victims.push_back(id);
    }
  }
  if (victims.empty()) return;
  ++mutation_epoch_;
  live_ -= victims.size();
  pim::RoundGuard round(sys_.metrics());
  if (root_ == kNoNode) return;

  std::vector<Point> coords;
  coords.reserve(victims.size());
  for (const PointId id : victims) coords.push_back(all_points_[id]);

  const auto stops = route_batch(coords, -1);

  std::unordered_map<NodeId, std::vector<std::uint32_t>> by_node;
  for (std::size_t i = 0; i < stops.size(); ++i)
    by_node[stops[i].node].push_back(static_cast<std::uint32_t>(i));

  std::vector<NodeId> touched_all;
  for (auto& [node, qis] : by_node) {
    const bool imbalanced = stops[qis.front()].imbalanced;
    NodeId touched;
    if (imbalanced) {
      touched = rebuild_subtree(node, {}, /*drop_dead=*/true);
    } else {
      NodeCold& nc = pool_.cold(node);
      std::vector<PointId>& leaf_pts = nc.leaf_pts;
      std::unordered_set<PointId> victim_set;
      for (const std::uint32_t qi : qis) victim_set.insert(victims[qi]);
      const std::size_t before = leaf_pts.size();
      std::erase_if(leaf_pts,
                    [&](PointId id) { return victim_set.count(id) != 0; });
      assert(before - leaf_pts.size() == qis.size());
      (void)before;
      refresh_leaf_soa(nc, all_points_, cfg_.dim);
      pool_.at(node).exact_size = leaf_pts.size();
      store_.refresh_leaf_payload(node, qis.size() * point_words(cfg_.dim));
      touched = node;
    }
    if (touched != kNoNode) {
      for (NodeId cur = pool_.at(touched).parent; cur != kNoNode;
           cur = pool_.at(cur).parent)
        pool_.at(cur).exact_size -= qis.size();
      touched_all.push_back(touched);
    }
  }
  repair_groups_batch(touched_all);

  // Space reclamation: balanced deletions never trip the alpha check, so an
  // emptied-out skeleton would linger and break the O(n log* P) space bound.
  // The classic amortized fix: rebuild wholesale once half the high-water
  // mark is gone.
  if (live_ == 0) {
    demolish_subtree_storage(root_);
    destroy_subtree_mirror(root_);
    root_ = kNoNode;
    peak_live_ = 0;
  } else if (live_ * 2 < peak_live_) {
    (void)rebuild_subtree(root_, {}, /*drop_dead=*/true);
    peak_live_ = live_;
  }
}

// --- LeafSearch (Algorithm 4) ---------------------------------------------------

std::vector<NodeId> PimKdTree::leaf_search(std::span<const Point> queries) {
  validate_points(queries, cfg_.dim, "leaf_search");
  pim::TraceScope span(sys_.metrics(), "leaf_search", queries.size());
  pim::RoundGuard round(sys_.metrics());
  const auto stops = route_batch(queries, 0);
  std::vector<NodeId> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) out[i] = stops[i].node;
  return out;
}

}  // namespace pimkd::core
