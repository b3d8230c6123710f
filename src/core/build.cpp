// Construction of the PIM-kd-tree (§3.2, Algorithms 1 and 2) plus the group /
// component maintenance machinery shared with the update path.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

#include "core/pim_kdtree.hpp"
#include "parallel/thread_pool.hpp"

namespace pimkd::core {

namespace {
double log2c(double x) { return std::log2(std::max(x, 2.0)); }

// Below this many points a subtree is built sequentially: the TmpNode
// detour is pure overhead when there is nothing to fan out.
constexpr std::size_t kParallelBuildCutoff = 8192;
}  // namespace

// Shape + aggregates of a subtree under construction, before any pool node
// exists. Workers build these concurrently; NodeIds, which the cost model
// hashes for module placement, are only assigned by the sequential flatten,
// so the id order (and hence every Metrics charge) is byte-identical to the
// sequential build.
struct PimKdTree::TmpNode {
  Box box;
  Coord split_val = 0;
  std::int16_t split_dim = -1;  // -1 => leaf
  std::uint64_t size = 0;
  double max_priority = 0;
  PointId max_priority_id = kInvalidPoint;
  std::vector<PointId> leaf_pts;
  std::unique_ptr<TmpNode> left, right;
};

bool PimKdTree::choose_split(const std::vector<PointId>& ids, const Box& box,
                             Rng& rng, int& out_dim, Coord& out_val) const {
  const int d = box.widest_dim(cfg_.dim);
  if (box.hi[d] <= box.lo[d]) return false;
  auto count_left = [&](Coord v) {
    std::size_t c = 0;
    for (const PointId id : ids) c += all_points_[id][d] < v ? 1u : 0u;
    return c;
  };
  auto exact_median = [&](Coord& v) {
    std::vector<Coord> coords(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
      coords[i] = all_points_[ids[i]][d];
    std::sort(coords.begin(), coords.end());
    v = coords[coords.size() / 2];
    if (count_left(v) == 0) {
      const auto it = std::upper_bound(coords.begin(), coords.end(),
                                       coords.front());
      if (it == coords.end()) return false;  // all equal on this dim
      v = *it;
    }
    return true;
  };

  Coord val = 0;
  if (ids.size() <= cfg_.sigma) {
    // Small node: the "sample" is the whole population — exact median.
    if (!exact_median(val)) return false;
  } else {
    std::vector<Coord> sample(cfg_.sigma);
    for (std::size_t i = 0; i < cfg_.sigma; ++i)
      sample[i] = all_points_[ids[rng.next_below(ids.size())]][d];
    std::nth_element(
        sample.begin(),
        sample.begin() + static_cast<std::ptrdiff_t>(cfg_.sigma / 2),
        sample.end());
    val = sample[cfg_.sigma / 2];
    // Guard against an unlucky sample: if the resulting split would already
    // violate alpha-balance, fall back to the exact median (the PKD-tree's
    // whp guarantee, enforced deterministically here).
    const std::size_t nl = count_left(val);
    const double big = static_cast<double>(std::max(nl, ids.size() - nl));
    const double small =
        static_cast<double>(std::min(nl, ids.size() - nl)) + 1.0;
    if (nl == 0 || nl == ids.size() || big / small > 1.0 + cfg_.alpha) {
      if (!exact_median(val)) return false;
    }
  }
  const std::size_t nl = count_left(val);
  if (nl == 0 || nl == ids.size()) return false;
  out_dim = d;
  out_val = val;
  return true;
}

NodeId PimKdTree::build_subtree(std::vector<PointId> ids, NodeId parent,
                                std::uint32_t depth, Rng rng,
                                std::size_t work_module) {
  const NodeId nid = pool_.create();
  NodeRec& n = pool_.at(nid);
  n.parent = parent;
  n.depth = depth;
  n.exact_size = ids.size();
  n.counter = static_cast<double>(ids.size());
  n.box = Box::empty(cfg_.dim);
  for (const PointId id : ids) n.box.extend(all_points_[id], cfg_.dim);
  // Priority aggregates (DPC priority-search kd-tree, §6.1).
  if (!priorities_.empty()) {
    NodeCold& nc = pool_.cold(nid);
    nc.max_priority_id = kInvalidPoint;
    for (const PointId id : ids) {
      if (nc.max_priority_id == kInvalidPoint ||
          priorities_[id] > nc.max_priority ||
          (priorities_[id] == nc.max_priority && id > nc.max_priority_id)) {
        nc.max_priority = priorities_[id];
        nc.max_priority_id = id;
      }
    }
  }
  // Charge one unit per point per level: O(n log n) build work in total.
  // A dead target module can't compute — the host stands in (CPU-charged).
  const std::uint64_t level_work = std::max<std::uint64_t>(ids.size(), 1);
  std::size_t wm = work_module;
  if (wm == kWorkByHash) wm = sys_.module_of(nid);
  if (wm == kWorkCpu || !sys_.module_alive(wm)) {
    sys_.metrics().add_cpu_work(level_work);
  } else {
    sys_.metrics().add_module_work(wm, level_work);
  }

  int d = 0;
  Coord val = 0;
  if (ids.size() <= cfg_.leaf_cap || !choose_split(ids, n.box, rng, d, val)) {
    NodeCold& nc = pool_.cold(nid);
    nc.leaf_pts = std::move(ids);
    refresh_leaf_soa(nc, all_points_, cfg_.dim);
    return nid;
  }
  const auto mid = std::partition(ids.begin(), ids.end(), [&](PointId id) {
    return all_points_[id][d] < val;
  });
  std::vector<PointId> left_ids(ids.begin(), mid);
  std::vector<PointId> right_ids(mid, ids.end());
  ids.clear();
  ids.shrink_to_fit();
  const NodeId left =
      build_subtree(std::move(left_ids), nid, depth + 1, rng.split(1),
                    work_module);
  const NodeId right =
      build_subtree(std::move(right_ids), nid, depth + 1, rng.split(2),
                    work_module);
  NodeRec& n2 = pool_.at(nid);
  n2.split_dim = static_cast<std::int16_t>(d);
  n2.split_val = val;
  n2.left = left;
  n2.right = right;
  return nid;
}

bool PimKdTree::tmp_split(TmpNode& t, std::vector<PointId>& ids,
                          Rng& rng) const {
  t.size = ids.size();
  t.box = Box::empty(cfg_.dim);
  for (const PointId id : ids) t.box.extend(all_points_[id], cfg_.dim);
  if (!priorities_.empty()) {
    t.max_priority_id = kInvalidPoint;
    for (const PointId id : ids) {
      if (t.max_priority_id == kInvalidPoint ||
          priorities_[id] > t.max_priority ||
          (priorities_[id] == t.max_priority && id > t.max_priority_id)) {
        t.max_priority = priorities_[id];
        t.max_priority_id = id;
      }
    }
  }
  int d = 0;
  Coord val = 0;
  if (ids.size() <= cfg_.leaf_cap || !choose_split(ids, t.box, rng, d, val))
    return false;
  t.split_dim = static_cast<std::int16_t>(d);
  t.split_val = val;
  return true;
}

std::unique_ptr<PimKdTree::TmpNode> PimKdTree::build_tmp(
    std::vector<PointId> ids, Rng rng) const {
  auto t = std::make_unique<TmpNode>();
  if (!tmp_split(*t, ids, rng)) {
    t->leaf_pts = std::move(ids);
    return t;
  }
  // The per-node partition stays sequential even here: choose_split samples
  // by index into the post-partition permutation, so reproducing the
  // sequential tree (and thus the sequential cost ledger) requires exactly
  // std::partition's arrangement. Parallelism comes from disjoint subtrees.
  const int d = t->split_dim;
  const Coord val = t->split_val;
  const auto mid = std::partition(ids.begin(), ids.end(), [&](PointId id) {
    return all_points_[id][d] < val;
  });
  std::vector<PointId> left_ids(ids.begin(), mid);
  std::vector<PointId> right_ids(mid, ids.end());
  ids.clear();
  ids.shrink_to_fit();
  t->left = build_tmp(std::move(left_ids), rng.split(1));
  t->right = build_tmp(std::move(right_ids), rng.split(2));
  return t;
}

std::unique_ptr<PimKdTree::TmpNode> PimKdTree::build_tmp_parallel(
    std::vector<PointId> ids, Rng rng) const {
  ThreadPool& pool = ThreadPool::instance();
  // Expand the top of the tree on the calling thread until the remaining
  // subtrees are small enough to spread, then build those concurrently.
  // (Nested run_bulk executes inline, so forking from inside build_tmp would
  // gain nothing; an explicit frontier keeps every worker busy.)
  const std::size_t grain = std::max<std::size_t>(
      ids.size() / (4 * pool.size()), kParallelBuildCutoff / 4);
  struct Fork {
    std::unique_ptr<TmpNode>* slot;
    std::vector<PointId> ids;
    Rng rng;
  };
  std::unique_ptr<TmpNode> root;
  std::vector<Fork> frontier;
  auto expand = [&](auto&& self, std::unique_ptr<TmpNode>& slot,
                    std::vector<PointId> part, Rng prng) -> void {
    if (part.size() <= grain) {
      frontier.push_back(Fork{&slot, std::move(part), prng});
      return;
    }
    slot = std::make_unique<TmpNode>();
    TmpNode& t = *slot;
    if (!tmp_split(t, part, prng)) {
      t.leaf_pts = std::move(part);
      return;
    }
    const int d = t.split_dim;
    const Coord val = t.split_val;
    const auto mid = std::partition(part.begin(), part.end(), [&](PointId id) {
      return all_points_[id][d] < val;
    });
    std::vector<PointId> lp(part.begin(), mid);
    std::vector<PointId> rp(mid, part.end());
    part.clear();
    part.shrink_to_fit();
    self(self, t.left, std::move(lp), prng.split(1));
    self(self, t.right, std::move(rp), prng.split(2));
  };
  expand(expand, root, std::move(ids), rng);
  pool.run_bulk(frontier.size(), [&](std::size_t i) {
    *frontier[i].slot = build_tmp(std::move(frontier[i].ids), frontier[i].rng);
  });
  return root;
}

NodeId PimKdTree::flatten_tmp(TmpNode& t, NodeId parent, std::uint32_t depth,
                              std::size_t work_module) {
  const NodeId nid = pool_.create();
  NodeRec& n = pool_.at(nid);
  n.parent = parent;
  n.depth = depth;
  n.exact_size = t.size;
  n.counter = static_cast<double>(t.size);
  n.box = t.box;
  if (!priorities_.empty()) {
    NodeCold& nc = pool_.cold(nid);
    nc.max_priority = t.max_priority;
    nc.max_priority_id = t.max_priority_id;
  }
  const std::uint64_t level_work = std::max<std::uint64_t>(t.size, 1);
  std::size_t wm = work_module;
  if (wm == kWorkByHash) wm = sys_.module_of(nid);
  if (wm == kWorkCpu || !sys_.module_alive(wm)) {
    sys_.metrics().add_cpu_work(level_work);
  } else {
    sys_.metrics().add_module_work(wm, level_work);
  }
  if (t.split_dim < 0) {
    NodeCold& nc = pool_.cold(nid);
    nc.leaf_pts = std::move(t.leaf_pts);
    refresh_leaf_soa(nc, all_points_, cfg_.dim);
    return nid;
  }
  const NodeId left = flatten_tmp(*t.left, nid, depth + 1, work_module);
  const NodeId right = flatten_tmp(*t.right, nid, depth + 1, work_module);
  NodeRec& n2 = pool_.at(nid);
  n2.split_dim = t.split_dim;
  n2.split_val = t.split_val;
  n2.left = left;
  n2.right = right;
  return nid;
}

NodeId PimKdTree::build_subtree_parallel(std::vector<PointId> ids,
                                         NodeId parent, std::uint32_t depth,
                                         Rng rng, std::size_t work_module) {
  if (ids.size() < kParallelBuildCutoff ||
      ThreadPool::instance().size() <= 1 || ThreadPool::in_worker())
    return build_subtree(std::move(ids), parent, depth, rng, work_module);
  auto tmp = build_tmp_parallel(std::move(ids), rng);
  return flatten_tmp(*tmp, parent, depth, work_module);
}

void PimKdTree::full_build(std::vector<PointId> ids) {
  if (ids.empty()) {
    root_ = kNoNode;
    return;
  }
  pim::TraceScope span(sys_.metrics(), "build", ids.size());
  const std::size_t n = ids.size();
  const std::size_t P = sys_.P();
  const std::size_t sketch_cap =
      std::min<std::size_t>(P * cfg_.sigma, sys_.metrics().cache_words());

  // Round 1: sketch on the CPU, route every point to a module (Alg. 2, 2-6).
  sys_.metrics().begin_round();
  NodeId built;
  if (n <= std::max<std::size_t>(P * cfg_.leaf_cap, sketch_cap) / 2 || P == 1) {
    // Small input: shared-memory construction in the CPU cache (§3.2 notes
    // the n' = O(M) case), then distribute.
    sys_.metrics().add_cpu_work(
        static_cast<std::uint64_t>(static_cast<double>(n) * log2c(double(n))));
    built = build_subtree_parallel(std::move(ids), kNoNode, 0,
                                   rng_.split(rng_.next_u64()), kWorkCpu);
    sys_.metrics().end_round();
  } else {
    // Sketch: sample P*sigma points, build the top of the tree on the CPU
    // until it has P buckets, routing all points down. Skeleton nodes are
    // final tree nodes; their splitters come from the sample only.
    sys_.metrics().add_cpu_work(static_cast<std::uint64_t>(
        static_cast<double>(sketch_cap) * log2c(double(sketch_cap))));
    // Routing cost: each point descends the O(log P)-deep skeleton.
    sys_.metrics().add_cpu_work(static_cast<std::uint64_t>(
        static_cast<double>(n) * log2c(double(P))));

    struct Bucket {
      std::vector<PointId> ids;
      NodeId parent;
      bool left_child;
      std::uint32_t depth;
    };
    std::vector<Bucket> buckets;
    // Recursive skeleton split until `want` buckets per branch.
    auto skel = [&](auto&& self, std::vector<PointId> part, NodeId parent,
                    bool is_left, std::uint32_t depth,
                    std::size_t want, Rng rng) -> void {
      int d = 0;
      Coord val = 0;
      Box bb = Box::empty(cfg_.dim);
      for (const PointId id : part) bb.extend(all_points_[id], cfg_.dim);
      if (want <= 1 || part.size() <= cfg_.leaf_cap ||
          !choose_split(part, bb, rng, d, val)) {
        buckets.push_back(Bucket{std::move(part), parent, is_left, depth});
        return;
      }
      const NodeId nid = pool_.create();
      NodeRec& rec = pool_.at(nid);
      rec.parent = parent;
      rec.depth = depth;
      rec.box = bb;
      rec.split_dim = static_cast<std::int16_t>(d);
      rec.split_val = val;
      rec.exact_size = part.size();
      rec.counter = static_cast<double>(part.size());
      if (parent == kNoNode) {
        root_ = nid;
      } else if (is_left) {
        pool_.at(parent).left = nid;
      } else {
        pool_.at(parent).right = nid;
      }
      const auto mid =
          std::partition(part.begin(), part.end(), [&](PointId id) {
            return all_points_[id][d] < val;
          });
      std::vector<PointId> lp(part.begin(), mid);
      std::vector<PointId> rp(mid, part.end());
      part.clear();
      part.shrink_to_fit();
      self(self, std::move(lp), nid, true, depth + 1, want / 2, rng.split(1));
      self(self, std::move(rp), nid, false, depth + 1, want - want / 2,
           rng.split(2));
    };
    root_ = kNoNode;
    skel(skel, std::move(ids), kNoNode, true, 0, P, rng_.split(rng_.next_u64()));
    // Ship each bucket to its module (dead targets: the host keeps the
    // bucket and builds locally, so no words cross off-chip).
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      const std::size_t m = b % P;
      if (!sys_.module_alive(m)) continue;
      sys_.metrics().add_comm(
          m, static_cast<std::uint64_t>(buckets[b].ids.size()) *
                 point_words(cfg_.dim));
    }
    sys_.metrics().end_round();

    // Round 2: every module builds its subtree locally (Alg. 2, 7-8).
    sys_.metrics().begin_round();
    // Host-parallel mirror of the per-module builds: shapes are computed
    // concurrently (bucket point sets are disjoint), then flattened into the
    // pool bucket-by-bucket so NodeIds — and with them module placement and
    // every ledger charge — match the sequential order exactly. Rng::split
    // is const, so precollecting the per-bucket streams changes nothing.
    std::vector<std::unique_ptr<TmpNode>> shapes(buckets.size());
    if (!buckets.empty() && ThreadPool::instance().size() > 1 &&
        !ThreadPool::in_worker() && n >= kParallelBuildCutoff) {
      std::vector<Rng> rngs;
      rngs.reserve(buckets.size());
      for (std::size_t b = 0; b < buckets.size(); ++b)
        rngs.push_back(rng_.split(0xb00 + b));
      ThreadPool::instance().run_bulk(buckets.size(), [&](std::size_t b) {
        shapes[b] = build_tmp(std::move(buckets[b].ids), rngs[b]);
      });
    }
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      Bucket& bk = buckets[b];
      const std::size_t m = b % P;
      const std::size_t before = pool_.size();
      const NodeId sub =
          shapes[b] ? flatten_tmp(*shapes[b], bk.parent, bk.depth, m)
                    : build_subtree(std::move(bk.ids), bk.parent, bk.depth,
                                    rng_.split(0xb00 + b), m);
      if (bk.parent == kNoNode) {
        root_ = sub;
      } else if (bk.left_child) {
        pool_.at(bk.parent).left = sub;
      } else {
        pool_.at(bk.parent).right = sub;
      }
      // "Send T_i to CPU": the built structure crosses off-chip once.
      if (sys_.module_alive(m))
        sys_.metrics().add_comm(
            m, static_cast<std::uint64_t>(pool_.size() - before) *
                   node_words(cfg_.dim));
    }
    sys_.metrics().end_round();
    sys_.metrics().begin_round();
    built = root_;
  }

  // Final phase: decompose and scatter all replicas (Alg. 2, 9-10).
  if (!sys_.metrics().in_round()) sys_.metrics().begin_round();
  root_ = built;
  assign_groups_subtree(root_);
  assign_components_subtree(root_);
  std::vector<NodeId> comp_roots;
  pool_.for_each([&](const NodeRec& rec) {
    if (rec.comp_root == rec.id) comp_roots.push_back(rec.id);
  });
  for (const NodeId cr : comp_roots) materialize_component(cr);
  sys_.metrics().end_round();
}

NodeId PimKdTree::rebuild_subtree(NodeId old_subtree,
                                  std::vector<PointId> extra, bool drop_dead) {
  assert(sys_.metrics().in_round());
  const NodeRec& old_rec = pool_.at(old_subtree);
  const NodeId parent = old_rec.parent;
  const std::uint32_t depth = old_rec.depth;
  // Incrementally detach the old subtree from the enclosing component (only
  // the chain copies its members hold for outside ancestors need explicit
  // removal) — the rest of the component keeps its caches untouched.
  detach_subtree_from_parent_comp(old_subtree);

  std::vector<PointId> pts = std::move(extra);
  op_stats_.words_rebuild_collect +=
      collect_subtree_points(old_subtree, pts, /*charge=*/true);
  if (drop_dead)
    std::erase_if(pts, [&](PointId id) { return !alive_[id]; });
  demolish_subtree_storage(old_subtree);
  destroy_subtree_mirror(old_subtree);

  ++op_stats_.rebuilds;
  op_stats_.rebuild_points += pts.size();
  // Reconstruction work is offloaded (Alg. 2 used as a subroutine); nodes
  // land on hash-random modules, so rebuild work is spread whp. An empty
  // point set still builds an (empty) leaf so interior nodes always have two
  // children.
  const NodeId fresh = build_subtree_parallel(
      std::move(pts), parent, depth, rng_.split(rng_.next_u64()), kWorkByHash);
  splice(parent, old_subtree, fresh);
  assign_groups_subtree(fresh);
  assign_components_subtree(fresh);
  // Materialize components rooted inside the fresh subtree, then attach any
  // fresh top nodes that joined the enclosing component.
  std::vector<NodeId> inner_roots;
  auto walk = [&](auto&& self, NodeId nid) -> void {
    const NodeRec& rec = pool_.at(nid);
    if (rec.comp_root == nid) inner_roots.push_back(nid);
    if (!rec.is_leaf()) {
      self(self, rec.left);
      self(self, rec.right);
    }
  };
  walk(walk, fresh);
  for (const NodeId cr : inner_roots) materialize_component(cr);
  attach_subtree_to_parent_comp(fresh);
  return fresh;
}

void PimKdTree::assign_groups_subtree(NodeId subtree) {
  if (subtree == kNoNode) return;
  NodeRec& rec = pool_.at(subtree);
  rec.group = group_of(std::max(rec.counter, 1.0), thresholds_);
  if (!rec.is_leaf()) {
    assign_groups_subtree(rec.left);
    assign_groups_subtree(rec.right);
  }
}

void PimKdTree::assign_components_subtree(NodeId subtree) {
  if (subtree == kNoNode) return;
  NodeRec& rec = pool_.at(subtree);
  const NodeId parent = rec.parent;
  if (parent != kNoNode && pool_.at(parent).group == rec.group) {
    rec.comp_root = pool_.at(parent).comp_root;
  } else {
    rec.comp_root = subtree;
    rec.comp_finished = true;
  }
  if (!rec.is_leaf()) {
    assign_components_subtree(rec.left);
    assign_components_subtree(rec.right);
  }
}

std::vector<NodeId> PimKdTree::component_members(NodeId comp_root) const {
  std::vector<NodeId> members;
  auto walk = [&](auto&& self, NodeId nid) -> void {
    members.push_back(nid);
    const NodeRec& rec = pool_.at(nid);
    if (rec.is_leaf()) return;
    if (pool_.at(rec.left).comp_root == comp_root) self(self, rec.left);
    if (pool_.at(rec.right).comp_root == comp_root) self(self, rec.right);
  };
  walk(walk, comp_root);
  return members;
}

void PimKdTree::materialize_component(NodeId comp_root) {
  assert(sys_.metrics().in_round());
  std::uint64_t& words = op_stats_.words_materialize;  // what this ships
  NodeRec& root_rec = pool_.at(comp_root);
  const int group = root_rec.group;
  const std::size_t P = sys_.P();
  const bool g0_replicated =
      group == 0 && cfg_.replicate_group0 && cfg_.cached_groups != 0;

  // §3.4 delayed construction: oversized Group-1 components get masters only
  // until enough of them accumulate for a balanced bulk finish.
  if (cfg_.delayed_construction && group == 1 && root_rec.comp_finished) {
    const std::size_t limit = std::max<std::size_t>(
        1, pool_.size() / std::max<std::size_t>(
                              1, P * static_cast<std::size_t>(log2c(double(P)))));
    const auto members = component_members(comp_root);
    if (members.size() > limit) {
      root_rec.comp_finished = false;
      unfinished_.push_back(comp_root);
      for (const NodeId m : members)
        words += store_.add_copy(m, store_.master_of(m));
      const std::size_t finish_at =
          cfg_.delayed_finish_multiplier * P *
          static_cast<std::size_t>(log2c(double(P)));
      if (unfinished_.size() > finish_at) words += finish_delayed_components();
      return;
    }
  }

  if (g0_replicated) {
    const auto members = component_members(comp_root);
    for (const NodeId m : members)
      for (std::size_t mod = 0; mod < P; ++mod) words += store_.add_copy(m, mod);
    return;
  }

  for (const NodeId m : component_members(comp_root))
    words += store_.add_copy(m, store_.master_of(m));
  words += materialize_pair_caches(comp_root);
}

PimKdTree::CacheFlags PimKdTree::cache_flags(int group,
                                             CachingMode mode) const {
  const bool cached = cfg_.cached_groups < 0 || group < cfg_.cached_groups;
  CacheFlags f;
  f.topdown = cached && (mode == CachingMode::kTopDown ||
                         mode == CachingMode::kDual);
  f.bottomup = cached && (mode == CachingMode::kBottomUp ||
                          mode == CachingMode::kDual);
  return f;
}

void PimKdTree::fast_join_member(NodeId v) {
  const NodeRec& vr = pool_.at(v);
  assert(vr.comp_root != v);
  const NodeRec& croot = pool_.at(vr.comp_root);
  if (!croot.comp_finished) return;  // unfinished comps carry masters only
  const auto [topdown, bottomup] = cache_flags(vr.group);
  if (!topdown && !bottomup) return;
  for (NodeId a = vr.parent;; a = pool_.at(a).parent) {
    if (topdown) store_.add_copy(v, store_.master_of(a));
    if (bottomup) store_.add_copy(a, store_.master_of(v));
    if (a == vr.comp_root) break;
  }
}

void PimKdTree::fast_leave_member(NodeId v) {
  const NodeRec& vr = pool_.at(v);
  assert(vr.comp_root != v);
  const NodeRec& croot = pool_.at(vr.comp_root);
  if (!croot.comp_finished) return;
  const auto [topdown, bottomup] = cache_flags(vr.group);
  if (!topdown && !bottomup) return;
  for (NodeId a = vr.parent;; a = pool_.at(a).parent) {
    if (topdown) store_.remove_one_copy(v, store_.master_of(a));
    if (bottomup) store_.remove_one_copy(a, store_.master_of(v));
    if (a == vr.comp_root) break;
  }
}

void PimKdTree::detach_subtree_from_parent_comp(NodeId subtree_root) {
  const NodeRec& sr = pool_.at(subtree_root);
  if (sr.parent == kNoNode) return;
  const NodeId proot = pool_.at(sr.parent).comp_root;
  if (sr.comp_root != proot) return;  // subtree top not in the parent comp
  if (pool_.at(proot).group == 0 && cfg_.replicate_group0 &&
      cfg_.cached_groups != 0)
    return;  // Group 0 is P-way replicated, not pair-cached: the subtree's
             // replicas die with their registry entries, nothing else moves.
  if (!pool_.at(proot).comp_finished) return;
  // Top-down copies of subtree nodes die with their registry entries when the
  // subtree storage is demolished; only the bottom-up chain copies that
  // subtree members hold for *outside* ancestors must be removed explicitly.
  const auto [topdown, bottomup] = cache_flags(sr.group);
  (void)topdown;
  if (!bottomup) return;
  std::vector<NodeId> outside;
  for (NodeId a = sr.parent;; a = pool_.at(a).parent) {
    outside.push_back(a);
    if (a == proot) break;
  }
  auto walk = [&](auto&& self, NodeId nid) -> void {
    for (const NodeId a : outside)
      store_.remove_one_copy(a, store_.master_of(nid));
    const NodeRec& rec = pool_.at(nid);
    if (rec.is_leaf()) return;
    for (const NodeId c : {rec.left, rec.right})
      if (pool_.at(c).comp_root == proot) self(self, c);
  };
  walk(walk, subtree_root);
}

void PimKdTree::attach_subtree_to_parent_comp(NodeId subtree_root) {
  const NodeRec& sr = pool_.at(subtree_root);
  if (sr.parent == kNoNode) return;
  const NodeId proot = pool_.at(sr.parent).comp_root;
  if (sr.comp_root != proot) return;
  if (pool_.at(proot).group == 0 && cfg_.replicate_group0 &&
      cfg_.cached_groups != 0) {
    // Fresh top nodes joining Group 0 get full P-way replication.
    auto walk = [&](auto&& self, NodeId nid) -> void {
      for (std::size_t mod = 0; mod < sys_.P(); ++mod)
        store_.add_copy(nid, mod);
      const NodeRec& rec = pool_.at(nid);
      if (rec.is_leaf()) return;
      for (const NodeId c : {rec.left, rec.right})
        if (pool_.at(c).comp_root == proot) self(self, c);
    };
    walk(walk, subtree_root);
    return;
  }
  const bool finished = pool_.at(proot).comp_finished;
  const auto [topdown, bottomup] = cache_flags(sr.group);
  std::vector<NodeId> anc;  // strict comp ancestors of the current node
  for (NodeId a = sr.parent;; a = pool_.at(a).parent) {
    anc.push_back(a);
    if (a == proot) break;
  }
  auto walk = [&](auto&& self, NodeId nid) -> void {
    store_.add_copy(nid, store_.master_of(nid));  // master
    if (finished) {
      for (const NodeId a : anc) {
        if (topdown) store_.add_copy(nid, store_.master_of(a));
        if (bottomup) store_.add_copy(a, store_.master_of(nid));
      }
    }
    const NodeRec& rec = pool_.at(nid);
    if (rec.is_leaf()) return;
    anc.push_back(nid);
    for (const NodeId c : {rec.left, rec.right})
      if (pool_.at(c).comp_root == proot) self(self, c);
    anc.pop_back();
  };
  walk(walk, subtree_root);
}

std::uint64_t PimKdTree::materialize_pair_caches(NodeId comp_root) {
  const int group = pool_.at(comp_root).group;
  const auto [topdown, bottomup] = cache_flags(group);
  if (!topdown && !bottomup) return 0;
  std::uint64_t words = 0;
  std::vector<NodeId> anc_stack;
  auto walk = [&](auto&& self, NodeId nid) -> void {
    for (const NodeId a : anc_stack) {
      if (topdown) words += store_.add_copy(nid, store_.master_of(a));
      if (bottomup) words += store_.add_copy(a, store_.master_of(nid));
    }
    const NodeRec& rec = pool_.at(nid);
    if (rec.is_leaf()) return;
    anc_stack.push_back(nid);
    if (pool_.at(rec.left).comp_root == comp_root) self(self, rec.left);
    if (pool_.at(rec.right).comp_root == comp_root) self(self, rec.right);
    anc_stack.pop_back();
  };
  walk(walk, comp_root);
  return words;
}

std::uint64_t PimKdTree::finish_delayed_components() {
  const WriteGate gate(*this);  // wait out in-flight pinned read phases
  if (!unfinished_.empty()) ++mutation_epoch_;
  pim::TraceScope span(sys_.metrics(), "finish_delayed", unfinished_.size());
  pim::RoundGuard round(sys_.metrics());
  std::uint64_t words = 0;
  for (const NodeId cr : unfinished_) {
    if (!pool_.contains(cr)) continue;  // destroyed by a rebuild meanwhile
    NodeRec& rec = pool_.at(cr);
    if (rec.comp_root != cr || rec.comp_finished) continue;
    rec.comp_finished = true;
    words += materialize_pair_caches(cr);
  }
  unfinished_.clear();
  return words;
}

void PimKdTree::demolish_component(NodeId comp_root) {
  for (const NodeId m : component_members(comp_root))
    store_.remove_all_copies(m);
}

void PimKdTree::demolish_subtree_storage(NodeId subtree) {
  if (subtree == kNoNode) return;
  const NodeRec& rec = pool_.at(subtree);
  store_.remove_all_copies(subtree);
  if (!rec.is_leaf()) {
    demolish_subtree_storage(rec.left);
    demolish_subtree_storage(rec.right);
  }
}

void PimKdTree::destroy_subtree_mirror(NodeId subtree) {
  if (subtree == kNoNode) return;
  const NodeRec rec = pool_.at(subtree);
  if (!rec.is_leaf()) {
    destroy_subtree_mirror(rec.left);
    destroy_subtree_mirror(rec.right);
  }
  store_.drop_remap(subtree);  // dead NodeIds never come back; prune the pin
  pool_.destroy(subtree);
}

std::uint64_t PimKdTree::collect_subtree_points(NodeId subtree,
                                                std::vector<PointId>& out,
                                                bool charge) {
  const NodeRec& rec = pool_.at(subtree);
  if (rec.is_leaf()) {
    const std::vector<PointId>& pts = pool_.cold(subtree).leaf_pts;
    out.insert(out.end(), pts.begin(), pts.end());
    if (!charge) return 0;
    const std::size_t m = store_.master_of(subtree);
    const auto words =
        static_cast<std::uint64_t>(pts.size()) * point_words(cfg_.dim);
    if (!sys_.module_alive(m)) {
      // Master down: the payload comes from the host mirror.
      sys_.metrics().add_cpu_work(words);
      return 0;
    }
    sys_.metrics().add_comm(m, words);
    return words;
  }
  const std::uint64_t left = collect_subtree_points(rec.left, out, charge);
  return left + collect_subtree_points(rec.right, out, charge);
}

void PimKdTree::splice(NodeId parent, NodeId old_child, NodeId new_child) {
  if (parent == kNoNode) {
    root_ = new_child;
    return;
  }
  NodeRec& p = pool_.at(parent);
  if (p.left == old_child) {
    p.left = new_child;
  } else {
    assert(p.right == old_child);
    p.right = new_child;
  }
}

std::uint64_t PimKdTree::push_pull_threshold() const {
  const double hg1 = log2c(static_cast<double>(sys_.P())) + 1.0;
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(cfg_.push_pull_c * hg1));
}

}  // namespace pimkd::core
