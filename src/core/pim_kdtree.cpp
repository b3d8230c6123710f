// PimKdTree construction entry points and introspection / invariant checks.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "core/pim_kdtree.hpp"

namespace pimkd::core {

PimKdTree::PimKdTree(const PimKdConfig& cfg)
    : cfg_(cfg),
      // validate() before the system exists: a malformed config (e.g. zero
      // modules) must throw std::invalid_argument, not corrupt construction.
      sys_((cfg_.validate(), cfg_.system)),
      trace_(pim::TraceSink::open(cfg.trace_path)),
      store_(cfg_, sys_, pool_),
      rng_(cfg.system.seed ^ 0x7ee1),
      thresholds_(group_thresholds(cfg.system.num_modules)) {
  if (trace_) sys_.metrics().set_trace_sink(trace_.get());
  // Leaf-scan kernel ISA: an explicit config request wins; empty defers to
  // the process-wide PIMKD_SIMD env resolution. Either way results are
  // bit-identical to scalar (util/kernels.hpp); only wall-clock differs.
  isa_ = cfg_.simd.empty()
             ? kernels::active()
             : kernels::resolve(kernels::parse_request(cfg_.simd));
}

PimKdTree::PimKdTree(const PimKdConfig& cfg, std::span<const Point> pts)
    : PimKdTree(cfg) {
  if (!pts.empty()) (void)insert(pts);
}

PimKdTree::~PimKdTree() { sys_.metrics().set_trace_sink(nullptr); }

std::vector<std::size_t> PimKdTree::query_start_modules() const {
  std::vector<std::size_t> out;
  out.reserve(sys_.P());
  for (std::size_t m = 0; m < sys_.P(); ++m)
    if (sys_.module_alive(m)) out.push_back(m);
  return out;
}

std::size_t PimKdTree::height() const {
  return root_ == kNoNode ? 0 : height_rec(root_);
}

std::size_t PimKdTree::height_rec(NodeId nid) const {
  const NodeRec& n = pool_.at(nid);
  if (n.is_leaf()) return 1;
  return 1 + std::max(height_rec(n.left), height_rec(n.right));
}

std::vector<GroupStats> PimKdTree::decomposition_stats() const {
  std::vector<GroupStats> stats(thresholds_.size());
  if (root_ == kNoNode) return stats;
  pool_.for_each([&](const NodeRec& rec) {
    auto& g = stats[static_cast<std::size_t>(rec.group)];
    ++g.nodes;
    if (rec.comp_root == rec.id) ++g.components;
  });
  // Component sizes / heights.
  pool_.for_each([&](const NodeRec& rec) {
    if (rec.comp_root != rec.id) return;
    auto& g = stats[static_cast<std::size_t>(rec.group)];
    std::size_t size = 0;
    std::size_t height = 0;
    auto walk = [&](auto&& self, NodeId nid, std::size_t depth) -> void {
      ++size;
      height = std::max(height, depth + 1);
      const NodeRec& n = pool_.at(nid);
      if (n.is_leaf()) return;
      if (pool_.at(n.left).comp_root == rec.id) self(self, n.left, depth + 1);
      if (pool_.at(n.right).comp_root == rec.id) self(self, n.right, depth + 1);
    };
    walk(walk, rec.id, 0);
    g.max_component_size = std::max(g.max_component_size, size);
    g.max_component_height = std::max(g.max_component_height, height);
  });
  return stats;
}

bool PimKdTree::check_node_invariants(NodeId nid, std::uint64_t& size_out) const {
#define PIMKD_FAIL(msg)                                                     \
  do {                                                                      \
    std::fprintf(stderr, "invariant violated: %s (node %llu)\n", msg,      \
                 static_cast<unsigned long long>(nid));                     \
    return false;                                                           \
  } while (0)
  const NodeRec& n = pool_.at(nid);
  // Group derived from the counter.
  if (n.group != group_of(std::max(n.counter, 1.0), thresholds_))
    PIMKD_FAIL("group != group_of(counter)");
  // Component root rule.
  if (n.parent != kNoNode && pool_.at(n.parent).group == n.group) {
    if (n.comp_root != pool_.at(n.parent).comp_root)
      PIMKD_FAIL("comp_root != parent comp_root");
  } else {
    if (n.comp_root != nid) PIMKD_FAIL("comp_root != self at boundary");
  }
  // Depth bookkeeping.
  if (n.parent != kNoNode && n.depth != pool_.at(n.parent).depth + 1)
    PIMKD_FAIL("depth");
  if (n.parent == kNoNode && n.depth != 0) PIMKD_FAIL("root depth");

  // Replica placement: count expected copies from the component structure.
  const bool g0 = n.group == 0 && cfg_.replicate_group0 &&
                  cfg_.cached_groups != 0;
  const bool cached =
      cfg_.cached_groups < 0 || n.group < cfg_.cached_groups;
  const bool finished = pool_.at(n.comp_root).comp_finished;
  std::size_t expected = 1;  // master
  if (g0) {
    expected = sys_.P();
  } else if (cached && finished) {
    std::size_t anc = 0;
    for (NodeId cur = nid; cur != n.comp_root; cur = pool_.at(cur).parent)
      ++anc;
    std::size_t desc = 0;
    auto walk = [&](auto&& self, NodeId u) -> void {
      const NodeRec& ur = pool_.at(u);
      if (ur.is_leaf()) return;
      for (const NodeId c : {ur.left, ur.right}) {
        if (pool_.at(c).comp_root == n.comp_root) {
          ++desc;
          self(self, c);
        }
      }
    };
    walk(walk, nid);
    if (cfg_.caching == CachingMode::kTopDown ||
        cfg_.caching == CachingMode::kDual)
      expected += anc;
    if (cfg_.caching == CachingMode::kBottomUp ||
        cfg_.caching == CachingMode::kDual)
      expected += desc;
  }
  if (store_.copy_count(nid) != expected) {
    std::fprintf(stderr,
                 "invariant violated: copies=%zu expected=%zu (node %llu, "
                 "group %d, comp_root %llu)\n",
                 store_.copy_count(nid), expected,
                 static_cast<unsigned long long>(nid), n.group,
                 static_cast<unsigned long long>(n.comp_root));
    return false;
  }
  // Master present; all copy counters in sync with the canonical value; leaf
  // payload replicated beside every copy.
  bool master_seen = false;
  for (const std::uint32_t m : store_.copy_modules(nid)) {
    if (m == store_.master_of(nid)) master_seen = true;
    const Replica* copy = store_.present_copy(nid, m);
    if (copy == nullptr) PIMKD_FAIL("copy missing on module");
    if (copy->counter != n.counter) PIMKD_FAIL("copy counter desync");
    const std::size_t payload =
        n.is_leaf() ? pool_.cold(nid).leaf_pts.size() : 0;
    if (copy->payload_pts != payload) PIMKD_FAIL("leaf payload desync");
  }
  if (!master_seen && !g0) PIMKD_FAIL("master copy absent");

  if (n.is_leaf()) {
    const NodeCold& nc = pool_.cold(nid);
    const std::vector<PointId>& pts = nc.leaf_pts;
    for (const PointId id : pts) {
      if (!alive_[id]) return false;
      if (!n.box.contains(all_points_[id], cfg_.dim)) return false;
    }
    if (n.exact_size != pts.size()) PIMKD_FAIL("leaf exact_size");
    // SoA mirror: element-for-element (bitwise) equal to leaf_pts'
    // coordinates, padded lanes zero-filled.
    if (nc.soa.n != pts.size()) PIMKD_FAIL("leaf soa count desync");
    if (nc.soa.stride <
        (nc.soa.n + kernels::kLaneWidth - 1) / kernels::kLaneWidth *
            kernels::kLaneWidth)
      PIMKD_FAIL("leaf soa stride too small");
    for (std::uint32_t i = 0; i < nc.soa.n; ++i)
      for (int d = 0; d < cfg_.dim; ++d)
        if (nc.soa.row(d)[i] != all_points_[pts[i]][d])
          PIMKD_FAIL("leaf soa coordinate desync");
    size_out = pts.size();
    return true;
  }
  const NodeRec& l = pool_.at(n.left);
  const NodeRec& r = pool_.at(n.right);
  if (l.parent != nid || r.parent != nid) PIMKD_FAIL("child parent link");
  std::uint64_t ls = 0;
  std::uint64_t rs = 0;
  if (!check_node_invariants(n.left, ls)) return false;
  if (!check_node_invariants(n.right, rs)) return false;
  if (n.exact_size != ls + rs) PIMKD_FAIL("interior exact_size");
  // Boxes are (possibly loose) supersets of the children.
  if (ls > 0 && rs > 0) {
    if (!n.box.contains(l.box, cfg_.dim) && l.exact_size > 0)
      PIMKD_FAIL("left box not contained");
    if (!n.box.contains(r.box, cfg_.dim) && r.exact_size > 0)
      PIMKD_FAIL("right box not contained");
  }
#undef PIMKD_FAIL
  size_out = ls + rs;
  return true;
}

bool PimKdTree::check_invariants() const {
  if (root_ == kNoNode) return live_ == 0;
  std::uint64_t total = 0;
  if (!check_node_invariants(root_, total)) return false;
  if (total != live_) return false;
  // Counter drift stays within a generous envelope of the truth (Lemma 3.6 /
  // 3.7 give whp o(.) drift; the envelope here is a smoke bound, not tight).
  bool ok = true;
  pool_.for_each([&](const NodeRec& rec) {
    const double exact = static_cast<double>(rec.exact_size);
    const double slack = 0.75 * std::max(exact, 1.0) + 8.0 * cfg_.leaf_cap;
    if (std::abs(rec.counter - exact) > slack) ok = false;
  });
  return ok;
}

}  // namespace pimkd::core
