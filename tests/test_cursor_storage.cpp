// Unit tests of the two layers the cost model stands on: DistStore (the
// per-node copy table: registrations, replica refcounts, crash stamps, word
// accounting) and Cursor (the dual-way caching locality rule), plus
// ledger-conservation properties of Metrics.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <cstdlib>
#include <string>

#include "core/pim_kdtree.hpp"
#include "durability/checkpoint.hpp"
#include "pim/status.hpp"
#include "util/generators.hpp"

namespace pimkd::core {
namespace {

PimKdConfig base_cfg(std::size_t P, std::uint64_t seed = 1) {
  PimKdConfig cfg;
  cfg.dim = 2;
  cfg.leaf_cap = 8;
  cfg.system.num_modules = P;
  cfg.system.seed = seed;
  return cfg;
}

TEST(DistStoreUnit, MasterAndCacheRefcounts) {
  const auto pts = gen_uniform({.n = 2048, .dim = 2, .seed = 2});
  PimKdTree tree(base_cfg(16), pts);
  // Every node has a master copy on its hash module.
  tree.pool().for_each([&](const NodeRec& rec) {
    const auto& mods = tree.store().copy_modules(rec.id);
    ASSERT_FALSE(mods.empty());
    const bool g0 = rec.group == 0;
    if (!g0) {
      EXPECT_TRUE(tree.store().module_has(tree.store().master_of(rec.id),
                                          rec.id));
    } else {
      // Group 0: replicated on every module.
      for (std::size_t m = 0; m < 16; ++m)
        EXPECT_TRUE(tree.store().module_has(m, rec.id));
    }
  });
}

TEST(DistStoreUnit, StorageWordsMatchPerNodeSum) {
  const auto pts = gen_uniform({.n = 4096, .dim = 2, .seed = 3});
  PimKdTree tree(base_cfg(16), pts);
  std::uint64_t sum = 0;
  tree.pool().for_each([&](const NodeRec& rec) {
    sum += tree.store().node_storage_words(rec.id);
  });
  EXPECT_EQ(sum, tree.storage_words());
}

TEST(DistStoreUnit, StorageReturnsToZeroAfterFullErase) {
  const auto pts = gen_uniform({.n = 1000, .dim = 2, .seed = 4});
  PimKdTree tree(base_cfg(8), pts);
  EXPECT_GT(tree.storage_words(), 0u);
  std::vector<PointId> all(1000);
  for (PointId i = 0; i < 1000; ++i) all[i] = i;
  tree.erase(all);
  EXPECT_EQ(tree.storage_words(), 0u);
}

// A DistStore over a hand-made pool: leaf nodes whose copies the tests place
// directly.
struct StoreRig {
  PimKdConfig cfg = base_cfg(4);
  pim::PimSystem<ModuleState> sys{cfg.system};
  NodePool pool;
  DistStore store{cfg, sys, pool};

  NodeId leaf(std::vector<PointId> pts, double counter) {
    const NodeId id = pool.create();
    pool.at(id).counter = counter;
    pool.cold(id).leaf_pts = std::move(pts);
    return id;
  }
  std::uint64_t held(std::size_t m) const {
    return sys.metrics().module_storage(m);
  }
};

TEST(CopyTable, SecondRefOnAModuleSurvivesOneRemoval) {
  StoreRig rig;
  const std::uint64_t nw = node_words(2);
  const std::uint64_t leaf = 3 * point_words(2);
  pim::RoundGuard round(rig.sys.metrics());
  const NodeId id = rig.leaf({1, 2, 3}, 5.0);
  rig.store.add_copy(id, 1);
  rig.store.add_copy(id, 2);
  EXPECT_EQ(rig.store.add_copy(id, 1), nw);  // payload ships once per module
  EXPECT_EQ(rig.store.copy_modules(id), (std::vector<std::uint32_t>{1, 2, 1}));
  ASSERT_EQ(rig.store.replicas(id).size(), 2u);
  EXPECT_EQ(rig.store.replicas(id)[0].module, 1u);
  EXPECT_EQ(rig.store.replicas(id)[0].refs, 2u);
  EXPECT_EQ(rig.held(1), 2 * nw + leaf);
  EXPECT_EQ(rig.store.node_storage_words(id), 3 * nw + 2 * leaf);

  rig.store.remove_one_copy(id, 1);
  EXPECT_TRUE(rig.store.module_has(1, id));
  EXPECT_EQ(rig.store.replicas(id)[0].refs, 1u);
  EXPECT_EQ(rig.held(1), nw + leaf);
  EXPECT_EQ(rig.sys.module(1).leaf_points.count(id), 1u);
  EXPECT_EQ(rig.store.copy_modules(id), (std::vector<std::uint32_t>{2, 1}));

  rig.store.remove_one_copy(id, 1);
  EXPECT_FALSE(rig.store.module_has(1, id));
  EXPECT_EQ(rig.held(1), 0u);
  EXPECT_EQ(rig.sys.module(1).leaf_points.count(id), 0u);
  ASSERT_EQ(rig.store.replicas(id).size(), 1u);
  EXPECT_THROW(rig.store.remove_one_copy(id, 1), PimError);
  rig.store.remove_all_copies(id);
  EXPECT_EQ(rig.held(2), 0u);
  EXPECT_THROW(rig.store.remove_one_copy(id, 2), PimError);
}

TEST(CopyTable, CrashHidesReplicasUntilRebuild) {
  StoreRig rig;
  const std::uint64_t nw = node_words(2);
  pim::RoundGuard round(rig.sys.metrics());
  const NodeId a = rig.leaf({4}, 1.0);
  const NodeId b = rig.leaf({5, 6}, 2.0);
  for (const std::size_t m : {0, 1}) rig.store.add_copy(a, m);
  for (const std::size_t m : {1, 2, 1}) rig.store.add_copy(b, m);
  const std::uint64_t before = rig.held(1);

  rig.sys.crash_module(1);
  EXPECT_FALSE(rig.store.module_has(1, a));
  EXPECT_FALSE(rig.store.module_has(1, b));
  EXPECT_TRUE(rig.store.module_has(2, b));
  EXPECT_EQ(rig.held(1), 0u);
  // A copy placed while the module is down is registered, never shipped.
  EXPECT_EQ(rig.store.add_copy(a, 1), 0u);
  rig.sys.revive_module(1);
  // Revived but empty: every stamp predates the crash.
  EXPECT_FALSE(rig.store.module_has(1, a));
  EXPECT_FALSE(rig.store.module_has(1, b));

  rig.pool.at(b).counter = 7.0;
  const DistStore::RecoverySummary sum = rig.store.rebuild_module(1);
  EXPECT_EQ(sum.copies, 4u);  // a twice, b twice
  EXPECT_EQ(sum.from_replicas, 4u);
  EXPECT_TRUE(rig.store.module_has(1, a));
  EXPECT_TRUE(rig.store.module_has(1, b));
  EXPECT_EQ(rig.store.present_copy(a, 1)->refs, 2u);
  EXPECT_EQ(rig.store.present_copy(b, 1)->counter, 7.0);
  EXPECT_EQ(rig.held(1), before + nw);
}

TEST(CopyTable, IntegrityFlagsWipedCopiesAndRecoveryRestoresThem) {
  const auto pts = gen_uniform({.n = 3000, .dim = 2, .seed = 31});
  PimKdTree tree(base_cfg(8), pts);
  ASSERT_TRUE(tree.check_integrity().ok);
  tree.system().crash_module(3);
  tree.system().revive_module(3);  // alive again, nothing re-shipped
  const PimKdTree::IntegrityReport rep = tree.check_integrity();
  ASSERT_FALSE(rep.ok);
  EXPECT_NE(rep.problems.front().find("physically absent"), std::string::npos)
      << rep.to_string();
  tree.system().crash_module(3);
  const PimKdTree::RecoveryReport rec = tree.recover(3);
  EXPECT_GT(rec.copies, 0u);
  EXPECT_TRUE(rec.integrity_ok);
  EXPECT_TRUE(tree.check_invariants());
}

TEST(CopyTable, StaleCounterSurvivesCheckpointAndResyncRepairs) {
  auto cfg = base_cfg(8);
  cfg.system.fault_spec = "lose@1:m2:1000";  // every counter word to m2 lost
  const auto pts = gen_uniform({.n = 3000, .dim = 2, .seed = 32});
  PimKdTree tree(cfg, pts);
  (void)tree.insert(gen_uniform({.n = 300, .dim = 2, .seed = 33}));
  const PimKdTree::IntegrityReport rep = tree.check_integrity();
  ASSERT_FALSE(rep.ok);
  EXPECT_NE(rep.to_string().find("stale"), std::string::npos);

  char dir[] = "/tmp/pimkd_copytable_XXXXXX";
  ASSERT_NE(mkdtemp(dir), nullptr);
  const std::string path = std::string(dir) + "/c.ckpt";
  durability::Checkpoint::Info saved, loaded;
  ASSERT_TRUE(durability::Checkpoint::save(tree, path, 0, &saved).ok());
  std::unique_ptr<PimKdTree> back;
  ASSERT_TRUE(durability::Checkpoint::load(path, back, &loaded).ok());
  std::system(("rm -rf '" + std::string(dir) + "'").c_str());
  EXPECT_EQ(loaded.state_hash, saved.state_hash);
  EXPECT_EQ(back->check_integrity().problems, rep.problems);

  EXPECT_GT(back->resync_counters(), 0u);
  EXPECT_TRUE(back->check_integrity().ok);
  EXPECT_TRUE(back->check_invariants());
}

TEST(CopyTable, CheckpointHashAndWordTalliesArePinned) {
  // Recorded before the copy table replaced the per-module hash maps (and
  // before OpStats summed returned words instead of ledger diffs): neither
  // the checkpoint bytes (registration order, stale counters, remaps) nor
  // the per-cause word tallies may depend on how DistStore holds copies.
  if (std::getenv("PIMKD_FAULTS") != nullptr)
    GTEST_SKIP() << "the recorded values are for a fault-free run";
  const auto pts = gen_uniform({.n = 3000, .dim = 2, .seed = 41});
  PimKdTree tree(base_cfg(16), pts);
  (void)tree.insert(gen_uniform({.n = 500, .dim = 2, .seed = 42}));
  std::vector<PointId> gone;
  for (PointId i = 0; i < 3000; i += 7) gone.push_back(i);
  (void)tree.erase(gone);
  EXPECT_EQ(durability::Checkpoint::hash(tree), 0x9759c182c5455504ull);
  EXPECT_EQ(tree.op_stats().words_materialize, 113487u);
  EXPECT_EQ(tree.op_stats().words_counters, 15473u);
  EXPECT_EQ(tree.op_stats().words_rebuild_collect, 3318u);
}

TEST(CursorUnit, Group0IsFreeEverywhere) {
  const auto pts = gen_uniform({.n = 8192, .dim = 2, .seed = 5});
  PimKdTree tree(base_cfg(16), pts);
  pim::RoundGuard round(tree.metrics());
  // Visit the root (Group 0) from every start module: never a hop.
  for (std::size_t m = 0; m < 16; ++m) {
    Cursor cur(tree.config(), tree.pool(), tree.store(), tree.metrics(), m);
    EXPECT_FALSE(cur.visit(tree.root()));
    EXPECT_EQ(cur.hops(), 0u);
  }
}

TEST(CursorUnit, RootToLeafHopsAtMostGroupCount) {
  const auto pts = gen_uniform({.n = 1 << 15, .dim = 2, .seed = 6});
  PimKdTree tree(base_cfg(64), pts);
  pim::RoundGuard round(tree.metrics());
  Rng rng(7);
  for (int t = 0; t < 200; ++t) {
    Point q;
    q[0] = rng.next_double();
    q[1] = rng.next_double();
    Cursor cur(tree.config(), tree.pool(), tree.store(), tree.metrics(),
               t % 64);
    NodeId cursor_node = tree.root();
    cur.visit(cursor_node);
    while (!tree.pool().at(cursor_node).is_leaf()) {
      const NodeRec& n = tree.pool().at(cursor_node);
      cursor_node = q[n.split_dim] < n.split_val ? n.left : n.right;
      cur.visit(cursor_node);
    }
    // One hop per group boundary at most (log* P = 4 for P = 64).
    EXPECT_LE(cur.hops(), tree.thresholds().size());
  }
}

TEST(CursorUnit, NoCachingHopsEveryEdgeBelowGroup0) {
  auto cfg = base_cfg(64);
  cfg.caching = CachingMode::kNone;
  const auto pts = gen_uniform({.n = 1 << 14, .dim = 2, .seed = 8});
  PimKdTree tree(cfg, pts);
  pim::RoundGuard round(tree.metrics());
  Point q;
  q[0] = 0.37;
  q[1] = 0.62;
  Cursor cur(tree.config(), tree.pool(), tree.store(), tree.metrics(), 0);
  NodeId cursor_node = tree.root();
  cur.visit(cursor_node);
  std::size_t below_g0 = 0;
  while (!tree.pool().at(cursor_node).is_leaf()) {
    const NodeRec& n = tree.pool().at(cursor_node);
    cursor_node = q[n.split_dim] < n.split_val ? n.left : n.right;
    if (tree.pool().at(cursor_node).group != 0) ++below_g0;
    cur.visit(cursor_node);
  }
  EXPECT_EQ(cur.hops(), below_g0);
}

TEST(CursorUnit, DfsReturnsWithoutExtraHops) {
  const auto pts = gen_uniform({.n = 1 << 14, .dim = 2, .seed = 9});
  PimKdTree tree(base_cfg(64), pts);
  pim::RoundGuard round(tree.metrics());
  Cursor cur(tree.config(), tree.pool(), tree.store(), tree.metrics(), 0);
  // Full DFS of the tree: hops == number of component entries, not twice
  // that (popping back is free through the anchor stack).
  std::size_t comp_entries = 0;
  auto walk = [&](auto&& self, NodeId nid, NodeId parent) -> void {
    const std::size_t mark = cur.mark();
    cur.visit(nid);
    const NodeRec& n = tree.pool().at(nid);
    const bool crossing =
        parent != kNoNode &&
        tree.pool().at(parent).comp_root != n.comp_root && n.group != 0;
    if (crossing) ++comp_entries;
    if (!n.is_leaf()) {
      self(self, n.left, nid);
      self(self, n.right, nid);
    }
    cur.release(mark);
  };
  walk(walk, tree.root(), kNoNode);
  EXPECT_EQ(cur.hops(), comp_entries);
}

TEST(MetricsConservation, PerModuleSumsEqualTotals) {
  const auto pts = gen_uniform({.n = 1 << 14, .dim = 2, .seed = 10});
  PimKdTree tree(base_cfg(32), pts);
  const auto qs = gen_uniform_queries(pts, 2, 2048, 11);
  (void)tree.leaf_search(qs);
  (void)tree.knn(qs, 4);
  const auto batch = gen_uniform({.n = 1024, .dim = 2, .seed = 12});
  (void)tree.insert(batch);

  const auto s = tree.metrics().snapshot();
  std::uint64_t comm_sum = 0;
  for (const auto v : tree.metrics().lifetime_module_comm()) comm_sum += v;
  std::uint64_t work_sum = 0;
  for (const auto v : tree.metrics().lifetime_module_work()) work_sum += v;
  EXPECT_EQ(comm_sum, s.communication);
  EXPECT_EQ(work_sum, s.pim_work);
  // Per-round maxima dominate the averages.
  EXPECT_GE(s.comm_time * 32, s.communication);
  EXPECT_GE(s.pim_time * 32, s.pim_work);
}

TEST(MetricsConservation, CommTimeNeverExceedsComm) {
  const auto pts = gen_uniform({.n = 4096, .dim = 2, .seed = 13});
  PimKdTree tree(base_cfg(16), pts);
  const auto s = tree.metrics().snapshot();
  EXPECT_LE(s.comm_time, s.communication);
  EXPECT_LE(s.pim_time, s.pim_work);
}

TEST(CursorUnit, BottomUpOnlyMakesDescentsHop) {
  auto cfg = base_cfg(64);
  cfg.caching = CachingMode::kBottomUp;
  const auto pts = gen_uniform({.n = 1 << 14, .dim = 2, .seed = 14});
  PimKdTree tree(cfg, pts);
  pim::RoundGuard round(tree.metrics());
  Point q;
  q[0] = 0.5;
  q[1] = 0.5;
  // Downward walk hops on every below-G0 edge (no top-down caches)...
  Cursor down(tree.config(), tree.pool(), tree.store(), tree.metrics(), 0);
  NodeId cursor_node = tree.root();
  down.visit(cursor_node);
  std::size_t below_g0 = 0;
  while (!tree.pool().at(cursor_node).is_leaf()) {
    const NodeRec& n = tree.pool().at(cursor_node);
    cursor_node = q[n.split_dim] < n.split_val ? n.left : n.right;
    if (tree.pool().at(cursor_node).group != 0) ++below_g0;
    down.visit(cursor_node);
  }
  EXPECT_EQ(down.hops(), below_g0);
  // ...but the upward walk from that leaf is component-local.
  Cursor up(tree.config(), tree.pool(), tree.store(), tree.metrics(), 0);
  NodeId leaf = cursor_node;
  up.visit(leaf);
  std::size_t crossings = 0;
  while (tree.pool().at(leaf).parent != kNoNode) {
    const NodeId parent = tree.pool().at(leaf).parent;
    if (tree.pool().at(parent).comp_root != tree.pool().at(leaf).comp_root &&
        tree.pool().at(parent).group != 0)
      ++crossings;
    up.visit(parent);
    leaf = parent;
  }
  EXPECT_LE(up.hops(), crossings + 1);
}

}  // namespace
}  // namespace pimkd::core
