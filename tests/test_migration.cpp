// Live subtree migration (PimKdTree::migrate_component) and the
// MigrationPlanner epoch-boundary controller:
//   * plan_moves() is a pure function of hand-buildable ledgers: hottest
//     components leave overloaded modules for the coldest alive ones, with
//     deterministic tie-breaks, bounded by migration_num, and only when the
//     move strictly helps;
//   * a move relocates every member's master to the target, leaves the
//     distributed state invariant-clean, keeps query answers byte-identical,
//     bumps mutation_epoch and charges its shipping inside a "migration"
//     trace span;
//   * the validate()/try_ Status-twin convention holds for MigrationConfig,
//     SchedulerConfig and migrate_component itself;
//   * remap pins survive a checkpoint round trip;
//   * a planner-driven run is thread-count-invariant: the binary re-executes
//     itself under PIMKD_THREADS=1/4/8 and byte-compares decisions, ledger
//     summary and the JSONL trace (same pattern as test_replication).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/migration.hpp"
#include "core/pim_kdtree.hpp"
#include "durability/checkpoint.hpp"
#include "serve/scheduler.hpp"
#include "util/generators.hpp"

namespace {

using namespace pimkd;
using namespace pimkd::core;

PimKdConfig base_cfg(std::size_t P = 16) {
  PimKdConfig cfg;
  cfg.dim = 2;
  cfg.leaf_cap = 8;
  cfg.sigma = 64;
  cfg.system.num_modules = P;
  cfg.system.cache_words = 1 << 22;
  cfg.system.seed = 42;
  return cfg;
}

std::vector<Request> mixed_reads(std::span<const Point> pts) {
  std::vector<Request> reqs;
  for (std::size_t i = 0; i < 64; ++i) reqs.push_back(Request::knn(pts[i], 6));
  for (std::size_t i = 0; i < 16; ++i) {
    Box b;
    b.lo = pts[i];
    b.hi = pts[i];
    for (int d = 0; d < 2; ++d) b.hi[d] += 0.08;
    reqs.push_back(Request::range(b));
    reqs.push_back(Request::radius_report(pts[i + 64], 0.05));
    reqs.push_back(Request::radius_count(pts[i + 128], 0.07));
  }
  return reqs;
}

// kNN reads hammering one corner of the space (every query squeezed into
// [0, 0.12]^2): the few components covering that corner — and the modules
// their masters hash to — absorb nearly all the traffic.
std::vector<Request> hot_reads(std::span<const Point> pts, std::size_t n,
                               std::uint64_t salt) {
  std::vector<Request> reqs;
  reqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Point q = pts[(salt * 61 + i * 7) % 200];
    for (int d = 0; d < 2; ++d) q[d] *= 0.12;
    reqs.push_back(Request::knn(q, 4));
  }
  return reqs;
}

// Canonical serialization of a response batch, for byte-for-byte comparison.
std::string serialize(const std::vector<Response>& resp) {
  std::ostringstream os;
  for (const Response& r : resp) {
    os << op_name(r.kind) << '|' << r.error << '|';
    for (const Neighbor& nb : r.neighbors)
      os << nb.id << ':' << nb.sq_dist << ',';
    os << '|';
    for (const PointId id : r.ids) os << id << ',';
    os << '|' << r.count << '\n';
  }
  return os.str();
}

// Lowest-id component root migrate_component accepts under the default
// config: finished, not the P-way-replicated Group 0.
NodeId find_migratable(const PimKdTree& tree) {
  NodeId best = kNoNode;
  tree.pool().for_each([&](const NodeRec& rec) {
    if (rec.comp_root != rec.id || !rec.comp_finished || rec.group == 0)
      return;
    if (best == kNoNode || rec.id < best) best = rec.id;
  });
  return best;
}

// --- plan_moves: the pure planner over hand-built ledgers ---------------------

using Candidate = MigrationPlanner::Candidate;
using Move = MigrationPlanner::Move;

MigrationConfig greedy_cfg() {
  MigrationConfig mc;
  mc.migration_num = 4;
  mc.overload_ratio = 1.2;
  mc.min_heat = 1;
  mc.min_ops = 1;
  mc.min_epoch_gap = 1;
  return mc;
}

TEST(MigrationPlanMoves, ShedsHottestComponentsToColdestModules) {
  const std::vector<std::uint64_t> comm = {1000, 10, 10, 10};
  const std::vector<char> alive = {1, 1, 1, 1};
  auto mc = greedy_cfg();
  mc.migration_num = 2;
  const auto moves = MigrationPlanner::plan_moves(
      mc, comm, alive,
      {Candidate{9, 0, 60}, Candidate{5, 0, 100}, Candidate{3, 1, 50}});
  ASSERT_EQ(moves.size(), 2u);
  // Ranked heat-descending; module 1's candidate is not overloaded.
  EXPECT_EQ(moves[0].comp_root, 5u);
  EXPECT_EQ(moves[0].from, 0u);
  EXPECT_EQ(moves[0].to, 1u);  // three-way cold tie: lowest index
  EXPECT_EQ(moves[1].comp_root, 9u);
  EXPECT_EQ(moves[1].from, 0u);
  EXPECT_EQ(moves[1].to, 2u);  // module 1 now carries move 0's projected heat
}

TEST(MigrationPlanMoves, TieBreaksAreATotalOrder) {
  const std::vector<std::uint64_t> comm = {500, 0, 0};
  const std::vector<char> alive = {1, 1, 1};
  auto mc = greedy_cfg();
  mc.migration_num = 1;
  // Equal heat: comp_root ascending decides, whatever the input order.
  const auto a = MigrationPlanner::plan_moves(
      mc, comm, alive, {Candidate{8, 0, 40}, Candidate{2, 0, 40}});
  const auto b = MigrationPlanner::plan_moves(
      mc, comm, alive, {Candidate{2, 0, 40}, Candidate{8, 0, 40}});
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].comp_root, 2u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].comp_root, 2u);
}

TEST(MigrationPlanMoves, BoundedByMigrationNum) {
  const std::vector<std::uint64_t> comm = {10000, 0, 0, 0};
  const std::vector<char> alive = {1, 1, 1, 1};
  std::vector<Candidate> cands;
  for (NodeId i = 0; i < 10; ++i) cands.push_back(Candidate{i + 1, 0, 100});
  auto mc = greedy_cfg();
  mc.migration_num = 3;
  EXPECT_EQ(MigrationPlanner::plan_moves(mc, comm, alive, cands).size(), 3u);
}

TEST(MigrationPlanMoves, NeverTargetsDeadModules) {
  const std::vector<std::uint64_t> comm = {1000, 50, 0, 60};
  const std::vector<char> alive = {1, 1, 0, 1};  // module 2 is down
  const auto moves = MigrationPlanner::plan_moves(
      greedy_cfg(), comm, alive,
      {Candidate{4, 0, 200}, Candidate{7, 0, 150}});
  ASSERT_FALSE(moves.empty());
  for (const Move& mv : moves) EXPECT_NE(mv.to, 2u);
  // A candidate whose home module died is not worth shipping either.
  const auto dead_home = MigrationPlanner::plan_moves(
      greedy_cfg(), comm, alive, {Candidate{4, 2, 500}});
  EXPECT_TRUE(dead_home.empty());
}

TEST(MigrationPlanMoves, BalancedLoadPlansNothing) {
  const std::vector<std::uint64_t> comm = {100, 100, 100, 100};
  const std::vector<char> alive = {1, 1, 1, 1};
  EXPECT_TRUE(MigrationPlanner::plan_moves(greedy_cfg(), comm, alive,
                                           {Candidate{4, 0, 50}})
                  .empty());
}

TEST(MigrationPlanMoves, RequiresStrictImprovement) {
  // Shipping the whole hot component to the cold module would just swap which
  // module is hot — the planner must leave it alone.
  const std::vector<std::uint64_t> comm = {100, 0};
  const std::vector<char> alive = {1, 1};
  EXPECT_TRUE(MigrationPlanner::plan_moves(greedy_cfg(), comm, alive,
                                           {Candidate{4, 0, 200}})
                  .empty());
}

TEST(MigrationPlanMoves, DegenerateInputsPlanNothing) {
  const std::vector<char> alive1 = {1};
  const std::vector<std::uint64_t> comm1 = {100};
  EXPECT_TRUE(MigrationPlanner::plan_moves(greedy_cfg(), comm1, alive1,
                                           {Candidate{4, 0, 50}})
                  .empty());  // a single module has nowhere to shed to
  EXPECT_TRUE(MigrationPlanner::plan_moves(greedy_cfg(), {}, {}, {}).empty());
  const std::vector<std::uint64_t> zero = {0, 0, 0};
  const std::vector<char> alive3 = {1, 1, 1};
  EXPECT_TRUE(MigrationPlanner::plan_moves(greedy_cfg(), zero, alive3,
                                           {Candidate{4, 0, 50}})
                  .empty());  // mean 0: nothing is overloaded
}

// --- migrate_component: the apply step ----------------------------------------

TEST(MigrationApply, MoveRelocatesMastersAndPreservesAnswers) {
  const auto pts = gen_uniform({.n = 6000, .dim = 2, .seed = 3});
  const auto reqs = mixed_reads(pts);
  PimKdTree tree(base_cfg(), pts);
  const std::string before = serialize(tree.query(reqs));

  const NodeId croot = find_migratable(tree);
  ASSERT_NE(croot, kNoNode);
  const std::size_t home = tree.store().master_of(croot);
  const std::size_t target = (home + 1) % tree.system().P();
  const auto epoch0 = tree.mutation_epoch();
  const auto comm0 = tree.metrics().snapshot().communication;

  const auto rep = tree.migrate_component(croot, target);
  EXPECT_EQ(rep.comp_root, croot);
  EXPECT_EQ(rep.from_module, home);
  EXPECT_EQ(rep.to_module, target);
  EXPECT_GT(rep.nodes_moved, 0u);
  EXPECT_GT(rep.copies_moved, 0u);
  EXPECT_GT(rep.words, 0u) << "shipping a component must cost communication";
  EXPECT_EQ(tree.mutation_epoch(), epoch0 + 1);
  EXPECT_EQ(tree.metrics().snapshot().communication - comm0, rep.words);
  EXPECT_EQ(tree.op_stats().words_migration, rep.words);

  // Every member's master follows the component; remap only pins movers.
  std::size_t members = 0;
  tree.pool().for_each([&](const NodeRec& rec) {
    if (rec.comp_root != croot) return;
    ++members;
    EXPECT_EQ(tree.store().master_of(rec.id), target) << "node " << rec.id;
  });
  EXPECT_EQ(members, rep.nodes_moved);
  EXPECT_TRUE(tree.check_invariants());
  EXPECT_EQ(serialize(tree.query(reqs)), before)
      << "placement must never change answers";
}

TEST(MigrationApply, SameModuleMoveIsFreeNoOp) {
  const auto pts = gen_uniform({.n = 3000, .dim = 2, .seed = 4});
  PimKdTree tree(base_cfg(), pts);
  const NodeId croot = find_migratable(tree);
  ASSERT_NE(croot, kNoNode);
  const auto epoch0 = tree.mutation_epoch();
  const auto comm0 = tree.metrics().snapshot().communication;
  const auto rep = tree.migrate_component(croot, tree.store().master_of(croot));
  EXPECT_EQ(rep.nodes_moved, 0u);
  EXPECT_EQ(rep.words, 0u);
  EXPECT_EQ(tree.mutation_epoch(), epoch0);
  EXPECT_EQ(tree.metrics().snapshot().communication, comm0);
  EXPECT_TRUE(tree.store().remap().empty()) << "no-op must not pin anything";
}

TEST(MigrationApply, StatusTwinNamesEveryRejection) {
  const auto pts = gen_uniform({.n = 3000, .dim = 2, .seed = 5});
  PimKdTree tree(base_cfg(8), pts);
  PimKdTree::MigrationReport rep;

  // Target module out of range.
  EXPECT_EQ(tree.try_migrate_component(tree.root(), 8, rep).code,
            StatusCode::kInvalidArgument);
  // Unknown node.
  EXPECT_EQ(tree.try_migrate_component(tree.pool().next_id(), 0, rep).code,
            StatusCode::kInvalidArgument);
  // A member that is not its component's root.
  NodeId member = kNoNode;
  tree.pool().for_each([&](const NodeRec& rec) {
    if (member == kNoNode && rec.comp_root != rec.id) member = rec.id;
  });
  ASSERT_NE(member, kNoNode);
  EXPECT_EQ(tree.try_migrate_component(member, 0, rep).code,
            StatusCode::kInvalidArgument);
  // Group 0 is P-way replicated under the default config: placement-free.
  NodeId g0 = kNoNode;
  tree.pool().for_each([&](const NodeRec& rec) {
    if (g0 == kNoNode && rec.comp_root == rec.id && rec.group == 0)
      g0 = rec.id;
  });
  ASSERT_NE(g0, kNoNode);
  EXPECT_EQ(tree.try_migrate_component(g0, 0, rep).code,
            StatusCode::kFailedPrecondition);
  // Dead target module.
  const NodeId croot = find_migratable(tree);
  ASSERT_NE(croot, kNoNode);
  const std::size_t dead = (tree.store().master_of(croot) + 1) % 8;
  tree.system().crash_module(dead);
  EXPECT_EQ(tree.try_migrate_component(croot, dead, rep).code,
            StatusCode::kFailedPrecondition);
}

TEST(MigrationApply, TraceEmitsMigrationSpanWithComm) {
  const auto pts = gen_uniform({.n = 4000, .dim = 2, .seed = 6});
  const std::string path = ::testing::TempDir() + "pimkd_migration.jsonl";
  std::uint64_t words = 0;
  {
    auto cfg = base_cfg();
    cfg.trace_path = path;
    PimKdTree tree(cfg, pts);
    const NodeId croot = find_migratable(tree);
    ASSERT_NE(croot, kNoNode);
    const std::size_t target =
        (tree.store().master_of(croot) + 1) % tree.system().P();
    words = tree.migrate_component(croot, target).words;
  }
  ASSERT_GT(words, 0u);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line, span;
  while (std::getline(in, line))
    if (line.find("\"type\":\"span\"") != std::string::npos &&
        line.find("\"label\":\"migration\"") != std::string::npos)
      span = line;
  ASSERT_FALSE(span.empty()) << "no migration span in trace";
  EXPECT_NE(span.find("\"comm\":" + std::to_string(words)), std::string::npos)
      << "span should charge the shipping words: " << span;
  std::remove(path.c_str());
}

// --- Read-heat tracking -------------------------------------------------------

TEST(MigrationHeat, HopsAccrueOnComponentEntryPoints) {
  const auto pts = gen_uniform({.n = 6000, .dim = 2, .seed = 7});
  PimKdTree tree(base_cfg(), pts);
  EXPECT_FALSE(tree.store().heat_enabled());
  (void)tree.query(mixed_reads(pts));  // hops before enabling are not counted

  tree.enable_heat_tracking();
  ASSERT_TRUE(tree.store().heat_enabled());
  EXPECT_EQ(tree.store().heat_capacity(), tree.pool().next_id());
  std::uint64_t before = 0;
  tree.pool().for_each(
      [&](const NodeRec& rec) { before += tree.store().heat(rec.id); });
  EXPECT_EQ(before, 0u);

  (void)tree.query(mixed_reads(pts));
  std::uint64_t roots = 0, elsewhere = 0;
  tree.pool().for_each([&](const NodeRec& rec) {
    if (rec.comp_root == rec.id)
      roots += tree.store().heat(rec.id);
    else
      elsewhere += tree.store().heat(rec.id);
  });
  EXPECT_GT(roots, 0u) << "cross-component descents must heat entry points";
  EXPECT_EQ(elsewhere, 0u) << "heat lands only on component roots";
}

// --- MigrationPlanner end to end ---------------------------------------------

TEST(MigrationPlannerE2E, HotStreamTriggersMovesAndAnswersStayExact) {
  const auto pts = gen_uniform({.n = 6000, .dim = 2, .seed = 8});
  PimKdTree tree(base_cfg(), pts);
  PimKdTree baseline(base_cfg(), pts);  // never migrates
  MigrationPlanner ctl(tree, greedy_cfg());

  for (std::uint64_t e = 0; e < 8; ++e) {
    const auto reqs = hot_reads(pts, 300, e);
    const std::string got = serialize(tree.query(reqs));
    EXPECT_EQ(got, serialize(baseline.query(reqs))) << "epoch " << e;
    (void)ctl.on_epoch_boundary(reqs.size(), 0);
  }
  EXPECT_EQ(ctl.epochs(), 8u);
  EXPECT_GT(ctl.migrations(), 0u)
      << "a persistently hot corner must trigger at least one move";
  EXPECT_GT(ctl.words_shipped(), 0u);
  EXPECT_EQ(ctl.words_shipped(), tree.op_stats().words_migration);
  EXPECT_LE(ctl.last_decision().moves.size(), ctl.config().migration_num);
  EXPECT_FALSE(tree.store().remap().empty());
  EXPECT_TRUE(tree.check_invariants());
  // And the moved placement still answers like the untouched baseline.
  const auto check = mixed_reads(pts);
  EXPECT_EQ(serialize(tree.query(check)), serialize(baseline.query(check)));
}

TEST(MigrationPlannerE2E, WarmupGateHoldsThePlannerBack) {
  const auto pts = gen_uniform({.n = 4000, .dim = 2, .seed = 9});
  PimKdTree tree(base_cfg(), pts);
  auto mc = greedy_cfg();
  mc.min_ops = 1'000'000;  // never warm in this test
  MigrationPlanner ctl(tree, mc);
  for (std::uint64_t e = 0; e < 4; ++e) {
    (void)tree.query(hot_reads(pts, 300, e));
    const auto out = ctl.on_epoch_boundary(300, 0);
    EXPECT_FALSE(out.changed);
    EXPECT_EQ(out.words, 0u);
  }
  EXPECT_EQ(ctl.migrations(), 0u);
  EXPECT_EQ(ctl.epochs(), 4u);
  EXPECT_TRUE(tree.store().remap().empty());
}

// --- Status twins: configs and the scheduler surface --------------------------

TEST(MigrationStatusTwins, ConfigValidatorsNameTheOffendingField) {
  MigrationConfig bad_num;
  bad_num.migration_num = 0;
  EXPECT_THROW(bad_num.validate(), std::invalid_argument);
  const Status s1 = try_validate_migration_config(bad_num);
  EXPECT_EQ(s1.code, StatusCode::kInvalidArgument);
  EXPECT_NE(s1.message.find("migration_num"), std::string::npos) << s1.message;

  MigrationConfig bad_ratio;
  bad_ratio.overload_ratio = 0.5;
  const Status s2 = try_validate_migration_config(bad_ratio);
  EXPECT_EQ(s2.code, StatusCode::kInvalidArgument);
  EXPECT_NE(s2.message.find("overload_ratio"), std::string::npos) << s2.message;

  EXPECT_TRUE(try_validate_migration_config(MigrationConfig{}).ok());
}

TEST(MigrationStatusTwins, SchedulerTryCreateMirrorsValidate) {
  const auto pts = gen_uniform({.n = 1000, .dim = 2, .seed = 10});
  PimKdTree tree(base_cfg(8), pts);

  serve::SchedulerConfig bad;
  bad.controllers.migration = true;
  bad.controllers.migration_cfg.overload_ratio = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  std::unique_ptr<serve::BatchScheduler> out;
  const Status s = serve::BatchScheduler::try_create(tree, bad, out);
  EXPECT_EQ(s.code, StatusCode::kInvalidArgument);
  EXPECT_EQ(out, nullptr);
  EXPECT_NE(s.message.find("overload_ratio"), std::string::npos) << s.message;

  serve::SchedulerConfig good;
  good.controllers.migration = true;
  ASSERT_TRUE(serve::BatchScheduler::try_create(tree, good, out).ok());
  ASSERT_NE(out, nullptr);
  EXPECT_NE(out->migration_planner(), nullptr);
  EXPECT_EQ(out->replication_controller(), nullptr);
  out->stop();
}

// --- Scheduler integration ----------------------------------------------------

TEST(MigrationServe, ScheduledHotStreamMigratesAndStaysByteIdentical) {
  const auto pts = gen_uniform({.n = 6000, .dim = 2, .seed = 12});
  auto run = [&](bool migration) {
    PimKdTree tree(base_cfg(), pts);
    serve::SchedulerConfig sc;
    sc.policy = serve::Policy::kFixedSize;
    sc.batch_size = 300;
    sc.controllers.migration = migration;
    sc.controllers.migration_cfg = greedy_cfg();
    serve::BatchScheduler sched(tree, sc);
    std::vector<std::future<Response>> futs;
    std::uint64_t tick = 0;
    for (std::uint64_t e = 0; e < 8; ++e) {
      for (const Request& r : hot_reads(pts, 300, e))
        futs.push_back(sched.submit(serve::Request(r), tick++));
      sched.pump(tick);
    }
    sched.flush(tick);
    sched.stop();
    std::vector<Response> resp;
    for (auto& f : futs) resp.push_back(f.get());
    const serve::ServeStats st = sched.stats();
    std::uint64_t logged = 0;
    for (const serve::BatchLog& b : sched.batch_log())
      if (b.migration) ++logged;
    return std::tuple<std::string, std::uint64_t, std::uint64_t, bool>(
        serialize(resp), st.migrations, logged,
        sched.migration_planner() != nullptr &&
            sched.migration_planner()->migrations() == st.migrations);
  };

  const auto [with, migs, logged, consistent] = run(true);
  const auto [without, migs0, logged0, consistent0] = run(false);
  (void)consistent0;
  EXPECT_EQ(with, without) << "migration must never change served answers";
  EXPECT_GT(migs, 0u) << "the hot stream must trip the scheduler's planner";
  EXPECT_GT(logged, 0u) << "migration epochs must be flagged in the batch log";
  EXPECT_TRUE(consistent) << "ServeStats.migrations != planner move count";
  EXPECT_EQ(migs0, 0u);
  EXPECT_EQ(logged0, 0u);
}

// --- Checkpoint round trip ----------------------------------------------------

TEST(MigrationCheckpoint, RemapPinsSurviveSaveLoad) {
  const auto pts = gen_uniform({.n = 4000, .dim = 2, .seed = 13});
  const auto reqs = mixed_reads(pts);
  PimKdTree tree(base_cfg(), pts);
  const NodeId croot = find_migratable(tree);
  ASSERT_NE(croot, kNoNode);
  const std::size_t target =
      (tree.store().master_of(croot) + 3) % tree.system().P();
  (void)tree.migrate_component(croot, target);
  ASSERT_FALSE(tree.store().remap().empty());

  const std::string path = ::testing::TempDir() + "pimkd_migration.ckpt";
  durability::Checkpoint::Info info;
  ASSERT_TRUE(durability::Checkpoint::save(tree, path, 0, &info).ok());
  std::unique_ptr<PimKdTree> restored;
  ASSERT_TRUE(durability::Checkpoint::load(path, restored, &info).ok());
  ASSERT_NE(restored, nullptr);

  EXPECT_EQ(restored->store().master_of(croot), target)
      << "the migration pin must survive the round trip";
  EXPECT_EQ(restored->store().remap().size(), tree.store().remap().size());
  for (const auto& [id, module] : tree.store().remap()) {
    const auto it = restored->store().remap().find(id);
    ASSERT_NE(it, restored->store().remap().end()) << "missing pin " << id;
    EXPECT_EQ(it->second, module);
  }
  EXPECT_EQ(durability::Checkpoint::hash(*restored), info.state_hash);
  EXPECT_TRUE(restored->check_invariants());
  EXPECT_EQ(serialize(restored->query(reqs)), serialize(tree.query(reqs)));
  std::remove(path.c_str());
}

// --- Cross-thread-count determinism of a planner-driven run -------------------

std::string self_exe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return std::string(buf);
}

std::string run_child(const std::string& exe, int threads,
                      const std::string& trace_path) {
  const std::string cmd = "PIMKD_THREADS=" + std::to_string(threads) + " '" +
                          exe + "' --migration-child '" + trace_path + "'";
  std::FILE* p = popen(cmd.c_str(), "r");
  if (!p) return {};
  std::string out;
  char buf[512];
  while (std::fgets(buf, sizeof buf, p)) out += buf;
  const int rc = pclose(p);
  EXPECT_EQ(rc, 0) << "child failed: " << cmd;
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(MigrationThreadCountDeterminism, PlannerRunIdenticalAcrossThreads) {
  const std::string exe = self_exe();
  ASSERT_FALSE(exe.empty());
  const std::string dir = ::testing::TempDir();
  const std::string t1 = dir + "pimkd_mig_t1.jsonl";
  const std::string t4 = dir + "pimkd_mig_t4.jsonl";
  const std::string t8 = dir + "pimkd_mig_t8.jsonl";
  const std::string out1 = run_child(exe, 1, t1);
  const std::string out4 = run_child(exe, 4, t4);
  const std::string out8 = run_child(exe, 8, t8);
  ASSERT_FALSE(out1.empty());
  EXPECT_NE(out1.find("migrations="), std::string::npos) << out1;
  EXPECT_EQ(out1.find("migrations=0 "), std::string::npos)
      << "the skewed child workload must actually migrate";
  EXPECT_EQ(out1, out4) << "migration run diverged between 1 and 4 threads";
  EXPECT_EQ(out1, out8) << "migration run diverged between 1 and 8 threads";
  const std::string trace1 = slurp(t1);
  ASSERT_FALSE(trace1.empty());
  EXPECT_EQ(trace1, slurp(t4)) << "JSONL traces diverged (1 vs 4 threads)";
  EXPECT_EQ(trace1, slurp(t8)) << "JSONL traces diverged (1 vs 8 threads)";
  std::remove(t1.c_str());
  std::remove(t4.c_str());
  std::remove(t8.c_str());
}

// Planner-driven workload: epochs of skewed batched reads plus insert/erase
// churn, with the planner free to move components. Prints every quantity that
// must be thread-count-invariant, including the planner's decisions (they
// read the per-module comm ledger and the per-component heat counters).
int migration_child(const char* trace_path) {
  auto cfg = base_cfg(32);
  cfg.trace_path = trace_path;
  const auto pts = gen_uniform({.n = 16000, .dim = 2, .seed = 21});
  PimKdTree tree(cfg, std::span<const Point>(pts.data(), 10000));
  MigrationConfig mc;
  mc.migration_num = 4;
  mc.overload_ratio = 1.05;
  mc.min_epoch_gap = 1;
  mc.min_ops = 1;
  mc.min_heat = 4;
  MigrationPlanner ctl(tree, mc);
  std::size_t next = 10000;
  std::vector<PointId> prev;
  std::uint64_t qh = 0;
  for (std::uint64_t e = 0; e < 12; ++e) {
    const auto reqs = hot_reads(pts, 300, e);
    for (const Response& r : tree.query(reqs))
      for (const Neighbor& nb : r.neighbors) qh = qh * 1000003u + nb.id;
    auto ids = tree.insert(std::span<const Point>(pts.data() + next, 20));
    next += 20;
    if (!prev.empty()) tree.erase(prev);
    prev = std::move(ids);
    (void)ctl.on_epoch_boundary(reqs.size(), 40);
    const auto& d = ctl.last_decision();
    std::printf("e=%llu cands=%llu moves=%zu words=%llu\n",
                (unsigned long long)e, (unsigned long long)d.candidates,
                d.moves.size(), (unsigned long long)d.words);
    for (const auto& mv : d.moves)
      std::printf("  mv comp=%llu %zu->%zu heat=%llu\n",
                  (unsigned long long)mv.comp_root, mv.from, mv.to,
                  (unsigned long long)mv.heat);
  }
  const auto s = tree.metrics().snapshot();
  std::uint64_t ch = 0;
  for (const auto c : tree.metrics().lifetime_module_comm())
    ch = ch * 1000003u + c;
  std::printf("comm=%llu rounds=%llu storage=%llu mig_words=%llu qh=%llu "
              "comm_hash=%llu migrations=%llu inv=%d\n",
              (unsigned long long)s.communication, (unsigned long long)s.rounds,
              (unsigned long long)tree.storage_words(),
              (unsigned long long)tree.op_stats().words_migration,
              (unsigned long long)qh, (unsigned long long)ch,
              (unsigned long long)ctl.migrations(),
              tree.check_invariants() ? 1 : 0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--migration-child")
    return migration_child(argc >= 3 ? argv[2] : "");
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
