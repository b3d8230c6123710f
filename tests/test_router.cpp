// Router tier (DESIGN.md §12): spatial partition, scatter/gather queries,
// two-phase cross-shard kNN, the K-shard serve frontend, resharding, and the
// acceptance invariants of ISSUE 9:
//   * K = 1 router is byte-identical to a bare PimKdTree — results, cost
//     ledger, and execution trace (subprocess comparison, custom main like
//     test_serve.cpp);
//   * K in {2, 4} deployments are invariant across PIMKD_THREADS (subprocess
//     matrix);
//   * cross-shard kNN matches the brute-force oracle, including boundary
//     ties and k larger than any single shard's population;
//   * a shard split mid-serve loses no request and answers none from a
//     stale epoch.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "kdtree/bruteforce.hpp"
#include "router/frontend.hpp"
#include "router/partition.hpp"
#include "router/router.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "util/generators.hpp"

namespace {

using namespace pimkd;
using namespace pimkd::router;

core::PimKdConfig small_tree_cfg(std::size_t P = 8) {
  core::PimKdConfig cfg;
  cfg.dim = 2;
  cfg.leaf_cap = 8;
  cfg.sigma = 64;
  cfg.system.num_modules = P;
  cfg.system.cache_words = 1 << 22;
  cfg.system.seed = 5;
  return cfg;
}

RouterConfig router_cfg(std::size_t K, std::size_t P = 8) {
  RouterConfig rc;
  rc.shards = K;
  rc.tree = small_tree_cfg(P);
  return rc;
}

Point pt(Coord x, Coord y) {
  Point p;
  p[0] = x;
  p[1] = y;
  return p;
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  return h * 1000003ull + v;
}

std::uint64_t ledger_hash(const core::PimKdTree& tree) {
  const auto s = tree.metrics().snapshot();
  std::uint64_t h = 0;
  h = mix64(h, s.cpu_work);
  h = mix64(h, s.pim_work);
  h = mix64(h, s.pim_time);
  h = mix64(h, s.communication);
  h = mix64(h, s.comm_time);
  h = mix64(h, s.rounds);
  for (const auto w : tree.metrics().lifetime_module_work()) h = mix64(h, w);
  for (const auto c : tree.metrics().lifetime_module_comm()) h = mix64(h, c);
  h = mix64(h, tree.metrics().total_storage());
  return h;
}

// Reference model of the router's live set: all ever-inserted points by
// global id, plus liveness. The oracle runs over the live compaction, whose
// index order is ascending global id — so brute-force tie-breaks (by
// compacted index) translate to tie-breaks by global id.
struct Model {
  std::vector<Point> pts;
  std::vector<bool> live;

  void insert(const Point& p) {
    pts.push_back(p);
    live.push_back(true);
  }
  void erase(PointId id) {
    if (id < live.size()) live[id] = false;
  }
  void compact(std::vector<Point>& out, std::vector<PointId>& gid) const {
    for (std::size_t i = 0; i < pts.size(); ++i)
      if (live[i]) {
        out.push_back(pts[i]);
        gid.push_back(static_cast<PointId>(i));
      }
  }
  std::vector<Neighbor> knn(int dim, const Point& q, std::size_t k) const {
    std::vector<Point> c;
    std::vector<PointId> gid;
    compact(c, gid);
    std::vector<Neighbor> nn = brute_knn(c, dim, q, k);
    for (Neighbor& n : nn) n.id = gid[n.id];
    return nn;
  }
  std::vector<PointId> range(int dim, const Box& b) const {
    std::vector<Point> c;
    std::vector<PointId> gid;
    compact(c, gid);
    std::vector<PointId> ids = brute_range(c, dim, b);
    for (PointId& id : ids) id = gid[id];
    return ids;
  }
  std::vector<PointId> radius(int dim, const Point& q, Coord r) const {
    std::vector<Point> c;
    std::vector<PointId> gid;
    compact(c, gid);
    std::vector<PointId> ids = brute_radius(c, dim, q, r);
    for (PointId& id : ids) id = gid[id];
    return ids;
  }
};

// --- SpacePartition -----------------------------------------------------------

TEST(SpacePartition, RoutesEveryPointIntoItsCell) {
  const auto pts = gen_uniform({.n = 1000, .dim = 2, .seed = 11});
  const SpacePartition part = SpacePartition::build(pts, 2, 8);
  ASSERT_EQ(part.shards(), 8u);
  EXPECT_EQ(part.epoch(), 0u);
  std::vector<std::size_t> population(part.shards(), 0);
  for (const Point& p : pts) {
    const std::size_t s = part.shard_of(p);
    ASSERT_LT(s, part.shards());
    EXPECT_TRUE(part.cell(s).contains(p, 2))
        << "point routed outside its own cell";
    EXPECT_EQ(part.cell_sq_dist(s, p), 0.0);
    ++population[s];
  }
  for (std::size_t s = 0; s < part.shards(); ++s)
    EXPECT_GT(population[s], 0u) << "empty cell " << s;
}

TEST(SpacePartition, SerializeRoundTripAndCorruptionRejected) {
  const auto pts = gen_uniform({.n = 300, .dim = 3, .seed = 7});
  SpacePartition part = SpacePartition::build(pts, 3, 5);
  part.split_cell(0, 0, part.cell(0).lo[0] == -std::numeric_limits<Coord>::infinity()
                            ? pts[0][0]
                            : (part.cell(0).lo[0] + part.cell(0).hi[0]) / 2);
  const std::vector<std::uint8_t> bytes = part.serialize();

  SpacePartition back;
  ASSERT_TRUE(SpacePartition::deserialize(bytes, back).ok());
  EXPECT_EQ(back.shards(), part.shards());
  EXPECT_EQ(back.dim(), part.dim());
  EXPECT_EQ(back.epoch(), part.epoch());
  for (const Point& p : pts) EXPECT_EQ(back.shard_of(p), part.shard_of(p));

  SpacePartition junk;
  // Truncation, bad magic, and trailing garbage are all rejected.
  EXPECT_FALSE(SpacePartition::deserialize(
                   std::span<const std::uint8_t>(bytes.data(), 10), junk)
                   .ok());
  std::vector<std::uint8_t> flipped = bytes;
  flipped[0] ^= 0xff;
  EXPECT_FALSE(SpacePartition::deserialize(flipped, junk).ok());
  std::vector<std::uint8_t> longer = bytes;
  longer.push_back(0);
  EXPECT_FALSE(SpacePartition::deserialize(longer, junk).ok());
}

TEST(SpacePartition, SplitCellReroutesTheRightHalfSpace) {
  std::vector<Point> pts;
  for (int i = 0; i < 16; ++i) pts.push_back(pt(Coord(i), 0.5));
  SpacePartition part = SpacePartition::build(pts, 2, 2);
  ASSERT_EQ(part.shards(), 2u);
  const std::size_t home = part.shard_of(pt(0.0, 0.5));
  const Box before = part.cell(home);
  const Coord mid = (std::max(before.lo[0], Coord(0)) + before.hi[0]) / 2;
  const std::size_t fresh = part.split_cell(home, 0, mid);
  EXPECT_EQ(fresh, 2u);
  EXPECT_EQ(part.epoch(), 1u);
  // The split plane itself routes right (descent rule: < goes left).
  Point on_plane = pt(mid, 0.5);
  EXPECT_EQ(part.shard_of(on_plane), fresh);
  EXPECT_EQ(part.shard_of(pt(mid - 0.25, 0.5)), home);
  // A plane outside the cell is rejected.
  EXPECT_THROW(part.split_cell(home, 0, before.hi[0] + 100),
               std::invalid_argument);
}

// --- Config validation (satellite: named-field Status errors) -----------------

TEST(RouterConfigValidation, NamedFieldErrorsNotAsserts) {
  const auto pts = gen_uniform({.n = 32, .dim = 2, .seed = 3});
  std::unique_ptr<Router> out;

  RouterConfig zero = router_cfg(0);
  Status s = Router::try_create(zero, pts, out);
  EXPECT_EQ(s.code, StatusCode::kInvalidArgument);
  EXPECT_NE(s.message.find("RouterConfig::shards"), std::string::npos)
      << s.message;

  RouterConfig toomany = router_cfg(64);
  s = Router::try_create(toomany, pts, out);
  EXPECT_EQ(s.code, StatusCode::kInvalidArgument);
  EXPECT_NE(s.message.find("RouterConfig::shards"), std::string::npos)
      << s.message;

  RouterConfig nosample = router_cfg(4);
  nosample.sample_cap = 0;
  s = Router::try_create(nosample, pts, out);
  EXPECT_EQ(s.code, StatusCode::kInvalidArgument);
  EXPECT_NE(s.message.find("RouterConfig::sample_cap"), std::string::npos)
      << s.message;

  RouterConfig tight = router_cfg(8);
  tight.sample_cap = 4;
  s = Router::try_create(tight, pts, out);
  EXPECT_EQ(s.code, StatusCode::kInvalidArgument);
  EXPECT_NE(s.message.find("RouterConfig::sample_cap"), std::string::npos)
      << s.message;

  // Degenerate sample: every point identical — no split plane exists.
  std::vector<Point> same(16, pt(0.25, 0.25));
  s = Router::try_create(router_cfg(4), same, out);
  EXPECT_EQ(s.code, StatusCode::kInvalidArgument);
  EXPECT_NE(s.message.find("RouterConfig::shards"), std::string::npos)
      << s.message;

  // The throwing constructor raises the same named-field errors.
  EXPECT_THROW(Router(zero, pts), std::invalid_argument);

  // A valid config still works.
  ASSERT_TRUE(Router::try_create(router_cfg(4), pts, out).ok());
  EXPECT_EQ(out->shards(), 4u);
  EXPECT_EQ(out->size(), pts.size());
}

// --- K = 1 pass-through -------------------------------------------------------

TEST(RouterPassThrough, KOneMatchesBareTreeInProcess) {
  const auto initial = gen_uniform({.n = 600, .dim = 2, .seed = 21});
  core::PimKdTree bare(small_tree_cfg(), initial);
  Router routed(router_cfg(1), initial);

  const auto extra = gen_uniform({.n = 64, .dim = 2, .seed = 22});
  const auto bare_ids = bare.insert(extra);
  const auto routed_ids = routed.insert(extra);
  EXPECT_EQ(bare_ids, routed_ids);
  const std::vector<PointId> dead = {3, 5, 5, 601, 9999};
  bare.erase(dead);
  routed.erase(dead);

  const auto queries = gen_uniform_queries(initial, 2, 32, 77);
  std::vector<core::Request> reqs;
  for (const Point& q : queries) {
    reqs.push_back(core::Request::knn(q, 9));
    reqs.push_back(core::Request::radius_report(q, 0.05));
    reqs.push_back(core::Request::radius_count(q, 0.08));
    Box b;
    b.lo = q;
    b.hi = q;
    for (int d = 0; d < 2; ++d) b.hi[d] += 0.1;
    reqs.push_back(core::Request::range(b));
  }
  const auto want = bare.query(reqs);
  const auto got = routed.query(reqs);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].error, got[i].error) << i;
    EXPECT_EQ(want[i].epoch, got[i].epoch) << i;
    EXPECT_EQ(want[i].neighbors, got[i].neighbors) << i;
    EXPECT_EQ(want[i].ids, got[i].ids) << i;
    EXPECT_EQ(want[i].count, got[i].count) << i;
  }
  EXPECT_EQ(ledger_hash(bare), ledger_hash(routed.shard_tree(0)))
      << "K=1 routing tier changed the cost ledger";
}

// --- Cross-shard reads vs the brute-force oracle ------------------------------

void check_oracle(Router& router, const Model& model,
                  std::span<const Point> queries, std::size_t k, Coord rad) {
  const int dim = router.config().tree.dim;
  std::vector<core::Request> reqs;
  for (const Point& q : queries) {
    reqs.push_back(core::Request::knn(q, k));
    reqs.push_back(core::Request::radius_report(q, rad));
    reqs.push_back(core::Request::radius_count(q, rad));
    Box b;
    b.lo = q;
    b.hi = q;
    for (int d = 0; d < dim; ++d) {
      b.lo[d] -= rad;
      b.hi[d] += rad;
    }
    reqs.push_back(core::Request::range(b));
  }
  const auto got = router.query(reqs);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const Point& q = queries[qi];
    const auto& knn = got[4 * qi + 0];
    const auto& radrep = got[4 * qi + 1];
    const auto& radcnt = got[4 * qi + 2];
    const auto& range = got[4 * qi + 3];
    ASSERT_TRUE(knn.ok()) << knn.error;
    EXPECT_EQ(knn.neighbors, model.knn(dim, q, k)) << "kNN mismatch q=" << qi;
    EXPECT_EQ(radrep.ids, model.radius(dim, q, rad)) << "radius q=" << qi;
    EXPECT_EQ(radcnt.count, model.radius(dim, q, rad).size()) << "q=" << qi;
    EXPECT_EQ(range.ids, model.range(dim, reqs[4 * qi + 3].box)) << "q=" << qi;
  }
}

TEST(RouterOracle, ClusteredDataAcrossFourShards) {
  const auto initial = gen_gaussian_blobs({.n = 1200, .dim = 2, .seed = 31},
                                          /*clusters=*/5, /*stddev=*/0.02);
  Router router(router_cfg(4), initial);
  Model model;
  for (const Point& p : initial) model.insert(p);

  // Churn: inserts and erases that must stay consistent with the model.
  const auto extra = gen_gaussian_blobs({.n = 150, .dim = 2, .seed = 32},
                                        /*clusters=*/3, /*stddev=*/0.05);
  const auto gids = router.insert(extra);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    EXPECT_EQ(gids[i], model.pts.size());
    model.insert(extra[i]);
  }
  std::vector<PointId> dead;
  for (PointId id = 0; id < 400; id += 7) dead.push_back(id);
  router.erase(dead);
  for (const PointId id : dead) model.erase(id);
  EXPECT_EQ(router.size(), 1350u - dead.size());

  const auto queries = gen_uniform_queries(initial, 2, 24, 41);
  check_oracle(router, model, queries, /*k=*/12, /*rad=*/0.06);
  // Query AT data points: distance-0 self hits and dense ties.
  check_oracle(router, model,
               std::span<const Point>(initial.data(), 16), 7, 0.03);
}

TEST(RouterOracle, UniformDataAndKLargerThanAnyShard) {
  const auto initial = gen_uniform({.n = 500, .dim = 2, .seed = 51});
  Router router(router_cfg(4), initial);
  Model model;
  for (const Point& p : initial) model.insert(p);

  // k exceeds every shard's population: the phase-1 ball must go infinite
  // and the merge must still return the exact global k-set.
  std::size_t biggest = 0;
  for (std::size_t s = 0; s < router.shards(); ++s)
    biggest = std::max(biggest, router.shard_tree(s).size());
  const std::size_t k = biggest + 10;
  ASSERT_LT(k, initial.size());
  const auto queries = gen_uniform_queries(initial, 2, 8, 61);
  check_oracle(router, model, queries, k, 0.2);

  // k larger than the whole live set returns everything.
  std::vector<core::Request> all;
  all.push_back(core::Request::knn(queries[0], initial.size() + 50));
  const auto got = router.query(all);
  ASSERT_TRUE(got[0].ok());
  EXPECT_EQ(got[0].neighbors.size(), initial.size());
}

TEST(RouterOracle, BoundaryTiesResolveByGlobalId) {
  // A lattice with many duplicated coordinates: split planes land ON point
  // coordinates, and equidistant neighbors straddle shard boundaries. The
  // merged (sq_dist, global id) order must match the oracle exactly.
  std::vector<Point> initial;
  for (int x = 0; x < 12; ++x)
    for (int y = 0; y < 12; ++y) initial.push_back(pt(Coord(x), Coord(y)));
  Router router(router_cfg(4), initial);
  Model model;
  for (const Point& p : initial) model.insert(p);

  std::vector<Point> queries;
  for (int x = 3; x <= 8; ++x)
    for (int y = 3; y <= 8; y += 2) {
      queries.push_back(pt(Coord(x), Coord(y)));          // on a lattice site
      queries.push_back(pt(Coord(x) + 0.5, Coord(y)));    // between two sites
    }
  check_oracle(router, model, queries, /*k=*/9, /*rad=*/2.0);
}

// --- Resharding ---------------------------------------------------------------

TEST(RouterReshard, SplitShardPreservesEveryAnswer) {
  const auto initial = gen_uniform({.n = 800, .dim = 2, .seed = 71});
  Router router(router_cfg(2), initial);
  Model model;
  for (const Point& p : initial) model.insert(p);
  const std::uint64_t epoch_before = router.epoch();
  const std::uint64_t part_epoch_before = router.partition().epoch();
  const std::size_t src_before = router.shard_tree(0).size();

  const Router::ReshardReport rep = router.split_shard(0);
  EXPECT_EQ(rep.source, 0u);
  EXPECT_EQ(rep.target, 2u);
  EXPECT_EQ(router.shards(), 3u);
  EXPECT_GT(rep.moved, 0u);
  EXPECT_LT(rep.moved, src_before);
  EXPECT_GT(rep.moved_words, 0u) << "migration was not charged to the ledger";
  EXPECT_EQ(rep.partition_epoch, part_epoch_before + 1);
  EXPECT_EQ(router.epoch(), epoch_before + 1);
  EXPECT_EQ(router.shard_tree(2).size(), rep.moved);
  EXPECT_EQ(router.shard_tree(0).size(), src_before - rep.moved);
  EXPECT_EQ(router.size(), initial.size());

  // Every live global id still resolves to its point, on its new home.
  for (PointId gid = 0; gid < initial.size(); ++gid) {
    ASSERT_TRUE(router.is_live(gid));
    const auto [s, local] = router.locate(gid);
    ASSERT_LT(s, router.shards());
    EXPECT_TRUE(router.shard_tree(s).point(local).equals(model.pts[gid], 2));
  }
  const auto queries = gen_uniform_queries(initial, 2, 16, 81);
  check_oracle(router, model, queries, 10, 0.07);

  // Splitting an emptied shard is a precondition failure, not a crash.
  std::vector<Point> two = {pt(0, 0), pt(0, 0)};
  Router tiny(router_cfg(1), two);
  EXPECT_THROW(tiny.split_shard(0), PimError);
  EXPECT_THROW(tiny.split_shard(7), std::invalid_argument);
}

// --- Frontend -----------------------------------------------------------------

serve::ServeWorkload frontend_workload(std::size_t requests = 900,
                                       std::uint64_t seed = 19) {
  serve::WorkloadSpec spec;
  spec.mix = serve::MixKind::kScanHeavy;
  spec.initial_points = 1500;
  spec.requests = requests;
  spec.seed = seed;
  spec.zipf_theta = 0.9;
  spec.knn_k = 6;
  spec.f_knn = 0.30;
  spec.f_range = 0.15;
  spec.f_radius = 0.10;
  spec.f_radius_count = 0.10;
  spec.f_insert = 0.20;
  spec.f_erase = 0.15;
  return serve::gen_serve_workload(spec);
}

struct ServedRun {
  std::vector<serve::Response> resp;
  std::uint64_t completed = 0;
  std::uint64_t epochs = 0;
};

ServedRun run_bare(const serve::ServeWorkload& w) {
  core::PimKdTree tree(small_tree_cfg(), w.initial);
  serve::SchedulerConfig sc;
  sc.policy = serve::Policy::kFixedSize;
  sc.batch_size = 48;
  sc.max_batch = 512;
  serve::BatchScheduler sched(tree, sc);
  std::vector<std::future<serve::Response>> futs;
  for (const serve::WorkloadOp& op : w.ops) {
    futs.push_back(sched.submit(serve::to_request(op), op.tick));
    sched.pump(op.tick);
  }
  sched.flush(w.ops.back().tick + 1);
  ServedRun out;
  for (auto& f : futs) out.resp.push_back(f.get());
  out.completed = sched.stats().completed;
  out.epochs = sched.stats().epochs;
  return out;
}

ServedRun run_frontend(const serve::ServeWorkload& w, std::size_t K,
                       std::size_t split_at = 0) {
  Router router(router_cfg(K), w.initial);
  FrontendConfig fc;
  fc.policy = serve::Policy::kFixedSize;
  fc.batch_size = 48;
  fc.max_batch = 512;
  Frontend fe(router, fc);
  std::vector<std::future<serve::Response>> futs;
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    if (split_at > 0 && i == split_at) fe.split_shard(0);
    futs.push_back(fe.submit(serve::to_request(w.ops[i]), w.ops[i].tick));
    fe.pump(w.ops[i].tick);
  }
  fe.flush(w.ops.back().tick + 1);
  ServedRun out;
  for (auto& f : futs) out.resp.push_back(f.get());
  out.completed = fe.stats().completed;
  out.epochs = fe.stats().epochs;
  EXPECT_EQ(fe.shards(), K + (split_at > 0 ? 1 : 0));
  return out;
}

void expect_same_payloads(const ServedRun& want, const ServedRun& got,
                          bool compare_epochs) {
  ASSERT_EQ(want.resp.size(), got.resp.size());
  for (std::size_t i = 0; i < want.resp.size(); ++i) {
    const serve::Response& a = want.resp[i];
    const serve::Response& b = got.resp[i];
    EXPECT_EQ(a.error, b.error) << i;
    EXPECT_EQ(a.inserted_id, b.inserted_id) << i;
    EXPECT_EQ(a.erased, b.erased) << i;
    EXPECT_EQ(a.neighbors, b.neighbors) << i;
    EXPECT_EQ(a.ids, b.ids) << i;
    EXPECT_EQ(a.count, b.count) << i;
    EXPECT_EQ(a.submit_tick, b.submit_tick) << i;
    EXPECT_EQ(a.dispatch_tick, b.dispatch_tick) << i;
    EXPECT_EQ(a.complete_tick, b.complete_tick) << i;
    if (compare_epochs) EXPECT_EQ(a.epoch, b.epoch) << i;
  }
  EXPECT_EQ(want.completed, got.completed);
}

TEST(Frontend, AnyShardCountMatchesTheBareScheduler) {
  // Identical admission policy, identical global id assignment, identical
  // epoch numbering: a served stream's responses must not depend on K at
  // all. (The K = 1 case is additionally pinned byte-exact — ledger and
  // trace included — by the subprocess tests below.)
  const serve::ServeWorkload w = frontend_workload();
  const ServedRun want = run_bare(w);
  for (const std::size_t K : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const ServedRun got = run_frontend(w, K);
    expect_same_payloads(want, got, /*compare_epochs=*/true);
    EXPECT_EQ(want.epochs, got.epochs) << "K=" << K;
  }
}

TEST(Frontend, MidServeSplitLosesNothingAndStampsFreshEpochs) {
  const serve::ServeWorkload w = frontend_workload(800, 23);
  const ServedRun want = run_bare(w);
  const std::size_t split_at = w.ops.size() / 2;
  const ServedRun got = run_frontend(w, 2, split_at);
  // Payloads are split-invariant; epochs shift by one at the reshard, so
  // they are compared structurally instead.
  expect_same_payloads(want, got, /*compare_epochs=*/false);
  ASSERT_EQ(got.resp.size(), w.ops.size());
  for (std::size_t i = 0; i < got.resp.size(); ++i)
    EXPECT_TRUE(got.resp[i].ok() || !got.resp[i].error.empty());
  // No request answered from a stale (pre-split) epoch: every response
  // dispatched after the split carries an epoch past the reshard bump.
  std::uint64_t max_epoch_before = 0;
  std::uint64_t min_epoch_after = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t split_tick = w.ops[split_at].tick;
  for (const serve::Response& r : got.resp) {
    if (r.dispatch_tick < split_tick)
      max_epoch_before = std::max(max_epoch_before, r.epoch);
    else
      min_epoch_after = std::min(min_epoch_after, r.epoch);
  }
  EXPECT_GT(min_epoch_after, max_epoch_before)
      << "a post-split response reused a pre-split epoch";
}

TEST(Frontend, StopResolvesEverythingAndRejectsLateSubmits) {
  const auto initial = gen_uniform({.n = 200, .dim = 2, .seed = 91});
  Router router(router_cfg(2), initial);
  FrontendConfig fc;
  fc.batch_size = 1000;  // never reached: stop() must flush the remainder
  Frontend fe(router, fc);
  std::vector<std::future<serve::Response>> futs;
  for (std::size_t i = 0; i < 37; ++i)
    futs.push_back(
        fe.submit(serve::Request::knn(initial[i], 4), /*now_tick=*/i));
  fe.pump(37);
  fe.stop();
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  auto late = fe.submit(serve::Request::knn(initial[0], 4), 99);
  const serve::Response r = late.get();
  EXPECT_FALSE(r.ok());
  const FrontendStats st = fe.stats();
  EXPECT_EQ(st.completed, 37u);
  EXPECT_EQ(st.rejected, 1u);
  // Malformed requests fail alone, immediately, with a named op.
  auto bad = fe.submit(serve::Request::knn(initial[0], 0), 100);
  EXPECT_NE(bad.get().error.find("router.knn"), std::string::npos);
}

TEST(Frontend, ZeroSizedFieldsClampLikeTheScheduler) {
  // BatchScheduler clamps zero batch_size / max_batch to 1; the frontend
  // shares its admission, so the same configs must serve every request (a
  // zero max_batch used to leave every future with a broken promise).
  const auto initial = gen_uniform({.n = 200, .dim = 2, .seed = 93});
  for (const bool zero_max : {true, false}) {
    Router router(router_cfg(2), initial);
    FrontendConfig fc;
    if (zero_max)
      fc.max_batch = 0;
    else
      fc.batch_size = 0;
    std::vector<std::future<serve::Response>> futs;
    {
      Frontend fe(router, fc);
      for (std::size_t i = 0; i < 3; ++i)
        futs.push_back(fe.submit(serve::Request::knn(initial[i], 4), i));
      // A batch of one is due on every pump: nothing waits for the flush.
      EXPECT_EQ(fe.pump(3), 3u) << "zero_max=" << zero_max;
      fe.flush(4);
      fe.stop();
    }
    for (auto& f : futs) EXPECT_TRUE(f.get().ok()) << "zero_max=" << zero_max;
  }
}

TEST(Frontend, FanoutCountersMatchParent) {
  // Golden fan-out counts on frontend_workload(), recorded before the
  // counting moved from the frontend into Router::query.
  struct Want {
    std::size_t K;
    std::uint64_t single, fanout, second;
  };
  const serve::ServeWorkload w = frontend_workload();
  for (const Want& want : {Want{1, 594, 0, 0}, Want{2, 567, 27, 14},
                           Want{4, 544, 50, 31}}) {
    Router router(router_cfg(want.K), w.initial);
    FrontendConfig fc;
    fc.policy = serve::Policy::kFixedSize;
    fc.batch_size = 48;
    fc.max_batch = 512;
    Frontend fe(router, fc);
    for (const serve::WorkloadOp& op : w.ops) {
      (void)fe.submit(serve::to_request(op), op.tick);
      fe.pump(op.tick);
    }
    fe.flush(w.ops.back().tick + 1);
    const FrontendStats st = fe.stats();
    EXPECT_EQ(st.reads, 594u) << "K=" << want.K;
    EXPECT_EQ(st.single_shard_reads, want.single) << "K=" << want.K;
    EXPECT_EQ(st.fanout_reads, want.fanout) << "K=" << want.K;
    EXPECT_EQ(st.knn_second_phase, want.second) << "K=" << want.K;
  }
}

TEST(FrontendConfigValidation, TradeoffPolicyIsANamedFieldError) {
  const auto initial = gen_uniform({.n = 200, .dim = 2, .seed = 94});
  Router router(router_cfg(2), initial);
  FrontendConfig fc;
  fc.policy = serve::Policy::kTradeoff;
  try {
    Frontend fe(router, fc);
    FAIL() << "kTradeoff was accepted";
  } catch (const std::invalid_argument& ex) {
    EXPECT_EQ(std::string(ex.what()).rfind("FrontendConfig.policy:", 0), 0u)
        << ex.what();
  }
  fc.policy = serve::Policy::kDeadline;
  EXPECT_NO_THROW({ Frontend ok(router, fc); });
}

TEST(Frontend, CompletionClockStampsAfterExecution) {
  // A stepping fake clock: every read advances it, so the completion stamp,
  // read after the epoch executes, lands past the dispatch tick and the
  // service histogram covers execution as well as queueing.
  const auto initial = gen_uniform({.n = 200, .dim = 2, .seed = 92});
  Router router(router_cfg(2), initial);
  std::uint64_t fake_now = 1000;
  FrontendConfig fc;
  fc.batch_size = 8;
  fc.clock = [&fake_now] { return fake_now += 50; };
  Frontend fe(router, fc);
  std::vector<std::future<serve::Response>> futs;
  for (std::size_t i = 0; i < 8; ++i)
    futs.push_back(fe.submit(serve::Request::knn(initial[i], 4), 10));
  fe.pump(20);
  for (auto& f : futs) {
    const serve::Response r = f.get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.dispatch_tick, 20u);
    EXPECT_GT(r.complete_tick, r.dispatch_tick);
  }
  FrontendStats st = fe.stats();
  EXPECT_EQ(st.clock_regressions, 0u);
  EXPECT_EQ(st.queue_latency.max(), 10u);
  EXPECT_GT(st.service_latency.min(), st.queue_latency.max());

  // A reading behind the dispatch tick is clamped to it and counted.
  futs.clear();
  for (std::size_t i = 0; i < 8; ++i)
    futs.push_back(fe.submit(serve::Request::knn(initial[i], 4), 5000));
  fe.pump(5000);
  for (auto& f : futs) EXPECT_EQ(f.get().complete_tick, 5000u);
  st = fe.stats();
  EXPECT_EQ(st.clock_regressions, 1u);
  EXPECT_EQ(st.service_latency.count(), 16u);
}

// --- Cross-thread-count / cross-backend determinism (subprocess) --------------

std::string self_exe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return std::string(buf);
}

std::string run_child(const std::string& exe, int threads,
                      const std::string& mode) {
  const std::string cmd = "PIMKD_THREADS=" + std::to_string(threads) + " '" +
                          exe + "' " + mode;
  std::FILE* p = popen(cmd.c_str(), "r");
  if (!p) return {};
  std::string out;
  char buf[512];
  while (std::fgets(buf, sizeof buf, p)) out += buf;
  const int rc = pclose(p);
  EXPECT_EQ(rc, 0) << "child failed: " << cmd;
  return out;
}

TEST(RouterDeterminism, KOneByteIdenticalToBareTree) {
  // The tentpole acceptance criterion: a K = 1 router deployment is
  // indistinguishable from a bare PimKdTree — same results and ticks, same
  // cost ledger, byte-identical execution trace.
  const std::string exe = self_exe();
  ASSERT_FALSE(exe.empty());
  const std::string bare = run_child(exe, 4, "--bare-child");
  ASSERT_FALSE(bare.empty());
  ASSERT_NE(bare.find("trace="), std::string::npos);
  EXPECT_EQ(run_child(exe, 4, "--router-child 1"), bare)
      << "K=1 router diverged from the bare tree";
}

TEST(RouterDeterminism, MatrixInvariantAcrossThreadCounts) {
  // K in {1, 2, 4} x PIMKD_THREADS in {1, 4, 8}: results, per-shard ledgers
  // and traces, and serve counters must not depend on the thread count.
  const std::string exe = self_exe();
  ASSERT_FALSE(exe.empty());
  for (const int K : {1, 2, 4}) {
    const std::string mode = "--router-child " + std::to_string(K);
    const std::string ref = run_child(exe, 1, mode);
    ASSERT_FALSE(ref.empty()) << "K=" << K;
    for (const int threads : {4, 8})
      EXPECT_EQ(run_child(exe, threads, mode), ref)
          << "K=" << K << " diverged at PIMKD_THREADS=" << threads;
  }
}

std::uint64_t file_hash(const std::string& path) {
  std::uint64_t h = 0;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
      for (std::size_t i = 0; i < n; ++i)
        h = mix64(h, static_cast<unsigned char>(buf[i]));
    std::fclose(f);
  }
  return h;
}

std::uint64_t response_hash(std::uint64_t h, const serve::Response& r) {
  h = mix64(h, static_cast<std::uint64_t>(r.kind));
  h = mix64(h, r.epoch);
  h = mix64(h, r.ok() ? 1 : 0);
  h = mix64(h, r.inserted_id == kInvalidPoint ? 0 : r.inserted_id + 1);
  h = mix64(h, r.erased ? 1 : 0);
  for (const auto& nb : r.neighbors) h = mix64(h, nb.id);
  for (const auto id : r.ids) h = mix64(h, id);
  h = mix64(h, r.count);
  h = mix64(h, r.submit_tick);
  h = mix64(h, r.dispatch_tick);
  h = mix64(h, r.complete_tick);
  return h;
}

// Serves one fixed workload through either a bare tree + BatchScheduler
// (K == 0) or a Router + Frontend with K shards, and prints result, ledger
// and trace hashes plus the serve counters. The bare output and the K = 1
// output must be BYTE-IDENTICAL; each K's output must be invariant across
// PIMKD_THREADS.
int serve_determinism_child(std::size_t K) {
  serve::WorkloadSpec spec;
  spec.mix = serve::MixKind::kScanHeavy;
  spec.initial_points = 4000;
  spec.requests = 1200;
  spec.seed = 47;
  spec.zipf_theta = 0.99;
  spec.knn_k = 7;
  spec.f_knn = 0.30;
  spec.f_range = 0.15;
  spec.f_radius = 0.10;
  spec.f_radius_count = 0.10;
  spec.f_insert = 0.20;
  spec.f_erase = 0.15;
  const serve::ServeWorkload w = serve::gen_serve_workload(spec);

  const std::string base =
      "/tmp/pimkd_router_trace_" + std::to_string(::getpid()) + ".jsonl";
  core::PimKdConfig tcfg = small_tree_cfg(16);
  tcfg.trace_path = base;

  std::uint64_t rh = 0;
  std::uint64_t completed = 0, batches = 0, epochs = 0;
  std::vector<std::uint64_t> ledgers;
  const std::size_t shards = K == 0 ? 1 : K;

  if (K == 0) {
    core::PimKdTree tree(tcfg, w.initial);
    serve::SchedulerConfig sc;
    sc.policy = serve::Policy::kFixedSize;
    sc.batch_size = 48;
    sc.max_batch = 512;
    serve::BatchScheduler sched(tree, sc);
    std::vector<std::future<serve::Response>> futs;
    for (const serve::WorkloadOp& op : w.ops) {
      futs.push_back(sched.submit(serve::to_request(op), op.tick));
      sched.pump(op.tick);
    }
    sched.flush(w.ops.back().tick + 1);
    for (auto& f : futs) rh = response_hash(rh, f.get());
    const serve::ServeStats st = sched.stats();
    completed = st.completed;
    batches = st.batches;
    epochs = st.epochs;
    ledgers.push_back(ledger_hash(tree));
  } else {
    RouterConfig rc = router_cfg(K, 16);
    rc.tree = tcfg;
    Router router(rc, w.initial);
    FrontendConfig fc;
    fc.policy = serve::Policy::kFixedSize;
    fc.batch_size = 48;
    fc.max_batch = 512;
    Frontend fe(router, fc);
    std::vector<std::future<serve::Response>> futs;
    for (const serve::WorkloadOp& op : w.ops) {
      futs.push_back(fe.submit(serve::to_request(op), op.tick));
      fe.pump(op.tick);
    }
    fe.flush(w.ops.back().tick + 1);
    fe.stop();
    for (auto& f : futs) rh = response_hash(rh, f.get());
    const FrontendStats st = fe.stats();
    completed = st.completed;
    batches = st.batches;
    epochs = st.epochs;
    for (std::size_t s = 0; s < K; ++s)
      ledgers.push_back(ledger_hash(router.shard_tree(s)));
  }  // destruction closes every trace sink

  std::printf("completed=%llu batches=%llu epochs=%llu results=%llu\n",
              (unsigned long long)completed, (unsigned long long)batches,
              (unsigned long long)epochs, (unsigned long long)rh);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::string path =
        shards == 1 ? base : base + ".shard" + std::to_string(s);
    std::printf("shard=%zu ledger=%llu trace=%llu\n", s,
                (unsigned long long)ledgers[s],
                (unsigned long long)file_hash(path));
    std::remove(path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--bare-child")
    return serve_determinism_child(0);
  if (argc >= 3 && std::string(argv[1]) == "--router-child")
    return serve_determinism_child(
        static_cast<std::size_t>(std::atoi(argv[2])));
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
