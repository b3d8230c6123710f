// Online serving layer: MPSC ingestion, batch-forming policies, epoch-
// versioned read semantics, shutdown guarantees, and the two acceptance
// invariants of DESIGN.md §8:
//   * a served stream produces a cost ledger byte-identical to the
//     equivalent hand-batched run against a fresh tree;
//   * the whole serving pipeline is thread-count-invariant — the binary
//     re-executes itself under PIMKD_THREADS=1 and 8 and compares batch
//     sequences, results, and ledger hashes (custom main, like
//     test_determinism.cpp).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "parallel/mpsc_queue.hpp"
#include "pim/status.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "util/stats.hpp"

namespace {

using namespace pimkd;
using namespace pimkd::serve;

core::PimKdConfig small_cfg(std::size_t P = 8) {
  core::PimKdConfig cfg;
  cfg.dim = 2;
  cfg.leaf_cap = 8;
  cfg.sigma = 64;
  cfg.system.num_modules = P;
  cfg.system.cache_words = 1 << 22;
  cfg.system.seed = 3;
  return cfg;
}

Point pt(Coord x, Coord y) {
  Point p;
  p[0] = x;
  p[1] = y;
  return p;
}

// --- MPSC queue ---------------------------------------------------------------

TEST(MpscQueue, FifoUnderSingleProducer) {
  MpscQueue<int> q;
  EXPECT_EQ(q.approx_size(), 0u);
  int v = -1;
  EXPECT_FALSE(q.pop(v));
  for (int i = 0; i < 100; ++i) q.push(int(i));
  EXPECT_EQ(q.approx_size(), 100u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, i);  // total order under a single producer
  }
  EXPECT_FALSE(q.pop(v));
  EXPECT_EQ(q.approx_size(), 0u);
}

TEST(MpscQueue, ConcurrentProducersLoseNothing) {
  MpscQueue<std::uint64_t> q;
  const std::uint64_t kProducers = 8, kPer = 5000;
  std::vector<std::thread> ts;
  for (std::uint64_t p = 0; p < kProducers; ++p)
    ts.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPer; ++i) q.push(p * kPer + i);
    });
  std::vector<std::uint64_t> last(kProducers, 0);  // per-producer FIFO check
  std::uint64_t seen = 0, sum = 0;
  std::uint64_t v = 0;
  while (seen < kProducers * kPer) {
    if (!q.pop(v)) continue;
    const std::uint64_t p = v / kPer;
    ASSERT_LT(p, kProducers);
    ASSERT_GE(v + 1, last[p]) << "per-producer order violated";
    last[p] = v + 1;
    sum += v;
    ++seen;
  }
  for (auto& t : ts) t.join();
  const std::uint64_t total = kProducers * kPer;
  EXPECT_EQ(sum, total * (total - 1) / 2);  // every value exactly once
  EXPECT_FALSE(q.pop(v));
}

// --- Scheduler: policies and edge cases ---------------------------------------

TEST(Scheduler, EmptyQueueTicksAreFree) {
  auto cfg = small_cfg();
  const auto pts = gen_uniform({.n = 256, .dim = 2, .seed = 1});
  core::PimKdTree tree(cfg, pts);

  SchedulerConfig sc;
  sc.policy = Policy::kDeadline;
  BatchScheduler sched(tree, sc);
  const auto before = tree.metrics().snapshot();
  for (std::uint64_t t = 0; t < 100; ++t) EXPECT_EQ(sched.pump(t), 0u);
  EXPECT_EQ(sched.flush(100), 0u);
  const auto d = tree.metrics().snapshot() - before;
  EXPECT_EQ(d.cpu_work, 0u);
  EXPECT_EQ(d.communication, 0u);
  EXPECT_EQ(d.rounds, 0u);
  const ServeStats st = sched.stats();
  EXPECT_EQ(st.batches, 0u);
  EXPECT_EQ(st.completed, 0u);
  EXPECT_EQ(sched.epoch(), 0u);
}

TEST(Scheduler, FixedSizePolicyFormsExactBatches) {
  auto cfg = small_cfg();
  const auto pts = gen_uniform({.n = 256, .dim = 2, .seed = 1});
  core::PimKdTree tree(cfg, pts);

  SchedulerConfig sc;
  sc.policy = Policy::kFixedSize;
  sc.batch_size = 4;
  BatchScheduler sched(tree, sc);

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 10; ++i)
    futs.push_back(sched.submit(Request::knn(pts[i], 3), /*now=*/i));
  EXPECT_EQ(sched.pump(10), 8u);  // two full batches of 4; 2 stay pending
  EXPECT_EQ(sched.flush(11), 2u);

  const auto log = sched.batch_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].size(), 4u);
  EXPECT_EQ(log[0].reason, 's');
  EXPECT_EQ(log[1].size(), 4u);
  EXPECT_EQ(log[1].reason, 's');
  EXPECT_EQ(log[2].size(), 2u);
  EXPECT_EQ(log[2].reason, 'f');
  for (auto& f : futs) {
    const Response r = f.get();
    EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.neighbors.size(), 3u);
    EXPECT_EQ(r.epoch, 0u);  // read-only stream: epoch never advances
  }
  EXPECT_EQ(sched.epoch(), 0u);
}

TEST(Scheduler, DeadlineExpirySingleRequest) {
  auto cfg = small_cfg();
  const auto pts = gen_uniform({.n = 128, .dim = 2, .seed = 2});
  core::PimKdTree tree(cfg, pts);

  SchedulerConfig sc;
  sc.policy = Policy::kDeadline;
  sc.deadline_ticks = 100;
  BatchScheduler sched(tree, sc);

  auto fut = sched.submit(Request::knn(pts[0], 1), /*now=*/0);
  EXPECT_EQ(sched.pump(50), 0u);  // not due yet
  EXPECT_EQ(sched.pump(99), 0u);
  EXPECT_EQ(sched.pump(100), 1u);  // oldest waiter hits the deadline
  const auto log = sched.batch_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].reason, 'd');
  const Response r = fut.get();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.submit_tick, 0u);
  EXPECT_EQ(r.dispatch_tick, 100u);
  EXPECT_EQ(r.complete_tick, 100u);  // virtual-time mode: completion == pump
}

TEST(Scheduler, DeadlineUsesTrueOldestWaiterNotQueueFront) {
  // Multi-producer stamping can enqueue out of tick order: a request stamped
  // tick 10 can land in the queue *before* one stamped tick 5. The deadline
  // policy must age the true minimum submit tick — the regression was aging
  // the queue-order front, which postponed dispatch past the oldest waiter's
  // deadline whenever a younger request arrived first.
  auto cfg = small_cfg();
  const auto pts = gen_uniform({.n = 128, .dim = 2, .seed = 12});
  core::PimKdTree tree(cfg, pts);

  SchedulerConfig sc;
  sc.policy = Policy::kDeadline;
  sc.deadline_ticks = 5;
  BatchScheduler sched(tree, sc);

  auto young = sched.submit(Request::knn(pts[0], 1), /*now=*/10);  // queued 1st
  auto old_w = sched.submit(Request::knn(pts[1], 1), /*now=*/5);   // queued 2nd
  EXPECT_EQ(sched.pump(9), 0u);  // oldest (tick 5) has waited 4 < 5
  EXPECT_EQ(sched.pump(10), 2u)
      << "batch must dispatch on the tick the oldest waiter reaches the "
         "deadline, regardless of queue order";
  EXPECT_EQ(young.get().dispatch_tick, 10u);
  EXPECT_EQ(old_w.get().dispatch_tick, 10u);
  const auto log = sched.batch_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].reason, 'd');

  // The minimum must also survive partial dispatch: after the oldest leaves
  // in a batch, the next-oldest (not the queue front) drives the deadline.
  auto a = sched.submit(Request::knn(pts[2], 1), 30);
  auto b = sched.submit(Request::knn(pts[3], 1), 20);
  EXPECT_EQ(sched.pump(25), 2u);  // min tick 20 aged 5
  (void)a.get();
  (void)b.get();
}

TEST(Scheduler, NonMonotonicConsumerTickRejected) {
  // A consumer tick behind a previous pump would make every age computation
  // (now - submit_tick) garbage; sat_sub used to silently saturate it to 0.
  // The scheduler now refuses the tick outright.
  auto cfg = small_cfg();
  const auto pts = gen_uniform({.n = 128, .dim = 2, .seed = 13});
  core::PimKdTree tree(cfg, pts);
  SchedulerConfig sc;
  sc.policy = Policy::kDeadline;
  sc.deadline_ticks = 100;
  BatchScheduler sched(tree, sc);

  auto fut = sched.submit(Request::knn(pts[0], 1), 0);
  EXPECT_EQ(sched.pump(50), 0u);

  std::size_t done = 123;
  const Status s = sched.try_pump(10, &done);  // behind the tick-50 pump
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code, StatusCode::kFailedPrecondition);
  EXPECT_EQ(done, 0u);
  EXPECT_THROW(sched.pump(49), PimError);
  EXPECT_THROW(sched.flush(1), PimError);
  EXPECT_EQ(sched.stats().ticks_rejected, 3u);

  // A rejected tick leaves no trace on the stream: the pending request is
  // untouched and an equal tick (50 again) is legal.
  EXPECT_EQ(sched.pump(50), 0u);
  EXPECT_EQ(sched.pump(100), 1u);
  EXPECT_TRUE(fut.get().ok());
  EXPECT_EQ(sched.stats().completed, 1u);
}

TEST(Scheduler, EraseThenKnnSameEpochSeesSnapshot) {
  auto cfg = small_cfg(4);
  std::vector<Point> pts = {pt(0.1, 0.1), pt(0.2, 0.2), pt(0.8, 0.8),
                            pt(0.9, 0.9)};
  core::PimKdTree tree(cfg, pts);

  SchedulerConfig sc;
  sc.policy = Policy::kDeadline;  // dispatch everything pending on pump
  BatchScheduler sched(tree, sc);

  // One epoch admits both the erase of id 0 and a knn at id 0's location:
  // the read must observe the epoch-0 snapshot, i.e. still see id 0.
  auto f_erase = sched.submit(Request::erase(0), 0);
  auto f_knn = sched.submit(Request::knn(pt(0.1, 0.1), 1), 0);
  EXPECT_EQ(sched.pump(1), 2u);

  const Response rk = f_knn.get();
  ASSERT_TRUE(rk.ok()) << rk.error;
  ASSERT_EQ(rk.neighbors.size(), 1u);
  EXPECT_EQ(rk.neighbors[0].id, 0u) << "same-epoch read must see the snapshot";
  EXPECT_EQ(rk.epoch, 0u);

  const Response re = f_erase.get();
  EXPECT_TRUE(re.ok());
  EXPECT_TRUE(re.erased);
  EXPECT_EQ(re.epoch, 1u);  // effect first visible in the next epoch
  EXPECT_EQ(sched.epoch(), 1u);
  EXPECT_FALSE(tree.is_live(0));

  // Next epoch: the same query no longer sees the erased point.
  auto f_knn2 = sched.submit(Request::knn(pt(0.1, 0.1), 1), 2);
  EXPECT_EQ(sched.pump(3), 1u);
  const Response rk2 = f_knn2.get();
  ASSERT_EQ(rk2.neighbors.size(), 1u);
  EXPECT_NE(rk2.neighbors[0].id, 0u);
  EXPECT_EQ(rk2.epoch, 1u);
}

TEST(Scheduler, ShutdownResolvesEverything) {
  auto cfg = small_cfg();
  const auto pts = gen_uniform({.n = 256, .dim = 2, .seed = 5});
  core::PimKdTree tree(cfg, pts);

  SchedulerConfig sc;
  sc.policy = Policy::kFixedSize;
  sc.batch_size = 1000;  // never reached: stop() must flush the remainder
  BatchScheduler sched(tree, sc);

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 7; ++i)
    futs.push_back(sched.submit(Request::knn(pts[i], 2), i));
  futs.push_back(sched.submit(Request::insert(pt(0.5, 0.5)), 7));
  sched.stop();

  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "stop() left a future unresolved";
    const Response r = f.get();
    EXPECT_TRUE(r.ok()) << r.error;  // accepted work is executed, not dropped
  }
  const ServeStats st = sched.stats();
  EXPECT_EQ(st.completed, 8u);
  EXPECT_EQ(st.dispatch_flush, 1u);

  // After stop, new submissions are rejected — but still resolved.
  auto late = sched.submit(Request::knn(pts[0], 1), 99);
  const Response r = late.get();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("stopped"), std::string::npos);
  EXPECT_EQ(sched.stats().rejected, 1u);
}

TEST(Scheduler, InvalidRequestFailsAlone) {
  auto cfg = small_cfg();
  const auto pts = gen_uniform({.n = 128, .dim = 2, .seed = 6});
  core::PimKdTree tree(cfg, pts);
  SchedulerConfig sc;
  sc.policy = Policy::kDeadline;
  BatchScheduler sched(tree, sc);

  auto bad = sched.submit(
      Request::knn(pt(std::numeric_limits<Coord>::quiet_NaN(), 0.5), 3), 0);
  auto bad_k = sched.submit(Request::knn(pts[0], 0), 0);
  auto bad_eps = sched.submit(
      Request::knn(pts[0], 3, std::numeric_limits<double>::infinity()), 0);
  auto good = sched.submit(Request::knn(pts[0], 3), 0);

  // Malformed requests are rejected at submit — before batching — so they
  // can neither poison a batch nor occupy a slot in one.
  ASSERT_EQ(bad.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_FALSE(bad.get().ok());
  ASSERT_EQ(bad_k.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_FALSE(bad_k.get().ok());
  ASSERT_EQ(bad_eps.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_FALSE(bad_eps.get().ok());

  EXPECT_EQ(sched.pump(1), 1u);
  const Response r = good.get();
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.neighbors.size(), 3u);
  EXPECT_EQ(sched.stats().rejected, 3u);
}

TEST(Scheduler, InsertIdsRoundTrip) {
  auto cfg = small_cfg();
  const auto pts = gen_uniform({.n = 100, .dim = 2, .seed = 8});
  core::PimKdTree tree(cfg, pts);
  SchedulerConfig sc;
  sc.policy = Policy::kDeadline;
  BatchScheduler sched(tree, sc);

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 5; ++i)
    futs.push_back(
        sched.submit(Request::insert(pt(0.91 + 0.01 * i, 0.91)), i));
  sched.pump(1);
  for (int i = 0; i < 5; ++i) {
    const Response r = futs[i].get();
    ASSERT_TRUE(r.ok()) << r.error;
    // The tree assigns sequential ids in arrival order — the generator's
    // id model (workload.cpp) and exactly-once accounting both rest on this.
    EXPECT_EQ(r.inserted_id, static_cast<PointId>(100 + i));
    EXPECT_TRUE(tree.is_live(r.inserted_id));
  }
  auto q = sched.submit(Request::knn(pt(0.91, 0.91), 1), 2);
  sched.pump(3);
  const Response rq = q.get();
  ASSERT_TRUE(rq.ok()) << rq.error;
  ASSERT_EQ(rq.neighbors.size(), 1u);
  EXPECT_EQ(rq.neighbors[0].id, 100u);
}

TEST(Scheduler, TradeoffPolicyTargetsTheoryOptimum) {
  // S* = n / 2^(G + log^(G) P): the smallest batch at which Theorem 5.1's
  // per-query communication floor is reached (DESIGN.md §8).
  auto cfg = small_cfg(64);
  const std::size_t P = 64;
  const int logstar = log_star2(double(P));
  const int G = cfg.cached_groups < 0 ? logstar
                                      : std::min(cfg.cached_groups, logstar);
  const double hops = double(G) + ilog2(double(P), G);
  const std::size_t n = 1u << 15;
  const auto expect =
      static_cast<std::size_t>(std::max(1.0, double(n) / std::pow(2.0, hops)));

  EXPECT_EQ(BatchScheduler::tradeoff_target(cfg, P, n, 1, 1u << 20), expect);
  // Clamps: never below the configured floor or above the cap.
  EXPECT_EQ(BatchScheduler::tradeoff_target(cfg, P, n, expect + 100, 1u << 20),
            expect + 100);
  EXPECT_EQ(BatchScheduler::tradeoff_target(cfg, P, n, 1, expect - 100),
            expect - 100);
  // Monotone in n: bigger trees want bigger batches.
  EXPECT_GE(BatchScheduler::tradeoff_target(cfg, P, 4 * n, 1, 1u << 20),
            expect);

  // And the live scheduler reports it.
  const auto pts = gen_uniform({.n = n, .dim = 2, .seed = 9});
  core::PimKdTree tree(cfg, pts);
  SchedulerConfig sc;
  sc.policy = Policy::kTradeoff;
  sc.batch_size = 1;
  sc.max_batch = 1u << 20;
  BatchScheduler sched(tree, sc);
  EXPECT_EQ(sched.target_batch_size(), expect);
}

TEST(Scheduler, AdaptivePolicyRunsControllerAtEpochBoundaries) {
  auto cfg = small_cfg(16);
  cfg.caching = core::CachingMode::kNone;  // wrong for a read-only stream
  const auto pts = gen_uniform({.n = 4000, .dim = 2, .seed = 17});
  core::PimKdTree tree(cfg, pts);
  SchedulerConfig sc;
  sc.policy = Policy::kTradeoff;
  sc.controllers.replication = true;
  sc.deadline_ticks = 1;  // dispatch everything pending at each pump
  BatchScheduler sched(tree, sc);
  ASSERT_NE(sched.replication_controller(), nullptr);

  std::vector<std::future<Response>> futs;
  std::uint64_t tick = 0;
  for (int e = 0; e < 6; ++e) {
    for (int i = 0; i < 120; ++i)
      futs.push_back(sched.submit(Request::knn(pts[(e * 120 + i) % 4000], 4),
                                  tick));
    tick += 10;
    sched.pump(tick);
  }
  sched.stop();
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());

  // A persistently read-only stream must have pulled the tree out of kNone,
  // flagged the switch in the stats and in exactly that batch's log entry.
  const ServeStats st = sched.stats();
  EXPECT_GE(st.mode_switches, 1u);
  EXPECT_NE(tree.config().caching, core::CachingMode::kNone);
  EXPECT_EQ(sched.replication_controller()->switches(), st.mode_switches);
  std::uint64_t flagged = 0;
  for (const BatchLog& b : sched.batch_log())
    if (b.mode_switch) ++flagged;
  EXPECT_EQ(flagged, st.mode_switches);
  EXPECT_GT(tree.op_stats().words_replication, 0u);

  // Non-adaptive policies never instantiate a controller.
  core::PimKdTree plain(small_cfg(), pts);
  SchedulerConfig sc2;
  sc2.policy = Policy::kTradeoff;
  BatchScheduler sched2(plain, sc2);
  EXPECT_EQ(sched2.replication_controller(), nullptr);
}

TEST(Scheduler, ConcurrentProducersAllServed) {
  auto cfg = small_cfg();
  const auto pts = gen_uniform({.n = 1024, .dim = 2, .seed = 10});
  core::PimKdTree tree(cfg, pts);
  SchedulerConfig sc;
  sc.policy = Policy::kDeadline;
  sc.deadline_ticks = 10'000;  // ns; background clock
  BatchScheduler sched(tree, sc);
  sched.start();

  const std::size_t kProducers = 4, kPer = 200;
  std::atomic<std::size_t> ok{0};
  std::vector<std::thread> ts;
  for (std::size_t p = 0; p < kProducers; ++p)
    ts.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPer; ++i) {
        auto f = sched.submit(Request::knn(pts[(p * kPer + i) % 1024], 4), 0);
        const Response r = f.get();
        if (r.ok() && r.neighbors.size() == 4) ok.fetch_add(1);
      }
    });
  for (auto& t : ts) t.join();
  sched.stop();
  EXPECT_EQ(ok.load(), kProducers * kPer);
  const ServeStats st = sched.stats();
  EXPECT_EQ(st.completed, kProducers * kPer);
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.completed + st.rejected, st.submitted);
}

// --- Pipelined epoch execution -------------------------------------------------

TEST(PipelinedScheduler, EraseThenKnnSameEpochSeesSnapshot) {
  // The epoch-versioned read contract is engine-independent: under
  // pipelining, reads admitted with an erase still see the pre-erase
  // snapshot because EXEC runs the epoch's reads before its writes.
  auto cfg = small_cfg(4);
  std::vector<Point> pts = {pt(0.1, 0.1), pt(0.2, 0.2), pt(0.8, 0.8),
                            pt(0.9, 0.9)};
  core::PimKdTree tree(cfg, pts);

  SchedulerConfig sc;
  sc.policy = Policy::kDeadline;
  sc.pipeline = true;
  BatchScheduler sched(tree, sc);

  auto f_erase = sched.submit(Request::erase(0), 0);
  auto f_knn = sched.submit(Request::knn(pt(0.1, 0.1), 1), 0);
  EXPECT_EQ(sched.flush(1), 2u);  // admitted; flush drains the pipeline

  const Response rk = f_knn.get();
  ASSERT_TRUE(rk.ok()) << rk.error;
  ASSERT_EQ(rk.neighbors.size(), 1u);
  EXPECT_EQ(rk.neighbors[0].id, 0u) << "same-epoch read must see the snapshot";
  EXPECT_EQ(rk.epoch, 0u);
  const Response re = f_erase.get();
  EXPECT_TRUE(re.ok());
  EXPECT_TRUE(re.erased);
  EXPECT_EQ(re.epoch, 1u);
  EXPECT_EQ(sched.epoch(), 1u);

  auto f_knn2 = sched.submit(Request::knn(pt(0.1, 0.1), 1), 2);
  EXPECT_EQ(sched.flush(3), 1u);
  const Response rk2 = f_knn2.get();
  ASSERT_EQ(rk2.neighbors.size(), 1u);
  EXPECT_NE(rk2.neighbors[0].id, 0u);
  EXPECT_EQ(rk2.epoch, 1u);
  EXPECT_EQ(sched.stats().read_straddles, 0u);
}

TEST(PipelinedScheduler, ProjectionKeepsInsertIdsExact) {
  // FORM never reads the tree under pipelining; the projection must mirror
  // id assignment exactly so the generator/oracle id model still holds.
  auto cfg = small_cfg();
  const auto pts = gen_uniform({.n = 100, .dim = 2, .seed = 8});
  core::PimKdTree tree(cfg, pts);
  SchedulerConfig sc;
  sc.policy = Policy::kFixedSize;
  sc.batch_size = 3;
  sc.pipeline = true;
  sc.pipeline_depth = 2;
  BatchScheduler sched(tree, sc);

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 9; ++i)
    futs.push_back(sched.submit(Request::insert(pt(0.9 + 0.005 * i, 0.9)), i));
  sched.pump(9);   // three batches stream through a depth-2 pipeline
  sched.flush(10);
  for (int i = 0; i < 9; ++i) {
    const Response r = futs[i].get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.inserted_id, static_cast<PointId>(100 + i));
    EXPECT_TRUE(tree.is_live(r.inserted_id));
  }
  EXPECT_EQ(tree.size(), 109u);
}

TEST(PipelinedScheduler, StopMidFlightResolvesEverythingExactlyOnce) {
  // stop() with epochs still in the pipeline and requests still pending:
  // every outstanding future resolves exactly once, accepted work executes.
  auto cfg = small_cfg();
  const auto pts = gen_uniform({.n = 256, .dim = 2, .seed = 14});
  core::PimKdTree tree(cfg, pts);

  SchedulerConfig sc;
  sc.policy = Policy::kFixedSize;
  sc.batch_size = 4;
  sc.pipeline = true;
  sc.pipeline_depth = 2;
  BatchScheduler sched(tree, sc);

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 10; ++i)
    futs.push_back(sched.submit(Request::knn(pts[i], 2), i));
  futs.push_back(sched.submit(Request::insert(pt(0.5, 0.5)), 10));
  sched.pump(10);  // two full batches admitted; 3 requests remain queued
  sched.stop();    // must drain the pipeline AND flush the remainder

  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "stop() left a future unresolved under pipelining";
    const Response r = f.get();
    EXPECT_TRUE(r.ok()) << r.error;
  }
  const ServeStats st = sched.stats();
  EXPECT_EQ(st.completed, 11u);
  EXPECT_EQ(st.submitted, 11u);

  auto late = sched.submit(Request::knn(pts[0], 1), 99);
  EXPECT_FALSE(late.get().ok());
  EXPECT_EQ(sched.stats().rejected, 1u);
}

TEST(PipelinedScheduler, BackpressureBoundsInFlightEpochs) {
  auto cfg = small_cfg();
  const auto pts = gen_uniform({.n = 512, .dim = 2, .seed = 15});
  core::PimKdTree tree(cfg, pts);
  SchedulerConfig sc;
  sc.policy = Policy::kFixedSize;
  sc.batch_size = 8;
  sc.pipeline = true;
  sc.pipeline_depth = 1;  // FORM must wait for each epoch to finalize
  BatchScheduler sched(tree, sc);

  // Each round pushes 4 back-to-back batches through the depth-1 pipeline;
  // FORM stalls unless every epoch fully finalizes within the microseconds
  // between two enqueues. Feed rounds until a stall registers (bounded — in
  // practice the first round stalls).
  std::vector<std::future<Response>> futs;
  std::uint64_t tick = 0;
  for (int round = 0; round < 50 && sched.stats().pipeline_stalls == 0;
       ++round) {
    for (int i = 0; i < 32; ++i)
      futs.push_back(
          sched.submit(Request::knn(pts[(round * 32 + i) % 512], 4), tick));
    tick += 32;
    EXPECT_EQ(sched.pump(tick), 32u);
  }
  sched.flush(++tick);
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  const ServeStats st = sched.stats();
  EXPECT_EQ(st.completed, futs.size());
  EXPECT_GE(st.pipeline_stalls, 1u)
      << "depth-1 pipeline never blocked formation across "
      << st.batches << " batches";
}

// --- Ledger equivalence: served vs hand-batched --------------------------------

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

TEST(Scheduler, LedgerMatchesHandBatchedRun) {
  // The serving layer must add zero model cost: dispatching a stream through
  // the scheduler charges the ledger exactly as hand-issuing the same groups
  // against a fresh tree would (acceptance criterion; DESIGN.md §8).
  WorkloadSpec spec = mix_spec(MixKind::kUpdateHeavy);
  spec.initial_points = 2000;
  spec.requests = 600;
  spec.seed = 21;
  const ServeWorkload w = gen_serve_workload(spec);

  auto cfg = small_cfg(16);
  const std::size_t kBatch = 64;

  // Served run.
  std::uint64_t served_hash = 0;
  std::vector<BatchLog> log;
  {
    core::PimKdTree tree(cfg, w.initial);
    SchedulerConfig sc;
    sc.policy = Policy::kFixedSize;
    sc.batch_size = kBatch;
    BatchScheduler sched(tree, sc);
    std::vector<std::future<Response>> futs;
    futs.reserve(w.ops.size());
    for (const WorkloadOp& op : w.ops)
      futs.push_back(sched.submit(to_request(op), op.tick));
    sched.pump(w.ops.size());
    sched.flush(w.ops.size());
    for (auto& f : futs) ASSERT_TRUE(f.get().ok());
    log = sched.batch_log();
    served_hash = ledger_hash(tree);
  }

  // Hand-batched run: slice the same stream at the logged batch boundaries
  // and issue each epoch's groups directly, in the scheduler's canonical
  // order (knn groups by (k,eps) first appearance; reads before updates).
  {
    core::PimKdTree tree(cfg, w.initial);
    std::size_t at = 0;
    for (const BatchLog& b : log) {
      const std::size_t take = b.size();
      ASSERT_LE(at + take, w.ops.size());
      std::vector<Point> knn_q;
      std::vector<Point> ins;
      std::vector<PointId> del;
      for (std::size_t i = at; i < at + take; ++i) {
        const WorkloadOp& op = w.ops[i];
        switch (op.kind) {
          case OpKind::kKnn: knn_q.push_back(op.point); break;
          case OpKind::kInsert: ins.push_back(op.point); break;
          case OpKind::kErase: del.push_back(op.id); break;
          default: FAIL() << "unexpected op in update_heavy mix";
        }
      }
      // update_heavy has a single knn group (one (k,eps) key).
      if (!knn_q.empty()) (void)tree.knn(knn_q, spec.knn_k, spec.knn_eps);
      if (!ins.empty()) (void)tree.insert(ins);
      if (!del.empty()) tree.erase(del);
      at += take;
    }
    ASSERT_EQ(at, w.ops.size());
    EXPECT_EQ(ledger_hash(tree), served_hash)
        << "serving layer changed the cost ledger vs hand-batched execution";
  }
}

// --- Cross-thread-count determinism (subprocess) ------------------------------

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

TEST(ServeDeterminism, BatchesResultsAndLedgerInvariantAcrossThreadCounts) {
  const std::string exe = self_exe();
  ASSERT_FALSE(exe.empty());
  const std::string out1 = run_child(exe, 1, "--serve-child serial");
  const std::string out8 = run_child(exe, 8, "--serve-child serial");
  ASSERT_FALSE(out1.empty());
  EXPECT_EQ(out1, out8)
      << "served batch sequence / results / ledger diverged across "
         "PIMKD_THREADS";
}

TEST(ServeDeterminism, PipelinedByteIdenticalToSerialEngine) {
  // The tentpole acceptance criterion (DESIGN.md §8.5): in virtual-tick mode
  // the pipelined engine's batch log, per-request results, ticks, cost
  // ledger and execution trace are byte-identical to the serial engine's, at
  // every thread count — only wall-clock overlap may change.
  const std::string exe = self_exe();
  ASSERT_FALSE(exe.empty());
  const std::string ref = run_child(exe, 1, "--serve-child serial");
  ASSERT_FALSE(ref.empty());
  ASSERT_NE(ref.find("trace="), std::string::npos);
  for (const int threads : {1, 4, 8}) {
    EXPECT_EQ(run_child(exe, threads, "--serve-child pipelined"), ref)
        << "pipelined engine diverged from serial at PIMKD_THREADS="
        << threads;
  }
  EXPECT_EQ(run_child(exe, 4, "--serve-child serial"), ref);
}

TEST(ServeDeterminism, ShardedWorkloadInvariantAcrossThreadCounts) {
  // gen_sharded_workload draws every producer's stream from a private RNG:
  // the generated bytes must not depend on how many threads ran stage 1.
  const std::string exe = self_exe();
  ASSERT_FALSE(exe.empty());
  const std::string out1 = run_child(exe, 1, "--shard-child");
  ASSERT_FALSE(out1.empty());
  for (const int threads : {4, 8})
    EXPECT_EQ(run_child(exe, threads, "--shard-child"), out1)
        << "sharded workload diverged at PIMKD_THREADS=" << threads;
}

// Full pipeline at fixed submission order and virtual ticks: every op kind,
// a Zipfian key stream, and the tradeoff policy with a deadline fallback.
// Prints the batch log, a result hash (payloads AND ticks), the ledger hash
// and a hash of the execution trace file — all of which must be invariant
// under PIMKD_THREADS, and identical between the serial and pipelined
// engines.
int serve_child(bool pipelined) {
  WorkloadSpec spec;
  spec.mix = MixKind::kScanHeavy;
  spec.initial_points = 6000;
  spec.requests = 1500;
  spec.seed = 33;
  spec.zipf_theta = 0.99;
  spec.f_knn = 0.35;
  spec.f_range = 0.20;
  spec.f_radius = 0.10;
  spec.f_radius_count = 0.10;
  spec.f_insert = 0.15;
  spec.f_erase = 0.10;
  const ServeWorkload w = gen_serve_workload(spec);

  const std::string trace_path =
      "/tmp/pimkd_serve_trace_" + std::to_string(::getpid()) + ".jsonl";

  std::uint64_t rh = 0, lh = 0;
  std::string batches;
  ServeStats st;
  std::size_t size = 0, nodes = 0;
  bool inv = false;
  {
    core::PimKdConfig cfg;
    cfg.dim = 2;
    cfg.leaf_cap = 8;
    cfg.sigma = 64;
    cfg.system.num_modules = 32;
    cfg.system.cache_words = 1 << 22;
    cfg.system.seed = 33;
    cfg.trace_path = trace_path;
    core::PimKdTree tree(cfg, w.initial);

    SchedulerConfig sc;
    sc.policy = Policy::kTradeoff;
    sc.batch_size = 32;
    sc.max_batch = 512;
    sc.deadline_ticks = 200;
    sc.pipeline = pipelined;
    sc.pipeline_depth = 3;
    BatchScheduler sched(tree, sc);

    std::vector<std::future<Response>> futs;
    futs.reserve(w.ops.size());
    for (const WorkloadOp& op : w.ops) {
      futs.push_back(sched.submit(to_request(op), op.tick));
      sched.pump(op.tick);
    }
    sched.flush(w.ops.size());

    for (auto& f : futs) {
      const Response r = f.get();
      rh = mix64(rh, static_cast<std::uint64_t>(r.kind));
      rh = mix64(rh, r.epoch);
      rh = mix64(rh, r.ok() ? 1 : 0);
      rh = mix64(rh, r.inserted_id == kInvalidPoint ? 0 : r.inserted_id + 1);
      rh = mix64(rh, r.erased ? 1 : 0);
      for (const auto& nb : r.neighbors) rh = mix64(rh, nb.id);
      for (const auto id : r.ids) rh = mix64(rh, id);
      rh = mix64(rh, r.count);
      // Virtual-tick mode: dispatch and completion ticks are part of the
      // deterministic contract, for both engines.
      rh = mix64(rh, r.submit_tick);
      rh = mix64(rh, r.dispatch_tick);
      rh = mix64(rh, r.complete_tick);
    }
    for (const BatchLog& b : sched.batch_log()) {
      batches += b.to_string();
      batches += '\n';
    }
    st = sched.stats();
    lh = ledger_hash(tree);
    size = tree.size();
    nodes = tree.num_nodes();
    inv = tree.check_invariants();
  }  // tree destruction closes the trace sink

  std::uint64_t th = 0;
  if (std::FILE* f = std::fopen(trace_path.c_str(), "rb")) {
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
      for (std::size_t i = 0; i < n; ++i)
        th = mix64(th, static_cast<unsigned char>(buf[i]));
    std::fclose(f);
  }
  std::remove(trace_path.c_str());

  std::printf("%s", batches.c_str());
  std::printf("completed=%llu batches=%llu epochs=%llu results=%llu "
              "ledger=%llu trace=%llu size=%zu nodes=%zu inv=%d\n",
              (unsigned long long)st.completed,
              (unsigned long long)st.batches, (unsigned long long)st.epochs,
              (unsigned long long)rh, (unsigned long long)lh,
              (unsigned long long)th, size, nodes, inv ? 1 : 0);
  return 0;
}

std::uint64_t coord_bits(Coord c) {
  std::uint64_t b = 0;
  static_assert(sizeof(Coord) == sizeof b);
  std::memcpy(&b, &c, sizeof b);
  return b;
}

// Hashes every field of a sharded workload; compared across PIMKD_THREADS.
int shard_child() {
  WorkloadSpec spec = mix_spec(MixKind::kUpdateHeavy);
  spec.initial_points = 1200;
  spec.requests = 3000;
  spec.seed = 91;
  spec.zipf_theta = 0.8;
  const ServeWorkload w = gen_sharded_workload(spec, /*producers=*/4);

  std::uint64_t h = 0;
  for (const Point& p : w.initial)
    for (int d = 0; d < spec.dim; ++d) h = mix64(h, coord_bits(p[d]));
  for (const WorkloadOp& op : w.ops) {
    h = mix64(h, static_cast<std::uint64_t>(op.kind));
    h = mix64(h, op.tick);
    h = mix64(h, op.id == kInvalidPoint ? 0 : op.id + 1);
    h = mix64(h, op.k);
    h = mix64(h, coord_bits(op.radius));
    h = mix64(h, coord_bits(op.eps));
    for (int d = 0; d < spec.dim; ++d) {
      h = mix64(h, coord_bits(op.point[d]));
      h = mix64(h, coord_bits(op.box.lo[d]));
      h = mix64(h, coord_bits(op.box.hi[d]));
    }
  }
  std::printf("shard_ops=%zu hash=%llu\n", w.ops.size(),
              (unsigned long long)h);
  return 0;
}

// --- Sharded workload: in-process properties -----------------------------------

TEST(ShardedWorkload, IdModelMatchesTheTree) {
  // The sequential resolve pass assigns insert ids and erase targets exactly
  // like the tree will when the stream is served in order.
  WorkloadSpec spec = mix_spec(MixKind::kUpdateHeavy);
  spec.initial_points = 500;
  spec.requests = 400;
  spec.seed = 19;
  spec.zipf_theta = 0.9;
  const ServeWorkload w = gen_sharded_workload(spec, 3);
  ASSERT_EQ(w.ops.size(), spec.requests);

  PointId next_id = static_cast<PointId>(spec.initial_points);
  for (const WorkloadOp& op : w.ops) {
    if (op.kind == OpKind::kInsert) {
      EXPECT_EQ(op.id, next_id++);
    }
  }

  auto cfg = small_cfg();
  core::PimKdTree tree(cfg, w.initial);
  SchedulerConfig sc;
  sc.policy = Policy::kFixedSize;
  sc.batch_size = 64;
  BatchScheduler sched(tree, sc);
  std::vector<std::future<Response>> futs;
  futs.reserve(w.ops.size());
  for (const WorkloadOp& op : w.ops)
    futs.push_back(sched.submit(to_request(op), op.tick));
  sched.pump(w.ops.size());
  sched.flush(w.ops.size());
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Response r = futs[i].get();
    ASSERT_TRUE(r.ok()) << i << ": " << r.error;
    if (w.ops[i].kind == OpKind::kInsert) {
      EXPECT_EQ(r.inserted_id, w.ops[i].id) << "id model diverged at op " << i;
    }
  }
}

TEST(ShardedWorkload, RepeatedGenerationIsIdentical) {
  WorkloadSpec spec = mix_spec(MixKind::kReadHeavy);
  spec.initial_points = 300;
  spec.requests = 500;
  spec.seed = 7;
  spec.zipf_theta = 0.99;
  const ServeWorkload a = gen_sharded_workload(spec, 4);
  const ServeWorkload b = gen_sharded_workload(spec, 4);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind) << i;
    EXPECT_EQ(a.ops[i].id, b.ops[i].id) << i;
    EXPECT_TRUE(a.ops[i].point.equals(b.ops[i].point, spec.dim)) << i;
  }
  // Different producer counts are different (but individually deterministic)
  // streams — the interleave is part of the function's identity.
  const ServeWorkload c = gen_sharded_workload(spec, 2);
  ASSERT_EQ(c.ops.size(), a.ops.size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--serve-child") {
    const bool pipelined = argc >= 3 && std::string(argv[2]) == "pipelined";
    return serve_child(pipelined);
  }
  if (argc >= 2 && std::string(argv[1]) == "--shard-child") return shard_child();
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
