// Serving across module failures: a module crash in the middle of a served
// request stream must not lose, duplicate, or corrupt a single request —
// in-flight and subsequent operations complete through the degraded-mode
// host fallbacks with exact results, and after recover_all() the scheduler
// keeps serving on the repaired system.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "serve/scheduler.hpp"
#include "serve/workload.hpp"

namespace {

using namespace pimkd;
using namespace pimkd::serve;

// These tests schedule their own faults via SystemConfig::fault_spec and
// calibrate against a fault-free run; a process-wide PIMKD_FAULTS (the CI
// soak arms one) would leak into the calibration tree through the env
// fallback of FaultPlan::resolve.
const bool g_env_cleared = [] {
  unsetenv("PIMKD_FAULTS");
  return true;
}();

core::PimKdConfig serve_cfg(std::size_t P, const std::string& faults = "") {
  core::PimKdConfig cfg;
  cfg.dim = 2;
  cfg.leaf_cap = 8;
  cfg.sigma = 64;
  cfg.system.num_modules = P;
  cfg.system.cache_words = 1 << 22;
  cfg.system.seed = 5;
  cfg.system.fault_spec = faults;  // explicit spec wins over PIMKD_FAULTS
  return cfg;
}

// Exact kNN over the modeled live set (coords indexed by PointId, alive
// bitmap), with the library's tie-break: ascending (sq_dist, id).
std::vector<PointId> oracle_knn(const std::vector<Point>& coords,
                                const std::vector<bool>& alive, const Point& q,
                                std::size_t k, int dim) {
  std::vector<std::pair<Coord, PointId>> best;
  for (PointId id = 0; id < coords.size(); ++id) {
    if (!alive[id]) continue;
    Coord d2 = 0;
    for (int d = 0; d < dim; ++d) {
      const Coord diff = coords[id][d] - q[d];
      d2 += diff * diff;
    }
    best.emplace_back(d2, id);
  }
  const std::size_t kk = std::min(k, best.size());
  std::partial_sort(best.begin(), best.begin() + kk, best.end());
  std::vector<PointId> ids;
  for (std::size_t i = 0; i < kk; ++i) ids.push_back(best[i].second);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<PointId> sorted_ids(const std::vector<Neighbor>& nbs) {
  std::vector<PointId> ids;
  for (const auto& nb : nbs) ids.push_back(nb.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

struct ServedRun {
  std::vector<BatchLog> log;
  std::vector<Response> responses;  // arrival order
  ServeStats stats;
  std::uint64_t rounds_after_build = 0;
  std::uint64_t rounds_after_stream = 0;
  bool degraded_mid_stream = false;
  bool degraded_at_end = false;
};

ServedRun serve_stream(core::PimKdTree& tree, const ServeWorkload& w) {
  ServedRun out;
  out.rounds_after_build = tree.metrics().snapshot().rounds;
  SchedulerConfig sc;
  sc.policy = Policy::kFixedSize;
  sc.batch_size = 64;
  BatchScheduler sched(tree, sc);
  std::vector<std::future<Response>> futs;
  futs.reserve(w.ops.size());
  for (const WorkloadOp& op : w.ops) {
    futs.push_back(sched.submit(to_request(op), op.tick));
    sched.pump(op.tick);
    if (tree.degraded()) out.degraded_mid_stream = true;
  }
  sched.flush(w.ops.size());
  for (auto& f : futs) out.responses.push_back(f.get());
  out.log = sched.batch_log();
  out.stats = sched.stats();
  out.rounds_after_stream = tree.metrics().snapshot().rounds;
  out.degraded_at_end = tree.degraded();
  return out;
}

// Replays the stream against a live-set model batch-by-batch (reads check
// against the pre-batch state = the epoch snapshot; then inserts, then
// erases) and asserts every response is exact and exactly-once.
void check_run_exact(const ServeWorkload& w, const ServedRun& run) {
  ASSERT_EQ(run.responses.size(), w.ops.size());
  std::vector<Point> coords = w.initial;
  std::vector<bool> alive(coords.size(), true);

  std::size_t at = 0;
  for (const BatchLog& b : run.log) {
    const std::size_t take = b.size();
    ASSERT_LE(at + take, w.ops.size());
    // Reads see the epoch snapshot: the state before this batch's updates.
    for (std::size_t i = at; i < at + take; ++i) {
      if (w.ops[i].kind != OpKind::kKnn) continue;
      const Response& r = run.responses[i];
      ASSERT_TRUE(r.ok()) << i << ": " << r.error;
      EXPECT_EQ(sorted_ids(r.neighbors),
                oracle_knn(coords, alive, w.ops[i].point, w.ops[i].k,
                           w.spec.dim))
          << "knn at op " << i << " diverged from the snapshot oracle";
    }
    // Then the epoch's updates, inserts before erases (scheduler order).
    for (std::size_t i = at; i < at + take; ++i) {
      if (w.ops[i].kind != OpKind::kInsert) continue;
      const Response& r = run.responses[i];
      ASSERT_TRUE(r.ok()) << i << ": " << r.error;
      // Sequential id == exactly-once: a lost or doubly-applied insert
      // would shift every id after it.
      EXPECT_EQ(r.inserted_id, static_cast<PointId>(coords.size()));
      coords.push_back(w.ops[i].point);
      alive.push_back(true);
    }
    for (std::size_t i = at; i < at + take; ++i) {
      if (w.ops[i].kind != OpKind::kErase) continue;
      const Response& r = run.responses[i];
      ASSERT_TRUE(r.ok()) << i << ": " << r.error;
      const PointId id = w.ops[i].id;
      ASSERT_LT(id, alive.size());
      EXPECT_EQ(r.erased, alive[id]) << "erase verdict wrong at op " << i;
      alive[id] = false;
    }
    at += take;
  }
  ASSERT_EQ(at, w.ops.size());
}

TEST(ServeFault, MidStreamCrashDegradedExactAndRecovery) {
  WorkloadSpec spec = mix_spec(MixKind::kUpdateHeavy);
  spec.initial_points = 3000;
  spec.requests = 800;
  spec.seed = 55;
  const ServeWorkload w = gen_serve_workload(spec);

  // Calibration run (no faults): find the BSP-round window the stream
  // occupies, so the crash can be scheduled mid-stream deterministically.
  std::uint64_t mid_round = 0;
  {
    core::PimKdTree tree(serve_cfg(16), w.initial);
    const ServedRun run = serve_stream(tree, w);
    ASSERT_FALSE(run.degraded_at_end);
    ASSERT_GT(run.rounds_after_stream, run.rounds_after_build + 4);
    mid_round =
        (run.rounds_after_build + run.rounds_after_stream) / 2;
    check_run_exact(w, run);  // the oracle harness itself, on the clean run
  }

  // Faulty run: module 3 crashes at the mid-stream round barrier.
  const std::string fault = "crash@" + std::to_string(mid_round) + ":m3";
  core::PimKdTree tree(serve_cfg(16, fault), w.initial);
  const ServedRun run = serve_stream(tree, w);

  EXPECT_TRUE(run.degraded_mid_stream)
      << "crash was scheduled at round " << mid_round
      << " but the tree never degraded mid-stream";
  EXPECT_TRUE(run.degraded_at_end);
  // Every request completed exactly once with exact results, fault or not.
  check_run_exact(w, run);

  // Recovery: repair, verify integrity, and keep serving.
  const auto reports = tree.recover_all();
  ASSERT_FALSE(reports.empty());
  for (const auto& rep : reports) EXPECT_TRUE(rep.integrity_ok);
  EXPECT_TRUE(tree.check_integrity().ok);
  EXPECT_FALSE(tree.degraded());

  SchedulerConfig sc;
  sc.policy = Policy::kDeadline;
  BatchScheduler sched(tree, sc);
  auto f = sched.submit(Request::knn(w.initial[0], 4), 0);
  sched.pump(1);
  const Response r = f.get();
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.neighbors.size(), 4u);
}

TEST(ServeFault, DirectCrashBetweenEpochsKeepsServing) {
  WorkloadSpec spec = mix_spec(MixKind::kReadHeavy);
  spec.initial_points = 1500;
  spec.requests = 200;
  spec.seed = 77;
  const ServeWorkload w = gen_serve_workload(spec);

  core::PimKdTree tree(serve_cfg(8), w.initial);
  SchedulerConfig sc;
  sc.policy = Policy::kFixedSize;
  sc.batch_size = 50;
  BatchScheduler sched(tree, sc);

  std::vector<std::future<Response>> futs;
  std::size_t i = 0;
  for (; i < 100; ++i) {
    futs.push_back(sched.submit(to_request(w.ops[i]), w.ops[i].tick));
    sched.pump(w.ops[i].tick);
  }
  tree.crash_module(2);  // between epochs, from the control thread
  ASSERT_TRUE(tree.degraded());
  for (; i < w.ops.size(); ++i) {
    futs.push_back(sched.submit(to_request(w.ops[i]), w.ops[i].tick));
    sched.pump(w.ops[i].tick);
  }
  sched.flush(w.ops.size());

  ServedRun run;
  for (auto& f : futs) run.responses.push_back(f.get());
  run.log = sched.batch_log();
  check_run_exact(w, run);

  for (const auto& rep : tree.recover_all()) EXPECT_TRUE(rep.integrity_ok);
  EXPECT_FALSE(tree.degraded());
  EXPECT_TRUE(tree.check_integrity().ok);
}

}  // namespace
