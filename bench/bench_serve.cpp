// E14 — online serving layer: latency / throughput under YCSB-style mixes.
//
// Drives the serve::BatchScheduler in front of a PimKdTree with generated
// request streams (read-heavy / update-heavy / scan-heavy, uniform and
// Zipfian key choice) across the batching policies, and reports wall-clock
// p50/p95/p99/p999 request latency plus throughput from the scheduler's
// util::LatencyHistogram. One leg runs multi-threaded producers against the
// background scheduler thread to exercise the MPSC path.
//
// PIMKD_SERVE_SMOKE=1 shrinks the stream for CI smoke runs (~2s).
// PIMKD_ROUTER_SMOKE=1 additionally restricts the run to the sharded
// (router) legs only — the CI router smoke target.
// PIMKD_MIGRATION_SMOKE=1 restricts the run to the migration-gate legs
// (zipf stream with/without the migration planner) at smoke sizing.
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "router/frontend.hpp"

#include "bench_util.hpp"
#include "durability/manager.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"

using namespace pimkd;
using namespace pimkd::bench;
using namespace pimkd::serve;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Leg {
  MixKind mix;
  double theta;  // 0 = uniform keys
  Policy policy;
};

}  // namespace

int main() {
  banner("E14 bench_serve",
         "online serving: adaptive batching over the batch-dynamic tree",
         "read-heavy mixes batch near the tradeoff target; p99 stays within "
         "the per-mix SLO; throughput tracks batch size");

  const auto env_on = [](const char* name) {
    const char* e = std::getenv(name);
    return e && *e && *e != '0';
  };
  // Router-only / migration-only smoke implies smoke sizing.
  const bool router_only = env_on("PIMKD_ROUTER_SMOKE");
  const bool migration_only = env_on("PIMKD_MIGRATION_SMOKE");
  const bool smoke =
      env_on("PIMKD_SERVE_SMOKE") || router_only || migration_only;
  const std::size_t n = smoke ? 4096 : 32768;
  const std::size_t requests = smoke ? 4000 : 30000;
  const std::size_t P = 64;
  const double slo_p99_us = 50'000.0;  // generous: regression tripwire only

  BenchReport rep("bench_serve");
  {
    Json m;
    m.set("n", static_cast<std::uint64_t>(n))
        .set("requests", static_cast<std::uint64_t>(requests))
        .set("P", static_cast<std::uint64_t>(P))
        .set("smoke", smoke);
    rep.meta(m);
  }

  Table t({"mix", "policy", "zipf", "reqs", "batches", "mean batch", "epochs",
           "kreq/s", "p50 us", "p95 us", "p99 us", "p999 us"});

  const Leg legs[] = {
      {MixKind::kReadHeavy, 0.0, Policy::kTradeoff},
      {MixKind::kReadHeavy, 0.99, Policy::kTradeoff},
      {MixKind::kUpdateHeavy, 0.0, Policy::kFixedSize},
      {MixKind::kScanHeavy, 0.0, Policy::kDeadline},
  };

  for (const Leg& leg : legs) {
    if (router_only || migration_only) break;
    WorkloadSpec spec = mix_spec(leg.mix);
    spec.initial_points = n;
    spec.requests = requests;
    spec.seed = 7;
    spec.zipf_theta = leg.theta;
    const ServeWorkload w = gen_serve_workload(spec);

    auto cfg = default_cfg(P);
    core::PimKdTree tree(cfg, w.initial);

    SchedulerConfig sc;
    sc.policy = leg.policy;
    sc.batch_size = 256;
    sc.max_batch = 4096;
    sc.deadline_ticks = 200'000;  // 200us oldest-waiter bound (ns ticks)
    sc.clock = now_ns;
    BatchScheduler sched(tree, sc);

    const auto before = tree.metrics().snapshot();
    const std::uint64_t t0 = now_ns();
    for (const WorkloadOp& op : w.ops) {
      (void)sched.submit(to_request(op), now_ns());
      sched.pump(now_ns());
    }
    sched.flush(now_ns());
    const double secs = double(now_ns() - t0) * 1e-9;
    const auto d = tree.metrics().snapshot() - before;

    const ServeStats st = sched.stats();
    const auto& h = st.service_latency;
    const double mean_batch =
        st.batches ? double(st.completed) / double(st.batches) : 0.0;
    const double rps = secs > 0 ? double(st.completed) / secs : 0.0;
    const double p50 = double(h.percentile(50)) / 1000.0;
    const double p95 = double(h.percentile(95)) / 1000.0;
    const double p99 = double(h.percentile(99)) / 1000.0;
    const double p999 = double(h.percentile(99.9)) / 1000.0;

    t.row({mix_name(leg.mix), policy_name(leg.policy), num(leg.theta),
           num(double(st.completed)), num(double(st.batches)), num(mean_batch),
           num(double(st.epochs)), num(rps / 1000.0), num(p50), num(p95),
           num(p99), num(p999)});

    Json row;
    row.set("mix", mix_name(leg.mix))
        .set("policy", policy_name(leg.policy))
        .set("zipf_theta", leg.theta)
        .set("requests", st.completed)
        .set("batches", st.batches)
        .set("mean_batch", mean_batch)
        .set("epochs", st.epochs)
        .set("target_batch", static_cast<std::uint64_t>(sched.target_batch_size()))
        .set("throughput_rps", rps)
        .set("p50_us", p50)
        .set("p95_us", p95)
        .set("p99_us", p99)
        .set("p999_us", p999)
        .set("max_us", double(h.max()) / 1000.0)
        .set("comm_per_op",
             st.completed ? double(d.communication) / double(st.completed) : 0.0)
        .set("slo_p99_us", slo_p99_us)
        .set("slo_ok", p99 <= slo_p99_us);
    rep.add_row(row);
  }

  // Serial vs pipelined epoch execution on the read-heavy Zipfian stream
  // (the §8.5 acceptance leg): sustained throughput and p99 under both
  // engines, then a regression gate on their ratio. On few-core hosts the
  // stages time-share the cores with the producer, so wall-clock overlap is
  // limited — the gate is a tripwire against the pipelined engine
  // *regressing* sustained throughput, not a speedup claim (EXPERIMENTS.md
  // records the honest caveat; on parallel hardware the overlap is the win).
  double pipe_speedup = 0.0;
  if (!router_only && !migration_only) {
    WorkloadSpec spec = mix_spec(MixKind::kReadHeavy);
    spec.initial_points = n;
    spec.requests = requests;
    spec.seed = 7;
    spec.zipf_theta = 0.99;
    const ServeWorkload w = gen_serve_workload(spec);

    double rps_eng[2] = {0.0, 0.0};
    for (int eng = 0; eng < 2; ++eng) {
      auto cfg = default_cfg(P);
      core::PimKdTree tree(cfg, w.initial);
      SchedulerConfig sc;
      sc.policy = Policy::kTradeoff;
      sc.batch_size = 256;
      sc.max_batch = 4096;
      sc.deadline_ticks = 200'000;
      sc.clock = now_ns;
      sc.pipeline = eng == 1;
      sc.pipeline_depth = 4;
      BatchScheduler sched(tree, sc);

      const std::uint64_t t0 = now_ns();
      for (const WorkloadOp& op : w.ops) {
        (void)sched.submit(to_request(op), now_ns());
        sched.pump(now_ns());
      }
      sched.flush(now_ns());  // pipelined: drains — all requests resolved
      const double secs = double(now_ns() - t0) * 1e-9;

      const ServeStats st = sched.stats();
      const auto& h = st.service_latency;
      const double rps = secs > 0 ? double(st.completed) / secs : 0.0;
      rps_eng[eng] = rps;
      const char* name = eng ? "read_heavy_pipelined" : "read_heavy_serial";
      t.row({name, policy_name(sc.policy), num(spec.zipf_theta),
             num(double(st.completed)), num(double(st.batches)),
             num(st.batches ? double(st.completed) / double(st.batches) : 0.0),
             num(double(st.epochs)), num(rps / 1000.0),
             num(double(h.percentile(50)) / 1000.0),
             num(double(h.percentile(95)) / 1000.0),
             num(double(h.percentile(99)) / 1000.0),
             num(double(h.percentile(99.9)) / 1000.0)});
      Json row;
      row.set("mix", name)
          .set("engine", eng ? "pipelined" : "serial")
          .set("policy", policy_name(sc.policy))
          .set("zipf_theta", spec.zipf_theta)
          .set("requests", st.completed)
          .set("batches", st.batches)
          .set("epochs", st.epochs)
          .set("throughput_rps", rps)
          .set("p50_us", double(h.percentile(50)) / 1000.0)
          .set("p95_us", double(h.percentile(95)) / 1000.0)
          .set("p99_us", double(h.percentile(99)) / 1000.0)
          .set("p999_us", double(h.percentile(99.9)) / 1000.0)
          .set("pipeline_stalls", st.pipeline_stalls)
          .set("read_straddles", st.read_straddles)
          .set("slo_p99_us", slo_p99_us)
          .set("slo_ok", double(h.percentile(99)) / 1000.0 <= slo_p99_us);
      rep.add_row(row);
      if (st.completed + st.rejected != st.submitted) {
        std::printf("LOST REQUESTS (%s)\n", name);
        return 1;
      }
    }

    pipe_speedup = rps_eng[0] > 0 ? rps_eng[1] / rps_eng[0] : 0.0;
    // Floor calibrated on the 1-core CI container: the pipelined engine pays
    // two extra thread handoffs per epoch with no spare core to absorb them;
    // anything below 0.6x sustained throughput is a real regression, not
    // scheduling noise (observed ~0.78-0.96x there, >1x on multi-core).
    const double gate_floor = 0.6;
    Json g;
    g.set("mix", "pipeline_gate")
        .set("pipeline_speedup", pipe_speedup)
        .set("gate_floor", gate_floor)
        .set("pipeline_gate_ok", pipe_speedup >= gate_floor);
    rep.add_row(g);
    t.row({"pipeline_gate", num(pipe_speedup) + "x", "", "", "", "", "", "", "",
           "", "", pipe_speedup >= gate_floor ? "ok" : "FAIL"});
  }

  // Durability cost (DESIGN.md §10): the same update-heavy stream served
  // with no WAL, with the WAL at kNone (append, no explicit sync), and at
  // kEveryBatch (fdatasync before every ack — the acked => durable
  // guarantee). The WAL-off row is the regression gate leg; the ratio rows
  // quantify what crash consistency costs on this host (EXPERIMENTS.md).
  if (!router_only && !migration_only) {
    WorkloadSpec spec = mix_spec(MixKind::kUpdateHeavy);
    spec.initial_points = n;
    spec.requests = requests;
    spec.seed = 13;
    const ServeWorkload w = gen_serve_workload(spec);

    struct WalLeg {
      const char* name;
      bool wal;
      durability::SyncPolicy sync;
    };
    const WalLeg wal_legs[] = {
        {"update_heavy_wal_off", false, durability::SyncPolicy::kNone},
        {"update_heavy_wal_nosync", true, durability::SyncPolicy::kNone},
        {"update_heavy_wal_epoch", true, durability::SyncPolicy::kEveryEpoch},
        {"update_heavy_wal_sync", true, durability::SyncPolicy::kEveryBatch},
    };
    double rps_off = 0.0;
    for (const WalLeg& leg : wal_legs) {
      auto cfg = default_cfg(P);
      core::PimKdTree tree(cfg, w.initial);

      const std::string dir =
          "/tmp/pimkd_bench_wal_" + std::to_string(::getpid());
      std::unique_ptr<durability::Manager> mgr;
      if (leg.wal) {
        std::system(("rm -rf '" + dir + "'").c_str());
        durability::ManagerConfig mc;
        mc.dir = dir;
        mc.sync = leg.sync;
        if (!durability::Manager::create(mc, tree, mgr).ok()) {
          std::printf("WAL MANAGER CREATE FAILED (%s)\n", leg.name);
          return 1;
        }
      }

      SchedulerConfig sc;
      sc.policy = Policy::kFixedSize;
      sc.batch_size = 256;
      sc.max_batch = 4096;
      sc.deadline_ticks = 200'000;
      sc.clock = now_ns;
      sc.pipeline = true;
      sc.durability = mgr.get();
      const std::uint64_t t0 = now_ns();
      ServeStats st;
      {
        BatchScheduler sched(tree, sc);
        for (const WorkloadOp& op : w.ops) {
          (void)sched.submit(to_request(op), now_ns());
          sched.pump(now_ns());
        }
        sched.flush(now_ns());
        st = sched.stats();
        if (st.wal_failures != 0) {
          std::printf("WAL FAILURES (%s)\n", leg.name);
          return 1;
        }
      }
      const double secs = double(now_ns() - t0) * 1e-9;
      const double rps = secs > 0 ? double(st.completed) / secs : 0.0;
      if (!leg.wal) rps_off = rps;
      const auto& h = st.service_latency;

      t.row({leg.name, "fixed", "0", num(double(st.completed)),
             num(double(st.batches)),
             num(st.batches ? double(st.completed) / double(st.batches) : 0.0),
             num(double(st.epochs)), num(rps / 1000.0),
             num(double(h.percentile(50)) / 1000.0),
             num(double(h.percentile(95)) / 1000.0),
             num(double(h.percentile(99)) / 1000.0),
             num(double(h.percentile(99.9)) / 1000.0)});
      Json row;
      row.set("mix", leg.name)
          .set("wal", leg.wal)
          .set("sync_policy",
               leg.wal ? durability::sync_policy_name(leg.sync) : "off")
          .set("requests", st.completed)
          .set("batches", st.batches)
          .set("wal_frames", st.wal_frames)
          .set("throughput_rps", rps)
          .set("overhead_vs_off", rps_off > 0 ? rps_off / rps : 0.0)
          .set("p50_us", double(h.percentile(50)) / 1000.0)
          .set("p95_us", double(h.percentile(95)) / 1000.0)
          .set("p99_us", double(h.percentile(99)) / 1000.0)
          .set("p999_us", double(h.percentile(99.9)) / 1000.0);
      if (leg.wal) {
        const auto ms = mgr->stats();
        row.set("wal_bytes", ms.wal_bytes).set("wal_syncs", ms.syncs);
      }
      rep.add_row(row);
      if (leg.wal) std::system(("rm -rf '" + dir + "'").c_str());
    }
  }

  // Multi-threaded producers against the background scheduler thread: the
  // MPSC ingestion path under real contention (also the TSan smoke target).
  // The stream comes from the sharded generator — each producer submits
  // exactly its own shard, so the workload bytes are identical no matter how
  // the producers interleave or how many threads generated them.
  if (!router_only && !migration_only) {
    WorkloadSpec spec = mix_spec(MixKind::kUpdateHeavy);
    spec.initial_points = n;
    spec.requests = requests;
    spec.seed = 11;
    const std::size_t kProducers = 4;
    const ServeWorkload w = gen_sharded_workload(spec, kProducers);

    auto cfg = default_cfg(P);
    core::PimKdTree tree(cfg, w.initial);
    SchedulerConfig sc;
    sc.policy = Policy::kDeadline;
    sc.max_batch = 4096;
    sc.deadline_ticks = 100'000;
    sc.pipeline = true;  // burst ingestion through the staged engine (TSan leg)
    BatchScheduler sched(tree, sc);
    sched.start();

    const std::uint64_t t0 = now_ns();
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t i = p; i < w.ops.size(); i += kProducers)
          (void)sched.submit(to_request(w.ops[i]), now_ns());
      });
    }
    for (auto& th : producers) th.join();
    sched.stop();
    const double secs = double(now_ns() - t0) * 1e-9;

    const ServeStats st = sched.stats();
    const auto& h = st.service_latency;
    const double rps = secs > 0 ? double(st.completed) / secs : 0.0;
    t.row({"mixed_mt4", policy_name(sc.policy), "0", num(double(st.completed)),
           num(double(st.batches)),
           num(st.batches ? double(st.completed) / double(st.batches) : 0.0),
           num(double(st.epochs)), num(rps / 1000.0),
           num(double(h.percentile(50)) / 1000.0),
           num(double(h.percentile(95)) / 1000.0),
           num(double(h.percentile(99)) / 1000.0),
           num(double(h.percentile(99.9)) / 1000.0)});
    Json row;
    row.set("mix", "mixed_mt4")
        .set("policy", policy_name(sc.policy))
        .set("zipf_theta", 0.0)
        .set("requests", st.completed)
        .set("batches", st.batches)
        .set("mean_batch",
             st.batches ? double(st.completed) / double(st.batches) : 0.0)
        .set("epochs", st.epochs)
        .set("throughput_rps", rps)
        .set("p50_us", double(h.percentile(50)) / 1000.0)
        .set("p95_us", double(h.percentile(95)) / 1000.0)
        .set("p99_us", double(h.percentile(99)) / 1000.0)
        .set("p999_us", double(h.percentile(99.9)) / 1000.0)
        .set("max_us", double(h.max()) / 1000.0);
    // No SLO verdict here: all producers enqueue at once (burst, not paced),
    // so this leg measures contention-safety and liveness, not latency.
    rep.add_row(row);

    if (st.completed + st.rejected != st.submitted) {
      std::printf("LOST REQUESTS: submitted=%llu completed=%llu rejected=%llu\n",
                  (unsigned long long)st.submitted,
                  (unsigned long long)st.completed,
                  (unsigned long long)st.rejected);
      return 1;
    }
  }

  // Horizontal scale-out (DESIGN.md §12): the same read-heavy Zipfian stream
  // served through a router::Frontend at K=1 and K=4 shards. Identical
  // admission policy on both sides, so the ratio isolates what sharding buys:
  // smaller per-shard trees plus one thread per active shard in each Router
  // call. The gate demands K=4 sustain >= 1.05x K=1 throughput, but only on
  // hosts with >= 4 hardware cores — on fewer cores the shard threads
  // time-share and the gate passes vacuously with a printed caveat (same
  // honesty rule as the pipelined-engine gate above; EXPERIMENTS.md records
  // it).
  if (!migration_only) {
    WorkloadSpec spec = mix_spec(MixKind::kReadHeavy);
    spec.initial_points = n;
    spec.requests = requests;
    spec.seed = 7;
    spec.zipf_theta = 0.99;
    const ServeWorkload w = gen_serve_workload(spec);

    const std::size_t shard_counts[] = {1, 4};
    double rps_k[2] = {0.0, 0.0};
    for (int i = 0; i < 2; ++i) {
      const std::size_t K = shard_counts[i];
      router::RouterConfig rc;
      rc.shards = K;
      rc.tree = default_cfg(P);
      router::Router router(rc, w.initial);

      router::FrontendConfig fc;
      fc.policy = Policy::kFixedSize;
      fc.batch_size = 256;
      fc.max_batch = 4096;
      router::Frontend fe(router, fc);

      const std::uint64_t t0 = now_ns();
      for (const WorkloadOp& op : w.ops) {
        (void)fe.submit(to_request(op), now_ns());
        fe.pump(now_ns());
      }
      fe.flush(now_ns());
      const double secs = double(now_ns() - t0) * 1e-9;

      const router::FrontendStats st = fe.stats();
      const auto& h = st.service_latency;
      const double rps = secs > 0 ? double(st.completed) / secs : 0.0;
      rps_k[i] = rps;
      const std::string name = "router_k" + std::to_string(K);
      t.row({name, "fixed", num(spec.zipf_theta), num(double(st.completed)),
             num(double(st.batches)),
             num(st.batches ? double(st.completed) / double(st.batches) : 0.0),
             num(double(st.epochs)), num(rps / 1000.0),
             num(double(h.percentile(50)) / 1000.0),
             num(double(h.percentile(95)) / 1000.0),
             num(double(h.percentile(99)) / 1000.0),
             num(double(h.percentile(99.9)) / 1000.0)});
      Json row;
      row.set("mix", name)
          .set("shards", static_cast<std::uint64_t>(K))
          .set("policy", "fixed")
          .set("zipf_theta", spec.zipf_theta)
          .set("requests", st.completed)
          .set("batches", st.batches)
          .set("epochs", st.epochs)
          .set("single_shard_reads", st.single_shard_reads)
          .set("fanout_reads", st.fanout_reads)
          .set("knn_second_phase", st.knn_second_phase)
          .set("throughput_rps", rps)
          .set("p50_us", double(h.percentile(50)) / 1000.0)
          .set("p95_us", double(h.percentile(95)) / 1000.0)
          .set("p99_us", double(h.percentile(99)) / 1000.0)
          .set("p999_us", double(h.percentile(99.9)) / 1000.0)
          .set("slo_p99_us", slo_p99_us)
          .set("slo_ok", double(h.percentile(99)) / 1000.0 <= slo_p99_us);
      rep.add_row(row);
      if (st.completed + st.rejected != st.submitted) {
        std::printf("LOST REQUESTS (%s)\n", name.c_str());
        return 1;
      }
    }

    const double router_speedup = rps_k[0] > 0 ? rps_k[1] / rps_k[0] : 0.0;
    const unsigned cores = std::thread::hardware_concurrency();
    const double gate_floor = 1.05;
    const bool vacuous = cores < 4;
    const bool gate_ok = vacuous || router_speedup >= gate_floor;
    if (vacuous)
      std::printf(
          "router gate vacuous: %u hardware core(s); the K=4 shard threads "
          "time-share the host, so no scale-out speedup is claimable here "
          "(measured %.2fx).\n",
          cores, router_speedup);
    Json g;
    g.set("mix", "router_gate")
        .set("router_speedup", router_speedup)
        .set("gate_floor", gate_floor)
        .set("hw_cores", static_cast<std::uint64_t>(cores))
        .set("router_gate_vacuous", vacuous)
        .set("router_gate_ok", gate_ok);
    rep.add_row(g);
    t.row({"router_gate", num(router_speedup) + "x", "", "", "", "", "", "", "",
           "", "", gate_ok ? (vacuous ? "ok (vacuous)" : "ok") : "FAIL"});
  }

  // Skew-resistant migration (DESIGN.md §13): the same read-heavy zipf(0.99)
  // stream served with and without the MigrationPlanner, on a P=16 system so
  // the "max-module comm <= 2x mean" claim is honest (one hot component's
  // traffic is a hard floor on the achievable balance; at P=64 that floor
  // alone exceeds 2x the mean). Three-part gate:
  //   * balance  — per-module comm imbalance (max/mean) of the migrated run
  //     must be <= 2.0 (deterministic ledger totals, checkable on any host);
  //   * overhead — the migrated run's comm_time (sum of per-round max-module
  //     words, the paper's serving-cost metric, migration shipping included)
  //     must stay within 1.5x the no-migration baseline: moving subtrees may
  //     not blow the modeled budget chasing balance (deterministic);
  //   * wall p99 — must beat the no-migration baseline, gated only on hosts
  //     with >= 4 hardware cores (on fewer the simulator time-shares and
  //     wall latency says nothing; vacuous with a printed caveat, same
  //     honesty rule as the router gate above).
  if (!router_only) {
    WorkloadSpec spec = mix_spec(MixKind::kReadHeavy);
    spec.initial_points = n;
    spec.requests = requests;
    spec.seed = 7;
    spec.zipf_theta = 0.99;
    const ServeWorkload w = gen_serve_workload(spec);
    const std::size_t Pm = 16;

    double imb[2] = {0.0, 0.0};
    double p99s[2] = {0.0, 0.0};
    std::uint64_t comm_time[2] = {0, 0};
    std::uint64_t migs = 0;
    for (int on = 0; on < 2; ++on) {
      auto cfg = default_cfg(Pm);
      core::PimKdTree tree(cfg, w.initial);
      SchedulerConfig sc;
      sc.policy = Policy::kFixedSize;
      sc.batch_size = 256;
      sc.max_batch = 4096;
      sc.clock = now_ns;
      sc.controllers.migration = on == 1;
      sc.controllers.migration_cfg.migration_num = 4;
      sc.controllers.migration_cfg.overload_ratio = 1.15;
      sc.controllers.migration_cfg.min_epoch_gap = 3;
      sc.controllers.migration_cfg.min_ops = 512;
      sc.controllers.migration_cfg.min_heat = 16;
      BatchScheduler sched(tree, sc);

      const pim::LoadReport load0 = tree.metrics().load_report();
      const auto snap0 = tree.metrics().snapshot();
      const std::uint64_t t0 = now_ns();
      for (const WorkloadOp& op : w.ops) {
        (void)sched.submit(to_request(op), now_ns());
        sched.pump(now_ns());
      }
      sched.flush(now_ns());
      const double secs = double(now_ns() - t0) * 1e-9;
      const pim::LoadReport delta =
          tree.metrics().load_report().delta_since(load0);
      const auto d = tree.metrics().snapshot() - snap0;

      const ServeStats st = sched.stats();
      const auto& h = st.service_latency;
      const double rps = secs > 0 ? double(st.completed) / secs : 0.0;
      const LoadSummary comm = delta.comm_summary();
      imb[on] = comm.imbalance;
      p99s[on] = double(h.percentile(99)) / 1000.0;
      comm_time[on] = d.comm_time;
      if (on == 1) migs = st.migrations;

      const char* name = on ? "read_heavy_mig_on" : "read_heavy_mig_off";
      t.row({name, "fixed", num(spec.zipf_theta), num(double(st.completed)),
             num(double(st.batches)),
             num(st.batches ? double(st.completed) / double(st.batches) : 0.0),
             num(double(st.epochs)), num(rps / 1000.0),
             num(double(h.percentile(50)) / 1000.0),
             num(double(h.percentile(95)) / 1000.0), num(p99s[on]),
             num(double(h.percentile(99.9)) / 1000.0)});
      Json row;
      row.set("mix", name)
          .set("migration", on == 1)
          .set("P", static_cast<std::uint64_t>(Pm))
          .set("zipf_theta", spec.zipf_theta)
          .set("requests", st.completed)
          .set("batches", st.batches)
          .set("epochs", st.epochs)
          .set("migrations", st.migrations)
          .set("migration_words",
               on ? tree.op_stats().words_migration : std::uint64_t(0))
          .set("comm_imbalance", comm.imbalance)
          .set("comm_max", comm.max)
          .set("comm_mean", comm.mean)
          .set("comm_time", d.comm_time)
          .set("throughput_rps", rps)
          .set("p50_us", double(h.percentile(50)) / 1000.0)
          .set("p95_us", double(h.percentile(95)) / 1000.0)
          .set("p99_us", p99s[on])
          .set("p999_us", double(h.percentile(99.9)) / 1000.0);
      rep.add_row(row);
      if (st.completed + st.rejected != st.submitted) {
        std::printf("LOST REQUESTS (%s)\n", name);
        return 1;
      }
    }

    const unsigned cores = std::thread::hardware_concurrency();
    const bool vacuous = cores < 4;
    const double imbalance_ceiling = 2.0;
    const double overhead_ceiling = 1.5;
    const bool balance_ok = imb[1] <= imbalance_ceiling;
    const bool overhead_ok =
        double(comm_time[1]) <= double(comm_time[0]) * overhead_ceiling;
    const bool p99_ok = vacuous || (p99s[0] > 0 && p99s[1] <= p99s[0]);
    const bool gate_ok = balance_ok && overhead_ok && p99_ok;
    if (vacuous)
      std::printf(
          "migration gate p99 leg vacuous: %u hardware core(s); wall-clock "
          "latency time-shares the host, only the modeled ledger gates here "
          "(p99 %.0fus -> %.0fus recorded, not judged).\n",
          cores, p99s[0], p99s[1]);
    if (migs == 0) std::printf("migration gate: planner never moved!\n");
    Json g;
    g.set("mix", "migration_gate")
        .set("comm_imbalance_off", imb[0])
        .set("comm_imbalance_on", imb[1])
        .set("imbalance_ceiling", imbalance_ceiling)
        .set("comm_time_off", comm_time[0])
        .set("comm_time_on", comm_time[1])
        .set("overhead_ceiling", overhead_ceiling)
        .set("p99_off_us", p99s[0])
        .set("p99_on_us", p99s[1])
        .set("migrations", migs)
        .set("hw_cores", static_cast<std::uint64_t>(cores))
        .set("migration_gate_vacuous", vacuous)
        .set("migration_gate_ok", gate_ok && migs > 0);
    rep.add_row(g);
    t.row({"migration_gate",
           num(imb[0]) + "->" + num(imb[1]) + "x", "", "", "", "", "", "", "",
           "", "",
           gate_ok && migs > 0 ? (vacuous ? "ok (p99 vacuous)" : "ok")
                               : "FAIL"});
  }

  t.print();
  return 0;
}
