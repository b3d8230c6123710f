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
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
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

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  return h * 1000003ull + v;
}

// Hashes every response payload in submission order (ticks excluded: they
// are wall-clock here).
std::uint64_t hash_responses(std::vector<std::future<Response>>& futs) {
  std::uint64_t h = 0;
  for (auto& f : futs) {
    const Response r = f.get();
    h = mix64(h, static_cast<std::uint64_t>(r.kind));
    h = mix64(h, r.epoch);
    h = mix64(h, r.ok() ? 1 : 0);
    h = mix64(h, r.inserted_id == kInvalidPoint ? 0 : r.inserted_id + 1);
    h = mix64(h, r.erased ? 1 : 0);
    for (const Neighbor& nb : r.neighbors) {
      std::uint64_t bits = 0;
      static_assert(sizeof bits == sizeof nb.sq_dist);
      std::memcpy(&bits, &nb.sq_dist, sizeof bits);
      h = mix64(mix64(h, nb.id), bits);
    }
    for (const PointId id : r.ids) h = mix64(h, id);
    h = mix64(h, r.count);
  }
  return h;
}

}  // namespace

int main() {
  banner("E14 bench_serve",
         "online serving: batching over the batch-dynamic tree",
         "every admitted request resolves; throughput tracks batch size");

  const auto env_on = [](const char* name) {
    const char* e = std::getenv(name);
    return e && *e && *e != '0';
  };
  // Router-only smoke implies smoke sizing.
  const bool router_only = env_on("PIMKD_ROUTER_SMOKE");
  const bool smoke = env_on("PIMKD_SERVE_SMOKE") || router_only;
  const std::size_t n = smoke ? 4096 : 32768;
  const std::size_t requests = smoke ? 4000 : 30000;
  const std::size_t P = 64;

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
      {MixKind::kReadHeavy, 0.0, Policy::kFixedSize},
      {MixKind::kReadHeavy, 0.99, Policy::kFixedSize},
      {MixKind::kUpdateHeavy, 0.0, Policy::kFixedSize},
      {MixKind::kScanHeavy, 0.0, Policy::kDeadline},
  };

  for (const Leg& leg : legs) {
    if (router_only) break;
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
        .set("throughput_rps", rps)
        .set("p50_us", p50)
        .set("p95_us", p95)
        .set("p99_us", p99)
        .set("p999_us", p999)
        .set("max_us", double(h.max()) / 1000.0)
        .set("comm_per_op",
             st.completed ? double(d.communication) / double(st.completed) : 0.0);
    rep.add_row(row);
  }

  // Durability cost (DESIGN.md §10): the same update-heavy stream served
  // with no WAL, with the WAL at kNone (append, no explicit sync), and at
  // kEveryBatch (fdatasync before every ack — the acked => durable
  // guarantee). The WAL-off row is the regression gate leg; the ratio rows
  // quantify what crash consistency costs on this host (EXPERIMENTS.md).
  if (!router_only) {
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
  if (!router_only) {
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
  // served through a router::Frontend at K=1 and K=4 shards, with identical
  // fixed-size admission (no deadline), so batch composition does not depend
  // on the clock. The gate checks what sharding buys in the PIM model, not
  // in-process wall clock — all K shards share this host's cores, so their
  // throughput ratio measures the simulator, not the design:
  //   * load — K=4's largest per-shard comm_time over the leg (sum of
  //     per-round max-module words) is at most half of K=1's;
  //   * reach — at most 5% of K=4's reads need a second kNN phase;
  //   * exactness — every response, hashed in submission order, equals K=1's.
  // Wall-clock throughput (router_speedup) is recorded, not gated.
  {
    WorkloadSpec spec = mix_spec(MixKind::kReadHeavy);
    spec.initial_points = n;
    spec.requests = requests;
    spec.seed = 7;
    spec.zipf_theta = 0.99;
    const ServeWorkload w = gen_serve_workload(spec);

    const std::size_t shard_counts[] = {1, 4};
    double rps_k[2] = {0.0, 0.0};
    std::uint64_t max_comm_time[2] = {0, 0};
    std::uint64_t resp_hash[2] = {0, 0};
    std::uint64_t second_phase = 0, reads = 0;
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

      std::vector<pim::Snapshot> before;
      for (std::size_t s = 0; s < router.shards(); ++s)
        before.push_back(router.shard_tree(s).metrics().snapshot());
      std::vector<std::future<Response>> futs;
      futs.reserve(w.ops.size());
      const std::uint64_t t0 = now_ns();
      for (const WorkloadOp& op : w.ops) {
        futs.push_back(fe.submit(to_request(op), now_ns()));
        fe.pump(now_ns());
      }
      fe.flush(now_ns());
      const double secs = double(now_ns() - t0) * 1e-9;
      for (std::size_t s = 0; s < router.shards(); ++s) {
        const auto d = router.shard_tree(s).metrics().snapshot() - before[s];
        max_comm_time[i] = std::max(max_comm_time[i], d.comm_time);
      }
      resp_hash[i] = hash_responses(futs);

      const router::FrontendStats st = fe.stats();
      const auto& h = st.service_latency;
      const double rps = secs > 0 ? double(st.completed) / secs : 0.0;
      rps_k[i] = rps;
      if (K == 4) {
        second_phase = st.knn_second_phase;
        reads = st.reads;
      }
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
          .set("reads", st.reads)
          .set("single_shard_reads", st.single_shard_reads)
          .set("fanout_reads", st.fanout_reads)
          .set("knn_second_phase", st.knn_second_phase)
          .set("max_shard_comm_time", max_comm_time[i])
          .set("response_hash", resp_hash[i])
          .set("throughput_rps", rps)
          .set("p50_us", double(h.percentile(50)) / 1000.0)
          .set("p95_us", double(h.percentile(95)) / 1000.0)
          .set("p99_us", double(h.percentile(99)) / 1000.0)
          .set("p999_us", double(h.percentile(99.9)) / 1000.0);
      rep.add_row(row);
      if (st.completed + st.rejected != st.submitted) {
        std::printf("LOST REQUESTS (%s)\n", name.c_str());
        return 1;
      }
    }

    const double comm_time_ratio =
        max_comm_time[0] > 0
            ? double(max_comm_time[1]) / double(max_comm_time[0])
            : 0.0;
    const double second_phase_frac =
        reads > 0 ? double(second_phase) / double(reads) : 0.0;
    const double comm_time_ceiling = 0.5;
    const double second_phase_ceiling = 0.05;
    const bool load_ok =
        max_comm_time[0] > 0 && comm_time_ratio <= comm_time_ceiling;
    const bool reach_ok = second_phase_frac <= second_phase_ceiling;
    const bool exact_ok = resp_hash[1] == resp_hash[0];
    const bool gate_ok = load_ok && reach_ok && exact_ok;
    const double router_speedup = rps_k[0] > 0 ? rps_k[1] / rps_k[0] : 0.0;
    Json g;
    g.set("mix", "router_gate")
        .set("max_shard_comm_time_k1", max_comm_time[0])
        .set("max_shard_comm_time_k4", max_comm_time[1])
        .set("comm_time_ratio", comm_time_ratio)
        .set("comm_time_ceiling", comm_time_ceiling)
        .set("comm_time_ok", load_ok)
        .set("knn_second_phase_frac", second_phase_frac)
        .set("second_phase_ceiling", second_phase_ceiling)
        .set("second_phase_ok", reach_ok)
        .set("responses_equal", exact_ok)
        .set("router_speedup", router_speedup)
        .set("router_gate_ok", gate_ok);
    rep.add_row(g);
    t.row({"router_gate", num(comm_time_ratio) + "x comm_time",
           num(second_phase_frac * 100.0) + "% 2nd phase",
           exact_ok ? "equal" : "DIFFER", "", "", "",
           num(router_speedup) + "x wall", "", "", "",
           gate_ok ? "ok" : "FAIL"});
  }

  t.print();
  return 0;
}
