// Serve tier over a Router: K per-shard BatchSchedulers behind one
// submit/pump front-end (DESIGN.md §12.3).
//
// The Frontend mirrors serve::BatchScheduler's shape — submit(Request, tick)
// -> future, pump/flush(tick), stop(), stats() — so serving harnesses and
// benches run unmodified against either backend. Internally it owns one
// serve::BatchScheduler per shard tree, each in dispatch-engine mode
// (Policy::kDeadline, deadline 0: "execute whatever is pending on every
// pump"), so each shard keeps its own batch log, latency histograms, WAL
// wiring (FrontendConfig::durability) and ledger/trace, while ADMISSION —
// when a router epoch forms — is decided once, here, by the frontend's own
// fixed-size/deadline policy over the merged stream.
//
// Epoch execution (one router epoch per formed batch):
//   1. the epoch's reads are routed (point-routed kNN phase 1, pruned
//      fan-out for range/radius), submitted to their shard schedulers and
//      pumped; kNN requests whose candidate ball escapes the home cell get
//      a second shard round (two-phase kNN); merged results resolve the
//      client futures — all BEFORE any update of the epoch is applied, so
//      reads observe exactly the epoch's snapshot on every shard;
//   2. the epoch's updates are point-routed, submitted and pumped; insert
//      responses bind global ids in submission order (Router::bind_inserted)
//      and the router epoch advances iff the batch changed anything.
//
// In virtual-tick mode every observable — results, per-shard ledgers and
// traces, per-shard batch logs — is a pure function of the submission order
// and ticks, invariant under PIMKD_THREADS and under shard pump concurrency
// (FrontendConfig::parallel_pump runs one thread per active shard; each
// scheduler only touches its own tree).
//
// Resharding mid-serve: split_shard() runs between pumps (same consumer
// mutex), after every admitted request of earlier epochs has resolved —
// requests still queued are routed with the NEW partition at their admission
// epoch, so nothing is lost and nothing is answered from a stale epoch. The
// new shard gets its own scheduler; its durability slot (if configured) must
// have been provisioned in FrontendConfig::durability up front.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "core/controller.hpp"
#include "durability/manager.hpp"
#include "parallel/mpsc_queue.hpp"
#include "pim/metrics.hpp"
#include "router/router.hpp"
#include "serve/scheduler.hpp"

namespace pimkd::router {

class AutoReshardPolicy;

// Automatic shard splitting behind the shared epoch-boundary controller
// interface (core/controller.hpp, DESIGN.md §13): after each router epoch the
// policy samples per-shard communication from the shard trees' ledgers and —
// warm-up and spacing gates permitting — splits the hottest shard when its
// comm delta exceeds overload_ratio x the cross-shard mean (for a single
// shard, when its within-shard per-module imbalance exceeds the ratio).
// Decisions are pure functions of thread-invariant ledger totals, so
// auto-resharded runs stay byte-deterministic across PIMKD_THREADS.
struct AutoReshardConfig {
  bool enabled = false;
  // Never grow past this many shards.
  std::size_t max_shards = 8;
  // Router epochs between two splits (amortizes the rebuild cost).
  std::uint64_t min_epoch_gap = 4;
  // Do not decide before this many operations have been observed.
  std::uint64_t min_ops = 512;
  // Overload threshold (see class comment). Must be >= 1.
  double overload_ratio = 1.5;

  // Throwing entry point ⇔ the frontend constructor's validation
  // (DESIGN.md §13 convention): names the offending field.
  void validate() const;
};

struct FrontendConfig {
  // Router-level admission policy: kFixedSize or kDeadline (the §5 tradeoff
  // policies need a single tree's config and stay per-shard concerns).
  serve::Policy policy = serve::Policy::kFixedSize;
  std::size_t batch_size = 256;
  std::uint64_t deadline_ticks = 0;  // oldest-waiter deadline (0 = off for
                                     // kFixedSize, every-pump for kDeadline)
  std::size_t max_batch = 8192;
  bool record_batches = true;  // per-shard BatchLog history
  // Pump the active shard schedulers on one thread each (wall-clock only;
  // every observable is identical serial or parallel).
  bool parallel_pump = true;
  // Optional per-shard durability managers, indexed by shard id. Shorter
  // vectors / null entries leave that shard's WAL off. Non-owning; each
  // manager must outlive the frontend and must not be shared across shards.
  std::vector<durability::Manager*> durability;
  // Automatic load-driven shard splitting (see AutoReshardConfig).
  AutoReshardConfig auto_reshard{};
  // Completion-time clock, as SchedulerConfig::clock. When set, completion
  // ticks and service latency re-read it after the epoch executes; a reading
  // behind the dispatch tick is clamped to it and counted
  // (stats().clock_regressions). Unset, completion equals the pump tick
  // (virtual-time mode, fully deterministic).
  std::function<std::uint64_t()> clock;
};

// Router-level serving summary. `shards` is the ServeStats::merge() fold of
// the per-shard schedulers — see that method for the per-field merge rules
// (event counters sum; histograms merge; `epochs` sums per-shard boundary
// crossings and is NOT the router epoch, which is reported here).
struct FrontendStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;       // router epochs formed
  std::uint64_t epochs = 0;        // router update boundaries crossed
  std::uint64_t reads = 0, updates = 0;
  std::uint64_t single_shard_reads = 0;  // reads answered by one shard
  std::uint64_t fanout_reads = 0;        // reads scattered to >= 2 shards
  std::uint64_t knn_second_phase = 0;    // kNNs that needed a second round
  std::uint64_t ticks_rejected = 0;      // non-monotonic pump/flush ticks
  std::uint64_t clock_regressions = 0;   // completion clock read behind dispatch
  std::uint64_t resharded = 0;           // shard splits performed
  util::LatencyHistogram queue_latency;    // submit -> dispatch, ticks
  util::LatencyHistogram service_latency;  // submit -> completion, ticks
  serve::ServeStats shards;  // merged per-shard scheduler stats
};

class Frontend {
 public:
  Frontend(Router& router, FrontendConfig cfg);
  ~Frontend();  // stop(): drains and resolves everything pending

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  // Producer side (any thread): stamps the tick, validates the payload (a
  // malformed request fails alone, immediately) and enqueues.
  std::future<serve::Response> submit(serve::Request r, std::uint64_t now_tick);

  // Consumer side (one thread at a time). Ticks must be non-decreasing:
  // backwards ticks throw PimError(kFailedPrecondition), counted in
  // stats().ticks_rejected. Returns requests completed.
  std::size_t pump(std::uint64_t now_tick);
  // pump(), then dispatch everything still pending regardless of policy.
  std::size_t flush(std::uint64_t now_tick);

  // Closes the queue, flushes at the last seen tick, and stops the shard
  // schedulers. Requests submitted afterwards are rejected.
  void stop();

  std::uint64_t epoch() const;  // the router's mutation epoch
  FrontendStats stats() const;
  serve::ServeStats shard_stats(std::size_t s) const;
  std::vector<serve::BatchLog> shard_batch_log(std::size_t s) const;
  std::size_t shards() const;

  // Mid-serve shard split (see class comment). Runs under the consumer
  // mutex; every earlier epoch has fully resolved before the split applies.
  Router::ReshardReport split_shard(std::size_t s);

  // Introspection for the auto-reshard controller (nullptr when
  // cfg.auto_reshard.enabled is false). Read between pumps.
  const AutoReshardPolicy* reshard_policy() const { return reshard_.get(); }

 private:
  friend class AutoReshardPolicy;  // split_shard_locked + shard access

  std::unique_ptr<serve::BatchScheduler> make_sched(std::size_t s);
  // split_shard's body, callable where mu_ is already held (the auto-reshard
  // controller runs inside pump_locked, between fully-resolved epochs).
  Router::ReshardReport split_shard_locked(std::size_t s);
  std::size_t pump_locked(std::uint64_t now, bool flush_all);
  std::size_t due_batch(std::uint64_t now, bool flush_all) const;
  std::size_t execute_epoch(std::vector<serve::Request> batch,
                            std::uint64_t now);
  void pump_shards(const std::vector<std::size_t>& active, std::uint64_t now);
  void reject(serve::Request&& r, std::uint64_t now_tick, const char* why);

  Router& router_;
  FrontendConfig cfg_;
  std::vector<std::unique_ptr<serve::BatchScheduler>> scheds_;

  MpscQueue<serve::Request> queue_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<bool> closed_{false};

  mutable std::mutex mu_;  // consumer mutex (pump/flush/stop/split_shard)
  std::deque<serve::Request> pending_;
  std::deque<std::uint64_t> oldest_;  // monotone min-deque of submit ticks
  std::uint64_t last_pump_tick_ = 0;
  FrontendStats stats_;
  std::unique_ptr<AutoReshardPolicy> reshard_;
};

// See the comment at the forward declaration above. Consulted by
// Frontend::pump_locked after each executed router epoch, with the consumer
// mutex held and no request in flight — the same boundary where manual
// split_shard() is legal.
class AutoReshardPolicy : public core::EpochController {
 public:
  AutoReshardPolicy(Frontend& fe, AutoReshardConfig cfg);

  const char* name() const override { return "reshard"; }
  Outcome on_epoch_boundary(std::uint64_t reads, std::uint64_t writes) override;

  std::uint64_t epochs() const { return epochs_; }
  std::uint64_t splits() const { return splits_; }
  const AutoReshardConfig& config() const { return cfg_; }

 private:
  void snapshot_baseline();

  Frontend& fe_;
  AutoReshardConfig cfg_;
  std::uint64_t ops_seen_ = 0;
  std::uint64_t epochs_ = 0;
  std::uint64_t last_split_epoch_ = 0;
  std::uint64_t splits_ = 0;
  std::vector<pim::LoadReport> shard_baseline_;  // per shard, last plan
};

}  // namespace pimkd::router
