// Serve tier over a Router: the shared serve::Admission in front of direct
// Router calls (DESIGN.md §12.3).
//
// The Frontend mirrors serve::BatchScheduler's shape — submit(Request, tick)
// -> future, pump/flush(tick), stop(), stats() — so serving harnesses and
// benches run unmodified against either backend. Intake, validation, tick
// monotonicity and the fixed-size/deadline batch decision are the
// scheduler's own serve::Admission; each due batch becomes one router epoch
// of three Router calls:
//   1. router.query(reads) — pruned scatter/gather and two-phase kNN, every
//      read answered BEFORE any update of the epoch is applied, so reads
//      observe exactly the epoch's snapshot on every shard;
//   2. router.insert(points) — global ids in submission order;
//   3. router.erase(ids) — the first claim of a live id in the batch wins,
//      as in the bare scheduler, so an erase of an id inserted earlier in
//      the same epoch still lands.
//
// Epochs: the frontend keeps its own counter, stamped exactly like the bare
// scheduler's — reads carry the pre-update epoch, updates the post-update
// one, and the counter advances once per batch that changed something (and
// once per split_shard). Router::insert/erase each bump the router's own
// mutation epoch, which is why the frontend does not stamp with it.
//
// In virtual-tick mode every observable — results, per-shard ledgers and
// traces — is a pure function of the submission order and ticks, invariant
// under PIMKD_THREADS.
//
// Resharding mid-serve: split_shard() runs between pumps (same consumer
// mutex), after every admitted request of earlier epochs has resolved —
// requests still queued are routed with the NEW partition at their admission
// epoch, so nothing is lost and nothing is answered from a stale epoch.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <vector>

#include "router/router.hpp"
#include "serve/admission.hpp"
#include "util/latency_histogram.hpp"

namespace pimkd::router {

struct FrontendConfig {
  // Router-level admission policy (serve::Policy).
  serve::Policy policy = serve::Policy::kFixedSize;
  std::size_t batch_size = 256;
  std::uint64_t deadline_ticks = 0;  // oldest-waiter deadline (0 = off for
                                     // kFixedSize, every-pump for kDeadline)
  std::size_t max_batch = 8192;
  // Completion-time clock, as SchedulerConfig::clock. When set, completion
  // ticks and service latency re-read it after the epoch executes; a reading
  // behind the dispatch tick is clamped to it and counted
  // (stats().clock_regressions). Unset, completion equals the pump tick
  // (virtual-time mode, fully deterministic).
  std::function<std::uint64_t()> clock;
};

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

  // Closes the queue and flushes at the last seen tick. Requests submitted
  // afterwards are rejected.
  void stop();

  std::uint64_t epoch() const;  // the frontend's serve epoch (see above)
  FrontendStats stats() const;
  std::size_t shards() const;

  // Mid-serve shard split (see class comment). Runs under the consumer
  // mutex; every earlier epoch has fully resolved before the split applies.
  Router::ReshardReport split_shard(std::size_t s);

 private:
  std::size_t pump_locked(std::uint64_t now, bool flush_all);
  std::size_t execute_epoch(std::vector<serve::Request> batch,
                            std::uint64_t now);

  Router& router_;
  FrontendConfig cfg_;

  mutable std::mutex mu_;  // consumer mutex (pump/flush/stop/split_shard)
  serve::Admission adm_;   // consumer side guarded by mu_
  std::uint64_t epoch_ = 0;
  FrontendStats stats_;
};

}  // namespace pimkd::router
