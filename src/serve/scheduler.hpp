// Batch scheduler: the online front-end of the PIM-kd-tree.
//
// The paper's interface is batch-dynamic — its Table-1 bounds are stated per
// batch — but a production index serves a stream of single operations, so
// someone must decide when and how to form the batches. This scheduler:
//
//   * accepts single Insert/Erase/Knn/Range/Radius ops from any number of
//     client threads through a lock-free MPSC queue, one future per request
//     (serve::Admission, shared with router::Frontend);
//   * drains the queue and forms batches under a pluggable policy —
//     fixed-size or oldest-waiter deadline;
//   * executes each admitted batch against the tree with *epoch-versioned
//     read semantics*: all reads admitted in epoch e run first, against the
//     tree exactly as of epoch e (the live host mirror doubles as the
//     snapshot, byte-exact and ledger-charged — no state is copied), then
//     the epoch's updates are applied as one insert batch + one erase batch,
//     advancing the epoch. Reads admitted together with an erase of id X
//     therefore still see X — snapshot isolation at epoch granularity.
//
// Determinism: batch formation is a pure function of the submission order
// and ticks (the scheduler never reads a clock; callers pass `now` ticks),
// and the dispatch calls are exactly the tree's public batch entry points —
// so a fixed workload produces the same batch sequence, the same results,
// and a byte-identical cost ledger as an equivalent hand-batched run, at
// any PIMKD_THREADS (tests/test_serve.cpp pins both down).
//
// Threading contract: submit() from any thread; pump()/flush() from one
// consumer at a time (a mutex also lets the optional background thread and
// manual pumps coexist). Every tree read, write and checkpoint runs on the
// pumping thread, so the scheduler must be the tree's only user while it
// serves (PimKdTree is externally synchronised). Consumer ticks must be
// non-decreasing: a backwards tick is rejected with kFailedPrecondition
// (try_pump) instead of silently saturating every age computation. submit()
// must not race with stop()/destruction.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pim_kdtree.hpp"
#include "durability/manager.hpp"
#include "pim/status.hpp"
#include "serve/admission.hpp"
#include "serve/request.hpp"
#include "util/latency_histogram.hpp"

namespace pimkd::serve {

struct SchedulerConfig {
  Policy policy = Policy::kFixedSize;
  // kFixedSize: the exact batch size.
  std::size_t batch_size = 256;
  // Oldest-waiter deadline in ticks. Primary trigger for kDeadline; fallback
  // trigger for kFixedSize when > 0 (0 = no deadline there).
  // "Oldest" means the minimum submit tick over everything pending, not the
  // queue-order front: multi-producer stamping can interleave out of tick
  // order, and a batch must dispatch on the tick the oldest waiter *reaches*
  // the deadline.
  std::uint64_t deadline_ticks = 0;
  // Hard cap on a single dispatch (all policies).
  std::size_t max_batch = 8192;
  // Completion-time clock. When set, completion ticks and service latency
  // re-read it after execution (wall-clock mode); when null, completion ticks
  // equal the pump tick (virtual-time mode, fully deterministic). A clock
  // reading behind the dispatch tick is clamped (counted in
  // stats().clock_regressions), never subtracted into garbage.
  std::function<std::uint64_t()> clock;
  // Crash consistency (src/durability/, DESIGN.md §10). When set, every
  // applied write batch is appended to the write-ahead log — and synced per
  // the manager's policy — *before* the batch's futures resolve, so an acked
  // write is a durable write, and the manager's checkpoint cadence runs at
  // epoch boundaries. Fail-stop: if an append or sync fails, the batch's
  // update futures carry the error and every later write is rejected before
  // touching the tree (stats().wal_failures counts both). Non-owning; the
  // manager must outlive the scheduler and is not shared with another
  // scheduler.
  durability::Manager* durability = nullptr;
};

// One formed batch: its epoch, dispatch tick, trigger, and op mix.
struct BatchLog {
  std::uint64_t epoch = 0;
  std::uint64_t tick = 0;
  char reason = '?';  // 's'ize target, 'd'eadline, 'f'lush
  std::uint32_t inserts = 0, erases = 0, knns = 0, ranges = 0, radii = 0,
                radius_counts = 0;
  std::uint32_t size() const {
    return inserts + erases + knns + ranges + radii + radius_counts;
  }
  std::string to_string() const;
};

struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;  // invalid at submit, or submitted after stop
  std::uint64_t batches = 0;
  std::uint64_t epochs = 0;  // update boundaries crossed
  std::uint64_t reads = 0, updates = 0;
  std::uint64_t dispatch_size = 0, dispatch_deadline = 0, dispatch_flush = 0;
  std::uint64_t ticks_rejected = 0;     // non-monotonic pump/flush ticks refused
  std::uint64_t clock_regressions = 0;  // completion clock read behind dispatch
  std::uint64_t wal_frames = 0;         // applied batches appended to the WAL
  std::uint64_t wal_failures = 0;       // WAL errors + writes rejected after
  std::uint64_t checkpoints = 0;        // cadence checkpoints taken
  util::LatencyHistogram queue_latency;    // submit -> dispatch, ticks
  util::LatencyHistogram service_latency;  // submit -> completion, ticks
};

class BatchScheduler {
 public:
  BatchScheduler(core::PimKdTree& tree, SchedulerConfig cfg);
  ~BatchScheduler();  // stop(): drains and resolves everything pending

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  // --- Producer side (any thread) --------------------------------------------
  // Stamps `now_tick`, validates the payload (a malformed request fails alone,
  // immediately, without poisoning its batch) and enqueues. The returned
  // future is resolved exactly once.
  std::future<Response> submit(Request r, std::uint64_t now_tick);

  // --- Consumer side (one thread at a time) -----------------------------------
  // Drains the queue and dispatches every batch the policy says is due at
  // `now_tick`. Returns the number of requests completed. `now_tick` must be
  // >= every tick previously passed to pump()/flush(): try_pump rejects a
  // backwards tick with kFailedPrecondition (counted in
  // stats().ticks_rejected); the legacy pump() throws PimError for the same
  // condition.
  std::size_t pump(std::uint64_t now_tick);
  Status try_pump(std::uint64_t now_tick, std::size_t* completed = nullptr);
  // pump(), then dispatch all remaining pending requests regardless of policy.
  // On return every admitted request is resolved.
  std::size_t flush(std::uint64_t now_tick);

  // Background mode: a thread that pumps on cfg.clock (defaults to a
  // steady_clock nanosecond tick when unset). stop() joins it, closes the
  // queue and flushes; requests submitted afterwards are rejected.
  void start();
  void stop();

  // --- Introspection -----------------------------------------------------------
  std::uint64_t epoch() const;
  ServeStats stats() const;
  std::vector<BatchLog> batch_log() const;

 private:
  // One dispatched epoch: the batch, its responses, the index split, and the
  // log entry.
  struct EpochTask {
    std::vector<Request> batch;
    std::vector<Response> resp;
    std::vector<std::uint32_t> reads, updates;  // indices into batch
    BatchLog log;
    // WAL payload gathered by run_updates (applied sub-batches only).
    bool wal_log = false;
    std::uint64_t wal_epoch = 0;  // tree mutation_epoch after applying
    std::uint64_t wal_base = 0;   // next_point_id before the inserts
    std::vector<Point> wal_inserts;
    std::vector<PointId> wal_erases;
  };

  Status pump_guarded(std::uint64_t now, bool flush_all, std::size_t* out);
  std::size_t pump_locked(std::uint64_t now, bool flush_all);
  // Forms, executes and resolves one batch of `take` requests; returns its
  // size.
  std::size_t dispatch(std::size_t take, std::uint64_t now, char reason);
  void form_task(EpochTask& t, std::size_t take, std::uint64_t now,
                 char reason);
  void run_reads(EpochTask& t);
  void apply_task(EpochTask& t);  // updates + WAL/checkpoint
  void log_durable(EpochTask& t);
  void run_updates(EpochTask& t);
  void resolve(EpochTask& t, std::uint64_t done);
  std::uint64_t completion_tick(std::uint64_t form_tick);
  static void fail_requests(EpochTask& t,
                            const std::vector<std::uint32_t>& idx,
                            const char* why);
  void background_loop();

  core::PimKdTree& tree_;
  SchedulerConfig cfg_;

  std::atomic<std::uint64_t> clock_regressions_{0};
  // Sticky fail-stop: set on the first WAL append/sync error; later writes
  // are rejected before touching the tree (an unlogged mutation could never
  // be recovered, so applying it would silently widen the durability gap).
  std::atomic<bool> wal_failed_{false};

  // Admission's consumer side and all tree execution, guarded by mu_.
  mutable std::mutex mu_;
  Admission adm_;

  // Execution state the accessors read, guarded by state_mu_ (leaf lock;
  // acquired after mu_) so stats() never waits for a dispatch.
  mutable std::mutex state_mu_;
  std::uint64_t epoch_ = 0;
  ServeStats stats_;
  std::vector<BatchLog> log_;

  std::thread worker_;
  std::atomic<bool> stop_worker_{false};
};

}  // namespace pimkd::serve
