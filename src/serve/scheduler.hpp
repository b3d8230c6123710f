// Adaptive batch scheduler: the online front-end of the PIM-kd-tree.
//
// The paper's interface is batch-dynamic — its Table-1 bounds are stated per
// batch — but a production index serves a stream of single operations, so
// someone must decide when and how to form the batches. This scheduler:
//
//   * accepts single Insert/Erase/Knn/Range/Radius ops from any number of
//     client threads through a lock-free MPSC queue, one future per request
//     (serve::Admission, shared with router::Frontend);
//   * drains the queue and forms batches under a pluggable policy —
//     fixed-size, oldest-waiter deadline, or the §5-aware "tradeoff" policy
//     that targets the batch size at which the Theorem-5.1 communication/
//     space trade-off predicts per-query communication stops improving;
//   * executes each admitted batch against the tree with *epoch-versioned
//     read semantics*: all reads admitted in epoch e run first, against the
//     tree exactly as of epoch e (the live host mirror doubles as the
//     snapshot, byte-exact and ledger-charged — no state is copied), then
//     the epoch's updates are applied as one insert batch + one erase batch,
//     advancing the epoch. Reads admitted together with an erase of id X
//     therefore still see X — snapshot isolation at epoch granularity.
//
// Pipelined epoch execution (cfg.pipeline, DESIGN.md §8.5): the serial
// engine runs FORM -> READ -> WRITE of each epoch to completion on the
// consumer thread before forming the next. The pipelined engine splits the
// epoch into three stages on dedicated serial stage threads:
//
//   FORM    (consumer thread)  drain queue, cut batches, stamp responses;
//   EXEC    (one stage thread) epoch-e reads under a ReadPin, then epoch-e
//                              writes — while FORM is already cutting e+1;
//   RESOLVE (one stage thread) deliver read futures of epoch e while EXEC is
//                              still applying e's writes, then finalize.
//
// FORM never reads the (possibly mid-mutation) tree: it mirrors live-set
// size and id assignment in a projection, so policy decisions match the
// serial engine exactly. EXEC guards its read phase with
// PimKdTree::pin_reads(): any mutation that slips past the write gate
// invalidates the pin and the straddled reads are failed per-request instead
// of returning torn data. Because each stage is a single thread consuming a
// FIFO, every ledger charge, trace record, and batch-log append happens in
// the same order as the serial engine — in virtual-tick mode the two engines
// are byte-identical (tests/test_serve.cpp pins this via subprocesses); only
// wall-clock overlap differs. In pipelined mode the scheduler must be the
// tree's only mutator.
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
// manual pumps coexist). Consumer ticks must be non-decreasing: a backwards
// tick is rejected with kFailedPrecondition (try_pump/try_flush) instead of
// silently saturating every age computation. submit() must not race with
// stop()/destruction.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/migration.hpp"
#include "core/pim_kdtree.hpp"
#include "core/replication.hpp"
#include "durability/manager.hpp"
#include "parallel/stage_queue.hpp"
#include "pim/status.hpp"
#include "serve/admission.hpp"
#include "serve/request.hpp"
#include "util/latency_histogram.hpp"

namespace pimkd::serve {

// The epoch-boundary controllers (core/controller.hpp) this scheduler runs
// after each epoch's updates are applied, in declaration order: replication
// first (it may change what the tree replicates), then migration (it re-places
// what exists). Each controller follows the same observe -> decide -> apply
// contract — decisions are pure functions of the op stream and the
// thread-invariant ledger, the apply step runs inside its own trace span and
// bumps the tree's mutation_epoch — so enabling any subset keeps serve runs
// byte-deterministic across PIMKD_THREADS (DESIGN.md §13).
struct ControllersConfig {
  // Adaptive replication: may switch the tree's CachingMode at epoch
  // boundaries (core/replication.hpp).
  bool replication = false;
  core::ReplicationConfig replication_cfg{};
  // Skew-resistant subtree migration: may move hot components off overloaded
  // modules at epoch boundaries (core/migration.hpp).
  bool migration = false;
  core::MigrationConfig migration_cfg{};
};

struct SchedulerConfig {
  Policy policy = Policy::kFixedSize;
  // kFixedSize: the exact batch size. kTradeoff: lower clamp on the target.
  std::size_t batch_size = 256;
  // Oldest-waiter deadline in ticks. Primary trigger for kDeadline; fallback
  // trigger for the size-based policies when > 0 (0 = no deadline there).
  // "Oldest" means the minimum submit tick over everything pending, not the
  // queue-order front: multi-producer stamping can interleave out of tick
  // order, and a batch must dispatch on the tick the oldest waiter *reaches*
  // the deadline.
  std::uint64_t deadline_ticks = 0;
  // Hard cap on a single dispatch (all policies).
  std::size_t max_batch = 8192;
  // Completion-time clock. When set, completion ticks and service latency
  // re-read it after execution (wall-clock mode; reads from a pipelined
  // epoch complete earlier than its writes); when null, completion ticks
  // equal the pump tick (virtual-time mode, fully deterministic). A clock
  // reading behind the dispatch tick is clamped (counted in
  // stats().clock_regressions), never subtracted into garbage.
  std::function<std::uint64_t()> clock;
  // Pipelined epoch execution (header comment / DESIGN.md §8.5). Changes
  // pump()/flush() return-value semantics to "requests admitted"; everything
  // observable (logs, ledger, traces, results) stays byte-identical in
  // virtual-tick mode.
  bool pipeline = false;
  // Max epochs formed but not yet finalized before FORM blocks (bounds the
  // futures + batches held in flight; stalls counted in pipeline_stalls).
  std::size_t pipeline_depth = 4;
  // Epoch-boundary controllers (any Policy).
  ControllersConfig controllers{};
  // Crash consistency (src/durability/, DESIGN.md §10). When set, every
  // applied write batch is appended to the write-ahead log — and synced per
  // the manager's policy — on the EXEC stage *before* the batch's futures
  // resolve on RESOLVE, so an acked write is a durable write. Caching-mode
  // switches are logged too, and the manager's checkpoint cadence runs at
  // epoch boundaries. Fail-stop: if an append or sync fails, the batch's
  // update futures carry the error and every later write is rejected before
  // touching the tree (stats().wal_failures counts both). Non-owning; the
  // manager must outlive the scheduler and is not shared with another
  // scheduler.
  durability::Manager* durability = nullptr;

  // Throwing entry point ⇔ BatchScheduler::try_create Status twin
  // (DESIGN.md §13): names the offending field, delegates to the enabled
  // controllers' own validators. Note the constructor clamps the legacy
  // zero-valued size fields (batch_size, max_batch, pipeline_depth) to 1
  // *before* validating, so passing 0 there stays accepted for source
  // compatibility; calling validate() directly is strict.
  void validate() const;
};

// One formed batch: its epoch, dispatch tick, trigger, and op mix.
struct BatchLog {
  std::uint64_t epoch = 0;
  std::uint64_t tick = 0;
  char reason = '?';  // 's'ize target, 'd'eadline, 'f'lush
  bool mode_switch = false;  // replication controller switched CachingMode
  bool migration = false;    // migration controller moved component(s)
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
  std::uint64_t mode_switches = 0;  // replication-controller mode changes
  std::uint64_t migrations = 0;     // components moved by the migration controller
  std::uint64_t dispatch_size = 0, dispatch_deadline = 0, dispatch_flush = 0;
  std::uint64_t ticks_rejected = 0;     // non-monotonic pump/flush ticks refused
  std::uint64_t clock_regressions = 0;  // completion clock read behind dispatch
  std::uint64_t read_straddles = 0;     // reads failed by ReadPin validation
  std::uint64_t pipeline_stalls = 0;    // FORM blocked on pipeline_depth
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

  // Status twin of the constructor (DESIGN.md §13): config validation errors
  // come back as kInvalidArgument instead of an exception.
  static Status try_create(core::PimKdTree& tree, SchedulerConfig cfg,
                           std::unique_ptr<BatchScheduler>& out);

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  // --- Producer side (any thread) --------------------------------------------
  // Stamps `now_tick`, validates the payload (a malformed request fails alone,
  // immediately, without poisoning its batch) and enqueues. The returned
  // future is resolved exactly once.
  std::future<Response> submit(Request r, std::uint64_t now_tick);

  // --- Consumer side (one thread at a time) -----------------------------------
  // Drains the queue and dispatches every batch the policy says is due at
  // `now_tick`. Returns the number of requests completed (serial engine) or
  // admitted to the pipeline (pipelined engine). `now_tick` must be >= every
  // tick previously passed to pump()/flush(): try_pump rejects a backwards
  // tick with kFailedPrecondition (counted in stats().ticks_rejected); the
  // legacy pump() throws PimError for the same condition.
  std::size_t pump(std::uint64_t now_tick);
  Status try_pump(std::uint64_t now_tick, std::size_t* completed = nullptr);
  // pump(), then dispatch all remaining pending requests regardless of policy.
  // Under pipelining this also drains the pipeline: on return every admitted
  // request is resolved.
  std::size_t flush(std::uint64_t now_tick);
  Status try_flush(std::uint64_t now_tick, std::size_t* completed = nullptr);

  // Background mode: a thread that pumps on cfg.clock (defaults to a
  // steady_clock nanosecond tick when unset). stop() joins it, closes the
  // queue and flushes; requests submitted afterwards are rejected.
  void start();
  void stop();

  // --- Introspection -----------------------------------------------------------
  std::uint64_t epoch() const;
  // The size trigger currently in force (kTradeoff: recomputed from the live
  // size — the projection under pipelining, the tree otherwise). May block
  // while a flush() is draining the pipeline.
  std::size_t target_batch_size() const;
  ServeStats stats() const;
  std::vector<BatchLog> batch_log() const;
  // Controller introspection (nullptr when the controller is not enabled).
  // Controllers are consulted at epoch boundaries on the EXEC stage; reading
  // them between pumps is safe in serial mode, and after flush()/stop() in
  // pipelined mode.
  const core::AdaptiveReplicationController* replication_controller() const {
    return controller_.get();
  }
  const core::MigrationPlanner* migration_planner() const {
    return migration_.get();
  }

  // The §5 target: per-query search communication is Θ(G + log^(G) P) words
  // once batches are large enough that the Table-1 LeafSearch alternative
  // log(n/S) no longer dominates; solving log2(n/S) = G + log^(G) P gives
  // S* = n / 2^(G + log^(G) P), the smallest batch that reaches the
  // trade-off's communication floor. Clamped to [batch_size, max_batch].
  static std::size_t tradeoff_target(const core::PimKdConfig& cfg,
                                     std::size_t P, std::size_t n,
                                     std::size_t lo, std::size_t hi);

 private:
  // One epoch in flight: the batch, its responses, the index split, and the
  // log entry — shared between FORM, EXEC and RESOLVE. Disjoint-write
  // discipline: after EXEC hands the read indices to RESOLVE it only touches
  // update-indexed responses, so the two stages never write the same slot.
  struct EpochTask {
    std::vector<Request> batch;
    std::vector<Response> resp;
    std::vector<std::uint32_t> reads, updates;  // indices into batch
    BatchLog log;
    std::uint64_t form_tick = 0;
    // WAL payload gathered by run_updates (applied sub-batches only).
    bool wal_log = false;
    std::uint64_t wal_epoch = 0;  // tree mutation_epoch after applying
    std::uint64_t wal_base = 0;   // next_point_id before the inserts
    std::vector<Point> wal_inserts;
    std::vector<PointId> wal_erases;
  };

  Status pump_guarded(std::uint64_t now, bool flush_all, std::size_t* out);
  std::size_t pump_locked(std::uint64_t now, bool flush_all);
  std::size_t target_locked() const;     // the size trigger in force
  std::size_t live_size_locked() const;  // projection (pipelined) or tree
  void init_projection_locked();
  std::shared_ptr<EpochTask> form_task(std::size_t take, std::uint64_t now,
                                       char reason);
  std::size_t dispatch_serial(const std::shared_ptr<EpochTask>& t);
  void enqueue_pipelined(std::shared_ptr<EpochTask> t);
  void drain_pipeline();
  void execute_task(EpochTask& t);  // stamp epoch; pinned + validated reads
  void apply_task(EpochTask& t);    // updates + controller + WAL/checkpoint
  void log_durable(EpochTask& t, bool mode_switched);
  void run_reads(std::vector<Request>& batch, std::vector<Response>& resp);
  void run_updates(EpochTask& t);
  void resolve_reads(EpochTask& t, std::uint64_t done);
  void finalize_task(EpochTask& t, std::uint64_t done);
  std::uint64_t completion_tick(std::uint64_t form_tick);
  static void fail_requests(EpochTask& t,
                            const std::vector<std::uint32_t>& idx,
                            const char* why);
  void background_loop();

  core::PimKdTree& tree_;
  SchedulerConfig cfg_;

  std::atomic<std::uint64_t> clock_regressions_{0};
  std::atomic<std::uint64_t> read_straddles_{0};
  std::atomic<std::uint64_t> pipeline_stalls_{0};
  // Sticky fail-stop: set on the first WAL append/sync error; later writes
  // are rejected before touching the tree (an unlogged mutation could never
  // be recovered, so applying it would silently widen the durability gap).
  std::atomic<bool> wal_failed_{false};

  // Formation state (consumer side), guarded by mu_: Admission's consumer
  // side, plus the pipelined projection.
  mutable std::mutex mu_;
  Admission adm_;
  // Pipelined FORM's mirror of the live set: what tree_.size() /
  // next_point_id() will be once every formed batch has been applied.
  bool proj_init_ = false;
  std::vector<char> proj_alive_;
  std::size_t proj_live_ = 0;

  // Execution-visible state shared by the serial engine, EXEC, RESOLVE and
  // the accessors, guarded by state_mu_ (leaf lock; acquired after mu_).
  mutable std::mutex state_mu_;
  std::uint64_t epoch_ = 0;
  ServeStats stats_;
  std::vector<BatchLog> log_;
  std::unique_ptr<core::AdaptiveReplicationController> controller_;
  std::unique_ptr<core::MigrationPlanner> migration_;
  // The enabled controllers in run order (non-owning views of the two above).
  std::vector<core::EpochController*> controllers_;

  // Pipeline stages + in-flight accounting (pipe_mu_ is a leaf lock).
  std::unique_ptr<parallel::StageQueue> exec_stage_;
  std::unique_ptr<parallel::StageQueue> resolve_stage_;
  std::mutex pipe_mu_;
  std::condition_variable pipe_cv_;
  std::size_t in_flight_ = 0;

  std::thread worker_;
  std::atomic<bool> stop_worker_{false};
};

}  // namespace pimkd::serve
