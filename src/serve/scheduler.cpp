#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>

#include "util/stats.hpp"

namespace pimkd::serve {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string BatchLog::to_string() const {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "e=%llu t=%llu r=%c i=%u d=%u k=%u g=%u a=%u c=%u m=%u mg=%u",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(tick), reason, inserts, erases,
                knns, ranges, radii, radius_counts,
                mode_switch ? 1u : 0u, migration ? 1u : 0u);
  return std::string(buf);
}

void SchedulerConfig::validate() const {
  if (batch_size == 0)
    throw std::invalid_argument("SchedulerConfig.batch_size: must be >= 1");
  if (max_batch == 0)
    throw std::invalid_argument("SchedulerConfig.max_batch: must be >= 1");
  if (pipeline && pipeline_depth == 0)
    throw std::invalid_argument(
        "SchedulerConfig.pipeline_depth: must be >= 1 when pipelining");
  if (controllers.replication)
    core::validate_replication_config(controllers.replication_cfg);
  if (controllers.migration) controllers.migration_cfg.validate();
}

BatchScheduler::BatchScheduler(core::PimKdTree& tree, SchedulerConfig cfg)
    : tree_(tree),
      cfg_(std::move(cfg)),
      adm_("serve", tree_.config().dim, cfg_.policy, cfg_.batch_size,
           cfg_.deadline_ticks, cfg_.max_batch) {
  cfg_.batch_size = adm_.batch_size();
  cfg_.max_batch = adm_.max_batch();
  if (cfg_.pipeline_depth == 0) cfg_.pipeline_depth = 1;
  cfg_.validate();
  if (cfg_.controllers.replication)
    controller_ = std::make_unique<core::AdaptiveReplicationController>(
        tree_, cfg_.controllers.replication_cfg);
  if (cfg_.controllers.migration)
    migration_ = std::make_unique<core::MigrationPlanner>(
        tree_, cfg_.controllers.migration_cfg);
  // Run order: replication decides *what* is replicated before migration
  // decides *where* masters live.
  if (controller_) controllers_.push_back(controller_.get());
  if (migration_) controllers_.push_back(migration_.get());
  if (cfg_.pipeline) {
    exec_stage_ = std::make_unique<parallel::StageQueue>("serve-exec");
    resolve_stage_ = std::make_unique<parallel::StageQueue>("serve-resolve");
  }
}

Status BatchScheduler::try_create(core::PimKdTree& tree, SchedulerConfig cfg,
                                  std::unique_ptr<BatchScheduler>& out) {
  try {
    out = std::make_unique<BatchScheduler>(tree, std::move(cfg));
  } catch (const std::invalid_argument& ex) {
    return Status::Error(StatusCode::kInvalidArgument, ex.what());
  } catch (const PimError& ex) {
    return ex.status();
  }
  return Status::Ok();
}

BatchScheduler::~BatchScheduler() {
  try {
    stop();
  } catch (...) {
    // stop() rethrows stage poison (a bug backstop); never from the dtor.
  }
}

std::future<Response> BatchScheduler::submit(Request r,
                                             std::uint64_t now_tick) {
  return adm_.submit(std::move(r), now_tick);
}

std::size_t BatchScheduler::pump(std::uint64_t now_tick) {
  std::size_t n = 0;
  const Status s = pump_guarded(now_tick, /*flush_all=*/false, &n);
  if (!s.ok()) throw PimError(s);
  return n;
}

Status BatchScheduler::try_pump(std::uint64_t now_tick, std::size_t* completed) {
  return pump_guarded(now_tick, /*flush_all=*/false, completed);
}

std::size_t BatchScheduler::flush(std::uint64_t now_tick) {
  std::size_t n = 0;
  const Status s = pump_guarded(now_tick, /*flush_all=*/true, &n);
  if (!s.ok()) throw PimError(s);
  return n;
}

Status BatchScheduler::try_flush(std::uint64_t now_tick,
                                 std::size_t* completed) {
  return pump_guarded(now_tick, /*flush_all=*/true, completed);
}

Status BatchScheduler::pump_guarded(std::uint64_t now, bool flush_all,
                                    std::size_t* out) {
  if (out) *out = 0;
  std::lock_guard<std::mutex> lk(mu_);
  const Status s = adm_.advance(now);
  if (!s.ok()) return s;
  const std::size_t n = pump_locked(now, flush_all);
  if (out) *out = n;
  return Status::Ok();
}

std::size_t BatchScheduler::pump_locked(std::uint64_t now, bool flush_all) {
  if (cfg_.pipeline) init_projection_locked();
  std::size_t total = 0;
  for (;;) {
    char reason = '?';
    const std::size_t take = adm_.due(now, flush_all, target_locked(), reason);
    if (take == 0) break;
    std::shared_ptr<EpochTask> t = form_task(take, now, reason);
    if (cfg_.pipeline) {
      total += t->batch.size();
      enqueue_pipelined(std::move(t));
    } else {
      total += dispatch_serial(t);
    }
  }
  if (flush_all && cfg_.pipeline) drain_pipeline();
  return total;
}

std::size_t BatchScheduler::tradeoff_target(const core::PimKdConfig& cfg,
                                            std::size_t P, std::size_t n,
                                            std::size_t lo, std::size_t hi) {
  const int logstar = log_star2(static_cast<double>(std::max<std::size_t>(P, 2)));
  const int G = cfg.cached_groups < 0 ? logstar
                                      : std::min(cfg.cached_groups, logstar);
  // Per-query search communication floor of the G-group variant (Thm 5.1):
  // hops ~ G + log^(G) P. Batches below n / 2^hops still pay the
  // log2(n/S) > hops LeafSearch alternative, so grow to S*; batches above it
  // buy no further per-query communication, only latency.
  const double hops = static_cast<double>(G) +
                      ilog2(static_cast<double>(std::max<std::size_t>(P, 2)), G);
  const double nn = static_cast<double>(std::max<std::size_t>(n, 1));
  const double star = nn / std::pow(2.0, hops);
  const auto target = static_cast<std::size_t>(std::max(1.0, star));
  return std::clamp(target, std::min(lo, hi), hi);
}

std::size_t BatchScheduler::live_size_locked() const {
  // The pipelined FORM stage must not read the tree (EXEC may be mid-write);
  // its projection is what tree_.size() will be once every formed batch has
  // applied — exactly the value the serial engine would see at this point.
  return cfg_.pipeline && proj_init_ ? proj_live_ : tree_.size();
}

void BatchScheduler::init_projection_locked() {
  if (proj_init_) return;
  // First pump: nothing is in flight yet, so the tree is quiescent and safe
  // to mirror. From here on the projection advances with each formed batch.
  const std::size_t ids = tree_.next_point_id();
  proj_alive_.resize(ids);
  for (std::size_t i = 0; i < ids; ++i)
    proj_alive_[i] = tree_.is_live(static_cast<PointId>(i)) ? 1 : 0;
  proj_live_ = tree_.size();
  proj_init_ = true;
}

std::size_t BatchScheduler::target_batch_size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return target_locked();
}

std::size_t BatchScheduler::target_locked() const {
  if (cfg_.policy != Policy::kTradeoff) return adm_.size_target();
  return tradeoff_target(tree_.config(), tree_.P(), live_size_locked(),
                         cfg_.batch_size, cfg_.max_batch);
}

std::shared_ptr<BatchScheduler::EpochTask> BatchScheduler::form_task(
    std::size_t take, std::uint64_t now, char reason) {
  auto t = std::make_shared<EpochTask>();
  t->form_tick = now;
  t->log.tick = now;
  t->log.reason = reason;
  t->batch = adm_.take(take);
  t->resp.resize(t->batch.size());
  for (std::size_t i = 0; i < t->batch.size(); ++i) {
    t->resp[i].kind = t->batch[i].kind;
    t->resp[i].submit_tick = t->batch[i].submit_tick;
    t->resp[i].dispatch_tick = now;
    if (is_update(t->batch[i].kind))
      t->updates.push_back(static_cast<std::uint32_t>(i));
    else
      t->reads.push_back(static_cast<std::uint32_t>(i));
    switch (t->batch[i].kind) {
      case OpKind::kInsert: ++t->log.inserts; break;
      case OpKind::kErase: ++t->log.erases; break;
      case OpKind::kKnn: ++t->log.knns; break;
      case OpKind::kRange: ++t->log.ranges; break;
      case OpKind::kRadius: ++t->log.radii; break;
      case OpKind::kRadiusCount: ++t->log.radius_counts; break;
    }
  }
  {
    std::lock_guard<std::mutex> sl(state_mu_);
    for (const Request& r : t->batch)
      stats_.queue_latency.record(sat_sub(now, r.submit_tick));
  }
  return t;
}

void BatchScheduler::enqueue_pipelined(std::shared_ptr<EpochTask> t) {
  // Advance the projection as if this batch had already applied, so the next
  // due_batch() decision matches what the serial engine would compute after
  // dispatching it. First-claim-wins duplicate-erase semantics mirror
  // run_updates exactly.
  for (const std::uint32_t i : t->updates) {
    const Request& r = t->batch[i];
    if (r.kind == OpKind::kInsert) {
      proj_alive_.push_back(1);
      ++proj_live_;
    } else if (r.id < proj_alive_.size() && proj_alive_[r.id]) {
      proj_alive_[r.id] = 0;
      --proj_live_;
    }
  }
  {
    std::unique_lock<std::mutex> pl(pipe_mu_);
    if (in_flight_ >= cfg_.pipeline_depth) {
      pipeline_stalls_.fetch_add(1, std::memory_order_relaxed);
      pipe_cv_.wait(pl, [this] { return in_flight_ < cfg_.pipeline_depth; });
    }
    ++in_flight_;
  }
  exec_stage_->submit([this, t] {
    // Stage discipline: after the read handoff below, this thread only
    // touches update-indexed responses; RESOLVE only read-indexed ones.
    try {
      execute_task(*t);
    } catch (const std::exception& ex) {
      fail_requests(*t, t->reads, ex.what());
    }
    resolve_stage_->submit(
        [this, t] { resolve_reads(*t, completion_tick(t->form_tick)); });
    try {
      apply_task(*t);
    } catch (const std::exception& ex) {
      fail_requests(*t, t->updates, ex.what());
    }
    resolve_stage_->submit(
        [this, t] { finalize_task(*t, completion_tick(t->form_tick)); });
  });
}

std::size_t BatchScheduler::dispatch_serial(
    const std::shared_ptr<EpochTask>& t) {
  try {
    execute_task(*t);
  } catch (const std::exception& ex) {
    fail_requests(*t, t->reads, ex.what());
  }
  try {
    apply_task(*t);
  } catch (const std::exception& ex) {
    fail_requests(*t, t->updates, ex.what());
  }
  const std::uint64_t done = completion_tick(t->form_tick);
  resolve_reads(*t, done);
  finalize_task(*t, done);
  return t->batch.size();
}

void BatchScheduler::execute_task(EpochTask& t) {
  std::uint64_t e = 0;
  {
    std::lock_guard<std::mutex> sl(state_mu_);
    e = epoch_;
  }
  t.log.epoch = e;
  for (Response& r : t.resp) r.epoch = e;  // run_updates overwrites for writes

  // The "snapshot" of epoch e is the live tree itself: updates admitted in
  // this epoch have not been applied yet, so the host mirror *is* the
  // epoch-e state, byte-exact, and every read charges the ledger exactly as
  // a hand-issued batch would. The pin blocks the tree's write gate for the
  // duration and validates afterwards that no mutation slipped past it.
  core::PimKdTree::ReadPin pin = tree_.pin_reads();
  run_reads(t.batch, t.resp);
  if (!pin.valid()) {
    read_straddles_.fetch_add(t.reads.size(), std::memory_order_relaxed);
    for (const std::uint32_t i : t.reads) {
      t.resp[i].error = "serve: read straddled a mutation (epoch snapshot "
                        "invalidated mid-read)";
      t.resp[i].neighbors.clear();
      t.resp[i].ids.clear();
      t.resp[i].count = 0;
    }
  }
}

void BatchScheduler::run_reads(std::vector<Request>& batch,
                               std::vector<Response>& resp) {
  // Canonical grouping and dispatch live in PimKdTree::query() (the ledger
  // sequence matches a hand-batched run); here we only slice off the
  // delivery bookkeeping and merge the result payloads back.
  std::vector<core::Request> ops;
  ops.reserve(batch.size());
  for (const Request& r : batch)
    ops.push_back(static_cast<const core::Request&>(r));
  std::vector<Response> out = tree_.query(ops);

  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (is_update(batch[i].kind)) continue;  // applied later (run_updates)
    resp[i].error = std::move(out[i].error);
    resp[i].neighbors = std::move(out[i].neighbors);
    resp[i].ids = std::move(out[i].ids);
    resp[i].count = out[i].count;
  }
}

void BatchScheduler::apply_task(EpochTask& t) {
  run_updates(t);
  bool mode_switched = false;
  // Epoch boundary: updates are applied, the next batch's reads have not
  // started — the only point where re-replication or a component move cannot
  // invalidate an in-flight snapshot (under pipelining EXEC runs epochs
  // back-to-back, so this still sits between epoch e's writes and epoch
  // e+1's reads). Feeding batch op counts (not wall time) keeps every
  // controller a pure function of the request stream, so virtual-tick runs
  // stay deterministic at any PIMKD_THREADS.
  for (core::EpochController* c : controllers_) {
    const auto outcome =
        c->on_epoch_boundary(t.reads.size(), t.updates.size());
    if (!outcome.changed) continue;
    // The tree's query-visible version moved (the apply step bumped
    // mutation_epoch); advance the serve epoch so the invariant "one serve
    // epoch = one tree version" holds for the next batch's reads.
    std::lock_guard<std::mutex> sl(state_mu_);
    ++epoch_;
    ++stats_.epochs;
    if (c == static_cast<core::EpochController*>(controller_.get())) {
      ++stats_.mode_switches;
      t.log.mode_switch = true;
      mode_switched = true;
    } else {
      stats_.migrations += migration_->last_decision().moves.size();
      t.log.migration = true;
    }
  }
  if (cfg_.durability && !wal_failed_.load(std::memory_order_acquire))
    log_durable(t, mode_switched);
}

void BatchScheduler::log_durable(EpochTask& t, bool mode_switched) {
  durability::Manager& d = *cfg_.durability;
  // Append + sync BEFORE finalize_task resolves the update futures (which
  // runs strictly after apply_task returns, on both engines): an acked write
  // is on disk. A crash between tree apply and this append loses only a
  // batch whose clients were never acked — by design, the WAL records the
  // exactly-applied history.
  Status s = Status::Ok();
  if (t.wal_log)
    s = d.log_batch(t.wal_epoch, t.wal_base, std::move(t.wal_inserts),
                    std::move(t.wal_erases));
  if (s.ok() && mode_switched)
    s = d.log_mode_switch(tree_.mutation_epoch(), tree_.config().caching);
  bool took_checkpoint = false;
  if (s.ok()) s = d.maybe_checkpoint(tree_, &took_checkpoint);
  if (!s.ok()) {
    wal_failed_.store(true, std::memory_order_release);
    for (const std::uint32_t i : t.updates)
      if (t.resp[i].error.empty())
        t.resp[i].error = "durability: " + s.message +
                          " (write applied but NOT durable)";
    std::lock_guard<std::mutex> sl(state_mu_);
    ++stats_.wal_failures;
    return;
  }
  std::lock_guard<std::mutex> sl(state_mu_);
  if (t.wal_log) ++stats_.wal_frames;
  if (mode_switched) ++stats_.wal_frames;
  if (took_checkpoint) ++stats_.checkpoints;
}

void BatchScheduler::run_updates(EpochTask& t) {
  if (cfg_.durability && wal_failed_.load(std::memory_order_acquire)) {
    // Fail-stop: the log can no longer record what we would apply, so the
    // write is rejected *before* mutating the tree — otherwise recovery
    // would silently miss it.
    for (const std::uint32_t i : t.updates)
      t.resp[i].error =
          "durability: write-ahead log failed; write rejected (fail-stop)";
    if (!t.updates.empty()) {
      std::lock_guard<std::mutex> sl(state_mu_);
      ++stats_.wal_failures;
    }
    return;
  }
  std::vector<std::size_t> ins_members;
  std::vector<std::size_t> del_members;
  for (const std::uint32_t i : t.updates) {
    if (t.batch[i].kind == OpKind::kInsert) ins_members.push_back(i);
    else del_members.push_back(i);
  }
  bool changed = false;
  t.wal_base = tree_.next_point_id();
  if (!ins_members.empty()) {
    std::vector<Point> pts;
    pts.reserve(ins_members.size());
    for (const std::size_t i : ins_members) pts.push_back(t.batch[i].point);
    try {
      const std::vector<PointId> ids = tree_.insert(pts);
      for (std::size_t j = 0; j < ins_members.size(); ++j)
        t.resp[ins_members[j]].inserted_id = ids[j];
      changed = true;
      t.wal_inserts = std::move(pts);  // applied: goes to the WAL
    } catch (const std::exception& ex) {
      for (const std::size_t i : ins_members) t.resp[i].error = ex.what();
    }
  }
  if (!del_members.empty()) {
    std::vector<PointId> ids;
    ids.reserve(del_members.size());
    // Per-request verdict: the first claim of a live id in the batch wins
    // (duplicates of the same id in one epoch erase it once).
    std::unordered_set<PointId> claimed;
    for (const std::size_t i : del_members) {
      const PointId id = t.batch[i].id;
      t.resp[i].erased = tree_.is_live(id) && claimed.insert(id).second;
      ids.push_back(id);
    }
    try {
      tree_.erase(ids);
      changed = changed || !claimed.empty();
      // WAL: only the ids this batch actually erased (dead-id no-ops and
      // duplicate claims are excluded, so replay is an exact re-application).
      for (const std::size_t i : del_members)
        if (t.resp[i].erased) t.wal_erases.push_back(t.batch[i].id);
    } catch (const std::exception& ex) {
      for (const std::size_t i : del_members) t.resp[i].error = ex.what();
    }
  }
  t.wal_epoch = tree_.mutation_epoch();
  t.wal_log = !t.wal_inserts.empty() || !t.wal_erases.empty();
  std::uint64_t e = 0;
  {
    std::lock_guard<std::mutex> sl(state_mu_);
    if (changed) {
      ++epoch_;
      ++stats_.epochs;
    }
    e = epoch_;
  }
  // Updates become visible in the (possibly unchanged) current epoch.
  for (const std::size_t i : ins_members) t.resp[i].epoch = e;
  for (const std::size_t i : del_members) t.resp[i].epoch = e;
}

std::uint64_t BatchScheduler::completion_tick(std::uint64_t form_tick) {
  if (!cfg_.clock) return form_tick;  // virtual time: deterministic
  const std::uint64_t c = cfg_.clock();
  if (c < form_tick) {
    // A regressing clock must not produce completion ticks before dispatch
    // (service ages would silently saturate); clamp and count.
    clock_regressions_.fetch_add(1, std::memory_order_relaxed);
    return form_tick;
  }
  return c;
}

void BatchScheduler::resolve_reads(EpochTask& t, std::uint64_t done) {
  {
    std::lock_guard<std::mutex> sl(state_mu_);
    for (const std::uint32_t i : t.reads) {
      t.resp[i].complete_tick = done;
      stats_.service_latency.record(sat_sub(done, t.resp[i].submit_tick));
      ++stats_.reads;
    }
  }
  for (const std::uint32_t i : t.reads)
    t.batch[i].promise.set_value(std::move(t.resp[i]));
}

void BatchScheduler::finalize_task(EpochTask& t, std::uint64_t done) {
  {
    std::lock_guard<std::mutex> sl(state_mu_);
    for (const std::uint32_t i : t.updates) {
      t.resp[i].complete_tick = done;
      stats_.service_latency.record(sat_sub(done, t.resp[i].submit_tick));
      ++stats_.updates;
    }
    ++stats_.batches;
    switch (t.log.reason) {
      case 's': ++stats_.dispatch_size; break;
      case 'd': ++stats_.dispatch_deadline; break;
      case 'f': ++stats_.dispatch_flush; break;
      default: break;
    }
    stats_.completed += t.batch.size();
    log_.push_back(t.log);
  }
  for (const std::uint32_t i : t.updates)
    t.batch[i].promise.set_value(std::move(t.resp[i]));
  if (cfg_.pipeline) {
    {
      std::lock_guard<std::mutex> pl(pipe_mu_);
      --in_flight_;
    }
    pipe_cv_.notify_all();
  }
}

void BatchScheduler::fail_requests(EpochTask& t,
                                   const std::vector<std::uint32_t>& idx,
                                   const char* why) {
  for (const std::uint32_t i : idx) {
    t.resp[i].error = why;
    t.resp[i].neighbors.clear();
    t.resp[i].ids.clear();
    t.resp[i].count = 0;
  }
}

void BatchScheduler::drain_pipeline() {
  std::unique_lock<std::mutex> pl(pipe_mu_);
  pipe_cv_.wait(pl, [this] { return in_flight_ == 0; });
}

void BatchScheduler::start() {
  if (worker_.joinable()) return;
  if (!cfg_.clock) cfg_.clock = [] { return steady_ns(); };
  stop_worker_.store(false, std::memory_order_release);
  worker_ = std::thread([this] { background_loop(); });
}

void BatchScheduler::background_loop() {
  while (!stop_worker_.load(std::memory_order_acquire)) {
    // A clock that regresses across cores yields a rejected (counted) tick,
    // not garbage ages; the next in-order reading pumps normally.
    (void)try_pump(cfg_.clock());
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void BatchScheduler::stop() {
  adm_.close();
  if (worker_.joinable()) {
    stop_worker_.store(true, std::memory_order_release);
    worker_.join();
  }
  // Graceful drain: everything already accepted is executed and resolved
  // (under pipelining pump_locked's flush path also drains the stages).
  std::uint64_t drain_tick = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    drain_tick = adm_.last_tick();
    if (cfg_.clock) drain_tick = std::max(drain_tick, cfg_.clock());
    (void)adm_.advance(drain_tick);  // never behind last_tick(): cannot fail
    pump_locked(drain_tick, /*flush_all=*/true);
  }
  if (exec_stage_) exec_stage_->stop();
  if (resolve_stage_) resolve_stage_->stop();
  // Everything applied is now logged; make the tail durable regardless of
  // the sync policy so a clean shutdown never loses an acked write.
  if (cfg_.durability && !wal_failed_.load(std::memory_order_acquire))
    (void)cfg_.durability->sync();
  // Safety net for submissions that raced the close: resolve, never leak a
  // broken promise.
  adm_.reject_queued(drain_tick);
}

std::uint64_t BatchScheduler::epoch() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return epoch_;
}

ServeStats BatchScheduler::stats() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  ServeStats s = stats_;
  s.submitted = adm_.submitted();
  s.rejected = adm_.rejected();
  s.ticks_rejected = adm_.ticks_rejected();
  s.clock_regressions = clock_regressions_.load(std::memory_order_relaxed);
  s.read_straddles = read_straddles_.load(std::memory_order_relaxed);
  s.pipeline_stalls = pipeline_stalls_.load(std::memory_order_relaxed);
  return s;  // wal_frames / wal_failures / checkpoints copied with stats_
}

std::vector<BatchLog> BatchScheduler::batch_log() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return log_;
}

}  // namespace pimkd::serve
