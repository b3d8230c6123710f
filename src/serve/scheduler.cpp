#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <unordered_set>

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
                "e=%llu t=%llu r=%c i=%u d=%u k=%u g=%u a=%u c=%u",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(tick), reason, inserts, erases,
                knns, ranges, radii, radius_counts);
  return std::string(buf);
}

BatchScheduler::BatchScheduler(core::PimKdTree& tree, SchedulerConfig cfg)
    : tree_(tree),
      cfg_(std::move(cfg)),
      adm_("serve", tree_.config().dim, cfg_.policy, cfg_.batch_size,
           cfg_.deadline_ticks, cfg_.max_batch) {}

BatchScheduler::~BatchScheduler() {
  try {
    stop();
  } catch (...) {
    // A destructor must not throw; stop() has resolved what it could.
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
  std::size_t total = 0;
  for (;;) {
    char reason = '?';
    const std::size_t take = adm_.due(now, flush_all, reason);
    if (take == 0) break;
    total += dispatch(take, now, reason);
  }
  return total;
}

std::size_t BatchScheduler::dispatch(std::size_t take, std::uint64_t now,
                                     char reason) {
  EpochTask t;
  form_task(t, take, now, reason);
  try {
    run_reads(t);
  } catch (const std::exception& ex) {
    fail_requests(t, t.reads, ex.what());
  }
  try {
    apply_task(t);
  } catch (const std::exception& ex) {
    fail_requests(t, t.updates, ex.what());
  }
  resolve(t, completion_tick(now));
  return t.batch.size();
}

void BatchScheduler::form_task(EpochTask& t, std::size_t take,
                               std::uint64_t now, char reason) {
  t.log.tick = now;
  t.log.reason = reason;
  t.batch = adm_.take(take);
  t.resp.resize(t.batch.size());
  std::lock_guard<std::mutex> sl(state_mu_);
  t.log.epoch = epoch_;
  for (std::size_t i = 0; i < t.batch.size(); ++i) {
    t.resp[i].kind = t.batch[i].kind;
    t.resp[i].submit_tick = t.batch[i].submit_tick;
    t.resp[i].dispatch_tick = now;
    t.resp[i].epoch = epoch_;  // run_updates overwrites for writes
    if (is_update(t.batch[i].kind))
      t.updates.push_back(static_cast<std::uint32_t>(i));
    else
      t.reads.push_back(static_cast<std::uint32_t>(i));
    switch (t.batch[i].kind) {
      case OpKind::kInsert: ++t.log.inserts; break;
      case OpKind::kErase: ++t.log.erases; break;
      case OpKind::kKnn: ++t.log.knns; break;
      case OpKind::kRange: ++t.log.ranges; break;
      case OpKind::kRadius: ++t.log.radii; break;
      case OpKind::kRadiusCount: ++t.log.radius_counts; break;
    }
    stats_.queue_latency.record(sat_sub(now, t.batch[i].submit_tick));
  }
}

void BatchScheduler::run_reads(EpochTask& t) {
  // The "snapshot" of epoch e is the live tree itself: updates admitted in
  // this epoch have not been applied yet, so the host mirror *is* the
  // epoch-e state, byte-exact, and every read charges the ledger exactly as
  // a hand-issued batch would.
  //
  // Canonical grouping and dispatch live in PimKdTree::query() (the ledger
  // sequence matches a hand-batched run); here we only slice off the
  // delivery bookkeeping and merge the result payloads back.
  std::vector<core::Request> ops;
  ops.reserve(t.batch.size());
  for (const Request& r : t.batch)
    ops.push_back(static_cast<const core::Request&>(r));
  std::vector<Response> out = tree_.query(ops);

  for (const std::uint32_t i : t.reads) {
    t.resp[i].error = std::move(out[i].error);
    t.resp[i].neighbors = std::move(out[i].neighbors);
    t.resp[i].ids = std::move(out[i].ids);
    t.resp[i].count = out[i].count;
  }
}

void BatchScheduler::apply_task(EpochTask& t) {
  run_updates(t);
  if (cfg_.durability && !wal_failed_.load(std::memory_order_acquire))
    log_durable(t);
}

void BatchScheduler::log_durable(EpochTask& t) {
  durability::Manager& d = *cfg_.durability;
  // Append + sync BEFORE resolve() sets the update futures (which runs
  // strictly after apply_task returns): an acked write is on disk. A crash
  // between tree apply and this append loses only a batch whose clients were
  // never acked — by design, the WAL records the exactly-applied history.
  Status s = Status::Ok();
  if (t.wal_log)
    s = d.log_batch(t.wal_epoch, t.wal_base, std::move(t.wal_inserts),
                    std::move(t.wal_erases));
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

void BatchScheduler::resolve(EpochTask& t, std::uint64_t done) {
  {
    std::lock_guard<std::mutex> sl(state_mu_);
    for (std::size_t i = 0; i < t.batch.size(); ++i) {
      t.resp[i].complete_tick = done;
      stats_.service_latency.record(sat_sub(done, t.resp[i].submit_tick));
    }
    stats_.reads += t.reads.size();
    stats_.updates += t.updates.size();
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
  for (std::size_t i = 0; i < t.batch.size(); ++i)
    t.batch[i].promise.set_value(std::move(t.resp[i]));
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
  // Graceful drain: everything already accepted is executed and resolved.
  std::uint64_t drain_tick = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    drain_tick = adm_.last_tick();
    if (cfg_.clock) drain_tick = std::max(drain_tick, cfg_.clock());
    (void)adm_.advance(drain_tick);  // never behind last_tick(): cannot fail
    pump_locked(drain_tick, /*flush_all=*/true);
  }
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
  return s;  // wal_frames / wal_failures / checkpoints copied with stats_
}

std::vector<BatchLog> BatchScheduler::batch_log() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return log_;
}

}  // namespace pimkd::serve
