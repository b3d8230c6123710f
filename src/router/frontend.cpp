#include "router/frontend.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

namespace pimkd::router {

namespace {

constexpr Coord kInf = std::numeric_limits<Coord>::infinity();

std::uint64_t sat_sub(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : 0;
}

// Same payload rules as serve::BatchScheduler::submit — a malformed request
// fails alone at submit time, never inside a batch.
void validate_request(const serve::Request& r, int dim) {
  switch (r.kind) {
    case core::OpKind::kInsert:
      validate_point(r.point, dim, "router.insert");
      break;
    case core::OpKind::kErase:
      if (r.id == kInvalidPoint)
        throw std::invalid_argument("router.erase: invalid point id");
      break;
    case core::OpKind::kKnn:
      validate_point(r.point, dim, "router.knn");
      if (r.k == 0) throw std::invalid_argument("router.knn: k must be >= 1");
      if (!(std::isfinite(r.eps) && r.eps >= 0.0))
        throw std::invalid_argument("router.knn: eps must be finite and >= 0");
      break;
    case core::OpKind::kRange:
      validate_box(r.box, dim, "router.range");
      break;
    case core::OpKind::kRadius:
      validate_point(r.point, dim, "router.radius");
      validate_radius(r.radius, "router.radius");
      break;
    case core::OpKind::kRadiusCount:
      validate_point(r.point, dim, "router.radius_count");
      validate_radius(r.radius, "router.radius_count");
      break;
  }
}

}  // namespace

void AutoReshardConfig::validate() const {
  if (max_shards < 1)
    throw std::invalid_argument("AutoReshardConfig.max_shards: must be >= 1");
  if (!(overload_ratio >= 1.0))
    throw std::invalid_argument(
        "AutoReshardConfig.overload_ratio: must be >= 1");
}

Frontend::Frontend(Router& router, FrontendConfig cfg)
    : router_(router), cfg_(std::move(cfg)) {
  cfg_.auto_reshard.validate();
  scheds_.reserve(router_.shards());
  for (std::size_t s = 0; s < router_.shards(); ++s)
    scheds_.push_back(make_sched(s));
  if (cfg_.auto_reshard.enabled)
    reshard_ = std::make_unique<AutoReshardPolicy>(*this, cfg_.auto_reshard);
}

Frontend::~Frontend() { stop(); }

std::unique_ptr<serve::BatchScheduler> Frontend::make_sched(std::size_t s) {
  // Dispatch-engine mode: the shard scheduler executes whatever the frontend
  // hands it on every pump; admission policy lives up here.
  serve::SchedulerConfig sc;
  sc.policy = serve::Policy::kDeadline;
  sc.deadline_ticks = 0;
  sc.max_batch = cfg_.max_batch;
  sc.record_batches = cfg_.record_batches;
  if (s < cfg_.durability.size()) sc.durability = cfg_.durability[s];
  return std::make_unique<serve::BatchScheduler>(router_.shard_tree(s), sc);
}

void Frontend::reject(serve::Request&& r, std::uint64_t now_tick,
                      const char* why) {
  serve::Response resp;
  resp.kind = r.kind;
  resp.error = why;
  resp.submit_tick = now_tick;
  resp.dispatch_tick = now_tick;
  resp.complete_tick = now_tick;
  r.promise.set_value(std::move(resp));
  rejected_.fetch_add(1, std::memory_order_relaxed);
}

std::future<serve::Response> Frontend::submit(serve::Request r,
                                              std::uint64_t now_tick) {
  r.submit_tick = now_tick;
  std::future<serve::Response> fut = r.promise.get_future();
  try {
    validate_request(r, router_.config().tree.dim);
  } catch (const std::exception& ex) {
    reject(std::move(r), now_tick, ex.what());
    return fut;
  }
  if (closed_.load(std::memory_order_acquire)) {
    reject(std::move(r), now_tick, "router: frontend stopped");
    return fut;
  }
  queue_.push(std::move(r));
  submitted_.fetch_add(1, std::memory_order_release);
  return fut;
}

std::size_t Frontend::pump(std::uint64_t now_tick) {
  std::lock_guard<std::mutex> lk(mu_);
  return pump_locked(now_tick, /*flush_all=*/false);
}

std::size_t Frontend::flush(std::uint64_t now_tick) {
  std::lock_guard<std::mutex> lk(mu_);
  return pump_locked(now_tick, /*flush_all=*/true);
}

std::size_t Frontend::pump_locked(std::uint64_t now, bool flush_all) {
  if (now < last_pump_tick_) {
    ++stats_.ticks_rejected;
    throw PimError(StatusCode::kFailedPrecondition,
                   "router: pump tick went backwards");
  }
  last_pump_tick_ = now;
  serve::Request r;
  while (queue_.pop(r)) {
    while (!oldest_.empty() && oldest_.back() > r.submit_tick)
      oldest_.pop_back();
    oldest_.push_back(r.submit_tick);
    pending_.push_back(std::move(r));
  }
  std::size_t total = 0;
  for (;;) {
    const std::size_t take = due_batch(now, flush_all);
    if (take == 0) break;
    std::vector<serve::Request> batch;
    batch.reserve(take);
    std::size_t reads = 0;
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
      if (!oldest_.empty() && oldest_.front() == batch.back().submit_tick)
        oldest_.pop_front();
      if (!core::is_update(batch.back().kind)) ++reads;
    }
    total += execute_epoch(std::move(batch), now);
    // Epoch boundary: every request of this epoch has resolved, nothing is
    // in flight — the same point where manual split_shard() is legal, so the
    // auto-reshard controller may split here.
    if (reshard_) (void)reshard_->on_epoch_boundary(reads, take - reads);
  }
  return total;
}

std::size_t Frontend::due_batch(std::uint64_t now, bool flush_all) const {
  if (pending_.empty()) return 0;
  if (flush_all) return std::min(pending_.size(), cfg_.max_batch);
  const std::size_t target = cfg_.policy == serve::Policy::kFixedSize
                                 ? cfg_.batch_size
                                 : cfg_.max_batch;
  if (pending_.size() >= target) return target;
  if (cfg_.deadline_ticks > 0 || cfg_.policy == serve::Policy::kDeadline) {
    if (sat_sub(now, oldest_.front()) >= cfg_.deadline_ticks)
      return std::min(pending_.size(), cfg_.max_batch);
  }
  return 0;
}

void Frontend::pump_shards(const std::vector<std::size_t>& active,
                           std::uint64_t now) {
  if (active.empty()) return;
  if (active.size() == 1 || !cfg_.parallel_pump) {
    for (std::size_t s : active) scheds_[s]->pump(now);
    return;
  }
  std::exception_ptr first_error;
  std::mutex err_mu;
  std::vector<std::thread> threads;
  threads.reserve(active.size());
  for (std::size_t s : active) {
    threads.emplace_back([&, s] {
      try {
        scheds_[s]->pump(now);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t Frontend::execute_epoch(std::vector<serve::Request> batch,
                                    std::uint64_t now) {
  const std::size_t K = router_.shards();
  const SpacePartition& part = router_.partition();
  const std::uint64_t read_epoch = router_.epoch();
  std::vector<serve::Response> resp(batch.size());
  std::vector<std::uint32_t> reads, updates;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    resp[i].kind = batch[i].kind;
    resp[i].submit_tick = batch[i].submit_tick;
    resp[i].dispatch_tick = now;
    if (core::is_update(batch[i].kind))
      updates.push_back(static_cast<std::uint32_t>(i));
    else
      reads.push_back(static_cast<std::uint32_t>(i));
  }

  // ---- Phase 1: route + execute the epoch's reads on every shard, before
  // any of the epoch's updates touch any tree (epoch snapshot semantics).
  struct Fan {
    std::vector<std::size_t> shard;
    std::vector<std::future<serve::Response>> fut;
    std::vector<serve::Response> got;
  };
  std::vector<Fan> fan1(batch.size()), fan2(batch.size());
  std::vector<std::size_t> knn_home(batch.size(), K);
  std::vector<char> shard_active(K, 0);
  const auto route_read = [&](std::size_t i, std::size_t s, Fan& fan) {
    fan.shard.push_back(s);
    fan.fut.push_back(scheds_[s]->submit(
        serve::Request(static_cast<const core::Request&>(batch[i])), now));
    shard_active[s] = 1;
  };
  for (const std::uint32_t i : reads) {
    const serve::Request& q = batch[i];
    switch (q.kind) {
      case core::OpKind::kKnn: {
        const std::size_t s = part.shard_of(q.point);
        knn_home[i] = s;
        route_read(i, s, fan1[i]);
        break;
      }
      case core::OpKind::kRange:
        for (std::size_t s = 0; s < K; ++s)
          if (part.cell_intersects(s, q.box)) route_read(i, s, fan1[i]);
        break;
      case core::OpKind::kRadius:
      case core::OpKind::kRadiusCount: {
        const Coord r2 = q.radius * q.radius;
        for (std::size_t s = 0; s < K; ++s)
          if (part.cell_sq_dist(s, q.point) <= r2) route_read(i, s, fan1[i]);
        break;
      }
      default:
        break;
    }
  }
  std::vector<std::size_t> active;
  for (std::size_t s = 0; s < K; ++s)
    if (shard_active[s]) active.push_back(s);
  pump_shards(active, now);
  for (const std::uint32_t i : reads)
    for (auto& f : fan1[i].fut) fan1[i].got.push_back(f.get());

  // ---- Phase 2: kNN candidate-ball fan-out (<= keeps boundary ties).
  std::fill(shard_active.begin(), shard_active.end(), 0);
  for (const std::uint32_t i : reads) {
    if (batch[i].kind != core::OpKind::kKnn) continue;
    const serve::Response& r1 = fan1[i].got[0];
    if (!r1.ok()) continue;
    const Coord ball = r1.neighbors.size() >= batch[i].k
                           ? r1.neighbors.back().sq_dist
                           : kInf;
    for (std::size_t s = 0; s < K; ++s) {
      if (s == knn_home[i]) continue;
      if (part.cell_sq_dist(s, batch[i].point) <= ball)
        route_read(i, s, fan2[i]);
    }
    if (!fan2[i].fut.empty()) ++stats_.knn_second_phase;
  }
  active.clear();
  for (std::size_t s = 0; s < K; ++s)
    if (shard_active[s]) active.push_back(s);
  pump_shards(active, now);
  for (const std::uint32_t i : reads)
    for (auto& f : fan2[i].fut) fan2[i].got.push_back(f.get());

  // ---- Merge reads (translate to global ids first, then total-order sort).
  for (const std::uint32_t i : reads) {
    serve::Response& o = resp[i];
    o.epoch = read_epoch;
    const std::size_t touched = fan1[i].shard.size() + fan2[i].shard.size();
    if (touched <= 1)
      ++stats_.single_shard_reads;
    else
      ++stats_.fanout_reads;
    bool failed = false;
    for (const Fan* fan : {&fan1[i], &fan2[i]}) {
      for (std::size_t j = 0; j < fan->got.size() && !failed; ++j)
        if (!fan->got[j].ok()) {
          o.error = fan->got[j].error;
          failed = true;
        }
    }
    if (failed) continue;
    switch (o.kind) {
      case core::OpKind::kKnn: {
        std::vector<Neighbor> merged;
        for (const Fan* fan : {&fan1[i], &fan2[i]})
          for (std::size_t j = 0; j < fan->got.size(); ++j)
            for (Neighbor n : fan->got[j].neighbors) {
              n.id = router_.to_global(fan->shard[j], n.id);
              merged.push_back(n);
            }
        std::sort(merged.begin(), merged.end(),
                  [](const Neighbor& a, const Neighbor& b) {
                    if (a.sq_dist != b.sq_dist) return a.sq_dist < b.sq_dist;
                    return a.id < b.id;
                  });
        if (merged.size() > batch[i].k) merged.resize(batch[i].k);
        o.neighbors = std::move(merged);
        break;
      }
      case core::OpKind::kRange:
      case core::OpKind::kRadius: {
        for (std::size_t j = 0; j < fan1[i].got.size(); ++j)
          for (const PointId local : fan1[i].got[j].ids)
            o.ids.push_back(router_.to_global(fan1[i].shard[j], local));
        std::sort(o.ids.begin(), o.ids.end());
        break;
      }
      case core::OpKind::kRadiusCount:
        for (const serve::Response& g : fan1[i].got) o.count += g.count;
        break;
      default:
        break;
    }
  }

  // ---- Apply the epoch's updates: point-routed, one shard each, in the
  // bare scheduler's order — ALL inserts first, then ALL erases — so an
  // erase of an id assigned earlier in the same epoch still lands (the gid
  // binds between the waves, exactly when run_updates makes it live).
  struct Upd {
    std::size_t shard = 0;
    bool forwarded = false;
    std::future<serve::Response> fut;
  };
  std::vector<Upd> upd(batch.size());
  bool changed = false;
  std::fill(shard_active.begin(), shard_active.end(), 0);
  for (const std::uint32_t i : updates) {
    serve::Request& q = batch[i];
    if (q.kind != core::OpKind::kInsert) continue;
    const std::size_t s = part.shard_of(q.point);
    upd[i].shard = s;
    upd[i].forwarded = true;
    upd[i].fut = scheds_[s]->submit(
        serve::Request(static_cast<const core::Request&>(q)), now);
    shard_active[s] = 1;
  }
  active.clear();
  for (std::size_t s = 0; s < K; ++s)
    if (shard_active[s]) active.push_back(s);
  pump_shards(active, now);
  // Batch order = global id assignment order (per-shard local ids arrive in
  // per-shard submission order, so the cursors line up deterministically).
  for (const std::uint32_t i : updates) {
    if (!upd[i].forwarded) continue;
    serve::Response got = upd[i].fut.get();
    if (!got.ok()) {
      resp[i].error = got.error;
    } else if (got.inserted_id != kInvalidPoint) {
      resp[i].inserted_id =
          router_.bind_inserted(upd[i].shard, got.inserted_id);
      changed = true;
    }
  }

  std::fill(shard_active.begin(), shard_active.end(), 0);
  for (const std::uint32_t i : updates) {
    serve::Request& q = batch[i];
    if (q.kind != core::OpKind::kErase) continue;
    auto [s, local] = router_.locate(q.id);
    if (s >= K) {
      if (K == 1) {
        // Pass-through deployment: global == local, and the bare scheduler
        // forwards never-assigned ids to the tree too (byte-identity).
        s = 0;
        local = q.id;
      } else {
        resp[i].erased = false;  // never assigned: ignored
        continue;
      }
    }
    serve::Request sr(core::Request::erase(local));
    upd[i].shard = s;
    upd[i].forwarded = true;
    upd[i].fut = scheds_[s]->submit(std::move(sr), now);
    shard_active[s] = 1;
  }
  active.clear();
  for (std::size_t s = 0; s < K; ++s)
    if (shard_active[s]) active.push_back(s);
  pump_shards(active, now);
  for (const std::uint32_t i : updates) {
    if (batch[i].kind != core::OpKind::kErase || !upd[i].forwarded) continue;
    serve::Response got = upd[i].fut.get();
    if (!got.ok()) {
      resp[i].error = got.error;
      continue;
    }
    resp[i].erased = got.erased;
    if (got.erased) changed = true;
  }
  if (changed) {
    router_.note_update();
    ++stats_.epochs;
  }
  // Updates become visible in the (possibly unchanged) post-batch epoch —
  // the same rule as BatchScheduler::run_updates.
  for (const std::uint32_t i : updates) resp[i].epoch = router_.epoch();

  // ---- Resolve.
  std::uint64_t done = now;  // virtual time: completion at the pump tick
  if (cfg_.clock) {
    const std::uint64_t c = cfg_.clock();
    if (c < now)
      ++stats_.clock_regressions;  // clamp: never complete before dispatch
    else
      done = c;
  }
  ++stats_.batches;
  stats_.reads += reads.size();
  stats_.updates += updates.size();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    resp[i].complete_tick = done;
    stats_.queue_latency.record(sat_sub(now, resp[i].submit_tick));
    stats_.service_latency.record(sat_sub(done, resp[i].submit_tick));
    ++stats_.completed;
    batch[i].promise.set_value(std::move(resp[i]));
  }
  return batch.size();
}

void Frontend::stop() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  std::lock_guard<std::mutex> lk(mu_);
  pump_locked(last_pump_tick_, /*flush_all=*/true);
  for (auto& s : scheds_) s->stop();
}

std::uint64_t Frontend::epoch() const { return router_.epoch(); }

std::size_t Frontend::shards() const {
  std::lock_guard<std::mutex> lk(mu_);
  return scheds_.size();
}

FrontendStats Frontend::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  FrontendStats out = stats_;
  out.submitted = submitted_.load(std::memory_order_acquire);
  out.rejected = rejected_.load(std::memory_order_acquire);
  out.shards = serve::ServeStats{};
  for (const auto& s : scheds_) out.shards.merge(s->stats());
  return out;
}

serve::ServeStats Frontend::shard_stats(std::size_t s) const {
  std::lock_guard<std::mutex> lk(mu_);
  return scheds_[s]->stats();
}

std::vector<serve::BatchLog> Frontend::shard_batch_log(std::size_t s) const {
  std::lock_guard<std::mutex> lk(mu_);
  return scheds_[s]->batch_log();
}

Router::ReshardReport Frontend::split_shard(std::size_t s) {
  std::lock_guard<std::mutex> lk(mu_);
  return split_shard_locked(s);
}

Router::ReshardReport Frontend::split_shard_locked(std::size_t s) {
  // Every earlier epoch has fully resolved (pump executes epochs to
  // completion), so no in-flight request can observe the boundary move;
  // requests still queued are routed with the new partition at admission.
  Router::ReshardReport rep = router_.split_shard(s);
  scheds_.push_back(make_sched(rep.target));
  ++stats_.resharded;
  return rep;
}

// ---------------------------------------------------------------------------
// AutoReshardPolicy
// ---------------------------------------------------------------------------
AutoReshardPolicy::AutoReshardPolicy(Frontend& fe, AutoReshardConfig cfg)
    : fe_(fe), cfg_(cfg) {
  cfg_.validate();
  snapshot_baseline();
}

void AutoReshardPolicy::snapshot_baseline() {
  const std::size_t K = fe_.scheds_.size();
  shard_baseline_.resize(K);
  for (std::size_t s = 0; s < K; ++s)
    shard_baseline_[s] = fe_.router_.shard_tree(s).metrics().load_report();
}

core::EpochController::Outcome AutoReshardPolicy::on_epoch_boundary(
    std::uint64_t reads, std::uint64_t writes) {
  Outcome out;
  ++epochs_;
  ops_seen_ += reads + writes;
  const std::size_t K = fe_.scheds_.size();
  if (K >= cfg_.max_shards) return out;
  if (ops_seen_ < cfg_.min_ops) return out;
  if (splits_ != 0 && epochs_ - last_split_epoch_ < cfg_.min_epoch_gap)
    return out;

  // Observe: per-shard comm deltas since the last planning round. For a
  // single shard the cross-shard comparison is vacuous, so the within-shard
  // per-module imbalance (one hot module sets the epoch cost) is the signal.
  shard_baseline_.resize(K);  // manual split_shard() may have grown the fleet
  std::vector<std::uint64_t> comm(K, 0);
  std::uint64_t sum = 0;
  double single_shard_imbalance = 0.0;
  for (std::size_t s = 0; s < K; ++s) {
    const pim::LoadReport delta = fe_.router_.shard_tree(s)
                                      .metrics()
                                      .load_report()
                                      .delta_since(shard_baseline_[s]);
    for (const std::uint64_t c : delta.comm) comm[s] += c;
    sum += comm[s];
    if (K == 1) single_shard_imbalance = delta.comm_summary().imbalance;
  }

  // Decide: hottest shard, ties to the lowest index.
  std::size_t hot = 0;
  for (std::size_t s = 1; s < K; ++s)
    if (comm[s] > comm[hot]) hot = s;
  const double mean = static_cast<double>(sum) / static_cast<double>(K);
  const bool overloaded =
      K == 1 ? single_shard_imbalance > cfg_.overload_ratio
             : sum > 0 &&
                   static_cast<double>(comm[hot]) > cfg_.overload_ratio * mean;

  // Apply. An unsplittable shard (< 2 live points, or all coincident) is a
  // skip, not an error — the stream may make it splittable later.
  if (overloaded) {
    try {
      const Router::ReshardReport rep = fe_.split_shard_locked(hot);
      out.changed = true;
      out.words = rep.moved_words;
      ++splits_;
      last_split_epoch_ = epochs_;
    } catch (const PimError&) {
    }
  }
  // The planning window closes whether or not anything split.
  snapshot_baseline();
  return out;
}

}  // namespace pimkd::router
