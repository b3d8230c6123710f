#include "router/frontend.hpp"

#include <exception>
#include <unordered_set>
#include <utility>

namespace pimkd::router {

Frontend::Frontend(Router& router, FrontendConfig cfg)
    : router_(router),
      cfg_(std::move(cfg)),
      adm_("router", router_.config().tree.dim, cfg_.policy, cfg_.batch_size,
           cfg_.deadline_ticks, cfg_.max_batch),
      epoch_(router_.epoch()) {}

Frontend::~Frontend() { stop(); }

std::future<serve::Response> Frontend::submit(serve::Request r,
                                              std::uint64_t now_tick) {
  return adm_.submit(std::move(r), now_tick);
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
  const Status s = adm_.advance(now);
  if (!s.ok()) throw PimError(s);
  std::size_t total = 0;
  char reason = '?';
  while (const std::size_t take = adm_.due(now, flush_all, reason))
    total += execute_epoch(adm_.take(take), now);
  return total;
}

std::size_t Frontend::execute_epoch(std::vector<serve::Request> batch,
                                    std::uint64_t now) {
  std::vector<serve::Response> resp(batch.size());
  std::vector<core::Request> reads;
  std::vector<Point> pts;
  std::vector<PointId> ids;
  std::vector<std::size_t> read_at, insert_at, erase_at;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    resp[i].kind = batch[i].kind;
    resp[i].submit_tick = batch[i].submit_tick;
    resp[i].dispatch_tick = now;
    resp[i].epoch = epoch_;  // updates are re-stamped below
    switch (batch[i].kind) {
      case core::OpKind::kInsert:
        insert_at.push_back(i);
        pts.push_back(batch[i].point);
        break;
      case core::OpKind::kErase:
        erase_at.push_back(i);
        ids.push_back(batch[i].id);
        break;
      default:
        read_at.push_back(i);
        reads.push_back(batch[i]);
        break;
    }
  }

  // ---- Reads: the epoch's snapshot on every shard.
  if (!reads.empty()) {
    Router::Fanout fan;
    std::vector<core::Response> out;
    try {
      out = router_.query(reads, &fan);
    } catch (const std::exception& ex) {
      out.assign(reads.size(), core::Response{});
      for (core::Response& o : out) o.error = ex.what();
    }
    for (std::size_t j = 0; j < read_at.size(); ++j) {
      serve::Response& o = resp[read_at[j]];
      o.error = std::move(out[j].error);
      o.neighbors = std::move(out[j].neighbors);
      o.ids = std::move(out[j].ids);
      o.count = out[j].count;
    }
    stats_.single_shard_reads += fan.single_shard_reads;
    stats_.fanout_reads += fan.fanout_reads;
    stats_.knn_second_phase += fan.knn_second_phase;
  }

  // ---- Updates, in the bare scheduler's order: all inserts, then all
  // erases.
  bool changed = false;
  if (!pts.empty()) {
    try {
      const std::vector<PointId> gids = router_.insert(pts);
      for (std::size_t j = 0; j < insert_at.size(); ++j)
        resp[insert_at[j]].inserted_id = gids[j];
      changed = true;
    } catch (const std::exception& ex) {
      for (const std::size_t i : insert_at) resp[i].error = ex.what();
    }
  }
  if (!ids.empty()) {
    // Per-request verdict: the first claim of a live id in the batch wins.
    std::unordered_set<PointId> claimed;
    for (std::size_t j = 0; j < erase_at.size(); ++j)
      resp[erase_at[j]].erased =
          router_.is_live(ids[j]) && claimed.insert(ids[j]).second;
    try {
      router_.erase(ids);
      changed = changed || !claimed.empty();
    } catch (const std::exception& ex) {
      for (const std::size_t i : erase_at) resp[i].error = ex.what();
    }
  }
  if (changed) {
    ++epoch_;
    ++stats_.epochs;
  }
  for (const std::size_t i : insert_at) resp[i].epoch = epoch_;
  for (const std::size_t i : erase_at) resp[i].epoch = epoch_;

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
  stats_.reads += read_at.size();
  stats_.updates += insert_at.size() + erase_at.size();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    resp[i].complete_tick = done;
    stats_.queue_latency.record(serve::sat_sub(now, resp[i].submit_tick));
    stats_.service_latency.record(serve::sat_sub(done, resp[i].submit_tick));
    ++stats_.completed;
    batch[i].promise.set_value(std::move(resp[i]));
  }
  return batch.size();
}

void Frontend::stop() {
  adm_.close();
  std::lock_guard<std::mutex> lk(mu_);
  pump_locked(adm_.last_tick(), /*flush_all=*/true);
  adm_.reject_queued(adm_.last_tick());
}

std::uint64_t Frontend::epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epoch_;
}

std::size_t Frontend::shards() const {
  std::lock_guard<std::mutex> lk(mu_);
  return router_.shards();
}

FrontendStats Frontend::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  FrontendStats out = stats_;
  out.submitted = adm_.submitted();
  out.rejected = adm_.rejected();
  out.ticks_rejected = adm_.ticks_rejected();
  return out;
}

Router::ReshardReport Frontend::split_shard(std::size_t s) {
  // Every earlier epoch has fully resolved (pump executes epochs to
  // completion), so no in-flight request can observe the boundary move;
  // requests still queued are routed with the new partition at admission.
  std::lock_guard<std::mutex> lk(mu_);
  Router::ReshardReport rep = router_.split_shard(s);
  ++epoch_;
  ++stats_.resharded;
  return rep;
}

}  // namespace pimkd::router
