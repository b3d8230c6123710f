#include "serve/admission.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace pimkd::serve {

namespace {

std::array<std::string, 6> op_names(const std::string& op) {
  std::array<std::string, 6> n;
  for (std::size_t k = 0; k < n.size(); ++k)
    n[k] = op + "." + op_name(static_cast<OpKind>(k));
  return n;
}

}  // namespace

Admission::Admission(const char* op, int dim, Policy policy,
                     std::size_t batch_size, std::uint64_t deadline_ticks,
                     std::size_t max_batch)
    : op_(op),
      names_(op_names(op_)),
      dim_(dim),
      policy_(policy),
      max_batch_(std::max<std::size_t>(max_batch, 1)),
      batch_size_(std::clamp<std::size_t>(batch_size, 1, max_batch_)),
      deadline_ticks_(deadline_ticks) {}

void Admission::validate(const Request& r) const {
  const std::string& op = names_[static_cast<std::size_t>(r.kind)];
  switch (r.kind) {
    case OpKind::kInsert:
      validate_point(r.point, dim_, op.c_str());
      break;
    case OpKind::kErase:
      if (r.id == kInvalidPoint)
        throw std::invalid_argument(op + ": invalid point id");
      break;
    case OpKind::kKnn:
      validate_point(r.point, dim_, op.c_str());
      if (r.k == 0) throw std::invalid_argument(op + ": k must be >= 1");
      if (!(std::isfinite(r.eps) && r.eps >= 0.0))
        throw std::invalid_argument(op + ": eps must be finite and >= 0");
      break;
    case OpKind::kRange:
      validate_box(r.box, dim_, op.c_str());
      break;
    case OpKind::kRadius:
    case OpKind::kRadiusCount:
      validate_point(r.point, dim_, op.c_str());
      validate_radius(r.radius, op.c_str());
      break;
  }
}

void Admission::reject(Request&& r, std::uint64_t tick, const std::string& why) {
  Response resp;
  resp.kind = r.kind;
  resp.error = why;
  resp.submit_tick = tick;
  resp.dispatch_tick = tick;
  resp.complete_tick = tick;
  r.promise.set_value(std::move(resp));
  rejected_.fetch_add(1, std::memory_order_relaxed);
}

std::future<Response> Admission::submit(Request r, std::uint64_t now_tick) {
  r.submit_tick = now_tick;
  std::future<Response> fut = r.promise.get_future();
  try {
    validate(r);
  } catch (const std::exception& ex) {
    reject(std::move(r), now_tick, ex.what());
    return fut;
  }
  if (closed_.load(std::memory_order_acquire)) {
    reject(std::move(r), now_tick, op_ + ": stopped");
    return fut;
  }
  queue_.push(std::move(r));
  submitted_.fetch_add(1, std::memory_order_release);
  return fut;
}

Status Admission::advance(std::uint64_t now) {
  if (now < last_tick_) {
    // A backwards consumer tick would make every queued request look
    // infinitely old (deadline comparisons misfire) — refuse the call.
    ticks_rejected_.fetch_add(1, std::memory_order_relaxed);
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s: non-monotonic consumer tick %llu < %llu",
                  op_.c_str(), static_cast<unsigned long long>(now),
                  static_cast<unsigned long long>(last_tick_));
    return Status::Error(StatusCode::kFailedPrecondition, buf);
  }
  last_tick_ = now;
  Request r;
  while (queue_.pop(r)) {
    while (!oldest_.empty() && oldest_.back() > r.submit_tick) oldest_.pop_back();
    oldest_.push_back(r.submit_tick);
    pending_.push_back(std::move(r));
  }
  return Status::Ok();
}

std::size_t Admission::due(std::uint64_t now, bool flush_all,
                           char& reason) const {
  if (pending_.empty()) return 0;
  if (flush_all) {
    reason = 'f';
    return std::min(pending_.size(), max_batch_);
  }
  const std::size_t target =
      policy_ == Policy::kFixedSize ? batch_size_ : max_batch_;
  if (pending_.size() >= target) {
    reason = 's';
    return target;
  }
  // deadline_ticks == 0 under kDeadline means "dispatch whatever is pending
  // on every pump"; for the size policies 0 turns the fallback off.
  if ((deadline_ticks_ > 0 || policy_ == Policy::kDeadline) &&
      sat_sub(now, oldest_.front()) >= deadline_ticks_) {
    reason = 'd';
    return std::min(pending_.size(), max_batch_);
  }
  return 0;
}

std::vector<Request> Admission::take(std::size_t n) {
  std::vector<Request> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(std::move(pending_.front()));
    pending_.pop_front();
    if (!oldest_.empty() && oldest_.front() == batch.back().submit_tick)
      oldest_.pop_front();
  }
  return batch;
}

void Admission::reject_queued(std::uint64_t tick) {
  Request r;
  while (queue_.pop(r)) reject(std::move(r), tick, op_ + ": stopped");
}

}  // namespace pimkd::serve
