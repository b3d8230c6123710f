// Admission: the request intake both serve tiers share — serve::BatchScheduler
// over one tree and router::Frontend over a Router.
//
// It owns everything that happens to a request before it joins a batch:
//
//   * submit (any thread): stamp the tick, validate the payload (a malformed
//     request fails alone, immediately, with a named op such as "serve.knn"
//     or "router.knn" — the prefix is a constructor argument), and push onto
//     a lock-free MPSC queue; after close() every submit is rejected;
//   * consumer side (one thread at a time, serialized by the owner's pump
//     mutex): refuse a backwards consumer tick (counted in ticks_rejected),
//     drain the queue into the pending deque, and decide when a batch is due
//     — at the policy's size target, on the oldest waiter's deadline, or on
//     a flush.
//
// "Oldest waiter" is the minimum submit tick over everything pending, not the
// queue-order front: multi-producer stamping can interleave out of tick
// order, and a batch must dispatch on the tick the true oldest waiter reaches
// the deadline. A monotone deque keeps that minimum in O(1) amortized.
//
// Admission never reads a tree: the size target is batch_size under
// kFixedSize and max_batch under kDeadline. Zero-valued batch_size /
// max_batch clamp to 1 and batch_size clamps to max_batch, so a legacy zero
// config still serves.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <string>
#include <vector>

#include "parallel/mpsc_queue.hpp"
#include "pim/status.hpp"
#include "serve/request.hpp"

namespace pimkd::serve {

enum class Policy : std::uint8_t {
  kFixedSize,  // dispatch exactly batch_size requests when available
  kDeadline,   // dispatch all pending when the oldest has waited deadline_ticks
};

inline const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kFixedSize: return "fixed";
    case Policy::kDeadline: return "deadline";
  }
  return "?";
}

// Submit stamps are producer-provided and may lag the consumer tick (or the
// wall clock may be read on another core), so tick differences saturate at 0
// instead of wrapping. A backwards *consumer* tick is a refused call
// (Admission::advance), not a saturated subtraction.
inline std::uint64_t sat_sub(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : 0;
}

class Admission {
 public:
  // `op` prefixes validation and rejection messages ("serve", "router");
  // `dim` is the point dimension requests are validated against.
  Admission(const char* op, int dim, Policy policy, std::size_t batch_size,
            std::uint64_t deadline_ticks, std::size_t max_batch);

  Admission(const Admission&) = delete;
  Admission& operator=(const Admission&) = delete;

  // --- Producer side (any thread) ---------------------------------------------
  // The returned future is resolved exactly once.
  std::future<Response> submit(Request r, std::uint64_t now_tick);
  // Every later submit is rejected. Must not race with destruction.
  void close() { closed_.store(true, std::memory_order_release); }

  // --- Consumer side (one thread at a time) -----------------------------------
  // Refuses a tick behind the last one (kFailedPrecondition, counted in
  // ticks_rejected()); otherwise records it and moves the queue into pending.
  Status advance(std::uint64_t now);
  // Size of the batch due at `now` (0 = none); sets `reason` to 's'ize,
  // 'd'eadline or 'f'lush. Never more than max_batch.
  std::size_t due(std::uint64_t now, bool flush_all, char& reason) const;
  // Removes the first n pending requests, in admission order.
  std::vector<Request> take(std::size_t n);
  std::uint64_t last_tick() const { return last_tick_; }
  // Rejects whatever is still queued: the stop() safety net for submissions
  // that raced close(), so no promise is ever broken.
  void reject_queued(std::uint64_t tick);

  std::uint64_t submitted() const {
    return submitted_.load(std::memory_order_acquire);
  }
  std::uint64_t rejected() const {
    return rejected_.load(std::memory_order_acquire);
  }
  std::uint64_t ticks_rejected() const {
    return ticks_rejected_.load(std::memory_order_relaxed);
  }

 private:
  void validate(const Request& r) const;
  void reject(Request&& r, std::uint64_t tick, const std::string& why);

  const std::string op_;
  const std::array<std::string, 6> names_;  // "<op>.<kind>", by OpKind
  const int dim_;
  const Policy policy_;
  const std::size_t max_batch_;
  const std::size_t batch_size_;
  const std::uint64_t deadline_ticks_;

  MpscQueue<Request> queue_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> ticks_rejected_{0};
  std::atomic<bool> closed_{false};

  std::deque<Request> pending_;
  std::deque<std::uint64_t> oldest_;  // monotone min-deque of submit ticks
  std::uint64_t last_tick_ = 0;
};

}  // namespace pimkd::serve
