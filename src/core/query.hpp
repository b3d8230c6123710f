// Shared request/response vocabulary for batched operations.
//
// Promoted out of src/serve/request.hpp so that the serving layer, the
// benches, and direct embedders all speak one request language. A
// core::Request is a *payload only* — kind plus the operand fields the kind
// uses. The serving layer wraps it with delivery bookkeeping (a std::promise
// and submit tick, see serve/request.hpp); core callers hand spans of them
// straight to PimKdTree::query().
//
// PimKdTree::query() is the single canonical grouping/dispatch path for read
// kinds (kKnn / kRange / kRadius / kRadiusCount): requests are grouped by
// parameter key in first-appearance order and executed through the public
// batch entry points, so its cost ledger is byte-identical to a hand-batched
// run. Update kinds (kInsert / kErase) are left untouched by query() — batch
// updates need id assignment and duplicate-erase arbitration that belong to
// the caller's update path (see serve::BatchScheduler::run_updates).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kdtree/bruteforce.hpp"  // Neighbor
#include "util/geometry.hpp"

namespace pimkd::core {

enum class OpKind : std::uint8_t {
  kInsert,
  kErase,
  kKnn,
  kRange,
  kRadius,
  kRadiusCount,
};

inline const char* op_name(OpKind k) {
  switch (k) {
    case OpKind::kInsert: return "insert";
    case OpKind::kErase: return "erase";
    case OpKind::kKnn: return "knn";
    case OpKind::kRange: return "range";
    case OpKind::kRadius: return "radius";
    case OpKind::kRadiusCount: return "radius_count";
  }
  return "?";
}

inline bool is_update(OpKind k) {
  return k == OpKind::kInsert || k == OpKind::kErase;
}

struct Response {
  OpKind kind{};
  // For reads: the epoch whose snapshot the operation observed. For
  // updates: the first epoch in which the effect is visible (admission
  // epoch + 1). See DESIGN.md §8. Left 0 by PimKdTree::query(); stamped by
  // the serving layer.
  std::uint64_t epoch = 0;
  std::string error;  // empty on success
  bool ok() const { return error.empty(); }

  // Result payload (the field matching `kind` is set).
  PointId inserted_id = kInvalidPoint;      // kInsert
  bool erased = false;                      // kErase: id was live and removed
  std::vector<Neighbor> neighbors;          // kKnn
  std::vector<PointId> ids;                 // kRange / kRadius
  std::size_t count = 0;                    // kRadiusCount

  // Latency bookkeeping in serving-layer ticks (nanoseconds under a wall
  // clock, virtual logical time in the deterministic tests). Untouched by
  // PimKdTree::query(); stamped by serve::BatchScheduler.
  std::uint64_t submit_tick = 0;
  std::uint64_t dispatch_tick = 0;
  std::uint64_t complete_tick = 0;
};

struct Request {
  OpKind kind{};
  Point point;                  // kInsert / kKnn / kRadius* payload
  PointId id = kInvalidPoint;   // kErase
  Box box;                      // kRange
  std::size_t k = 1;            // kKnn
  double eps = 0.0;             // kKnn: (1+eps)-approximate
  Coord radius = 0;             // kRadius / kRadiusCount

  static Request insert(const Point& p) {
    Request r;
    r.kind = OpKind::kInsert;
    r.point = p;
    return r;
  }
  static Request erase(PointId id) {
    Request r;
    r.kind = OpKind::kErase;
    r.id = id;
    return r;
  }
  static Request knn(const Point& q, std::size_t k, double eps = 0.0) {
    Request r;
    r.kind = OpKind::kKnn;
    r.point = q;
    r.k = k;
    r.eps = eps;
    return r;
  }
  static Request range(const Box& b) {
    Request r;
    r.kind = OpKind::kRange;
    r.box = b;
    return r;
  }
  static Request radius_report(const Point& c, Coord rad) {
    Request r;
    r.kind = OpKind::kRadius;
    r.point = c;
    r.radius = rad;
    return r;
  }
  static Request radius_count(const Point& c, Coord rad) {
    Request r;
    r.kind = OpKind::kRadiusCount;
    r.point = c;
    r.radius = rad;
    return r;
  }
};

}  // namespace pimkd::core
