// PimKdTree::query — the canonical grouping/dispatch path for heterogeneous
// read batches (core/query.hpp) — plus the Status-returning try_* shims.
//
// The grouping here used to live in serve::BatchScheduler::run_reads; it was
// promoted so every front-end (the scheduler, benches, embedders) batches
// identically. The ledger contract is strict: query() adds no rounds, spans
// or charges of its own — the sequence of Metrics events is exactly the one
// the underlying knn()/range()/radius()/radius_count() calls produce, in the
// canonical group order, so a scheduler dispatch and a hand-batched run stay
// byte-identical.
#include <algorithm>
#include <exception>
#include <stdexcept>

#include "core/pim_kdtree.hpp"

namespace pimkd::core {

std::vector<Response> PimKdTree::query(std::span<const Request> reqs) {
  std::vector<Response> resp(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) resp[i].kind = reqs[i].kind;

  // Canonical grouping: one group per batch call — kNN by (k, eps), all
  // ranges together, kRadius and kRadiusCount by radius — run kind by kind
  // in OpKind order (kNN, range, radius, radius_count), the groups of one
  // kind in first-appearance order. The round/ledger sequence is a pure
  // function of batch contents.
  const auto same_call = [](const Request& a, const Request& b) {
    if (a.kind != b.kind) return false;
    if (a.kind == OpKind::kKnn) return a.k == b.k && a.eps == b.eps;
    return a.kind == OpKind::kRange || a.radius == b.radius;
  };
  std::vector<std::vector<std::size_t>> groups;  // member indices
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].kind == OpKind::kInsert || reqs[i].kind == OpKind::kErase)
      continue;  // update kinds pass through untouched (see header)
    auto g = std::ranges::find_if(groups, [&](const auto& members) {
      return same_call(reqs[members.front()], reqs[i]);
    });
    if (g == groups.end()) g = groups.emplace(groups.end());
    g->push_back(i);
  }
  std::ranges::stable_sort(groups, {}, [&](const auto& members) {
    return reqs[members.front()].kind;
  });

  // Gather the members' arguments, make the group's batch call, scatter
  // result j to member j. A call that throws fails its group alone.
  for (const std::vector<std::size_t>& members : groups) {
    const Request& key = reqs[members.front()];
    std::vector<Point> pts;
    std::vector<Box> boxes;
    for (const std::size_t i : members) {
      if (key.kind == OpKind::kRange)
        boxes.push_back(reqs[i].box);
      else
        pts.push_back(reqs[i].point);
    }
    const auto scatter = [&](auto res, auto field) {
      for (std::size_t j = 0; j < members.size(); ++j)
        resp[members[j]].*field = std::move(res[j]);
    };
    try {
      switch (key.kind) {
        case OpKind::kKnn:
          scatter(knn(pts, key.k, key.eps), &Response::neighbors);
          break;
        case OpKind::kRange:
          scatter(range(boxes), &Response::ids);
          break;
        case OpKind::kRadius:
          scatter(radius(pts, key.radius), &Response::ids);
          break;
        case OpKind::kRadiusCount:
          scatter(radius_count(pts, key.radius), &Response::count);
          break;
        case OpKind::kInsert:
        case OpKind::kErase:
          break;  // never grouped
      }
    } catch (const std::exception& ex) {
      for (const std::size_t i : members) resp[i].error = ex.what();
    }
  }
  return resp;
}

namespace {
// Shared exception -> Status mapping for the try_* surface (pim_kdtree.hpp
// documents it as part of the API contract).
Status status_from_current_exception() {
  try {
    throw;
  } catch (const PimError& ex) {
    return ex.status();
  } catch (const std::invalid_argument& ex) {
    return Status::Error(StatusCode::kInvalidArgument, ex.what());
  } catch (const std::exception& ex) {
    return Status::Error(StatusCode::kUnavailable, ex.what());
  }
}
}  // namespace

Status PimKdTree::try_insert(std::span<const Point> pts,
                             std::vector<PointId>& ids_out) {
  try {
    ids_out = insert(pts);
    return Status::Ok();
  } catch (...) {
    return status_from_current_exception();
  }
}

Status PimKdTree::try_erase(std::span<const PointId> ids) {
  try {
    erase(ids);
    return Status::Ok();
  } catch (...) {
    return status_from_current_exception();
  }
}

Status PimKdTree::try_query(std::span<const Request> reqs,
                            std::vector<Response>& out) {
  try {
    out = query(reqs);
  } catch (...) {
    return status_from_current_exception();
  }
  for (const Response& r : out)
    if (!r.ok())
      return Status::Error(StatusCode::kInvalidArgument, r.error);
  return Status::Ok();
}

}  // namespace pimkd::core
