#include "router/router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "pim/trace.hpp"

namespace pimkd::router {

namespace {

[[noreturn]] void bad_field(const char* field, const std::string& why) {
  throw std::invalid_argument(std::string("RouterConfig::") + field + " " + why);
}

constexpr Coord kInf = std::numeric_limits<Coord>::infinity();

// Deterministic stride sample: every ceil(n/cap)-th point, independent of
// thread count and insertion batching.
std::vector<Point> stride_sample(std::span<const Point> pts, std::size_t cap) {
  std::vector<Point> sample;
  if (pts.empty() || cap == 0) return sample;
  const std::size_t step = (pts.size() + cap - 1) / cap;
  sample.reserve(pts.size() / step + 1);
  for (std::size_t i = 0; i < pts.size(); i += step) sample.push_back(pts[i]);
  return sample;
}

}  // namespace

void RouterConfig::validate(std::size_t initial_points) const {
  tree.validate();
  if (shards == 0) bad_field("shards", "must be >= 1 (got 0)");
  if (shards > 1 && initial_points < shards)
    bad_field("shards", "exceeds the point count (" + std::to_string(shards) +
                            " shards, " + std::to_string(initial_points) +
                            " initial points; every partition cell needs at "
                            "least one seed point)");
  if (sample_cap == 0) bad_field("sample_cap", "must be >= 1");
  if (shards > sample_cap)
    bad_field("sample_cap", "must be >= shards (" +
                                std::to_string(sample_cap) + " < " +
                                std::to_string(shards) +
                                "): the partition cannot seed every cell");
}

core::PimKdConfig Router::shard_cfg(std::size_t s) const {
  core::PimKdConfig c = cfg_.tree;
  if (!c.trace_path.empty() && cfg_.shards > 1)
    c.trace_path += ".shard" + std::to_string(s);
  return c;
}

Router::Router(const RouterConfig& cfg, std::span<const Point> initial)
    : cfg_(cfg) {
  cfg_.validate(initial.size());
  if (cfg_.shards == 1) {
    // Pass-through deployment: the partition is one whole-space cell and the
    // single tree is constructed exactly like a bare PimKdTree (the K=1
    // byte-identity contract).
    Point origin{};
    part_ = SpacePartition::build(std::span<const Point>(&origin, 1),
                                  cfg_.tree.dim, 1);
    Shard sh;
    sh.tree = std::make_unique<core::PimKdTree>(shard_cfg(0), initial);
    sh.local_to_global.resize(initial.size());
    id_map_.resize(initial.size());
    for (std::size_t i = 0; i < initial.size(); ++i) {
      sh.local_to_global[i] = static_cast<PointId>(i);
      id_map_[i] = Loc{0, static_cast<PointId>(i)};
    }
    shards_.push_back(std::move(sh));
    return;
  }

  validate_points(initial, cfg_.tree.dim, "Router");
  const std::vector<Point> sample = stride_sample(initial, cfg_.sample_cap);
  part_ = SpacePartition::build(sample, cfg_.tree.dim, cfg_.shards);

  // Route the initial points; global id i == input position i, local ids in
  // per-shard arrival order — the same sequential assignment a single tree
  // would make.
  std::vector<std::vector<Point>> per(cfg_.shards);
  std::vector<std::vector<PointId>> gids(cfg_.shards);
  id_map_.resize(initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    const std::size_t s = part_.shard_of(initial[i]);
    id_map_[i] = Loc{static_cast<std::uint32_t>(s),
                     static_cast<PointId>(per[s].size())};
    per[s].push_back(initial[i]);
    gids[s].push_back(static_cast<PointId>(i));
  }
  shards_.resize(cfg_.shards);
  std::vector<std::size_t> active;
  for (std::size_t s = 0; s < cfg_.shards; ++s) active.push_back(s);
  for_shards(active, [&](std::size_t s) {
    shards_[s].tree = std::make_unique<core::PimKdTree>(shard_cfg(s), per[s]);
  });
  for (std::size_t s = 0; s < cfg_.shards; ++s)
    shards_[s].local_to_global = std::move(gids[s]);
}

Status Router::try_create(const RouterConfig& cfg,
                          std::span<const Point> initial,
                          std::unique_ptr<Router>& out) {
  try {
    out = std::make_unique<Router>(cfg, initial);
    return Status::Ok();
  } catch (const PimError& e) {
    return e.status();
  } catch (const std::invalid_argument& e) {
    return Status::Error(StatusCode::kInvalidArgument, e.what());
  } catch (const std::exception& e) {
    return Status::Error(StatusCode::kUnavailable, e.what());
  }
}

std::size_t Router::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.tree->size();
  return n;
}

bool Router::is_live(PointId gid) const {
  if (gid >= id_map_.size()) return false;
  const Loc& l = id_map_[gid];
  return shards_[l.shard].tree->is_live(l.local);
}

std::pair<std::size_t, PointId> Router::locate(PointId gid) const {
  if (gid >= id_map_.size()) return {shards_.size(), kInvalidPoint};
  const Loc& l = id_map_[gid];
  return {l.shard, l.local};
}

void Router::for_shards(const std::vector<std::size_t>& active,
                        const std::function<void(std::size_t)>& fn) const {
  if (active.empty()) return;
  if (active.size() == 1) {
    for (std::size_t s : active) fn(s);
    return;
  }
  // One thread per active shard. Each shard only touches its own tree and
  // ledger; the shared host pool accepts concurrent run_bulk submissions, so
  // per-shard charges stay single-writer and deterministic.
  std::exception_ptr first_error;
  std::mutex err_mu;
  std::vector<std::thread> threads;
  threads.reserve(active.size());
  for (std::size_t s : active) {
    threads.emplace_back([&, s] {
      try {
        fn(s);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<PointId> Router::insert(std::span<const Point> pts) {
  if (shards_.size() == 1) {
    const std::vector<PointId> locals = shards_[0].tree->insert(pts);
    std::vector<PointId> gids(locals.size());
    for (std::size_t i = 0; i < locals.size(); ++i) {
      gids[i] = static_cast<PointId>(id_map_.size());
      id_map_.push_back(Loc{0, locals[i]});
      shards_[0].local_to_global.push_back(gids[i]);
    }
    if (!pts.empty()) ++epoch_;
    return gids;
  }
  validate_points(pts, cfg_.tree.dim, "Router::insert");
  std::vector<std::vector<Point>> per(shards_.size());
  std::vector<std::size_t> home(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    home[i] = part_.shard_of(pts[i]);
    per[home[i]].push_back(pts[i]);
  }
  std::vector<std::vector<PointId>> locals(shards_.size());
  std::vector<std::size_t> active;
  for (std::size_t s = 0; s < shards_.size(); ++s)
    if (!per[s].empty()) active.push_back(s);
  for_shards(active,
             [&](std::size_t s) { locals[s] = shards_[s].tree->insert(per[s]); });
  // Global ids in input order; per-shard cursors consume the local ids in the
  // same order the points were routed.
  std::vector<std::size_t> cursor(shards_.size(), 0);
  std::vector<PointId> gids(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const std::size_t s = home[i];
    const PointId local = locals[s][cursor[s]++];
    gids[i] = static_cast<PointId>(id_map_.size());
    id_map_.push_back(Loc{static_cast<std::uint32_t>(s), local});
    if (local >= shards_[s].local_to_global.size())
      shards_[s].local_to_global.resize(local + 1, kInvalidPoint);
    shards_[s].local_to_global[local] = gids[i];
  }
  if (!pts.empty()) ++epoch_;
  return gids;
}

void Router::erase(std::span<const PointId> gids) {
  if (shards_.size() == 1) {
    shards_[0].tree->erase(gids);
    if (!gids.empty()) ++epoch_;
    return;
  }
  std::vector<std::vector<PointId>> per(shards_.size());
  for (const PointId gid : gids) {
    if (gid >= id_map_.size()) continue;  // never assigned: ignored
    const Loc& l = id_map_[gid];
    per[l.shard].push_back(l.local);
  }
  std::vector<std::size_t> active;
  for (std::size_t s = 0; s < shards_.size(); ++s)
    if (!per[s].empty()) active.push_back(s);
  for_shards(active, [&](std::size_t s) { shards_[s].tree->erase(per[s]); });
  if (!gids.empty()) ++epoch_;
}

std::vector<core::Response> Router::query(std::span<const core::Request> reqs,
                                          Fanout* fanout) {
  if (shards_.size() == 1) {
    // Pass-through: one sub-batch in submission order through the single
    // tree's canonical grouping path; local ids == global ids. Like
    // PimKdTree::query(), epoch stays 0 — the serving layer stamps it.
    if (fanout)
      for (const core::Request& q : reqs)
        if (!core::is_update(q.kind)) ++fanout->single_shard_reads;
    return shards_[0].tree->query(reqs);
  }

  const int dim = cfg_.tree.dim;
  const std::size_t K = shards_.size();
  std::vector<core::Response> out(reqs.size());

  // Phase-1 routing. sub[s] keeps submission order within each shard;
  // slot[i] records, per request, the (shard, index-in-sub-batch) fan-out.
  struct Target {
    std::size_t shard;
    std::size_t slot;
  };
  std::vector<std::vector<core::Request>> sub(K);
  std::vector<std::vector<Target>> targets(reqs.size());
  std::vector<std::size_t> knn_home(reqs.size(), K);
  const auto route_to = [&](std::size_t i, std::size_t s) {
    targets[i].push_back(Target{s, sub[s].size()});
    sub[s].push_back(reqs[i]);
  };
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const core::Request& q = reqs[i];
    out[i].kind = q.kind;
    if (core::is_update(q.kind)) continue;  // untouched, like tree.query()
    try {
      switch (q.kind) {
        case core::OpKind::kKnn: {
          validate_point(q.point, dim, "Router::knn");
          const std::size_t s = part_.shard_of(q.point);
          knn_home[i] = s;
          route_to(i, s);
          break;
        }
        case core::OpKind::kRange: {
          validate_box(q.box, dim, "Router::range");
          for (std::size_t s = 0; s < K; ++s)
            if (part_.cell_intersects(s, q.box)) route_to(i, s);
          break;
        }
        case core::OpKind::kRadius:
        case core::OpKind::kRadiusCount: {
          validate_point(q.point, dim, "Router::radius");
          validate_radius(q.radius, "Router::radius");
          const Coord r2 = q.radius * q.radius;
          for (std::size_t s = 0; s < K; ++s)
            if (part_.cell_sq_dist(s, q.point) <= r2) route_to(i, s);
          break;
        }
        default:
          break;
      }
    } catch (const std::exception& e) {
      out[i].error = e.what();
      targets[i].clear();
    }
  }

  const auto run_subs = [&](std::vector<std::vector<core::Request>>& subs)
      -> std::vector<std::vector<core::Response>> {
    std::vector<std::vector<core::Response>> resp(K);
    std::vector<std::size_t> active;
    for (std::size_t s = 0; s < K; ++s)
      if (!subs[s].empty()) active.push_back(s);
    for_shards(active, [&](std::size_t s) {
      resp[s] = shards_[s].tree->query(subs[s]);
    });
    return resp;
  };
  std::vector<std::vector<core::Response>> resp1 = run_subs(sub);

  // Two-phase kNN: re-query only the shards whose cell intersects the
  // candidate ball. <= keeps boundary ties in play.
  std::vector<std::vector<core::Request>> sub2(K);
  std::vector<std::vector<Target>> targets2(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].kind != core::OpKind::kKnn || !out[i].error.empty()) continue;
    const std::size_t home = knn_home[i];
    const core::Response& r1 = resp1[home][targets[i][0].slot];
    if (!r1.ok()) continue;
    const Coord ball = r1.neighbors.size() >= reqs[i].k
                           ? r1.neighbors.back().sq_dist
                           : kInf;
    for (std::size_t s = 0; s < K; ++s) {
      if (s == home) continue;
      if (part_.cell_sq_dist(s, reqs[i].point) <= ball) {
        targets2[i].push_back(Target{s, sub2[s].size()});
        sub2[s].push_back(reqs[i]);
      }
    }
  }
  std::vector<std::vector<core::Response>> resp2 = run_subs(sub2);

  // Gather + merge. Shard responses carry local ids; translate before any
  // merge so the tie-break order is the global one.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    core::Response& o = out[i];
    if (core::is_update(o.kind)) continue;
    if (fanout) {
      if (targets[i].size() + targets2[i].size() <= 1)
        ++fanout->single_shard_reads;
      else
        ++fanout->fanout_reads;
      if (!targets2[i].empty()) ++fanout->knn_second_phase;
    }
    if (!o.error.empty()) continue;
    // First shard error (in shard fan-out order) wins, like a failing group
    // inside tree.query() fails its members.
    const auto gather_error = [&](const std::vector<Target>& tg,
                                  std::vector<std::vector<core::Response>>& r) {
      for (const Target& t : tg)
        if (!r[t.shard][t.slot].ok()) {
          o.error = r[t.shard][t.slot].error;
          return true;
        }
      return false;
    };
    if (gather_error(targets[i], resp1) || gather_error(targets2[i], resp2))
      continue;
    switch (o.kind) {
      case core::OpKind::kKnn: {
        std::vector<Neighbor> merged;
        const auto add = [&](const core::Response& r, std::size_t s) {
          for (Neighbor n : r.neighbors) {
            n.id = shards_[s].local_to_global[n.id];
            merged.push_back(n);
          }
        };
        for (const Target& t : targets[i]) add(resp1[t.shard][t.slot], t.shard);
        for (const Target& t : targets2[i])
          add(resp2[t.shard][t.slot], t.shard);
        std::sort(merged.begin(), merged.end(),
                  [](const Neighbor& a, const Neighbor& b) {
                    if (a.sq_dist != b.sq_dist) return a.sq_dist < b.sq_dist;
                    return a.id < b.id;
                  });
        if (merged.size() > reqs[i].k) merged.resize(reqs[i].k);
        o.neighbors = std::move(merged);
        break;
      }
      case core::OpKind::kRange:
      case core::OpKind::kRadius: {
        for (const Target& t : targets[i])
          for (const PointId local : resp1[t.shard][t.slot].ids)
            o.ids.push_back(shards_[t.shard].local_to_global[local]);
        std::sort(o.ids.begin(), o.ids.end());
        break;
      }
      case core::OpKind::kRadiusCount: {
        for (const Target& t : targets[i])
          o.count += resp1[t.shard][t.slot].count;
        break;
      }
      default:
        break;
    }
  }
  return out;
}

Router::ReshardReport Router::split_shard(std::size_t s) {
  if (s >= shards_.size())
    throw std::invalid_argument("Router::split_shard: shard id " +
                                std::to_string(s) + " out of range");
  const int dim = cfg_.tree.dim;
  Shard& src = shards_[s];

  // Live points of the source shard, ascending local id (deterministic).
  std::vector<PointId> live_local;
  std::vector<Point> live_pts;
  for (std::size_t l = 0; l < src.tree->next_point_id(); ++l) {
    const PointId local = static_cast<PointId>(l);
    if (!src.tree->is_live(local)) continue;
    live_local.push_back(local);
    live_pts.push_back(src.tree->point(local));
  }
  if (live_local.size() < 2)
    throw PimError(StatusCode::kFailedPrecondition,
                   "Router::split_shard: shard " + std::to_string(s) +
                       " holds fewer than 2 live points");
  Box bb = bounding_box(live_pts, dim);
  const int d = bb.widest_dim(dim);
  if (!(bb.hi[d] > bb.lo[d]))
    throw PimError(StatusCode::kFailedPrecondition,
                   "Router::split_shard: all live points of shard " +
                       std::to_string(s) + " coincide; no split plane exists");

  // Median split plane over (coordinate, global id) order; points with
  // coordinate >= value move right, matching the partition descent rule.
  std::vector<std::uint32_t> order(live_local.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const Coord ca = live_pts[a][d], cb = live_pts[b][d];
              if (ca != cb) return ca < cb;
              return src.local_to_global[live_local[a]] <
                     src.local_to_global[live_local[b]];
            });
  std::size_t pos = order.size() / 2;
  pos = std::min(std::max<std::size_t>(pos, 1), order.size() - 1);
  const Coord mn = live_pts[order[0]][d];
  while (pos < order.size() && !(live_pts[order[pos]][d] > mn)) ++pos;
  const Coord value = live_pts[order[pos]][d];

  std::vector<PointId> moved_local;
  std::vector<PointId> moved_global;
  std::vector<Point> moved_pts;
  for (const PointId local : live_local) {
    if (src.tree->point(local)[d] >= value) {
      moved_local.push_back(local);
      moved_global.push_back(src.local_to_global[local]);
      moved_pts.push_back(src.tree->point(local));
    }
  }

  // Materialize the new shard: an empty tree filled by one bulk insert — the
  // same host-mirror rebuild path recovery uses — charged to the new shard's
  // ledger inside a "reshard" trace span.
  const std::size_t t = shards_.size();
  Shard dst;
  dst.tree = std::make_unique<core::PimKdTree>(shard_cfg(t));
  std::vector<PointId> new_local;
  {
    pim::TraceScope span(dst.tree->metrics(), "reshard", moved_pts.size());
    new_local = dst.tree->insert(moved_pts);
  }
  const std::uint64_t moved_words =
      dst.tree->metrics().snapshot().communication;
  dst.local_to_global.resize(new_local.size(), kInvalidPoint);
  for (std::size_t i = 0; i < new_local.size(); ++i) {
    dst.local_to_global[new_local[i]] = moved_global[i];
    id_map_[moved_global[i]] =
        Loc{static_cast<std::uint32_t>(t), new_local[i]};
  }
  // Drop the moved points from the source, also inside a "reshard" span.
  {
    pim::TraceScope span(src.tree->metrics(), "reshard", moved_local.size());
    src.tree->erase(moved_local);
  }
  shards_.push_back(std::move(dst));

  const std::size_t new_shard = part_.split_cell(s, d, value);
  (void)new_shard;  // == t by construction (both append)
  ++epoch_;

  ReshardReport rep;
  rep.source = s;
  rep.target = t;
  rep.moved = moved_pts.size();
  rep.split_dim = d;
  rep.split = value;
  rep.moved_words = moved_words;
  rep.partition_epoch = part_.epoch();
  return rep;
}

}  // namespace pimkd::router
