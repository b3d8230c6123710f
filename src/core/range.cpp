// Orthogonal range and radius queries (§4.3, Lemma 4.7): one walk each,
// templated on the visit policy (core/walk.hpp).
#include <algorithm>

#include "core/walk.hpp"

namespace pimkd::core {

template <class V>
void PimKdTree::range_walk(V& v, NodeId nid, const Box& box,
                           std::vector<PointId>& out) const {
  if (!v.can_visit(nid)) {
    HostVisit host = host_subtree(v.ledger());
    return range_walk(host, nid, box, out);
  }
  const VisitScope<V> scope(v, nid);
  const NodeRec& n = pool_.at(nid);
  if (!box.intersects(n.box, cfg_.dim)) return;
  if (n.is_leaf()) {
    const NodeCold& nc = pool_.cold(nid);
    v.charge_work(nc.leaf_pts.size());
    // Batched containment test over the SoA mirror (bit-identical to
    // Box::contains per lane); the report loop keeps the scalar order.
    std::uint8_t in[kernels::kScanChunk];
    for (std::uint32_t base = 0; base < nc.soa.n; base += kernels::kScanChunk) {
      const std::uint32_t cnt = std::min(kernels::kScanChunk, nc.soa.n - base);
      kernels::leaf_contains(isa_, nc.soa, base, cnt, box.lo.x.data(),
                             box.hi.x.data(), cfg_.dim, in);
      for (std::uint32_t j = 0; j < cnt; ++j) {
        const PointId id = nc.leaf_pts[base + j];
        if (alive_[id] && in[j]) out.push_back(id);
      }
    }
    return;
  }
  pool_.prefetch(n.left);
  pool_.prefetch(n.right);
  range_walk(v, n.left, box, out);
  range_walk(v, n.right, box, out);
}

std::vector<std::vector<PointId>> PimKdTree::range(
    std::span<const Box> boxes) {
  for (const Box& b : boxes) validate_box(b, cfg_.dim, "range");
  pim::TraceScope span(sys_.metrics(), "range", boxes.size());
  pim::RoundGuard round(sys_.metrics());
  std::vector<std::vector<PointId>> out(boxes.size());
  run_queries(boxes.size(), /*grain=*/8, [&](auto& v, std::size_t i) {
    range_walk(v, root_, boxes[i], out[i]);
    std::sort(out[i].begin(), out[i].end());
    return out[i].size();  // each reported point crosses off-chip once
  });
  return out;
}

template <class V>
void PimKdTree::radius_walk(V& v, NodeId nid, const Point& q, Coord r2,
                            std::vector<PointId>* out, std::size_t& cnt) const {
  if (!v.can_visit(nid)) {
    HostVisit host = host_subtree(v.ledger());
    return radius_walk(host, nid, q, r2, out, cnt);
  }
  const VisitScope<V> scope(v, nid);
  const NodeRec& n = pool_.at(nid);
  if (!n.box.intersects_ball(q, r2, cfg_.dim)) return;
  if (n.is_leaf()) {
    const NodeCold& nc = pool_.cold(nid);
    v.charge_work(nc.leaf_pts.size());
    double d2[kernels::kScanChunk];
    for (std::uint32_t base = 0; base < nc.soa.n; base += kernels::kScanChunk) {
      const std::uint32_t c = std::min(kernels::kScanChunk, nc.soa.n - base);
      kernels::leaf_sq_dists(isa_, nc.soa, base, c, q.x.data(), cfg_.dim, d2);
      for (std::uint32_t j = 0; j < c; ++j) {
        const PointId id = nc.leaf_pts[base + j];
        if (!alive_[id]) continue;
        if (d2[j] <= r2) {
          ++cnt;
          if (out) out->push_back(id);
        }
      }
    }
    return;
  }
  pool_.prefetch(n.left);
  pool_.prefetch(n.right);
  radius_walk(v, n.left, q, r2, out, cnt);
  radius_walk(v, n.right, q, r2, out, cnt);
}

std::vector<std::vector<PointId>> PimKdTree::radius(
    std::span<const Point> centers, Coord r) {
  validate_points(centers, cfg_.dim, "radius");
  validate_radius(r, "radius");
  pim::TraceScope span(sys_.metrics(), "radius", centers.size());
  pim::RoundGuard round(sys_.metrics());
  std::vector<std::vector<PointId>> out(centers.size());
  run_queries(centers.size(), /*grain=*/8, [&](auto& v, std::size_t i) {
    std::size_t cnt = 0;
    radius_walk(v, root_, centers[i], r * r, &out[i], cnt);
    std::sort(out[i].begin(), out[i].end());
    return out[i].size();
  });
  return out;
}

std::vector<std::size_t> PimKdTree::radius_count(
    std::span<const Point> centers, Coord r) {
  validate_points(centers, cfg_.dim, "radius_count");
  validate_radius(r, "radius_count");
  pim::TraceScope span(sys_.metrics(), "radius_count", centers.size());
  pim::RoundGuard round(sys_.metrics());
  std::vector<std::size_t> out(centers.size(), 0);
  run_queries(centers.size(), /*grain=*/8, [&](auto& v, std::size_t i) {
    radius_walk(v, root_, centers[i], r * r, nullptr, out[i]);
    return 1;  // the count travels back
  });
  return out;
}

}  // namespace pimkd::core
