// Horizontal scale-out: K independent PimKdTree instances behind a spatial
// routing tier (DESIGN.md §12).
//
// One PimKdTree models one host + P PIM modules; a Router runs K of them —
// each with its own cost ledger and trace sink — behind a SpacePartition
// that owns the shard boundaries. The router speaks the same
// request vocabulary as the tree (core/query.hpp), so serve layers and
// benches run unmodified against either backend:
//
//   * insert/erase are point-routed: each update touches exactly one shard
//     (the partition cell owning the point / the id's home shard);
//   * range/radius scatter to the shards whose cell intersects the query
//     box/ball and gather by merging the per-shard id lists (sorted
//     ascending, global ids);
//   * kNN is two-phase: phase 1 runs on the home shard only; phase 2
//     re-queries just the shards whose cell intersects the candidate ball
//     (radius = the k-th phase-1 distance, +inf when the home shard held
//     fewer than k points) and the candidates merge by (sq_dist, id) — the
//     same total order the brute-force oracle uses, so boundary ties
//     resolve identically to a single tree.
//
// Ids: the router assigns global PointIds in submission order (exactly like
// a single tree would) and keeps the global <-> (shard, local) mapping;
// shard-local ids never escape. With K == 1 every code path degenerates to a
// pass-through over the single tree — results, ledger and trace are
// byte-identical to a bare PimKdTree, which tests/test_router.cpp pins via
// subprocesses.
//
// The routing tier itself runs on the front-end host and charges nothing to
// any shard ledger: per-shard costs remain exactly the paper-model costs of
// that shard's batches. Determinism: sub-batches preserve submission order,
// per-shard execution charges only that shard's ledger, and every merge is
// by a total order — so results, per-shard ledgers and traces are invariant
// under PIMKD_THREADS and under shard execution order (shards execute their
// sub-batches concurrently, one thread per active shard).
//
// Resharding: split_shard(s) picks the median split plane over shard s's
// live points, materializes a new shard from the right half (the same
// bulk-build path fault recovery uses to rebuild a module from the host
// mirror), erases the moved points from the source — both sides charged to
// their shard ledgers inside "reshard" trace spans — and bumps the partition
// epoch plus the router's mutation epoch, so epoch-stamped responses can
// never be confused across a boundary change.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/pim_kdtree.hpp"
#include "core/query.hpp"
#include "pim/status.hpp"
#include "router/partition.hpp"

namespace pimkd::router {

struct RouterConfig {
  // K: the number of shard trees. 1 is a valid (pass-through) deployment.
  std::size_t shards = 1;
  // Cap on the deterministic stride sample the partition is planned from.
  std::size_t sample_cap = 4096;
  // Per-shard tree configuration. trace_path acts as a stem: shard s writes
  // to trace_path + ".shard<s>" (single-tree runs use the path as-is, so a
  // K=1 trace is byte-comparable to a bare tree's).
  core::PimKdConfig tree;

  // Named-field validation (mirrors PimKdConfig::validate): throws
  // std::invalid_argument naming the offending field for K == 0, K larger
  // than the initial point count, or an unusable sample budget. The
  // degenerate-sample case (ties collapse a cell to zero seed points) is
  // rejected by the partition build with the same field-naming convention.
  void validate(std::size_t initial_points) const;
};

class Router {
 public:
  // Builds the partition from a deterministic stride sample of `initial`,
  // routes the initial points, and bulk-constructs every shard tree.
  // Throws std::invalid_argument on config/partition errors (see
  // RouterConfig::validate).
  Router(const RouterConfig& cfg, std::span<const Point> initial);

  // Non-throwing twin: maps std::invalid_argument -> kInvalidArgument,
  // PimError -> its own status (same mapping as the tree's try_* shims).
  static Status try_create(const RouterConfig& cfg,
                           std::span<const Point> initial,
                           std::unique_ptr<Router>& out);

  // --- Introspection ---------------------------------------------------------
  std::size_t shards() const { return shards_.size(); }
  std::size_t size() const;  // total live points across shards
  // Router mutation epoch: bumped by every applied update batch and by every
  // reshard. Reads stamped with epoch e saw the state as of epoch e.
  std::uint64_t epoch() const { return epoch_; }
  const SpacePartition& partition() const { return part_; }
  core::PimKdTree& shard_tree(std::size_t s) { return *shards_[s].tree; }
  const core::PimKdTree& shard_tree(std::size_t s) const {
    return *shards_[s].tree;
  }
  const RouterConfig& config() const { return cfg_; }

  // --- Id mapping ------------------------------------------------------------
  bool is_live(PointId gid) const;
  // (shard, local id) of a global id; {shards(), kInvalidPoint} when gid was
  // never assigned.
  std::pair<std::size_t, PointId> locate(PointId gid) const;
  // Total global ids ever assigned (live + dead).
  std::size_t next_point_id() const { return id_map_.size(); }

  // --- Batch-dynamic updates -------------------------------------------------
  // Point-routed single-shard fast path; global ids assigned in input order.
  std::vector<PointId> insert(std::span<const Point> pts);
  // Ids not live (or never assigned) are ignored, like PimKdTree::erase.
  void erase(std::span<const PointId> gids);

  // --- Scatter/gather reads --------------------------------------------------
  // How one query() call fanned out, per read request.
  struct Fanout {
    std::uint64_t single_shard_reads = 0;  // answered by at most one shard
    std::uint64_t fanout_reads = 0;        // scattered to >= 2 shards
    std::uint64_t knn_second_phase = 0;    // kNNs that needed a second round
  };
  // Mirrors PimKdTree::query(): read kinds execute (each shard's sub-batch
  // goes through the shard tree's canonical grouping path, in submission
  // order), update kinds are returned untouched. Response ids/neighbors are
  // global; epoch stays 0, stamped by the serving layer (router::Frontend).
  // When `fanout` is set, this call's counts are added to it.
  std::vector<core::Response> query(std::span<const core::Request> reqs,
                                    Fanout* fanout = nullptr);

  // --- Resharding ------------------------------------------------------------
  struct ReshardReport {
    std::size_t source = 0;      // shard that was split
    std::size_t target = 0;      // new shard id (== shards() - 1 afterwards)
    std::size_t moved = 0;       // live points migrated
    int split_dim = 0;
    Coord split = 0;
    std::uint64_t moved_words = 0;      // comm charged building the new shard
    std::uint64_t partition_epoch = 0;  // partition epoch after the split
  };
  // Splits shard s at the median of its live points along the widest live
  // dimension. Throws PimError(kFailedPrecondition) when the shard holds
  // fewer than 2 live points or all live points coincide.
  ReshardReport split_shard(std::size_t s);

 private:
  struct Shard {
    std::unique_ptr<core::PimKdTree> tree;
    std::vector<PointId> local_to_global;  // local id -> global id
  };
  struct Loc {
    std::uint32_t shard = 0;
    PointId local = kInvalidPoint;
  };

  core::PimKdConfig shard_cfg(std::size_t s) const;
  // Runs fn(s) for every shard in `active` — concurrently (one thread per
  // shard) when more than one shard is active, inline otherwise. Rethrows
  // the first exception.
  void for_shards(const std::vector<std::size_t>& active,
                  const std::function<void(std::size_t)>& fn) const;

  RouterConfig cfg_;
  SpacePartition part_;
  std::vector<Shard> shards_;
  std::vector<Loc> id_map_;  // global id -> location
  std::uint64_t epoch_ = 0;
};

}  // namespace pimkd::router
