// Online caching-mode switches (PimKdTree::set_caching_mode) and the
// adaptive replication controller that drives them. See replication.hpp for
// the design rationale.
#include "core/replication.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pim/trace.hpp"
#include "util/stats.hpp"

namespace pimkd::core {

// ---------------------------------------------------------------------------
// PimKdTree::set_caching_mode — incremental pair-cache retrofit.
//
// A caching mode only decides, per finished non-Group-0-replicated component,
// whether the (ancestor a, member d) pairs carry a top-down copy (d on
// h(a)) and/or a bottom-up copy (a on h(d)); masters and Group-0 P-way
// replication are mode-independent. So a switch is exactly a per-direction
// diff: walk every component with the same ancestor-stack enumeration
// materialize_pair_caches uses, shipping the pairs the new mode adds and
// dropping the pairs it retires. DistStore charges the shipped words (and
// refunds storage for drops), so after the walk the distributed state — and
// the storage ledger — are indistinguishable from a fresh build under the
// new mode.
// ---------------------------------------------------------------------------
PimKdTree::ReplicationReport PimKdTree::set_caching_mode(CachingMode mode) {
  ReplicationReport rep;
  rep.from = cfg_.caching;
  rep.to = mode;
  if (mode == cfg_.caching) return rep;
  const CachingMode old = cfg_.caching;
  cfg_.caching = mode;
  if (root_ == kNoNode) return rep;  // nothing materialized yet

  pim::TraceScope span(sys_.metrics(), "replication", pool_.size());
  pim::RoundGuard round(sys_.metrics());
  const std::uint64_t comm0 = sys_.metrics().snapshot().communication;
  ++mutation_epoch_;  // reads must not straddle the re-replication

  std::vector<NodeId> comp_roots;
  pool_.for_each([&](const NodeRec& rec) {
    if (rec.comp_root == rec.id) comp_roots.push_back(rec.id);
  });
  for (const NodeId cr : comp_roots) {
    const NodeRec& rrec = pool_.at(cr);
    if (!rrec.comp_finished) continue;  // delayed comps hold masters only
    const int group = rrec.group;
    if (group == 0 && cfg_.replicate_group0 && cfg_.cached_groups != 0)
      continue;  // P-way replication is mode-independent
    const CacheFlags oldf = cache_flags(group, old);
    const CacheFlags newf = cache_flags(group, mode);
    const bool add_td = newf.topdown && !oldf.topdown;
    const bool del_td = oldf.topdown && !newf.topdown;
    const bool add_bu = newf.bottomup && !oldf.bottomup;
    const bool del_bu = oldf.bottomup && !newf.bottomup;
    if (!(add_td || del_td || add_bu || del_bu)) continue;
    std::vector<NodeId> anc_stack;
    auto walk = [&](auto&& self, NodeId nid) -> void {
      for (const NodeId a : anc_stack) {
        if (add_td) {
          store_.add_copy(nid, store_.master_of(a));
          ++rep.copies_added;
        }
        if (del_td) {
          store_.remove_one_copy(nid, store_.master_of(a));
          ++rep.copies_removed;
        }
        if (add_bu) {
          store_.add_copy(a, store_.master_of(nid));
          ++rep.copies_added;
        }
        if (del_bu) {
          store_.remove_one_copy(a, store_.master_of(nid));
          ++rep.copies_removed;
        }
      }
      const NodeRec& rec = pool_.at(nid);
      if (rec.is_leaf()) return;
      anc_stack.push_back(nid);
      if (pool_.at(rec.left).comp_root == cr) self(self, rec.left);
      if (pool_.at(rec.right).comp_root == cr) self(self, rec.right);
      anc_stack.pop_back();
    };
    walk(walk, cr);
  }
  rep.words = sys_.metrics().snapshot().communication - comm0;
  op_stats_.words_replication += rep.words;
  return rep;
}

// ---------------------------------------------------------------------------
// AdaptiveReplicationController
// ---------------------------------------------------------------------------
void validate_replication_config(const ReplicationConfig& cfg) {
  if (!(cfg.ewma > 0.0 && cfg.ewma <= 1.0))
    throw std::invalid_argument(
        "ReplicationConfig.ewma: must be in (0, 1]");
  if (!(cfg.hysteresis >= 1.0))
    throw std::invalid_argument(
        "ReplicationConfig.hysteresis: must be >= 1");
  if (!(cfg.skew_weight >= 0.0))
    throw std::invalid_argument(
        "ReplicationConfig.skew_weight: must be >= 0");
}

Status try_validate_replication_config(const ReplicationConfig& cfg) {
  try {
    validate_replication_config(cfg);
  } catch (const std::invalid_argument& ex) {
    return Status::Error(StatusCode::kInvalidArgument, ex.what());
  }
  return Status::Ok();
}

AdaptiveReplicationController::AdaptiveReplicationController(
    PimKdTree& tree, ReplicationConfig cfg)
    : tree_(tree),
      cfg_(cfg),
      report_at_last_epoch_(tree.metrics().load_report()) {
  validate_replication_config(cfg_);
}

double AdaptiveReplicationController::pairs_per_node() const {
  const NodePool& pool = tree_.pool();
  const std::uint64_t nn = pool.size();
  if (nn == 0) return 0.0;
  if (hbar_nodes_ != ~0ull &&
      nn >= hbar_nodes_ - hbar_nodes_ / 8 &&
      nn <= hbar_nodes_ + hbar_nodes_ / 8)
    return hbar_;
  const PimKdConfig& c = tree_.config();
  std::uint64_t pairs = 0;
  pool.for_each([&](const NodeRec& rec) {
    if (rec.comp_root != rec.id || !rec.comp_finished) return;
    if (rec.group == 0 && c.replicate_group0 && c.cached_groups != 0) return;
    if (!(c.cached_groups < 0 || rec.group < c.cached_groups)) return;
    std::uint64_t depth = 0;  // strict in-component ancestors of the visit
    auto walk = [&](auto&& self, NodeId nid) -> void {
      pairs += depth;
      const NodeRec& r = pool.at(nid);
      if (r.is_leaf()) return;
      ++depth;
      if (pool.at(r.left).comp_root == rec.id) self(self, r.left);
      if (pool.at(r.right).comp_root == rec.id) self(self, r.right);
      --depth;
    };
    walk(walk, rec.id);
  });
  hbar_ = static_cast<double>(pairs) / static_cast<double>(nn);
  hbar_nodes_ = nn;
  return hbar_;
}

std::array<double, 4> AdaptiveReplicationController::predict(
    double fr, double skew) const {
  const PimKdConfig& c = tree_.config();
  const double n = std::max<double>(static_cast<double>(tree_.size()), 2.0);
  const double P = std::max<double>(static_cast<double>(tree_.P()), 2.0);
  const double logn = std::log2(n);
  const int gstar = log_star2(P);
  const int G = c.cached_groups < 0
                    ? gstar
                    : std::min(c.cached_groups, gstar);
  // Cost of a traversal in a cached direction: G + log^(G) P component-
  // boundary hops (Theorem 5.1). With no cached groups every mode descends
  // edge-by-edge, so caching buys nothing.
  const double ll = G == 0 ? logn
                           : std::min(logn, static_cast<double>(G) +
                                                ilog2(P, G));
  const double hbar = pairs_per_node();
  // Un-cached directions concentrate traffic on master modules; measured
  // skew therefore penalizes them (replicas spread hot paths).
  const double skew_pen = 1.0 + cfg_.skew_weight * std::max(skew - 1.0, 0.0);
  std::array<double, 4> cost{};
  for (int mi = 0; mi < 4; ++mi) {
    const auto mode = static_cast<CachingMode>(mi);
    const bool td =
        mode == CachingMode::kTopDown || mode == CachingMode::kDual;
    const bool bu =
        mode == CachingMode::kBottomUp || mode == CachingMode::kDual;
    const double down = td ? ll : logn * skew_pen;
    const double up = bu ? ll : logn * skew_pen;
    const double read = cfg_.read_base + cfg_.descent_weight * down +
                        cfg_.ascent_weight * up;
    const double write =
        cfg_.write_base * logn +
        hbar * ((td ? cfg_.td_write : 0.0) + (bu ? cfg_.bu_write : 0.0));
    cost[static_cast<std::size_t>(mi)] = fr * read + (1.0 - fr) * write;
  }
  return cost;
}

AdaptiveReplicationController::Decision
AdaptiveReplicationController::on_epoch(std::uint64_t reads,
                                        std::uint64_t writes) {
  Decision d;
  d.epoch = ++epochs_;
  const std::uint64_t total = reads + writes;
  if (total > 0) {
    const double sample =
        static_cast<double>(reads) / static_cast<double>(total);
    read_frac_ = read_frac_ < 0.0
                     ? sample
                     : (1.0 - cfg_.ewma) * read_frac_ + cfg_.ewma * sample;
    ops_seen_ += total;
  }
  d.read_fraction = read_frac_ < 0.0 ? 0.0 : read_frac_;

  // Comm skew (max/mean) of the per-module words moved since the last epoch,
  // through the shared LoadReport vocabulary (pim/metrics.hpp).
  pim::LoadReport report = tree_.metrics().load_report();
  const pim::LoadReport delta = report.delta_since(report_at_last_epoch_);
  std::uint64_t mx = 0, sum = 0;
  for (const std::uint64_t c : delta.comm) {
    mx = std::max(mx, c);
    sum += c;
  }
  d.comm_skew = sum > 0 ? static_cast<double>(mx) *
                              static_cast<double>(delta.comm.size()) /
                              static_cast<double>(sum)
                        : 1.0;
  report_at_last_epoch_ = std::move(report);

  d.predicted = predict(d.read_fraction, d.comm_skew);
  const auto cur = static_cast<std::size_t>(tree_.config().caching);
  std::size_t best = cur;
  for (std::size_t m = 0; m < d.predicted.size(); ++m)
    if (d.predicted[m] < d.predicted[best]) best = m;  // ties: lowest index
  d.chosen = tree_.config().caching;
  const bool warm = read_frac_ >= 0.0 && ops_seen_ >= cfg_.min_ops;
  const bool spaced =
      switches_ == 0 || epochs_ - last_switch_epoch_ >= cfg_.min_epoch_gap;
  if (best != cur && warm && spaced &&
      d.predicted[cur] > cfg_.hysteresis * d.predicted[best]) {
    const auto rep =
        tree_.set_caching_mode(static_cast<CachingMode>(best));
    d.switched = true;
    d.switch_words = rep.words;
    d.chosen = static_cast<CachingMode>(best);
    last_switch_epoch_ = epochs_;
    ++switches_;
  }
  last_ = d;
  return d;
}

}  // namespace pimkd::core
