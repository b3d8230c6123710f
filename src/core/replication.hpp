// Adaptive replication: live, ledger-driven selection of the Figure-2
// intra-group caching strategy.
//
// The four CachingModes trade communication asymmetrically (Figure 2 /
// Theorem 5.1): top-down caches make root-to-leaf descents cost
// G + log^(G) P boundary hops instead of log2 n, bottom-up chains do the
// same for upward walks (kNN backtracking), and every cached direction
// multiplies the *write* cost — each replica of a node must receive counter
// broadcasts, leaf-payload refreshes, and re-materialization traffic. A
// static mode chosen at construction is therefore wrong as soon as the
// workload's read/write mix drifts (PIM-tree [VLDB'23] makes the same
// observation for skew): read-heavy streams want dual-way caching,
// write-heavy streams want no caching at all.
//
// AdaptiveReplicationController closes the loop. Once per serving epoch it
// samples, from the sharded pim::Metrics ledger and the op stream:
//   * the read/write mix (EWMA-smoothed),
//   * the per-module communication skew of the finished epoch
//     (max/mean of the lifetime per-module comm delta),
//   * the live tree shape (n, P, effective cached groups G, and the average
//     in-component ancestor count h̄ — the measured replication factor).
// It then evaluates the §5 trade-off formula as a *prior* over the four
// modes and switches the tree via PimKdTree::set_caching_mode() — but only
// through a hysteresis gate (a predicted win below `hysteresis` or a switch
// within `min_epoch_gap` epochs is ignored), so re-replication cost cannot
// thrash. All decisions are pure functions of the op stream and ledger
// totals, which are thread-count-invariant, so adaptive runs stay
// byte-deterministic across PIMKD_THREADS.
//
// Wiring: serve::BatchScheduler runs one controller when configured with
// controllers.replication, feeding it at epoch boundaries only (reads admitted in
// an epoch never straddle a mode switch — set_caching_mode bumps the
// query-visible mutation_epoch). Benches drive it manually.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/pim_kdtree.hpp"
#include "pim/metrics.hpp"

namespace pimkd::core {

struct ReplicationConfig {
  // EWMA factor for the observed read fraction (weight of the new sample).
  double ewma = 0.35;
  // Hysteresis: switch only when predicted(current)/predicted(best) exceeds
  // this ratio. 1.0 = greedy (still rate-limited by min_epoch_gap).
  double hysteresis = 1.15;
  // Minimum epochs between two switches (amortizes re-replication cost).
  std::uint64_t min_epoch_gap = 2;
  // Do not decide before this many operations have been sampled.
  std::uint64_t min_ops = 64;
  // How strongly measured per-module comm skew inflates the predicted cost
  // of un-cached traversal directions (replicas spread hot paths; masters
  // concentrate them). 0 disables the skew term.
  double skew_weight = 0.25;

  // Cost-model weights. The *shape* is §5's formula (cached descents cost
  // G + log^(G) P hops instead of log2 n; each cached direction multiplies
  // write amplification by the measured pair density h̄); the *weights* are
  // calibrated against this repo's measured Figure-2 workloads
  // (bench_fig2_caching), which show two asymmetries the raw formula
  // misses: (a) batched push-pull kNN pays mostly for the descent — the
  // backtracking half is largely module-local, so bottom-up chains save
  // little communication; (b) a top-down copy is ~2x as expensive to keep
  // fresh as a bottom-up one, because descendant copies include leaf
  // payloads that every refresh re-ships.
  //   read(mode)  = read_base + descent_weight·down + ascent_weight·up
  //                 (down/up = ll when that direction is cached, else
  //                 log2 n inflated by the skew penalty)
  //   write(mode) = write_base·log2 n + h̄·(td_write·[topdown]
  //                 + bu_write·[bottomup])
  double read_base = 5.0;
  double descent_weight = 0.5;
  double ascent_weight = 0.01;
  double write_base = 3.7;
  double td_write = 33.0;
  double bu_write = 16.0;
};

// Throwing entry point ⇔ try_ Status twin (DESIGN.md §9.5): validate() names
// the offending field; try_validate() is the no-throw form.
void validate_replication_config(const ReplicationConfig& cfg);
Status try_validate_replication_config(const ReplicationConfig& cfg);

class AdaptiveReplicationController {
 public:
  explicit AdaptiveReplicationController(PimKdTree& tree,
                                         ReplicationConfig cfg = {});

  // One record per on_epoch() call (introspection: benches/tests).
  struct Decision {
    std::uint64_t epoch = 0;           // controller epoch (sample index)
    double read_fraction = 0;          // EWMA-smoothed
    double comm_skew = 1;              // max/mean module comm, last epoch
    std::array<double, 4> predicted{}; // §5-prior cost/op, by CachingMode
    CachingMode chosen{};              // mode in force after this epoch
    bool switched = false;
    std::uint64_t switch_words = 0;    // re-replication comm when switched
  };

  // Epoch-boundary hook: feed the finished epoch's op counts; the controller
  // reads the ledger for skew, updates the mix EWMA, evaluates the prior and
  // applies at most one hysteresis-gated mode switch. Returns the decision.
  Decision on_epoch(std::uint64_t reads, std::uint64_t writes);

  CachingMode mode() const { return tree_.config().caching; }
  const Decision& last_decision() const { return last_; }
  std::uint64_t switches() const { return switches_; }
  std::uint64_t epochs() const { return epochs_; }

  // The §5-prior predicted per-op communication (arbitrary units — only the
  // ratios matter) for each mode under read fraction `fr` and module-comm
  // skew `skew`, evaluated against the live tree shape. Exposed for tests
  // and the bench's convergence report.
  std::array<double, 4> predict(double fr, double skew) const;

 private:
  double pairs_per_node() const;  // measured h̄, cached per tree version

  PimKdTree& tree_;
  ReplicationConfig cfg_;

  double read_frac_ = -1.0;  // < 0 until the first sample lands
  std::uint64_t ops_seen_ = 0;
  std::uint64_t epochs_ = 0;
  std::uint64_t last_switch_epoch_ = 0;
  std::uint64_t switches_ = 0;
  pim::LoadReport report_at_last_epoch_;  // lifetime sample, last epoch
  Decision last_;

  // h̄ cache: recomputed when the pool size drifts >12.5% from the size it
  // was measured at (h̄ is a shape statistic; it moves with rebuilds, not
  // with every batch).
  mutable double hbar_ = 0.0;
  mutable std::uint64_t hbar_nodes_ = ~0ull;
};

}  // namespace pimkd::core
