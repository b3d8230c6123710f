// PIM-kd-tree — the paper's primary contribution (§3, §4).
//
// A batch-dynamic, alpha-balanced kd-tree distributed over P simulated PIM
// modules with:
//   * log-star decomposition by subtree size (§3.1, Figure 1),
//   * dual-way intra-group caching (top-down subtree replicas + bottom-up
//     ancestor chains) with Group 0 replicated on all modules (Figure 2),
//   * approximate probabilistic counters as subtree-size metadata (§3.3),
//   * push-pull batched search for skew-resistant load balance (§3.4),
//   * optional delayed construction of oversized Group-1 components (§3.4),
//   * batch construction (Algorithm 2), LeafSearch (Algorithm 4), Insert /
//     Delete with partial reconstruction (§4.2), kNN / (1+eps)-ANN, and
//     orthogonal range / radius queries (§4.3).
// All operations charge the Metrics ledger; benches compare those counters
// against the Table 1 bounds.
//
// Thread safety: the tree is externally synchronised. A batch entry point
// may fan its work out over the internal thread pool, but reads, writes and
// checkpoints of one tree must come from one thread at a time (the serve
// layer runs them all on the thread that pumps its scheduler).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/cursor.hpp"
#include "core/decomposition.hpp"
#include "core/query.hpp"
#include "core/storage.hpp"
#include "core/tree.hpp"
#include "kdtree/bruteforce.hpp"
#include "pim/status.hpp"
#include "pim/system.hpp"
#include "pim/trace.hpp"
#include "util/random.hpp"

namespace pimkd::durability {
class Checkpoint;
}

namespace pimkd::core {

class HostVisit;  // core/walk.hpp

class PimKdTree {
 public:
  explicit PimKdTree(const PimKdConfig& cfg);
  PimKdTree(const PimKdConfig& cfg, std::span<const Point> pts);
  ~PimKdTree();

  PimKdTree(const PimKdTree&) = delete;
  PimKdTree& operator=(const PimKdTree&) = delete;

  // --- Basic accessors -------------------------------------------------------
  const PimKdConfig& config() const { return cfg_; }
  std::size_t size() const { return live_; }
  std::size_t P() const { return sys_.P(); }
  pim::Metrics& metrics() { return sys_.metrics(); }
  const pim::Metrics& metrics() const { return sys_.metrics(); }
  const Point& point(PointId id) const { return all_points_[id]; }
  bool is_live(PointId id) const { return id < alive_.size() && alive_[id]; }
  // Monotone version of the query-visible state: bumped by every batch that
  // changes what reads can observe (insert, erase, set_priorities,
  // finish_delayed_components). Durability keys on it: WAL frames carry the
  // post-apply version, replay skips frames the tree has already reached,
  // and the checkpoint cadence counts it.
  std::uint64_t mutation_epoch() const { return mutation_epoch_; }
  // Total PointIds ever assigned (live + dead) == the id the next insert
  // will hand out (the WAL replay base).
  std::size_t next_point_id() const { return all_points_.size(); }

  // --- Batch-dynamic updates (§4.2) -----------------------------------------
  // Inserts a batch; returns the stable PointIds assigned.
  std::vector<PointId> insert(std::span<const Point> pts);
  // Deletes a batch by id; ids not live are ignored.
  void erase(std::span<const PointId> ids);

  // --- Batched queries (§4.1, §4.3) ------------------------------------------
  // Algorithm 4: the leaf node each query point would reside in.
  std::vector<NodeId> leaf_search(std::span<const Point> queries);
  // Batched k nearest neighbors; eps > 0 gives (1+eps)-approximate kNN.
  std::vector<std::vector<Neighbor>> knn(std::span<const Point> queries,
                                         std::size_t k, double eps = 0.0);
  // Batched orthogonal range query; each result sorted ascending.
  std::vector<std::vector<PointId>> range(std::span<const Box> boxes);
  // Batched radius report / count (used by DPC density computation).
  std::vector<std::vector<PointId>> radius(std::span<const Point> centers,
                                           Coord r);
  std::vector<std::size_t> radius_count(std::span<const Point> centers,
                                        Coord r);

  // --- Unified batch facade (core/query.hpp) ---------------------------------
  // THE canonical grouping/dispatch path for heterogeneous read batches:
  // kKnn requests are grouped by (k, eps) in first-appearance order, then
  // ranges, then kRadius and kRadiusCount groups by radius in
  // first-appearance order, each group executed through the public batch
  // entry point above — so the cost ledger is byte-identical to a
  // hand-batched run and thread-count-invariant. A group that throws fails
  // alone: its members get Response::error, other groups still execute.
  // Update kinds (kInsert/kErase) are returned untouched (kind set, no
  // payload): batch updates belong to insert()/erase(), which assign ids and
  // arbitrate duplicate erases. serve::BatchScheduler's read dispatch is a
  // thin wrapper over this call.
  std::vector<Response> query(std::span<const Request> reqs);

  // --- Priority search (DPC §6.1) --------------------------------------------
  // Attaches a priority to every live point and rebuilds the per-node
  // (max-priority) aggregates bottom-up; must be called before
  // dependent_points. Priorities are indexed by PointId.
  void set_priorities(std::span<const double> priority_by_id);
  // For each query i: the nearest live point whose (priority, id) pair
  // strictly exceeds (query_priority[i], self_id[i]) — the DPC "dependent
  // point". Returns kInvalidPoint when no higher-priority point exists.
  std::vector<Neighbor> dependent_points(std::span<const Point> queries,
                                         std::span<const double> query_priority,
                                         std::span<const PointId> self_id);

  // --- Delayed construction (§3.4) -------------------------------------------
  std::size_t unfinished_components() const { return unfinished_.size(); }
  // Returns the words of communication the finished pair caches shipped.
  std::uint64_t finish_delayed_components();

  // --- Fault handling & recovery (ISSUE: fault-injection subsystem) ----------
  // The underlying simulated system (fault surface: crash/revive, health(),
  // alive bitmap, the FaultInjector when a plan is configured).
  pim::PimSystem<ModuleState>& system() { return sys_; }
  const pim::PimSystem<ModuleState>& system() const { return sys_; }
  // True while at least one module is dead: queries touching it transparently
  // fall back to the host-side mirror (results stay exact) and updates route
  // on the CPU past it.
  bool degraded() const { return sys_.dead_module_count() != 0; }
  // Direct crash hook (tests / soak): wipes module m's state, marks it dead.
  void crash_module(std::size_t m) { sys_.crash_module(m); }

  struct RecoveryReport {
    std::size_t module = 0;
    std::uint64_t copies = 0;          // copy instances restored
    std::uint64_t words = 0;           // words shipped to the module
    std::uint64_t from_replicas = 0;   // sourced from surviving replicas
    std::uint64_t from_host = 0;       // rebuilt from the host point store
    std::uint64_t counters_resynced = 0;
    bool integrity_ok = false;         // check_integrity() after the repair
  };
  // Revives module m and rebuilds its masters/replicas from surviving dual-way
  // replicas plus the host point store, charging the recovery work and words
  // to Metrics inside a "recover" trace span; then repairs any message-loss
  // counter damage and runs check_integrity().
  RecoveryReport recover(std::size_t m);
  // Recovers every dead module (ascending module index).
  std::vector<RecoveryReport> recover_all();
  // Repairs stale replica counters (message-loss damage) without a revive.
  std::uint64_t resync_counters();

  // "fsck" for the distributed tree: master/replica agreement (presence, ref
  // counts, counter sync, leaf payload equality), no orphan physical copies,
  // approximate-counter drift bounds, alive/live bookkeeping, and per-module
  // storage-ledger reconciliation. Read-only; ok=false while any module is
  // dead (the damage is still visible).
  struct IntegrityReport {
    bool ok = true;
    std::vector<std::string> problems;  // first kMaxProblems, human-readable
    std::string to_string() const;
  };
  IntegrityReport check_integrity() const;

  struct DegradedStats {
    std::uint64_t host_fallback_queries = 0;   // whole queries run on the host
    std::uint64_t host_fallback_subtrees = 0;  // subtree visits degraded
    std::uint64_t cpu_routed_batches = 0;      // push targets dead -> CPU route
  };
  DegradedStats degraded_stats() const {
    return DegradedStats{deg_queries_.load(std::memory_order_relaxed),
                         deg_subtrees_.load(std::memory_order_relaxed),
                         deg_routes_.load(std::memory_order_relaxed)};
  }
  void reset_degraded_stats() {
    deg_queries_.store(0, std::memory_order_relaxed);
    deg_subtrees_.store(0, std::memory_order_relaxed);
    deg_routes_.store(0, std::memory_order_relaxed);
  }

  // --- Introspection (tests and benches) -------------------------------------
  // Cumulative update-path event counters (cleared with reset_op_stats).
  struct OpStats {
    std::uint64_t rebuilds = 0;          // partial reconstructions
    std::uint64_t rebuild_points = 0;    // points folded into reconstructions
    std::uint64_t group_changes = 0;     // promotions/demotions applied
    std::uint64_t comps_rematerialized = 0;
    std::uint64_t counter_updates = 0;   // successful Algorithm-3 attempts
    // Communication words by cause (diagnostic; sums to ~total comm).
    std::uint64_t words_materialize = 0;
    std::uint64_t words_rebuild_collect = 0;
    std::uint64_t words_counters = 0;
    std::uint64_t words_route = 0;
    std::uint64_t words_payload = 0;
  };
  const OpStats& op_stats() const { return op_stats_; }
  void reset_op_stats() { op_stats_ = OpStats{}; }

  NodeId root() const { return root_; }
  const NodePool& pool() const { return pool_; }
  const DistStore& store() const { return store_; }
  std::size_t height() const;
  std::size_t num_nodes() const { return pool_.size(); }
  std::span<const double> thresholds() const { return thresholds_; }
  // The leaf-scan kernel ISA this tree dispatches to (resolved once at
  // construction from cfg_.simd / the PIMKD_SIMD env var).
  kernels::Isa kernel_isa() const { return isa_; }
  // Per-group structure (Figure 1 / Lemmas 3.1-3.2).
  std::vector<GroupStats> decomposition_stats() const;
  // Total words stored across modules (Theorem 3.3).
  std::uint64_t storage_words() const { return sys_.metrics().total_storage(); }
  // Validates: exact sizes, counter accuracy vs alpha-balance, group ids
  // derived from counters, component structure, copy placement (masters +
  // caches present exactly where the strategy says), counter replica sync,
  // and leaf payload replication. Aborts via assert/returns false on damage.
  bool check_invariants() const;

 private:
  // Crash-consistent snapshots (src/durability/): serializes / rehydrates the
  // private state below in a canonical order. Lives outside core so the
  // on-disk format stays in one place; the friend grant is the entire
  // core<->durability surface.
  friend class pimkd::durability::Checkpoint;

  // Work-charging targets for build_subtree.
  static constexpr std::size_t kWorkCpu = static_cast<std::size_t>(-1);
  static constexpr std::size_t kWorkByHash = static_cast<std::size_t>(-2);

  // --- Construction machinery (build.cpp) ------------------------------------
  NodeId build_subtree(std::vector<PointId> ids, NodeId parent,
                       std::uint32_t depth, Rng rng, std::size_t work_module);
  // Parallel twin of build_subtree: identical tree, identical NodeId
  // assignment order, identical Metrics charges. Shape and aggregates are
  // computed into a thread-private TmpNode tree by the pool workers; a
  // sequential DFS-preorder flatten then creates the pool nodes and charges
  // the ledger. Falls back to build_subtree for small inputs, a single-thread
  // pool, or when already running on a pool worker.
  struct TmpNode;
  NodeId build_subtree_parallel(std::vector<PointId> ids, NodeId parent,
                                std::uint32_t depth, Rng rng,
                                std::size_t work_module);
  std::unique_ptr<TmpNode> build_tmp(std::vector<PointId> ids, Rng rng) const;
  std::unique_ptr<TmpNode> build_tmp_parallel(std::vector<PointId> ids,
                                              Rng rng) const;
  bool tmp_split(TmpNode& t, std::vector<PointId>& ids, Rng& rng) const;
  NodeId flatten_tmp(TmpNode& t, NodeId parent, std::uint32_t depth,
                     std::size_t work_module);
  bool choose_split(const std::vector<PointId>& ids, const Box& box, Rng& rng,
                    int& out_dim, Coord& out_val) const;
  void full_build(std::vector<PointId> ids);
  NodeId rebuild_subtree(NodeId old_subtree, std::vector<PointId> extra,
                         bool drop_dead);
  // Group / component maintenance.
  void assign_groups_subtree(NodeId subtree);
  void assign_components_subtree(NodeId subtree);
  std::vector<NodeId> component_members(NodeId comp_root) const;
  void materialize_component(NodeId comp_root);
  std::uint64_t materialize_pair_caches(NodeId comp_root);  // words shipped
  void demolish_component(NodeId comp_root);
  // Which caching directions apply to a component in this group (respects
  // CachingMode and the §5 cached_groups knob).
  struct CacheFlags {
    bool topdown = false;
    bool bottomup = false;
  };
  CacheFlags cache_flags(int group) const;
  // Incremental component maintenance: v joins / leaves a component as a
  // member without same-group descendants. Only the pair copies incident to
  // v move; the rest of the component is untouched. Far cheaper than
  // demolish + rematerialize for the common one-node promotions.
  void fast_join_member(NodeId v);   // v.comp_root must already be set
  void fast_leave_member(NodeId v);  // call before changing v's fields
  // Bottom-up chain copies that members of the enclosing component inside
  // `subtree` hold for ancestors outside it — removed before the subtree is
  // destroyed (the rest of their copies die with the registry entries).
  void detach_subtree_from_parent_comp(NodeId subtree_root);
  // Masters + pair copies for fresh-subtree nodes that joined the enclosing
  // component (their comp_root points above the subtree).
  void attach_subtree_to_parent_comp(NodeId subtree_root);
  void demolish_subtree_storage(NodeId subtree);
  void destroy_subtree_mirror(NodeId subtree);
  // Appends the subtree's points to `out`; with `charge`, charges reading
  // them from their masters and returns the words of communication.
  std::uint64_t collect_subtree_points(NodeId subtree,
                                       std::vector<PointId>& out, bool charge);
  void splice(NodeId parent, NodeId old_child, NodeId new_child);
  // Re-derives groups on the root paths above all touched nodes and repairs
  // every component whose membership changed (promotions / demotions, §4.2
  // stage 2). Batched so that a component — in particular the P-way
  // replicated Group 0 — is re-materialized at most once per update batch.
  void repair_groups_batch(const std::vector<NodeId>& touched);
  std::uint64_t push_pull_threshold() const;

  // --- Counters (update.cpp) --------------------------------------------------
  // One Algorithm-3 attempt at `lowest` (the lowest search-path node of its
  // group); on success applies the delta to it and its in-group ancestors and
  // broadcasts to all copies. `sign` is +1 (insert) or -1 (delete).
  void counter_attempt(NodeId lowest, int sign);

  // --- Batched routing (leafsearch.cpp / update.cpp) ---------------------------
  struct RouteStop {
    NodeId node = kNoNode;    // leaf reached, or imbalanced node (updates)
    bool imbalanced = false;
  };
  // Shared group-by-group push-pull descent. `update_sign`: 0 = pure search,
  // +1/-1 = insert/delete helper (counter updates + imbalance detection).
  std::vector<RouteStop> route_batch(std::span<const Point> queries,
                                     int update_sign);
  bool counters_violated(NodeId interior) const;

  // --- Query walks (knn.cpp / range.cpp, machinery in core/walk.hpp) --------
  // One recursion per query kind, templated on the visit policy: a Cursor
  // walks the PIM modules, a HostVisit the host mirror. A Cursor that cannot
  // visit a node (dead module) continues that subtree in the HostVisit
  // instantiation of the same walk, so pruning, tie-breaks and result order
  // exist once and degraded results stay exact.
  template <class V>
  void knn_walk(V& v, NodeId nid, const Point& q, std::vector<Neighbor>& heap,
                std::size_t k, double prune) const;
  template <class V>
  void dep_walk(V& v, NodeId nid, const Point& q, double q_prio, PointId self,
                Neighbor& best) const;
  template <class V>
  void range_walk(V& v, NodeId nid, const Box& box,
                  std::vector<PointId>& out) const;
  template <class V>
  void radius_walk(V& v, NodeId nid, const Point& q, Coord r2,
                   std::vector<PointId>* out, std::size_t& cnt) const;
  // Counts one degraded subtree and returns the host policy charging `led`.
  HostVisit host_subtree(pim::Metrics& led) const;
  // The batch driver of every query entry point: walk(v, i) runs query i from
  // the root under policy v and returns the result words to charge back from
  // its start module. Starts rotate over query_start_modules(); with every
  // module dead each query runs wholly on the host.
  template <class Walk>
  void run_queries(std::size_t n, std::size_t grain, Walk&& walk);
  // Modules a query batch may start on: the alive ones (all of them when
  // healthy; empty when every module is dead).
  std::vector<std::size_t> query_start_modules() const;

  std::size_t height_rec(NodeId nid) const;
  bool check_node_invariants(NodeId nid, std::uint64_t& size_out) const;

  PimKdConfig cfg_;
  // Resolved leaf-scan kernel ISA (bit-identical results either way).
  kernels::Isa isa_ = kernels::Isa::kScalar;
  pim::PimSystem<ModuleState> sys_;
  std::unique_ptr<pim::TraceSink> trace_;  // attached to sys_.metrics()
  NodePool pool_;
  DistStore store_;
  Rng rng_;
  std::vector<double> thresholds_;

  NodeId root_ = kNoNode;
  std::vector<Point> all_points_;
  std::vector<char> alive_;
  std::vector<double> priorities_;  // empty unless set_priorities was called
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;  // high-water mark since the last full rebuild
  std::vector<NodeId> unfinished_;  // delayed-construction component roots
  std::uint64_t mutation_epoch_ = 0;
  OpStats op_stats_;

  // Degraded-mode event counters (atomic: queries charge them from the pool).
  mutable std::atomic<std::uint64_t> deg_queries_{0};
  mutable std::atomic<std::uint64_t> deg_subtrees_{0};
  mutable std::atomic<std::uint64_t> deg_routes_{0};
};

}  // namespace pimkd::core
