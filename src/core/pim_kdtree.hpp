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
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <memory>

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
  // finish_delayed_components). The serving layer (src/serve/) uses it as a
  // const-correct snapshot hook: reads admitted in an epoch assert the
  // version is unchanged across their execution, i.e. the live host mirror
  // really was the epoch's snapshot.
  std::uint64_t mutation_epoch() const { return mutation_epoch_; }
  // Total PointIds ever assigned (live + dead) == the id the next insert
  // will hand out. The pipelined serve scheduler mirrors id assignment with
  // this so batch formation never has to read the (possibly mid-mutation)
  // tree itself.
  std::size_t next_point_id() const { return all_points_.size(); }

  // --- Epoch-pinned reads (serve pipelining, DESIGN.md §8.5) -----------------
  // A ReadPin brackets a read phase: while any pin is held, every mutating
  // batch entry point (insert, erase, set_priorities,
  // finish_delayed_components, set_caching_mode, recover) blocks at its
  // write gate until the pins drop, and pin acquisition blocks while a
  // mutator is inside the gate. valid() re-reads mutation_epoch(): false
  // means a mutation slipped past the gate (an external writer that predates
  // the pin design, or a same-thread mutation) and every result produced
  // under the pin must be discarded — the pipelined scheduler converts such
  // reads to per-request errors instead of returning torn data.
  //
  // Do NOT mutate the tree on a thread that holds a pin: the write gate
  // would wait for the pin forever. Same-thread reentrancy of the gate
  // itself (a mutator calling another mutator) is allowed.
  class ReadPin {
   public:
    ReadPin() = default;
    ReadPin(ReadPin&& o) noexcept : tree_(o.tree_), epoch_(o.epoch_) {
      o.tree_ = nullptr;
    }
    ReadPin& operator=(ReadPin&& o) noexcept {
      if (this != &o) {
        release();
        tree_ = o.tree_;
        epoch_ = o.epoch_;
        o.tree_ = nullptr;
      }
      return *this;
    }
    ReadPin(const ReadPin&) = delete;
    ReadPin& operator=(const ReadPin&) = delete;
    ~ReadPin() { release(); }

    // The mutation_epoch captured at acquisition.
    std::uint64_t epoch() const { return epoch_; }
    // True while no mutation has been applied since the pin was taken.
    bool valid() const { return tree_ && tree_->mutation_epoch() == epoch_; }
    void release();

   private:
    friend class PimKdTree;
    explicit ReadPin(const PimKdTree* t);
    const PimKdTree* tree_ = nullptr;
    std::uint64_t epoch_ = 0;
  };
  ReadPin pin_reads() const { return ReadPin(this); }

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

  // --- Status-based error surface -------------------------------------------
  // Non-throwing twins of insert/erase/query for callers that prefer
  // pimkd::Status over the throw-on-invalid-input path (the signatures above
  // stay the primary API; these are thin shims over them). Mapping:
  // std::invalid_argument -> kInvalidArgument, PimError -> its own status,
  // any other exception -> kUnavailable. The serve layer keeps using the
  // throwing entry points: it validates at submit() and converts in-dispatch
  // exceptions to per-request Response::error itself (serve/scheduler.cpp).
  Status try_insert(std::span<const Point> pts, std::vector<PointId>& ids_out);
  Status try_erase(std::span<const PointId> ids);
  // Runs query(); additionally folds per-request failures into the returned
  // Status (the first failing request's message, kInvalidArgument). All
  // responses are produced either way.
  Status try_query(std::span<const Request> reqs, std::vector<Response>& out);

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

  // --- Adaptive replication (core/replication.hpp) ---------------------------
  struct ReplicationReport {
    CachingMode from{};
    CachingMode to{};
    std::uint64_t copies_added = 0;
    std::uint64_t copies_removed = 0;
    std::uint64_t words = 0;  // re-replication communication charged
  };
  // Switches the intra-group replication strategy (Figure 2) *online*: every
  // finished, non-Group-0-replicated component has its pair caches
  // incrementally retrofitted — copies a direction no longer active held are
  // dropped, copies the new direction requires are shipped (charging comm,
  // work and storage to the ledger inside a "replication" trace span). After
  // the call the distributed state is exactly what a fresh build under
  // `mode` would produce (check_invariants() holds), and the query-visible
  // version (mutation_epoch) is bumped so epoch-versioned serve reads never
  // straddle a switch. A same-mode call is a free no-op. Not thread-safe
  // against concurrent queries — call it between batches (the serve
  // scheduler switches only at epoch boundaries).
  ReplicationReport set_caching_mode(CachingMode mode);

  // --- Live subtree migration (core/migration.cpp) ----------------------------
  struct MigrationReport {
    NodeId comp_root = kNoNode;
    std::size_t from_module = 0;  // master_of(comp_root) before the move
    std::size_t to_module = 0;
    std::size_t nodes_moved = 0;     // component members re-placed
    std::uint64_t copies_moved = 0;  // physical copies shipped at the target
    std::uint64_t words = 0;         // shipping communication charged
  };
  // Moves one finished component's master placement to `to_module` *online*:
  // demolishes the component's copies, pins every member's master to the
  // target via the DistStore remap table, and re-materializes masters and
  // pair caches there — so the distributed state (and the storage ledger) is
  // exactly what a fresh build with that placement would produce. Charges the
  // shipping words inside a "migration" trace span and bumps mutation_epoch
  // so epoch-versioned reads never straddle the move. Throws PimError
  // (kInvalidArgument / kFailedPrecondition) for non-roots, unfinished or
  // Group-0-replicated components, out-of-range or dead targets.
  MigrationReport migrate_component(NodeId comp_root, std::size_t to_module);
  // Status twin (DESIGN.md §13 convention).
  Status try_migrate_component(NodeId comp_root, std::size_t to_module,
                               MigrationReport& out);
  // Grows the read-heat array (DistStore::note_hop) to cover every NodeId
  // allocated so far. Control point: call between batches, never while
  // queries are in flight; the migration planner does this each epoch.
  void enable_heat_tracking() { store_.enable_heat(pool_.next_id()); }

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
    std::uint64_t words_replication = 0;  // online caching-mode switches
    std::uint64_t words_migration = 0;    // live subtree migrations
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
  // --- Write gate (epoch-pinned reads) ---------------------------------------
  // RAII bracket placed at the top of every mutating batch entry point:
  // waits until no ReadPin is held, then marks a writer active so new pins
  // wait in turn. Reentrant on the owning thread (a mutator may call another
  // mutator; only the outermost gate blocks/unblocks).
  struct WriteGate {
    explicit WriteGate(const PimKdTree& t);
    ~WriteGate();
    WriteGate(const WriteGate&) = delete;
    WriteGate& operator=(const WriteGate&) = delete;
    const PimKdTree& tree;
    bool outermost = false;
  };
  friend struct WriteGate;
  friend class ReadPin;
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
  CacheFlags cache_flags(int group) const { return cache_flags(group, cfg_.caching); }
  // Same rule under a hypothetical mode (set_caching_mode diffs old vs new).
  CacheFlags cache_flags(int group, CachingMode mode) const;
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
  void set_counter(NodeId id, double value, bool broadcast);

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

  // Read-pin / write-gate coordination (see ReadPin above). The members are
  // mutable because pinning is logically const: it observes, never mutates.
  mutable std::mutex pin_mu_;
  mutable std::condition_variable pin_cv_;
  mutable std::size_t read_pins_ = 0;
  mutable bool writer_active_ = false;
  mutable std::thread::id writer_thread_{};
};

}  // namespace pimkd::core
