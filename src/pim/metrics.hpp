// Cost accounting for the PIM Model [Kang et al., SPAA'21].
//
// The model charges, per BSP round:
//   * CPU work        — instructions executed by the host (instrumented),
//   * PIM time        — max work on any single PIM core in the round,
//   * communication   — total off-chip words moved (to/from all modules),
//   * communication time — max words to/from any single module in the round.
// Lifetime totals accumulate round results (the paper sums per-round maxima).
// Round complexity follows §7: a round that moves more than the CPU cache M
// words counts as ceil(words / M) rounds.
//
// Charging is thread-safe AND contention-free: each worker thread of the
// process-wide ThreadPool owns a cache-line-padded ledger shard (single
// writer, relaxed atomics), while the control thread and foreign threads
// share shard 0 (fetch_add). Shards are flushed into the round counters at
// end_round() on the control thread; every read (snapshot, round/lifetime
// module loads) folds the in-flight shard values in, so mid-round
// introspection sees exactly what the old shared-atomic ledger did. Totals
// are sums of commutative adds and therefore deterministic across thread
// counts. Round boundaries (begin/end) are control points and must be called
// from a single thread. "A single thread" is a serialization requirement,
// not a thread-identity one: a serve scheduler's background pump may drive a
// tree that another thread built, provided the handoff is synchronised. The
// ledger stays byte-identical because the charge sequence is a pure function
// of the executed batch sequence, never of which thread issues it.
//
// Every algorithm in this library runs against a Metrics instance; benches
// diff Snapshots taken before/after an operation batch.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace pimkd::pim {

class TraceSink;  // pim/trace.hpp

// Barrier hook: notified right after a round opens (in_round() is already
// true, so the observer may charge work/comm into the new round). Used by
// PimSystem to apply scheduled fault events at BSP-round barriers.
class RoundObserver {
 public:
  virtual ~RoundObserver() = default;
  virtual void on_round_begin(std::uint64_t round_seq) = 0;
};

struct Snapshot {
  std::uint64_t cpu_work = 0;
  std::uint64_t pim_work = 0;        // total across modules, all rounds
  std::uint64_t pim_time = 0;        // sum over rounds of per-round max work
  std::uint64_t communication = 0;   // total off-chip words
  std::uint64_t comm_time = 0;       // sum over rounds of per-round max words
  std::uint64_t rounds = 0;

  Snapshot operator-(const Snapshot& o) const {
    return Snapshot{cpu_work - o.cpu_work,
                    pim_work - o.pim_work,
                    pim_time - o.pim_time,
                    communication - o.communication,
                    comm_time - o.comm_time,
                    rounds - o.rounds};
  }
  std::string to_string() const;
};

// Per-module load sample: the public vocabulary the benches speak, instead of
// each reading raw ledger counters. Values are lifetime totals — sums of
// commutative adds, so thread-count invariant; a caller that wants activity
// over an interval keeps the previous report and calls delta_since().
struct LoadReport {
  std::vector<std::uint64_t> work;  // per-module lifetime PIM work
  std::vector<std::uint64_t> comm;  // per-module lifetime off-chip words

  LoadSummary work_summary() const { return summarize_load(work); }
  LoadSummary comm_summary() const { return summarize_load(comm); }

  // Activity since `prev` (saturating, so a reset_module_loads() between the
  // two samples degrades to "everything is new" instead of wrapping).
  LoadReport delta_since(const LoadReport& prev) const;
};

class Metrics {
 public:
  Metrics(std::size_t num_modules, std::size_t cache_words);

  std::size_t num_modules() const { return num_modules_; }
  std::size_t cache_words() const { return cache_words_; }

  // --- Round structure (single-threaded control points) ----------------------
  void begin_round();
  void end_round();
  bool in_round() const { return in_round_; }

  // --- Charging (safe from any thread) ---------------------------------------
  void add_cpu_work(std::uint64_t w);
  // Work executed by PIM core m in the current round.
  void add_module_work(std::size_t m, std::uint64_t w);
  // Off-chip words moved to or from module m in the current round.
  void add_comm(std::size_t m, std::uint64_t words);

  // --- Storage (space accounting; not tied to rounds) --------------------------
  void add_storage(std::size_t m, std::int64_t words);
  std::uint64_t total_storage() const;
  LoadSummary storage_balance() const;
  // Module m's state was physically lost (crash): zero its storage ledger and
  // return the number of words that were stored there.
  std::uint64_t clear_storage(std::size_t m);
  // Words currently attributed to module m (integrity checks reconcile this
  // ledger against the physically stored state).
  std::uint64_t module_storage(std::size_t m) const {
    const std::int64_t v = storage_[m].load(std::memory_order_relaxed);
    return v > 0 ? static_cast<std::uint64_t>(v) : 0;
  }

  // --- Reading -------------------------------------------------------------------
  Snapshot snapshot() const;
  std::vector<std::uint64_t> lifetime_module_work() const;
  std::vector<std::uint64_t> lifetime_module_comm() const;
  // Per-module loads accumulated in the *current* round while one is open,
  // or the finished loads of the previous round between rounds (test
  // introspection; matches the pre-sharding ledger's behavior).
  std::vector<std::uint64_t> round_module_work() const;
  std::vector<std::uint64_t> round_module_comm() const;

  LoadSummary work_balance() const {
    return summarize_load(lifetime_module_work());
  }
  LoadSummary comm_balance() const {
    return summarize_load(lifetime_module_comm());
  }

  // One-call load sample (the LoadReport vocabulary above). Folds in-flight
  // shards like the lifetime accessors.
  LoadReport load_report() const {
    return LoadReport{lifetime_module_work(), lifetime_module_comm()};
  }

  // Zeroes ONLY the per-module lifetime work/comm vectors that feed
  // work_balance() / comm_balance() — the scalar Snapshot aggregates
  // (cpu_work, pim_work, pim_time, communication, comm_time, rounds) and the
  // storage ledger are untouched. Use it to scope a balance measurement to
  // the operations that follow; snapshot() diffs remain the way to scope the
  // aggregate counters. Control point: call it outside rounds.
  void reset_module_loads();

  // --- Tracing (pim/trace.hpp) -----------------------------------------------
  // When a sink is attached, end_round() emits one JSONL record per round,
  // labelled with the top of the TraceScope label stack. The sink is not
  // owned; the owner must detach (or outlive) it.
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }
  TraceSink* trace_sink() const { return trace_; }
  // Barrier observer (fault injection). Not owned; detach before it dies.
  void set_round_observer(RoundObserver* obs) { round_observer_ = obs; }
  // Index of the round currently open (or of the next one to open).
  std::uint64_t round_seq() const { return round_seq_; }
  void push_trace_label(std::string label) {
    trace_labels_.push_back(std::move(label));
  }
  void pop_trace_label() {
    if (!trace_labels_.empty()) trace_labels_.pop_back();
  }
  const std::string& trace_label() const {
    static const std::string kEmpty;
    return trace_labels_.empty() ? kEmpty : trace_labels_.back();
  }

 private:
  // Shard cell layout (offsets into one shard's stride):
  //   [0] cpu work, [1] module-work total, [2] comm total,
  //   [3 .. 3+P)      per-module round work,
  //   [3+P .. 3+2P)   per-module round comm.
  static constexpr std::size_t kCellCpu = 0;
  static constexpr std::size_t kCellWorkTotal = 1;
  static constexpr std::size_t kCellCommTotal = 2;
  static constexpr std::size_t kCellWorkBase = 3;
  std::size_t cell_comm_base() const { return kCellWorkBase + num_modules_; }

  std::atomic<std::uint64_t>* shard(std::size_t s) {
    return shards_.data() + s * shard_stride_;
  }
  const std::atomic<std::uint64_t>* shard(std::size_t s) const {
    return shards_.data() + s * shard_stride_;
  }
  // Sum of one cell across all shards (relaxed; exact once the charging
  // threads have synchronized with the reader, e.g. after a run_bulk join).
  std::uint64_t shard_sum(std::size_t cell) const;

  std::size_t num_modules_;
  std::size_t cache_words_;
  bool in_round_ = false;

  // Flushed (control-thread-owned) aggregates; the live value of any counter
  // is its flushed part plus the matching in-flight shard cells.
  std::uint64_t cpu_flushed_ = 0;
  std::uint64_t pim_work_flushed_ = 0;
  std::uint64_t comm_flushed_ = 0;
  std::uint64_t pim_time_ = 0;
  std::uint64_t comm_time_ = 0;
  std::uint64_t rounds_ = 0;

  std::size_t shard_count_;
  std::size_t shard_stride_;  // cells per shard, cache-line padded
  std::vector<std::atomic<std::uint64_t>> shards_;

  // Finished loads of the most recently ended round (what round_module_*
  // report between rounds) and the lifetime accumulations.
  std::vector<std::uint64_t> last_round_work_;
  std::vector<std::uint64_t> last_round_comm_;
  std::vector<std::uint64_t> lifetime_work_;
  std::vector<std::uint64_t> lifetime_comm_;
  std::vector<std::atomic<std::int64_t>> storage_;

  TraceSink* trace_ = nullptr;
  RoundObserver* round_observer_ = nullptr;
  std::vector<std::string> trace_labels_;  // TraceScope stack (control thread)
  std::uint64_t round_seq_ = 0;            // begin/end pairs seen (trace index)
};

// RAII round: begins on construction, ends on destruction. Re-entrant uses
// (already inside a round) are no-ops so helpers can be composed.
class RoundGuard {
 public:
  explicit RoundGuard(Metrics& m) : m_(m), owns_(!m.in_round()) {
    if (owns_) m_.begin_round();
  }
  ~RoundGuard() {
    if (owns_) m_.end_round();
  }
  RoundGuard(const RoundGuard&) = delete;
  RoundGuard& operator=(const RoundGuard&) = delete;

 private:
  Metrics& m_;
  bool owns_;
};

}  // namespace pimkd::pim
