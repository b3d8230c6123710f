// Durability manager: checkpoint generations + WAL rotation + recovery
// (DESIGN.md §10).
//
// On-disk layout of a durability directory:
//
//   MANIFEST                 commit point: the current generation g
//   checkpoint-<g>.ckpt      atomic snapshot (durability/checkpoint.hpp)
//   wal-<g>.log              frames applied after checkpoint-<g>
//   checkpoint-<g-1>.ckpt,   previous generation, kept so recovery can fall
//   wal-<g-1>.log            back if checkpoint-<g> turns out damaged
//
// Invariants: the MANIFEST is installed (tmp + fsync + rename + dir fsync)
// only after checkpoint-<g> and wal-<g> are durably on disk, so whatever
// generation it names is complete. wal-<g-1> is fully synced before
// generation g is cut, so only the *newest* WAL may legitimately end in a
// torn tail. Frame seqs are contiguous across generations; checkpoint-<g>
// records the last seq it folds in, and wal-<g> starts at the next one.
//
// Sync policies (what an acked write is guaranteed to survive):
//   kEveryBatch  fdatasync before the batch's futures resolve: every acked
//                write survives SIGKILL and power loss.
//   kEveryEpoch  sync when the frame advanced the tree's mutation epoch. In
//                the current scheduler every applied batch advances the
//                epoch, so this coincides with kEveryBatch; the policy
//                exists for future multi-batch epochs and is benchmarked
//                separately anyway.
//   kNone        no explicit sync. Appends still reach the page cache, so
//                acked writes survive SIGKILL (the kernel keeps the data);
//                they can be lost to power failure or kernel panic.
//
// Recovery (recover_from): read MANIFEST -> load checkpoint-<g> -> replay
// wal-<g>, truncating a torn tail at the first bad CRC. If checkpoint-<g>
// itself is damaged, fall back to generation g-1 and replay both WALs.
// Replay is idempotent: a frame whose epoch is <= the tree's
// mutation_epoch is already folded in and is skipped, so replaying a tail
// twice — or recovering twice — yields byte-identical trees.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "durability/wal.hpp"
#include "pim/status.hpp"

namespace pimkd::core {
class PimKdTree;
}

namespace pimkd::durability {

enum class SyncPolicy : std::uint8_t { kEveryBatch, kEveryEpoch, kNone };

inline const char* sync_policy_name(SyncPolicy p) {
  switch (p) {
    case SyncPolicy::kEveryBatch: return "every-batch";
    case SyncPolicy::kEveryEpoch: return "every-epoch";
    case SyncPolicy::kNone: return "none";
  }
  return "?";
}

struct ManagerConfig {
  std::string dir;
  SyncPolicy sync = SyncPolicy::kEveryBatch;
  // Take a checkpoint (generation rotation) every N tree-epoch advances;
  // 0 = only explicit checkpoint() calls.
  std::uint64_t checkpoint_every_epochs = 0;
  // Torn-tail fault injection hook for the WAL writer (tests); non-owning.
  pim::FaultInjector* faults = nullptr;
};

struct ManagerStats {
  std::uint64_t frames = 0;       // WAL frames appended
  std::uint64_t wal_bytes = 0;    // bytes appended across generations
  std::uint64_t syncs = 0;        // fdatasync calls issued
  std::uint64_t checkpoints = 0;  // generation rotations (incl. the initial)
  std::uint64_t last_seq = 0;     // seq of the last appended frame
  std::uint64_t generation = 0;
};

struct RecoveryResult {
  std::unique_ptr<core::PimKdTree> tree;
  std::uint64_t generation = 0;       // generation actually recovered from
  std::uint64_t checkpoint_epoch = 0; // watermark of the loaded checkpoint
  std::uint64_t last_seq = 0;         // acknowledged frontier (last frame)
  std::uint64_t frames_replayed = 0;
  bool torn = false;                  // newest WAL had a torn tail
  std::uint64_t torn_bytes = 0;       // bytes truncated from it
  bool fell_back = false;             // checkpoint-<g> damaged; used g-1
  std::uint64_t state_hash = 0;       // Checkpoint::hash of the result
};

class Manager {
 public:
  // Initializes a fresh durability directory: creates it if missing, takes
  // the initial checkpoint of `tree` and opens generation 1's WAL.
  // kFailedPrecondition if a MANIFEST already exists — re-initializing would
  // silently discard the durable history; use recover_from + attach.
  static Status create(ManagerConfig cfg, const core::PimKdTree& tree,
                       std::unique_ptr<Manager>& out);

  // Resumes logging after recover_from: cuts a fresh generation from the
  // recovered tree (so the repaired state is itself durable) and continues
  // the frame seq sequence past rec.last_seq.
  static Status attach(ManagerConfig cfg, const core::PimKdTree& tree,
                       const RecoveryResult& rec, std::unique_ptr<Manager>& out);

  // Appends one applied-batch frame and applies the sync policy. Fail-stop:
  // after any error the manager refuses further appends (kDataLoss) — the
  // caller must stop acking writes.
  Status log_batch(std::uint64_t epoch_after, std::uint64_t base_point_id,
                   std::vector<Point> inserts, std::vector<PointId> erases);

  // Generation rotation: sync the old WAL, save a checkpoint, open a new
  // WAL, move the MANIFEST, drop generation g-2's files.
  Status checkpoint(const core::PimKdTree& tree);
  // checkpoint() iff cfg.checkpoint_every_epochs > 0 and the tree's epoch
  // has advanced that far since the last one. `taken` reports the decision.
  Status maybe_checkpoint(const core::PimKdTree& tree, bool* taken = nullptr);

  // Forces an fdatasync regardless of policy (scheduler stop()).
  Status sync();

  bool failed() const;
  ManagerStats stats() const;
  const ManagerConfig& config() const { return cfg_; }

  // --- Recovery (free of any Manager instance) -------------------------------
  static Status recover_from(const std::string& dir, RecoveryResult& out);

  // Replays WAL frames onto `tree` in order, skipping frames whose epoch the
  // tree has already reached (the idempotence rule). A frame that should
  // apply but whose insert base does not match the tree's next_point_id is
  // kCorruptState. Exposed for recovery tests; recover_from uses it.
  static Status replay_frames(core::PimKdTree& tree,
                              const std::vector<WalFrame>& frames,
                              std::uint64_t* frames_applied = nullptr);

  // Path helpers (tests poke at the files directly).
  static std::string checkpoint_path(const std::string& dir, std::uint64_t g);
  static std::string wal_path(const std::string& dir, std::uint64_t g);
  static std::string manifest_path(const std::string& dir);

 private:
  Manager(ManagerConfig cfg, int dim) : cfg_(std::move(cfg)), dim_(dim) {}

  Status log_frame_locked(WalFrame&& f);
  Status rotate_locked(const core::PimKdTree& tree);

  ManagerConfig cfg_;
  int dim_ = 0;

  mutable std::mutex mu_;
  std::uint64_t gen_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t last_ckpt_epoch_ = 0;
  std::uint64_t last_sync_epoch_ = 0;
  std::unique_ptr<WalWriter> writer_;
  bool failed_ = false;
  ManagerStats stats_;
};

}  // namespace pimkd::durability
