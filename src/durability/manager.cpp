#include "durability/manager.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "core/pim_kdtree.hpp"
#include "durability/checkpoint.hpp"
#include "durability/record_io.hpp"

namespace pimkd::durability {

namespace {

constexpr char kManifestMagic[8] = {'P', 'K', 'D', 'M', 'A', 'N', 'I', '1'};
constexpr std::uint32_t kTagManifest = 0x20;

Status data_loss(const std::string& what) {
  return Status::Error(StatusCode::kDataLoss, "durability: " + what);
}

Status write_manifest(const std::string& dir, std::uint64_t generation) {
  std::vector<std::uint8_t> bytes(kManifestMagic,
                                  kManifestMagic + sizeof kManifestMagic);
  ByteWriter b;
  b.u64(generation);
  append_record(bytes, kTagManifest, b.bytes());
  return write_file_atomic(Manager::manifest_path(dir), bytes);
}

Status read_manifest(const std::string& dir, std::uint64_t& generation) {
  std::vector<std::uint8_t> buf;
  if (Status s = read_file(Manager::manifest_path(dir), buf); !s.ok())
    return s;
  if (buf.size() < sizeof kManifestMagic ||
      std::memcmp(buf.data(), kManifestMagic, sizeof kManifestMagic) != 0)
    return data_loss("bad MANIFEST magic in '" + dir + "'");
  std::size_t pos = sizeof kManifestMagic;
  Record rec;
  if (!read_record(buf, pos, rec) || rec.tag != kTagManifest)
    return data_loss("damaged MANIFEST in '" + dir + "'");
  ByteReader r(rec.body, rec.len);
  if (!r.u64(generation) || r.remaining() != 0 || generation == 0)
    return data_loss("damaged MANIFEST in '" + dir + "'");
  return Status::Ok();
}

std::string gen_name(const char* stem, std::uint64_t g, const char* ext) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s-%06llu%s", stem,
                static_cast<unsigned long long>(g), ext);
  return buf;
}

}  // namespace

std::string Manager::checkpoint_path(const std::string& dir, std::uint64_t g) {
  return dir + "/" + gen_name("checkpoint", g, ".ckpt");
}
std::string Manager::wal_path(const std::string& dir, std::uint64_t g) {
  return dir + "/" + gen_name("wal", g, ".log");
}
std::string Manager::manifest_path(const std::string& dir) {
  return dir + "/MANIFEST";
}

Status Manager::create(ManagerConfig cfg, const core::PimKdTree& tree,
                       std::unique_ptr<Manager>& out) {
  out.reset();
  if (cfg.dir.empty())
    return Status::Error(StatusCode::kInvalidArgument,
                         "durability: empty directory");
  if (::mkdir(cfg.dir.c_str(), 0755) != 0 && errno != EEXIST)
    return Status::Error(StatusCode::kUnavailable,
                         "durability: mkdir '" + cfg.dir +
                             "': " + std::strerror(errno));
  if (file_exists(manifest_path(cfg.dir)))
    return Status::Error(
        StatusCode::kFailedPrecondition,
        "durability: '" + cfg.dir +
            "' already holds a log (recover_from + attach instead of "
            "create: re-initializing would discard the durable history)");

  std::unique_ptr<Manager> m(new Manager(std::move(cfg), tree.config().dim));
  {
    std::lock_guard<std::mutex> lk(m->mu_);
    m->gen_ = 0;  // rotate_locked cuts generation 1
    m->next_seq_ = 1;
    if (Status s = m->rotate_locked(tree); !s.ok()) return s;
  }
  out = std::move(m);
  return Status::Ok();
}

Status Manager::attach(ManagerConfig cfg, const core::PimKdTree& tree,
                       const RecoveryResult& rec,
                       std::unique_ptr<Manager>& out) {
  out.reset();
  std::uint64_t manifest_gen = 0;
  if (Status s = read_manifest(cfg.dir, manifest_gen); !s.ok()) return s;
  std::unique_ptr<Manager> m(new Manager(std::move(cfg), tree.config().dim));
  {
    std::lock_guard<std::mutex> lk(m->mu_);
    // Cut a fresh generation from the recovered tree: the repaired state
    // becomes durable on its own, and the (possibly truncated) old WAL is
    // never appended to again.
    m->gen_ = std::max(manifest_gen, rec.generation);
    m->next_seq_ = rec.last_seq + 1;
    if (Status s = m->rotate_locked(tree); !s.ok()) return s;
  }
  out = std::move(m);
  return Status::Ok();
}

Status Manager::rotate_locked(const core::PimKdTree& tree) {
  if (failed_) return data_loss("manager is fail-stopped");
  // The outgoing WAL must be complete on disk before the new generation
  // exists: recovery assumes only the newest WAL can be torn.
  if (writer_) {
    if (Status s = writer_->sync(); !s.ok()) {
      failed_ = true;
      return s;
    }
    ++stats_.syncs;
  }
  const std::uint64_t g = gen_ + 1;
  Checkpoint::Info info;
  if (Status s = Checkpoint::save(tree, checkpoint_path(cfg_.dir, g),
                                  next_seq_ - 1, &info);
      !s.ok()) {
    failed_ = true;
    return s;
  }
  std::unique_ptr<WalWriter> w;
  if (Status s = WalWriter::create(wal_path(cfg_.dir, g), dim_, g, next_seq_,
                                   cfg_.faults, w);
      !s.ok()) {
    failed_ = true;
    return s;
  }
  // Commit point. After this rename the new generation is the one recovery
  // will use; before it, the old one still is — either way consistent.
  if (Status s = write_manifest(cfg_.dir, g); !s.ok()) {
    failed_ = true;
    return s;
  }
  // Keep two generations (fallback path); drop the third-newest.
  if (g >= 3) {
    ::unlink(checkpoint_path(cfg_.dir, g - 2).c_str());
    ::unlink(wal_path(cfg_.dir, g - 2).c_str());
    (void)sync_dir(cfg_.dir);
  }
  gen_ = g;
  writer_ = std::move(w);
  last_ckpt_epoch_ = tree.mutation_epoch();
  ++stats_.checkpoints;
  stats_.generation = g;
  return Status::Ok();
}

Status Manager::log_frame_locked(WalFrame&& f) {
  if (failed_) return data_loss("manager is fail-stopped");
  f.seq = next_seq_;
  const std::uint64_t before = writer_->offset();
  if (Status s = writer_->append(f); !s.ok()) {
    failed_ = true;
    return s;
  }
  ++next_seq_;
  ++stats_.frames;
  stats_.last_seq = f.seq;
  stats_.wal_bytes += writer_->offset() - before;

  const bool want_sync =
      cfg_.sync == SyncPolicy::kEveryBatch ||
      (cfg_.sync == SyncPolicy::kEveryEpoch && f.epoch > last_sync_epoch_);
  if (want_sync) {
    if (Status s = writer_->sync(); !s.ok()) {
      failed_ = true;
      return s;
    }
    ++stats_.syncs;
    last_sync_epoch_ = f.epoch;
  }
  return Status::Ok();
}

Status Manager::log_batch(std::uint64_t epoch_after,
                          std::uint64_t base_point_id,
                          std::vector<Point> inserts,
                          std::vector<PointId> erases) {
  std::lock_guard<std::mutex> lk(mu_);
  WalFrame f;
  f.epoch = epoch_after;
  f.base_point_id = base_point_id;
  f.inserts = std::move(inserts);
  f.erases = std::move(erases);
  return log_frame_locked(std::move(f));
}

Status Manager::checkpoint(const core::PimKdTree& tree) {
  std::lock_guard<std::mutex> lk(mu_);
  return rotate_locked(tree);
}

Status Manager::maybe_checkpoint(const core::PimKdTree& tree, bool* taken) {
  if (taken) *taken = false;
  std::lock_guard<std::mutex> lk(mu_);
  if (cfg_.checkpoint_every_epochs == 0) return Status::Ok();
  if (tree.mutation_epoch() - last_ckpt_epoch_ < cfg_.checkpoint_every_epochs)
    return Status::Ok();
  if (Status s = rotate_locked(tree); !s.ok()) return s;
  if (taken) *taken = true;
  return Status::Ok();
}

Status Manager::sync() {
  std::lock_guard<std::mutex> lk(mu_);
  if (failed_) return data_loss("manager is fail-stopped");
  if (!writer_) return Status::Ok();
  if (Status s = writer_->sync(); !s.ok()) {
    failed_ = true;
    return s;
  }
  ++stats_.syncs;
  return Status::Ok();
}

bool Manager::failed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return failed_;
}

ManagerStats Manager::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

// --- Recovery -----------------------------------------------------------------

Status Manager::replay_frames(core::PimKdTree& tree,
                              const std::vector<WalFrame>& frames,
                              std::uint64_t* frames_applied) {
  std::uint64_t applied = 0;
  for (const WalFrame& f : frames) {
    // Idempotence rule: every applied frame advanced the tree's mutation
    // epoch past its predecessor's, so a frame whose epoch the tree has
    // already reached is folded into the state (checkpoint or an earlier
    // replay) and must be skipped, not re-applied.
    if (f.epoch <= tree.mutation_epoch()) continue;
    try {
      if (!f.inserts.empty()) {
        if (f.base_point_id != tree.next_point_id())
          return Status::Error(
              StatusCode::kCorruptState,
              "replay: frame " + std::to_string(f.seq) +
                  " expects insert base " + std::to_string(f.base_point_id) +
                  " but the tree is at " +
                  std::to_string(tree.next_point_id()));
        (void)tree.insert(f.inserts);
      }
      if (!f.erases.empty()) tree.erase(f.erases);
    } catch (const std::exception& ex) {
      return Status::Error(StatusCode::kCorruptState,
                           "replay: frame " + std::to_string(f.seq) +
                               " failed to apply: " + ex.what());
    }
    ++applied;
  }
  if (frames_applied) *frames_applied = applied;
  return Status::Ok();
}

namespace {

// Loads checkpoint-<g> and replays wal-<g>; `allow_torn` permits (and
// repairs, by truncation) a damaged tail — legal only for the newest WAL.
Status recover_generation(const std::string& dir, std::uint64_t g,
                          bool allow_torn, std::unique_ptr<core::PimKdTree>& tree,
                          RecoveryResult& out) {
  Checkpoint::Info info;
  if (Status s = Checkpoint::load(Manager::checkpoint_path(dir, g), tree, &info);
      !s.ok())
    return s;
  out.checkpoint_epoch = info.mutation_epoch;
  out.last_seq = info.wal_seq;

  const std::string wal = Manager::wal_path(dir, g);
  WalReadResult wr;
  if (Status s = read_wal(wal, wr); !s.ok()) return s;
  if (wr.generation != g)
    return data_loss("wal '" + wal + "' labels generation " +
                     std::to_string(wr.generation));
  if (wr.start_seq != info.wal_seq + 1)
    return data_loss("wal '" + wal + "' starts at seq " +
                     std::to_string(wr.start_seq) + ", checkpoint ends at " +
                     std::to_string(info.wal_seq));
  if (wr.torn) {
    if (!allow_torn)
      return data_loss("wal '" + wal +
                       "' is torn but is not the newest generation");
    struct stat st{};
    if (::stat(wal.c_str(), &st) == 0 &&
        static_cast<std::uint64_t>(st.st_size) > wr.valid_bytes)
      out.torn_bytes += static_cast<std::uint64_t>(st.st_size) - wr.valid_bytes;
    if (Status s = truncate_wal(wal, wr.valid_bytes); !s.ok()) return s;
    out.torn = true;
  }
  std::uint64_t applied = 0;
  if (Status s = Manager::replay_frames(*tree, wr.frames, &applied); !s.ok())
    return s;
  out.frames_replayed += applied;
  if (!wr.frames.empty()) out.last_seq = wr.frames.back().seq;
  return Status::Ok();
}

}  // namespace

Status Manager::recover_from(const std::string& dir, RecoveryResult& out) {
  out = RecoveryResult{};
  std::uint64_t g = 0;
  if (Status s = read_manifest(dir, g); !s.ok()) return s;

  std::unique_ptr<core::PimKdTree> tree;
  Status newest = recover_generation(dir, g, /*allow_torn=*/true, tree, out);
  if (newest.ok()) {
    out.generation = g;
  } else if (g >= 2 && file_exists(checkpoint_path(dir, g - 1))) {
    // checkpoint-<g> (or its WAL chain) is damaged beyond a torn tail. Fall
    // back one generation: its checkpoint plus its complete WAL reconstruct
    // checkpoint-<g>'s state exactly, and wal-<g> then carries us to the
    // frontier. The epoch-skip rule makes any overlap harmless.
    out = RecoveryResult{};
    tree.reset();
    if (Status s =
            recover_generation(dir, g - 1, /*allow_torn=*/false, tree, out);
        !s.ok())
      return Status::Error(newest.code, newest.message +
                                            "; fallback to generation " +
                                            std::to_string(g - 1) +
                                            " also failed: " + s.message);
    out.fell_back = true;
    out.generation = g - 1;
    // wal-<g> may not exist if the crash hit mid-rotation; that is fine —
    // the manifest's commit point had not moved, so nothing is missing.
    if (file_exists(wal_path(dir, g))) {
      WalReadResult wr;
      if (Status s = read_wal(wal_path(dir, g), wr); !s.ok()) return s;
      if (wr.start_seq != out.last_seq + 1)
        return data_loss("wal generation " + std::to_string(g) +
                         " starts at seq " + std::to_string(wr.start_seq) +
                         " but replay reached " + std::to_string(out.last_seq));
      if (wr.torn) {
        struct stat st{};
        const std::string wal = wal_path(dir, g);
        if (::stat(wal.c_str(), &st) == 0 &&
            static_cast<std::uint64_t>(st.st_size) > wr.valid_bytes)
          out.torn_bytes +=
              static_cast<std::uint64_t>(st.st_size) - wr.valid_bytes;
        if (Status s = truncate_wal(wal, wr.valid_bytes); !s.ok()) return s;
        out.torn = true;
      }
      std::uint64_t applied = 0;
      if (Status s = replay_frames(*tree, wr.frames, &applied); !s.ok())
        return s;
      out.frames_replayed += applied;
      if (!wr.frames.empty()) out.last_seq = wr.frames.back().seq;
    }
  } else {
    return newest;
  }

  out.state_hash = Checkpoint::hash(*tree);
  out.tree = std::move(tree);
  return Status::Ok();
}

}  // namespace pimkd::durability
