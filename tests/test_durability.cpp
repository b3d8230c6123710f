// Crash-consistent durability (DESIGN.md §10): checkpoint round-trips, WAL
// framing and torn-tail handling, manager generations + recovery, the
// replay idempotence rule, scheduler integration (acked => durable), and
// cross-thread-count byte determinism of the checkpoint format (custom main,
// subprocess pattern like test_determinism.cpp).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "durability/checkpoint.hpp"
#include "durability/manager.hpp"
#include "durability/record_io.hpp"
#include "durability/wal.hpp"
#include "pim/fault.hpp"
#include "serve/scheduler.hpp"
#include "util/generators.hpp"

namespace {

using namespace pimkd;
using namespace pimkd::durability;

core::PimKdConfig small_cfg(std::size_t P = 8) {
  core::PimKdConfig cfg;
  cfg.dim = 2;
  cfg.leaf_cap = 8;
  cfg.sigma = 64;
  cfg.system.num_modules = P;
  cfg.system.cache_words = 1 << 22;
  cfg.system.seed = 3;
  return cfg;
}

Point pt(Coord x, Coord y) {
  Point p;
  p[0] = x;
  p[1] = y;
  return p;
}

// Scoped temp directory for checkpoint/WAL files.
struct TempDir {
  std::string path;
  TempDir() {
    char buf[] = "/tmp/pimkd_durability_XXXXXX";
    path = mkdtemp(buf);
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    if (!path.empty())
      std::system(("rm -rf '" + path + "'").c_str());
  }
  std::string file(const std::string& name) const { return path + "/" + name; }
};

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::vector<std::uint8_t> out;
  EXPECT_TRUE(read_file(path, out).ok()) << path;
  return out;
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

// A tree with history: bulk build, inserts, erases — leaves dead ids, a
// non-trivial RNG state, and rebuilt subtrees behind.
std::unique_ptr<core::PimKdTree> worked_tree(const core::PimKdConfig& cfg,
                                             std::size_t n = 400) {
  const auto pts = gen_uniform({.n = n, .dim = 2, .seed = 11});
  auto tree = std::make_unique<core::PimKdTree>(cfg, pts);
  const auto more = gen_uniform({.n = n / 4, .dim = 2, .seed = 12});
  (void)tree->insert(more);
  std::vector<PointId> dead;
  for (PointId id = 3; id < n; id += 7) dead.push_back(id);
  tree->erase(dead);
  return tree;
}

// Every query surface compared between two trees.
void expect_same_answers(core::PimKdTree& a, core::PimKdTree& b) {
  const auto qs = gen_uniform({.n = 32, .dim = 2, .seed = 77});
  const auto ka = a.knn(qs, 3);
  const auto kb = b.knn(qs, 3);
  ASSERT_EQ(ka.size(), kb.size());
  for (std::size_t i = 0; i < ka.size(); ++i) {
    ASSERT_EQ(ka[i].size(), kb[i].size()) << "query " << i;
    for (std::size_t j = 0; j < ka[i].size(); ++j)
      EXPECT_EQ(ka[i][j].id, kb[i][j].id) << "query " << i << " rank " << j;
  }
  std::vector<Box> boxes;
  for (int i = 0; i < 8; ++i) {
    Box bx;
    bx.lo = pt(0.1 * i, 0.05 * i);
    bx.hi = pt(0.1 * i + 0.3, 0.05 * i + 0.4);
    boxes.push_back(bx);
  }
  EXPECT_EQ(a.range(boxes), b.range(boxes));
}

// --- record_io ----------------------------------------------------------------

TEST(RecordIo, WriterReaderRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u32(0xDEADBEEF);
  w.u64(1ull << 40);
  w.i32(-12345);
  w.f64(3.25);
  ByteReader r(w.bytes().data(), w.bytes().size());
  std::uint8_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
  std::int32_t d = 0;
  double e = 0;
  EXPECT_TRUE(r.u8(a) && r.u32(b) && r.u64(c) && r.i32(d) && r.f64(e));
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 1ull << 40);
  EXPECT_EQ(d, -12345);
  EXPECT_EQ(e, 3.25);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.u8(a)) << "reads past the end must fail, not fabricate";
}

TEST(RecordIo, RecordRoundTripAndCrcRejection) {
  std::vector<std::uint8_t> buf;
  ByteWriter body;
  body.u64(42);
  append_record(buf, /*tag=*/9, body.bytes());
  append_record(buf, /*tag=*/10, {});

  std::size_t pos = 0;
  Record rec;
  ASSERT_TRUE(read_record(buf, pos, rec));
  EXPECT_EQ(rec.tag, 9u);
  EXPECT_EQ(rec.len, 8u);
  ASSERT_TRUE(read_record(buf, pos, rec));
  EXPECT_EQ(rec.tag, 10u);
  EXPECT_EQ(rec.len, 0u);
  EXPECT_EQ(pos, buf.size());

  // A single flipped bit anywhere in a record (header or body) fails the CRC.
  for (const std::size_t at : {0ul, 5ul, 14ul, buf.size() - 1}) {
    auto bad = buf;
    bad[at] ^= 0x01;
    std::size_t p = 0;
    Record r2;
    const bool first_ok = read_record(bad, p, r2);
    if (at < 24) {
      EXPECT_FALSE(first_ok) << "corruption at byte " << at << " undetected";
    }
  }
  // Truncated mid-record: detected, position untouched.
  std::vector<std::uint8_t> cut(buf.begin(), buf.begin() + 10);
  std::size_t p = 0;
  EXPECT_FALSE(read_record(cut, p, rec));
  EXPECT_EQ(p, 0u);
}

// --- Checkpoint ----------------------------------------------------------------

TEST(Checkpoint, EmptyTreeRoundTrip) {
  TempDir dir;
  core::PimKdTree tree(small_cfg());
  Checkpoint::Info info;
  ASSERT_TRUE(Checkpoint::save(tree, dir.file("c.ckpt"), 0, &info).ok());
  EXPECT_EQ(info.mutation_epoch, 0u);
  EXPECT_EQ(info.state_hash, Checkpoint::hash(tree));

  std::unique_ptr<core::PimKdTree> back;
  Checkpoint::Info info2;
  ASSERT_TRUE(Checkpoint::load(dir.file("c.ckpt"), back, &info2).ok());
  EXPECT_EQ(info2.state_hash, info.state_hash);
  EXPECT_EQ(back->size(), 0u);
  EXPECT_TRUE(back->check_invariants());
  EXPECT_TRUE(back->check_integrity().ok);
}

TEST(Checkpoint, RoundTripIsByteIdenticalAndAnswersMatch) {
  TempDir dir;
  auto cfg = small_cfg(16);
  auto tree = worked_tree(cfg);

  std::vector<std::uint8_t> image;
  Checkpoint::Info info;
  ASSERT_TRUE(Checkpoint::serialize(*tree, /*wal_seq=*/17, image, &info).ok());
  EXPECT_EQ(info.bytes, image.size());
  EXPECT_EQ(info.wal_seq, 17u);
  EXPECT_EQ(info.mutation_epoch, tree->mutation_epoch());
  spit(dir.file("c.ckpt"), image);

  std::unique_ptr<core::PimKdTree> back;
  Checkpoint::Info info2;
  ASSERT_TRUE(Checkpoint::load(dir.file("c.ckpt"), back, &info2).ok());
  EXPECT_EQ(info2.state_hash, info.state_hash);
  EXPECT_EQ(back->size(), tree->size());
  EXPECT_EQ(back->next_point_id(), tree->next_point_id());
  EXPECT_EQ(back->mutation_epoch(), tree->mutation_epoch());
  EXPECT_TRUE(back->check_invariants());
  EXPECT_TRUE(back->check_integrity().ok)
      << back->check_integrity().to_string();

  // Re-serializing the restored tree reproduces the image byte for byte.
  std::vector<std::uint8_t> image2;
  ASSERT_TRUE(Checkpoint::serialize(*back, 17, image2, nullptr).ok());
  EXPECT_EQ(image, image2) << "restored tree serializes differently";
  expect_same_answers(*tree, *back);

  // And identical *future* behaviour: the same update batch leads both trees
  // to the same state (RNG state round-tripped with the snapshot).
  const auto extra = gen_uniform({.n = 64, .dim = 2, .seed = 13});
  (void)tree->insert(extra);
  (void)back->insert(extra);
  EXPECT_EQ(Checkpoint::hash(*tree), Checkpoint::hash(*back))
      << "restored tree diverged from the original on the next batch";
}

TEST(Checkpoint, RoundTripAcrossCachingModes) {
  for (const auto mode :
       {core::CachingMode::kNone, core::CachingMode::kTopDown,
        core::CachingMode::kBottomUp, core::CachingMode::kDual}) {
    TempDir dir;
    auto cfg = small_cfg(16);
    cfg.caching = mode;
    auto tree = worked_tree(cfg, 300);
    ASSERT_TRUE(Checkpoint::save(*tree, dir.file("c.ckpt"), 0, nullptr).ok());
    std::unique_ptr<core::PimKdTree> back;
    ASSERT_TRUE(Checkpoint::load(dir.file("c.ckpt"), back, nullptr).ok());
    EXPECT_EQ(back->config().caching, mode);
    EXPECT_TRUE(back->check_integrity().ok) << core::caching_mode_name(mode);
    EXPECT_EQ(Checkpoint::hash(*tree), Checkpoint::hash(*back))
        << core::caching_mode_name(mode);
    expect_same_answers(*tree, *back);
  }
}

TEST(Checkpoint, DegradedTreeRoundTrips) {
  // A checkpoint taken while a module is dead must restore the dead module,
  // the surviving replicas, and any stale replica counters — recovery of the
  // *module* stays a separate, explicit step.
  TempDir dir;
  auto tree = worked_tree(small_cfg(8));
  tree->crash_module(3);
  ASSERT_TRUE(tree->degraded());

  ASSERT_TRUE(Checkpoint::save(*tree, dir.file("c.ckpt"), 0, nullptr).ok());
  std::unique_ptr<core::PimKdTree> back;
  ASSERT_TRUE(Checkpoint::load(dir.file("c.ckpt"), back, nullptr).ok());
  EXPECT_TRUE(back->degraded());
  EXPECT_EQ(back->system().dead_module_count(), 1u);
  EXPECT_EQ(Checkpoint::hash(*tree), Checkpoint::hash(*back));
  expect_same_answers(*tree, *back);

  // Both repair identically.
  (void)tree->recover(3);
  (void)back->recover(3);
  EXPECT_TRUE(back->check_integrity().ok);
  EXPECT_EQ(Checkpoint::hash(*tree), Checkpoint::hash(*back));
}

TEST(Checkpoint, AnyCorruptByteIsDetected) {
  TempDir dir;
  auto tree = worked_tree(small_cfg(), 120);
  ASSERT_TRUE(Checkpoint::save(*tree, dir.file("c.ckpt"), 0, nullptr).ok());
  const auto bytes = slurp(dir.file("c.ckpt"));
  ASSERT_GT(bytes.size(), 64u);

  // Flip one byte at a spread of offsets: load must fail with kCorruptState,
  // never crash, never return a silently-wrong tree.
  for (std::size_t at = 0; at < bytes.size(); at += bytes.size() / 13 + 1) {
    auto bad = bytes;
    bad[at] ^= 0x40;
    spit(dir.file("bad.ckpt"), bad);
    std::unique_ptr<core::PimKdTree> back;
    const Status s = Checkpoint::load(dir.file("bad.ckpt"), back, nullptr);
    EXPECT_FALSE(s.ok()) << "flip at byte " << at << " loaded successfully";
    EXPECT_EQ(s.code, StatusCode::kCorruptState) << s.message;
  }
  // Truncations too.
  for (const std::size_t keep : {0ul, 7ul, 40ul, bytes.size() - 3}) {
    spit(dir.file("cut.ckpt"),
         std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + keep));
    std::unique_ptr<core::PimKdTree> back;
    EXPECT_FALSE(Checkpoint::load(dir.file("cut.ckpt"), back, nullptr).ok());
  }
}

TEST(Checkpoint, PlacementOverridesAreRejected) {
  // Format v2 ends the storage record with a placement-override count. This
  // build always writes 0 (placement is the hash) and must refuse a
  // checkpoint that carries overrides instead of restoring its nodes to
  // modules they were never placed on.
  TempDir dir;
  auto tree = worked_tree(small_cfg(), 120);
  std::vector<std::uint8_t> image;
  ASSERT_TRUE(Checkpoint::serialize(*tree, 0, image, nullptr).ok());

  constexpr std::size_t kMagicBytes = 8;
  constexpr std::uint32_t kTagStorage = 4;
  std::vector<std::uint8_t> forged(image.begin(), image.begin() + kMagicBytes);
  std::size_t pos = kMagicBytes;
  bool rewrote = false;
  while (pos < image.size()) {
    Record rec;
    ASSERT_TRUE(read_record(image, pos, rec));
    std::vector<std::uint8_t> body(rec.body, rec.body + rec.len);
    if (rec.tag == kTagStorage) {
      ASSERT_GE(body.size(), 8u);
      std::uint64_t count = 1;
      std::memcpy(&count, body.data() + body.size() - 8, 8);
      ASSERT_EQ(count, 0u) << "the writer must emit an empty override list";
      body.resize(body.size() - 8);
      ByteWriter entry;
      entry.u64(1);              // one override ...
      entry.u64(tree->root());   // ... pinning a node that exists
      entry.u32(1);              // ... to an in-range module
      body.insert(body.end(), entry.bytes().begin(), entry.bytes().end());
      rewrote = true;
    }
    append_record(forged, rec.tag, body);  // fresh CRC
  }
  ASSERT_TRUE(rewrote);
  spit(dir.file("forged.ckpt"), forged);

  std::unique_ptr<core::PimKdTree> back;
  const Status s = Checkpoint::load(dir.file("forged.ckpt"), back, nullptr);
  EXPECT_EQ(s.code, StatusCode::kCorruptState) << s.message;
  EXPECT_EQ(s.message,
            "checkpoint: storage record carries placement overrides (live "
            "migration was removed)");
  EXPECT_EQ(back, nullptr);
}

TEST(Checkpoint, FrontierEquality) {
  // The soak test's core check, deterministically: state(checkpoint) + the
  // same update batches == state(live tree), hash-for-hash.
  TempDir dir;
  auto cfg = small_cfg(16);
  auto tree = worked_tree(cfg);
  ASSERT_TRUE(Checkpoint::save(*tree, dir.file("c.ckpt"), 0, nullptr).ok());

  std::unique_ptr<core::PimKdTree> back;
  ASSERT_TRUE(Checkpoint::load(dir.file("c.ckpt"), back, nullptr).ok());
  for (int b = 0; b < 5; ++b) {
    const auto ins =
        gen_uniform({.n = 20, .dim = 2, .seed = 100 + std::uint64_t(b)});
    (void)tree->insert(ins);
    (void)back->insert(ins);
    std::vector<PointId> del = {static_cast<PointId>(10 + 3 * b),
                                static_cast<PointId>(11 + 3 * b)};
    tree->erase(del);
    back->erase(del);
    EXPECT_EQ(Checkpoint::hash(*tree), Checkpoint::hash(*back))
        << "diverged after batch " << b;
  }
  EXPECT_TRUE(back->check_integrity().ok);
}

// --- WAL -----------------------------------------------------------------------

std::vector<WalFrame> sample_frames(std::uint64_t start_seq) {
  std::vector<WalFrame> fs;
  WalFrame f1;
  f1.seq = start_seq;
  f1.epoch = 1;
  f1.base_point_id = 100;
  f1.inserts = {pt(0.1, 0.2), pt(0.3, 0.4), pt(0.5, 0.6)};
  f1.erases = {7, 8};
  fs.push_back(f1);
  WalFrame f2;
  f2.seq = start_seq + 1;
  f2.epoch = 2;
  f2.base_point_id = 103;
  f2.inserts = {pt(0.7, 0.8)};  // insert-only batch
  fs.push_back(f2);
  WalFrame f3;
  f3.seq = start_seq + 2;
  f3.epoch = 3;
  f3.base_point_id = 104;
  f3.erases = {1, 2, 3};  // erase-only batch
  fs.push_back(f3);
  return fs;
}

TEST(Wal, AppendReadRoundTrip) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  std::unique_ptr<WalWriter> w;
  ASSERT_TRUE(
      WalWriter::create(path, /*dim=*/2, /*generation=*/5, /*start_seq=*/40,
                        nullptr, w)
          .ok());
  const auto frames = sample_frames(40);
  for (const auto& f : frames) ASSERT_TRUE(w->append(f).ok());
  ASSERT_TRUE(w->sync().ok());

  WalReadResult rr;
  ASSERT_TRUE(read_wal(path, rr).ok());
  EXPECT_EQ(rr.dim, 2);
  EXPECT_EQ(rr.generation, 5u);
  EXPECT_EQ(rr.start_seq, 40u);
  EXPECT_FALSE(rr.torn);
  EXPECT_EQ(rr.valid_bytes, w->offset());
  ASSERT_EQ(rr.frames.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i)
    EXPECT_EQ(rr.frames[i], frames[i]) << "frame " << i;
}

TEST(Wal, TornTailIsToleratedAndTruncated) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  std::unique_ptr<WalWriter> w;
  ASSERT_TRUE(WalWriter::create(path, 2, 1, 1, nullptr, w).ok());
  const auto frames = sample_frames(1);
  std::uint64_t off_after_two = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(w->append(frames[i]).ok());
    if (i == 1) off_after_two = w->offset();
  }
  ASSERT_TRUE(w->sync().ok());
  const auto bytes = slurp(path);

  // Cut mid-final-frame: first two frames survive, tail reported torn.
  spit(path, std::vector<std::uint8_t>(bytes.begin(),
                                       bytes.begin() + off_after_two + 9));
  WalReadResult rr;
  ASSERT_TRUE(read_wal(path, rr).ok());
  EXPECT_TRUE(rr.torn);
  EXPECT_EQ(rr.valid_bytes, off_after_two);
  ASSERT_EQ(rr.frames.size(), 2u);
  EXPECT_EQ(rr.frames[1], frames[1]);

  // truncate_wal repairs it: a re-read sees a clean log.
  ASSERT_TRUE(truncate_wal(path, rr.valid_bytes).ok());
  WalReadResult rr2;
  ASSERT_TRUE(read_wal(path, rr2).ok());
  EXPECT_FALSE(rr2.torn);
  EXPECT_EQ(rr2.frames.size(), 2u);

  // A flipped bit in the last frame is likewise a torn tail, not data loss.
  spit(path, [&] {
    auto b = bytes;
    b[off_after_two + 20] ^= 0x01;
    return b;
  }());
  WalReadResult rr3;
  ASSERT_TRUE(read_wal(path, rr3).ok());
  EXPECT_TRUE(rr3.torn);
  EXPECT_EQ(rr3.frames.size(), 2u);

  // A damaged *header* is not a tail condition: kDataLoss.
  spit(path, [&] {
    auto b = bytes;
    b[3] ^= 0x01;
    return b;
  }());
  WalReadResult rr4;
  const Status s = read_wal(path, rr4);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code, StatusCode::kDataLoss);
}

TEST(Wal, InjectedTornCutFailsStopAndLeavesReadablePrefix) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  // First find where frame 2 ends so the tear lands inside frame 3.
  std::uint64_t cut_at = 0;
  {
    std::unique_ptr<WalWriter> w;
    ASSERT_TRUE(WalWriter::create(path, 2, 1, 1, nullptr, w).ok());
    const auto frames = sample_frames(1);
    ASSERT_TRUE(w->append(frames[0]).ok());
    ASSERT_TRUE(w->append(frames[1]).ok());
    cut_at = w->offset() + 5;
  }
  pim::FaultPlan plan;
  ASSERT_TRUE(
      pim::FaultPlan::try_parse("torn@" + std::to_string(cut_at), plan).ok());
  pim::FaultInjector inj(plan, /*seed=*/1, /*num_modules=*/1);

  std::unique_ptr<WalWriter> w;
  ASSERT_TRUE(WalWriter::create(path, 2, 1, 1, &inj, w).ok());
  const auto frames = sample_frames(1);
  ASSERT_TRUE(w->append(frames[0]).ok());
  ASSERT_TRUE(w->append(frames[1]).ok());
  const Status s = w->append(frames[2]);  // the tear fires inside this append
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code, StatusCode::kDataLoss);
  EXPECT_TRUE(w->failed());
  // Fail-stop: every further append is refused.
  EXPECT_FALSE(w->append(frames[2]).ok());
  EXPECT_EQ(inj.pending_torn(), 0u);

  WalReadResult rr;
  ASSERT_TRUE(read_wal(path, rr).ok());
  EXPECT_TRUE(rr.torn);
  ASSERT_EQ(rr.frames.size(), 2u);
  EXPECT_EQ(rr.frames[0], frames[0]);
  EXPECT_EQ(rr.frames[1], frames[1]);
}

TEST(Wal, InjectedTornFlipCorruptsOneFrame) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  std::uint64_t flip_at = 0;
  {
    std::unique_ptr<WalWriter> w;
    ASSERT_TRUE(WalWriter::create(path, 2, 1, 1, nullptr, w).ok());
    ASSERT_TRUE(w->append(sample_frames(1)[0]).ok());
    flip_at = w->offset() + 30;  // inside frame 2's body
  }
  pim::FaultPlan plan;
  ASSERT_TRUE(pim::FaultPlan::try_parse(
                  "torn@" + std::to_string(flip_at) + ":flip", plan)
                  .ok());
  pim::FaultInjector inj(plan, 1, 1);

  std::unique_ptr<WalWriter> w;
  ASSERT_TRUE(WalWriter::create(path, 2, 1, 1, &inj, w).ok());
  const auto frames = sample_frames(1);
  ASSERT_TRUE(w->append(frames[0]).ok());
  // The flip lands silently (sector corruption, not a crash): the append
  // itself succeeds and the writer keeps going.
  ASSERT_TRUE(w->append(frames[1]).ok());
  ASSERT_TRUE(w->append(frames[2]).ok());
  ASSERT_TRUE(w->sync().ok());

  WalReadResult rr;
  ASSERT_TRUE(read_wal(path, rr).ok());
  EXPECT_TRUE(rr.torn) << "flipped frame must fail its CRC";
  ASSERT_EQ(rr.frames.size(), 1u);
  EXPECT_EQ(rr.frames[0], frames[0]);
}

// --- Manager: generations, recovery, idempotence -------------------------------

// Mirrors one update batch into both the tree and the manager, the way the
// scheduler does: apply first, then log with the post-apply epoch.
void apply_and_log(core::PimKdTree& tree, Manager& mgr,
                   std::vector<Point> ins, std::vector<PointId> del) {
  const std::uint64_t base = tree.next_point_id();
  if (!ins.empty()) (void)tree.insert(ins);
  if (!del.empty()) tree.erase(del);
  ASSERT_TRUE(
      mgr.log_batch(tree.mutation_epoch(), base, std::move(ins), std::move(del))
          .ok());
}

TEST(Manager, CreateRefusesToClobberExistingState) {
  TempDir dir;
  core::PimKdTree tree(small_cfg(), gen_uniform({.n = 64, .dim = 2, .seed = 1}));
  ManagerConfig mc;
  mc.dir = dir.file("d");
  std::unique_ptr<Manager> mgr;
  ASSERT_TRUE(Manager::create(mc, tree, mgr).ok());
  ASSERT_TRUE(file_exists(Manager::manifest_path(mc.dir)));

  std::unique_ptr<Manager> mgr2;
  const Status s = Manager::create(mc, tree, mgr2);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code, StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message.find("recover_from"), std::string::npos)
      << "error should point at the recovery path: " << s.message;
}

TEST(Manager, LogRecoverRoundTripAndIdempotence) {
  TempDir dir;
  auto cfg = small_cfg(8);
  core::PimKdTree tree(cfg, gen_uniform({.n = 200, .dim = 2, .seed = 5}));

  ManagerConfig mc;
  mc.dir = dir.file("d");
  std::unique_ptr<Manager> mgr;
  ASSERT_TRUE(Manager::create(mc, tree, mgr).ok());

  for (int b = 0; b < 6; ++b) {
    apply_and_log(tree, *mgr,
                  gen_uniform({.n = 10, .dim = 2, .seed = 50 + std::uint64_t(b)}),
                  {static_cast<PointId>(2 * b), static_cast<PointId>(2 * b + 1)});
  }
  ASSERT_TRUE(mgr->sync().ok());
  const ManagerStats st = mgr->stats();
  EXPECT_EQ(st.frames, 6u);
  EXPECT_EQ(st.last_seq, 6u);

  RecoveryResult rec;
  ASSERT_TRUE(Manager::recover_from(mc.dir, rec).ok());
  ASSERT_NE(rec.tree, nullptr);
  EXPECT_EQ(rec.frames_replayed, 6u);
  EXPECT_EQ(rec.last_seq, 6u);
  EXPECT_FALSE(rec.torn);
  EXPECT_FALSE(rec.fell_back);
  EXPECT_EQ(rec.state_hash, Checkpoint::hash(tree))
      << "recovered state != live state at the logged frontier";
  EXPECT_TRUE(rec.tree->check_invariants());
  EXPECT_TRUE(rec.tree->check_integrity().ok);
  expect_same_answers(tree, *rec.tree);

  // Replaying the same tail again is a no-op (epoch-skip idempotence rule).
  WalReadResult rr;
  ASSERT_TRUE(read_wal(Manager::wal_path(mc.dir, rec.generation), rr).ok());
  std::uint64_t applied = 99;
  ASSERT_TRUE(Manager::replay_frames(*rec.tree, rr.frames, &applied).ok());
  EXPECT_EQ(applied, 0u);
  EXPECT_EQ(Checkpoint::hash(*rec.tree), rec.state_hash);

  // Recovering twice yields byte-identical trees.
  RecoveryResult rec2;
  ASSERT_TRUE(Manager::recover_from(mc.dir, rec2).ok());
  std::vector<std::uint8_t> img1, img2;
  ASSERT_TRUE(Checkpoint::serialize(*rec.tree, 0, img1, nullptr).ok());
  ASSERT_TRUE(Checkpoint::serialize(*rec2.tree, 0, img2, nullptr).ok());
  EXPECT_EQ(img1, img2) << "double recovery is not idempotent";
}

TEST(Manager, CheckpointRotationAndFallbackToPreviousGeneration) {
  TempDir dir;
  auto cfg = small_cfg(8);
  core::PimKdTree tree(cfg, gen_uniform({.n = 150, .dim = 2, .seed = 6}));

  ManagerConfig mc;
  mc.dir = dir.file("d");
  std::unique_ptr<Manager> mgr;
  ASSERT_TRUE(Manager::create(mc, tree, mgr).ok());

  apply_and_log(tree, *mgr, gen_uniform({.n = 8, .dim = 2, .seed = 60}), {1});
  ASSERT_TRUE(mgr->checkpoint(tree).ok());  // cut generation 2
  apply_and_log(tree, *mgr, gen_uniform({.n = 8, .dim = 2, .seed = 61}), {2});
  ASSERT_TRUE(mgr->sync().ok());
  EXPECT_EQ(mgr->stats().generation, 2u);

  RecoveryResult rec;
  ASSERT_TRUE(Manager::recover_from(mc.dir, rec).ok());
  EXPECT_EQ(rec.generation, 2u);
  EXPECT_EQ(rec.frames_replayed, 1u);  // only the post-rotation frame
  EXPECT_EQ(rec.state_hash, Checkpoint::hash(tree));

  // Damage the newest checkpoint: recovery falls back to generation 1 and
  // replays both WALs to the same state.
  {
    auto bytes = slurp(Manager::checkpoint_path(mc.dir, 2));
    bytes[bytes.size() / 2] ^= 0xFF;
    spit(Manager::checkpoint_path(mc.dir, 2), bytes);
  }
  RecoveryResult rec2;
  ASSERT_TRUE(Manager::recover_from(mc.dir, rec2).ok());
  EXPECT_TRUE(rec2.fell_back);
  EXPECT_EQ(rec2.generation, 1u);
  EXPECT_EQ(rec2.frames_replayed, 2u);
  EXPECT_EQ(rec2.last_seq, 2u);
  EXPECT_EQ(rec2.state_hash, rec.state_hash)
      << "fallback path recovered a different state";
  EXPECT_TRUE(rec2.tree->check_integrity().ok);
}

TEST(Manager, CheckpointCadence) {
  TempDir dir;
  core::PimKdTree tree(small_cfg(),
                       gen_uniform({.n = 100, .dim = 2, .seed = 7}));
  ManagerConfig mc;
  mc.dir = dir.file("d");
  mc.checkpoint_every_epochs = 2;
  std::unique_ptr<Manager> mgr;
  ASSERT_TRUE(Manager::create(mc, tree, mgr).ok());

  std::uint64_t taken_total = 0;
  for (int b = 0; b < 5; ++b) {
    apply_and_log(tree, *mgr,
                  gen_uniform({.n = 4, .dim = 2, .seed = 70 + std::uint64_t(b)}),
                  {});
    bool taken = false;
    ASSERT_TRUE(mgr->maybe_checkpoint(tree, &taken).ok());
    taken_total += taken ? 1 : 0;
  }
  EXPECT_EQ(taken_total, 2u);  // epochs 2 and 4 of 5
  RecoveryResult rec;
  ASSERT_TRUE(Manager::recover_from(mc.dir, rec).ok());
  EXPECT_EQ(rec.state_hash, Checkpoint::hash(tree));
}

TEST(Manager, TornTailRecoversByTruncation) {
  TempDir dir;
  auto cfg = small_cfg(8);
  core::PimKdTree tree(cfg, gen_uniform({.n = 120, .dim = 2, .seed = 9}));

  // Plant a cut tear far enough in that a couple of batches land first.
  pim::FaultPlan plan;
  ASSERT_TRUE(pim::FaultPlan::try_parse("torn@700", plan).ok());
  pim::FaultInjector inj(plan, 1, 8);

  ManagerConfig mc;
  mc.dir = dir.file("d");
  mc.faults = &inj;
  std::unique_ptr<Manager> mgr;
  ASSERT_TRUE(Manager::create(mc, tree, mgr).ok());

  std::uint64_t durable_hash = 0;
  bool tore = false;
  for (int b = 0; b < 12 && !tore; ++b) {
    durable_hash = Checkpoint::hash(tree);  // state before this batch
    const std::uint64_t base = tree.next_point_id();
    auto ins = gen_uniform({.n = 6, .dim = 2, .seed = 90 + std::uint64_t(b)});
    (void)tree.insert(ins);
    const Status s =
        mgr->log_batch(tree.mutation_epoch(), base, std::move(ins), {});
    if (!s.ok()) {
      EXPECT_EQ(s.code, StatusCode::kDataLoss);
      tore = true;
    }
  }
  ASSERT_TRUE(tore) << "the planted tear never fired";
  EXPECT_TRUE(mgr->failed());
  // Fail-stop: the manager refuses to log anything further.
  EXPECT_FALSE(mgr->log_batch(tree.mutation_epoch(), tree.next_point_id(),
                              {}, {1})
                   .ok());

  RecoveryResult rec;
  ASSERT_TRUE(Manager::recover_from(mc.dir, rec).ok());
  EXPECT_TRUE(rec.torn);
  EXPECT_GT(rec.torn_bytes, 0u);
  // Exactly the durable prefix: everything before the torn batch, nothing of
  // the torn batch itself.
  EXPECT_EQ(rec.state_hash, durable_hash)
      << "recovery did not land on the pre-tear frontier";
  EXPECT_TRUE(rec.tree->check_invariants());
  EXPECT_TRUE(rec.tree->check_integrity().ok);

  // Recovery repaired the log in place: a second recovery sees a clean tail
  // and lands on the same state.
  RecoveryResult rec2;
  ASSERT_TRUE(Manager::recover_from(mc.dir, rec2).ok());
  EXPECT_FALSE(rec2.torn);
  EXPECT_EQ(rec2.state_hash, rec.state_hash);
}

TEST(Manager, AttachContinuesAfterRecovery) {
  TempDir dir;
  auto cfg = small_cfg(8);
  core::PimKdTree tree(cfg, gen_uniform({.n = 100, .dim = 2, .seed = 10}));
  ManagerConfig mc;
  mc.dir = dir.file("d");
  {
    std::unique_ptr<Manager> mgr;
    ASSERT_TRUE(Manager::create(mc, tree, mgr).ok());
    apply_and_log(tree, *mgr, gen_uniform({.n = 8, .dim = 2, .seed = 20}), {});
    ASSERT_TRUE(mgr->sync().ok());
  }

  RecoveryResult rec;
  ASSERT_TRUE(Manager::recover_from(mc.dir, rec).ok());
  std::unique_ptr<Manager> mgr;
  ASSERT_TRUE(Manager::attach(mc, *rec.tree, rec, mgr).ok());
  // attach cuts a fresh generation and continues the seq sequence.
  EXPECT_GT(mgr->stats().generation, rec.generation);
  apply_and_log(*rec.tree, *mgr, gen_uniform({.n = 8, .dim = 2, .seed = 21}),
                {3});
  ASSERT_TRUE(mgr->sync().ok());
  EXPECT_EQ(mgr->stats().last_seq, rec.last_seq + 1);

  RecoveryResult rec2;
  ASSERT_TRUE(Manager::recover_from(mc.dir, rec2).ok());
  EXPECT_EQ(rec2.last_seq, rec.last_seq + 1);
  EXPECT_EQ(rec2.state_hash, Checkpoint::hash(*rec.tree));
  EXPECT_TRUE(rec2.tree->check_integrity().ok);
}

TEST(Manager, ReplayBaseMismatchIsCorruptState) {
  core::PimKdTree tree(small_cfg(),
                       gen_uniform({.n = 50, .dim = 2, .seed = 30}));
  WalFrame f;
  f.seq = 1;
  f.epoch = tree.mutation_epoch() + 1;
  f.base_point_id = 999;  // the tree's next id is 50
  f.inserts = {pt(0.5, 0.5)};
  const Status s = Manager::replay_frames(tree, {f}, nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code, StatusCode::kCorruptState);
  EXPECT_NE(s.message.find("base"), std::string::npos) << s.message;
}

// A log written by a build that could switch the caching mode online may hold
// kind-1 (mode-switch) frames. Replaying the batches around one under the
// wrong mode would recover a different tree, so recovery refuses the log by
// name, and — the frame carries a valid CRC, so it is no torn tail — leaves
// the file exactly as it found it.
TEST(Wal, ModeSwitchFrameIsRejected) {
  TempDir dir;
  auto cfg = small_cfg(8);
  cfg.caching = core::CachingMode::kNone;
  core::PimKdTree tree(cfg, gen_uniform({.n = 150, .dim = 2, .seed = 8}));
  ManagerConfig mc;
  mc.dir = dir.file("d");
  {
    std::unique_ptr<Manager> mgr;
    ASSERT_TRUE(Manager::create(mc, tree, mgr).ok());
    apply_and_log(tree, *mgr, gen_uniform({.n = 6, .dim = 2, .seed = 80}), {});
    ASSERT_TRUE(mgr->sync().ok());
  }
  const std::string wal = Manager::wal_path(mc.dir, 1);

  // Frame seq 2, hand-encoded in the retired layout: kind u8 = 1, seq u64,
  // epoch u64, mode u8, framed under the WAL frame tag (0x11).
  std::vector<std::uint8_t> bytes = slurp(wal);
  ByteWriter body;
  body.u8(1);
  body.u64(2);
  body.u64(tree.mutation_epoch() + 1);
  body.u8(static_cast<std::uint8_t>(core::CachingMode::kDual));
  append_record(bytes, /*tag=*/0x11, body.bytes());
  spit(wal, bytes);

  // A regular batch frame after it, through the real writer.
  {
    std::unique_ptr<WalWriter> w;
    ASSERT_TRUE(WalWriter::open(wal, 2, bytes.size(), nullptr, w).ok());
    WalFrame f;
    f.seq = 3;
    f.epoch = tree.mutation_epoch() + 2;
    f.base_point_id = tree.next_point_id();
    f.inserts = {pt(0.25, 0.75)};
    ASSERT_TRUE(w->append(f).ok());
    ASSERT_TRUE(w->sync().ok());
  }
  const std::size_t len = slurp(wal).size();

  RecoveryResult rec;
  const Status s = Manager::recover_from(mc.dir, rec);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code, StatusCode::kDataLoss);
  EXPECT_NE(s.message.find("caching-mode switch frame (seq 2)"),
            std::string::npos)
      << s.message;
  EXPECT_EQ(rec.tree, nullptr);
  EXPECT_EQ(slurp(wal).size(), len) << "recovery must not truncate the log";
}

// --- Scheduler integration: acked => durable -----------------------------------

TEST(SchedulerDurability, ServedWritesSurviveRecovery) {
  TempDir dir;
  auto cfg = small_cfg(8);
  const auto initial = gen_uniform({.n = 300, .dim = 2, .seed = 40});
  core::PimKdTree tree(cfg, initial);

  ManagerConfig mc;
  mc.dir = dir.file("d");
  mc.checkpoint_every_epochs = 4;  // rotations under live traffic
  std::unique_ptr<Manager> mgr;
  ASSERT_TRUE(Manager::create(mc, tree, mgr).ok());

  serve::SchedulerConfig sc;
  sc.policy = serve::Policy::kFixedSize;
  sc.batch_size = 8;
  sc.durability = mgr.get();
  std::uint64_t frames = 0, checkpoints = 0;
  {
    serve::BatchScheduler sched(tree, sc);
    std::vector<std::future<serve::Response>> futs;
    const auto extra = gen_uniform({.n = 60, .dim = 2, .seed = 41});
    std::uint64_t tick = 0;
    for (std::size_t i = 0; i < extra.size(); ++i) {
      futs.push_back(sched.submit(serve::Request::insert(extra[i]), tick));
      if (i % 3 == 2)
        futs.push_back(sched.submit(
            serve::Request::erase(static_cast<PointId>(i)), tick));
      futs.push_back(sched.submit(serve::Request::knn(extra[i], 2), tick));
      ++tick;
      sched.pump(tick);
    }
    sched.flush(++tick);
    for (auto& f : futs) {
      const auto r = f.get();
      EXPECT_TRUE(r.ok()) << r.error;
    }
    const serve::ServeStats st = sched.stats();
    EXPECT_GT(st.wal_frames, 0u);
    EXPECT_EQ(st.wal_failures, 0u);
    frames = st.wal_frames;
    checkpoints = st.checkpoints;
    sched.stop();
  }
  EXPECT_GT(checkpoints, 0u) << "cadence checkpoints never fired";
  EXPECT_EQ(mgr->stats().frames, frames);

  RecoveryResult rec;
  ASSERT_TRUE(Manager::recover_from(mc.dir, rec).ok());
  EXPECT_EQ(rec.state_hash, Checkpoint::hash(tree))
      << "recovered state != live state";
  EXPECT_TRUE(rec.tree->check_integrity().ok);
  expect_same_answers(tree, *rec.tree);
}

TEST(SchedulerDurability, WalFailureIsFailStop) {
  TempDir dir;
  auto cfg = small_cfg(8);
  core::PimKdTree tree(cfg, gen_uniform({.n = 100, .dim = 2, .seed = 42}));

  // Tear inside the very first logged batch (the 48-byte file header is
  // written at create; the first one-insert frame spans bytes 48..113).
  pim::FaultPlan plan;
  ASSERT_TRUE(pim::FaultPlan::try_parse("torn@60", plan).ok());
  pim::FaultInjector inj(plan, 1, 8);
  ManagerConfig mc;
  mc.dir = dir.file("d");
  mc.faults = &inj;
  std::unique_ptr<Manager> mgr;
  ASSERT_TRUE(Manager::create(mc, tree, mgr).ok());

  serve::SchedulerConfig sc;
  sc.policy = serve::Policy::kDeadline;  // dispatch everything each pump
  sc.durability = mgr.get();
  serve::BatchScheduler sched(tree, sc);

  // Batch 1: applied, but its WAL append tears — the ack must say so.
  auto f1 = sched.submit(serve::Request::insert(pt(0.5, 0.5)), 0);
  sched.pump(1);
  const auto r1 = f1.get();
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.error.find("NOT durable"), std::string::npos) << r1.error;

  // Batch 2: rejected before touching the tree (fail-stop).
  const std::size_t size_before = tree.size();
  auto f2 = sched.submit(serve::Request::insert(pt(0.6, 0.6)), 2);
  sched.pump(3);
  const auto r2 = f2.get();
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.error.find("fail-stop"), std::string::npos) << r2.error;
  EXPECT_EQ(tree.size(), size_before)
      << "a write was applied after the WAL fail-stopped";

  // Reads keep working.
  auto f3 = sched.submit(serve::Request::knn(pt(0.5, 0.5), 1), 4);
  sched.pump(5);
  EXPECT_TRUE(f3.get().ok());
  EXPECT_GE(sched.stats().wal_failures, 2u);

  // Recovery lands on the pre-tear frontier and is internally consistent.
  RecoveryResult rec;
  ASSERT_TRUE(Manager::recover_from(mc.dir, rec).ok());
  EXPECT_TRUE(rec.tree->check_integrity().ok);
  EXPECT_EQ(rec.tree->size(), 100u);
}

// --- Cross-thread-count byte determinism (subprocess) --------------------------

std::string self_exe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return std::string(buf);
}

std::string run_child(const std::string& exe, int threads) {
  const std::string cmd = "PIMKD_THREADS=" + std::to_string(threads) + " '" +
                          exe + "' --ckpt-child";
  std::FILE* p = popen(cmd.c_str(), "r");
  if (!p) return {};
  std::string out;
  char buf[512];
  while (std::fgets(buf, sizeof buf, p)) out += buf;
  const int rc = pclose(p);
  EXPECT_EQ(rc, 0) << "child failed: " << cmd;
  return out;
}

TEST(CheckpointDeterminism, ByteIdenticalAcrossThreadCounts) {
  // Acceptance criterion: the checkpoint byte stream is a pure function of
  // the logical tree state — PIMKD_THREADS must not leak into it.
  const std::string exe = self_exe();
  ASSERT_FALSE(exe.empty());
  const std::string out1 = run_child(exe, 1);
  ASSERT_FALSE(out1.empty());
  for (const int threads : {4, 8})
    EXPECT_EQ(run_child(exe, threads), out1)
        << "checkpoint bytes diverged at PIMKD_THREADS=" << threads;
}

// Builds a worked tree, serializes it, round-trips it, and prints an FNV of
// the checkpoint bytes plus the state hash — compared across thread counts.
int ckpt_child() {
  auto cfg = small_cfg(16);
  auto tree = worked_tree(cfg, 1500);
  std::vector<std::uint8_t> image;
  Checkpoint::Info info;
  if (!Checkpoint::serialize(*tree, 9, image, &info).ok()) return 2;

  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint8_t b : image) {
    h ^= b;
    h *= 1099511628211ull;
  }
  std::printf("bytes=%zu fnv=%llu state=%llu epoch=%llu\n", image.size(),
              (unsigned long long)h, (unsigned long long)info.state_hash,
              (unsigned long long)info.mutation_epoch);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--ckpt-child") return ckpt_child();
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
