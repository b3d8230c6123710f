// Kill-restart soak (DESIGN.md §10, acceptance criterion): a live serving
// scheduler with a kEveryBatch WAL is SIGKILLed mid-epoch at a seeded random
// moment, 30+ times; after every kill, recovery must land on a batch-aligned
// frontier that contains every acknowledged write, pass check_integrity, and
// be idempotent (recovering twice is byte-identical).
//
// Structure (custom main, like test_determinism.cpp): the parent forks this
// binary as `--soak-child <dir> <seed>`. The child builds a tree, attaches a
// durability Manager (kEveryBatch, checkpoints under fire), serves a
// deterministic update stream through the scheduler, and appends
// one line to <dir>/acks per resolved write future — so every complete line
// is a write the client saw acknowledged, which under kEveryBatch means a
// synced WAL frame. The parent waits for <dir>/ready, sleeps a seeded
// 1..80 ms, SIGKILLs the child, recovers, and checks the recovered state
// against a host-side model replay of the same deterministic stream:
//
//   * the recovered hash must equal the model state after SOME whole number
//     of batches (no torn/partial batch is ever visible), and
//   * that batch count must cover every acked op (acked => durable).
//
// Registered with ctest LABELS slow; CI runs it plain and under ASan.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "durability/checkpoint.hpp"
#include "durability/manager.hpp"
#include "serve/scheduler.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace {

using namespace pimkd;
using namespace pimkd::durability;

// --- Shared between parent and child: the deterministic workload ---------------

constexpr std::size_t kInitialPoints = 600;
constexpr std::size_t kBatchSize = 16;
constexpr std::size_t kTotalOps = 120000;  // far more than any child survives
constexpr std::uint64_t kCheckpointEveryEpochs = 16;  // rotations under fire

core::PimKdConfig soak_cfg() {
  core::PimKdConfig cfg;
  cfg.dim = 2;
  cfg.leaf_cap = 8;
  cfg.sigma = 64;
  cfg.system.num_modules = 16;
  cfg.system.cache_words = 1 << 22;
  cfg.system.seed = 5;
  return cfg;
}

struct SoakOp {
  bool insert = false;
  Point point{};     // insert payload
  PointId erase_id = kInvalidPoint;
};

// Pure function of (seed, count): every op and every erase target is fixed up
// front, so parent and child agree on the stream without communicating.
// Erases target initial ids in ascending order — always already applied.
std::vector<SoakOp> make_ops(std::uint64_t seed, std::size_t count) {
  std::vector<SoakOp> ops(count);
  Rng rng(seed * 7919 + 13);
  PointId erase_cursor = 0;
  for (std::size_t j = 0; j < count; ++j) {
    SoakOp& op = ops[j];
    if (j % 4 == 3 && erase_cursor < kInitialPoints) {
      op.erase_id = erase_cursor++;
    } else {
      op.insert = true;
      op.point[0] = rng.next_double();
      op.point[1] = rng.next_double();
    }
  }
  return ops;
}

std::vector<Point> initial_points() {
  return gen_uniform({.n = kInitialPoints, .dim = 2, .seed = 5});
}

// Applies ops [at, at+n) to the model tree the way the scheduler's
// run_updates does: the batch's inserts as one call, then its erases.
void apply_batch_to_model(core::PimKdTree& tree,
                          const std::vector<SoakOp>& ops, std::size_t at,
                          std::size_t n) {
  std::vector<Point> ins;
  std::vector<PointId> del;
  for (std::size_t j = at; j < at + n; ++j) {
    if (ops[j].insert)
      ins.push_back(ops[j].point);
    else
      del.push_back(ops[j].erase_id);
  }
  if (!ins.empty()) (void)tree.insert(ins);
  if (!del.empty()) tree.erase(del);
}

// --- Child ---------------------------------------------------------------------

int soak_child(const std::string& dir, std::uint64_t seed) {
  const auto initial = initial_points();
  core::PimKdTree tree(soak_cfg(), initial);

  ManagerConfig mc;
  mc.dir = dir + "/state";
  mc.sync = SyncPolicy::kEveryBatch;
  mc.checkpoint_every_epochs = kCheckpointEveryEpochs;
  std::unique_ptr<Manager> mgr;
  if (!Manager::create(mc, tree, mgr).ok()) return 2;

  serve::SchedulerConfig sc;
  sc.policy = serve::Policy::kFixedSize;
  sc.batch_size = kBatchSize;
  sc.durability = mgr.get();
  serve::BatchScheduler sched(tree, sc);

  const int acks = ::open((dir + "/acks").c_str(),
                          O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (acks < 0) return 3;

  // Ready marker: the parent arms its kill timer only once the manager and
  // scheduler are live, so every kill lands mid-serving.
  { std::ofstream(dir + "/ready") << "ready\n"; }

  const auto ops = make_ops(seed, kTotalOps);
  std::deque<std::future<serve::Response>> futs;
  std::uint64_t tick = 0;
  std::size_t acked = 0;
  for (std::size_t j = 0; j < ops.size(); ++j) {
    futs.push_back(
        sched.submit(ops[j].insert
                         ? serve::Request::insert(ops[j].point)
                         : serve::Request::erase(ops[j].erase_id),
                     tick));
    if ((j + 1) % kBatchSize == 0) {
      ++tick;
      sched.pump(tick);
    }
    // Lag the acks ~2 batches behind submission, so a kill can land between
    // a batch's durable resolution and its ack line, while every resolved
    // future is still recorded promptly.
    while (futs.size() > 2 * kBatchSize) {
      const serve::Response r = futs.front().get();
      futs.pop_front();
      if (!r.ok()) return 4;  // a durable ack can never carry an error here
      char line[64];
      const int n = std::snprintf(line, sizeof line, "%zu\n", acked);
      if (::write(acks, line, static_cast<std::size_t>(n)) != n) return 5;
      ++acked;
    }
  }
  return 0;  // outran the killer: treated as a clean (if unlikely) run
}

// --- Parent --------------------------------------------------------------------

std::string self_exe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return std::string(buf);
}

std::size_t count_acked(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return 0;
  std::size_t lines = 0;
  int c;
  while ((c = std::fgetc(f)) != EOF)
    if (c == '\n') ++lines;  // only complete lines count as acknowledged
  std::fclose(f);
  return lines;
}

struct KillOutcome {
  bool clean_exit = false;  // child finished before the kill landed
  std::size_t acked = 0;
  RecoveryResult rec;
};

void run_one_kill(const std::string& exe, const std::string& dir,
                  std::uint64_t seed, std::uint64_t sleep_ms,
                  KillOutcome& out) {
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const std::string seed_s = std::to_string(seed);
    ::execl(exe.c_str(), exe.c_str(), "--soak-child", dir.c_str(),
            seed_s.c_str(), (char*)nullptr);
    _exit(127);
  }
  // Arm the timer only once the child reports it is serving.
  const std::string ready = dir + "/ready";
  for (int i = 0; i < 20000; ++i) {
    if (::access(ready.c_str(), F_OK) == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    int st = 0;
    ASSERT_EQ(::waitpid(pid, &st, WNOHANG), 0)
        << "child died before serving (exit status " << st << ")";
  }
  ASSERT_EQ(::access(ready.c_str(), F_OK), 0) << "child never became ready";

  std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  ::kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  out.clean_exit = WIFEXITED(status);
  if (out.clean_exit)
    ASSERT_EQ(WEXITSTATUS(status), 0) << "child failed before the kill";

  out.acked = count_acked(dir + "/acks");
  ASSERT_TRUE(Manager::recover_from(dir + "/state", out.rec).ok());
  ASSERT_NE(out.rec.tree, nullptr);
}

TEST(DurabilitySoak, SigkillMidEpochNeverLosesAckedWrites) {
  const std::string exe = self_exe();
  ASSERT_FALSE(exe.empty());
  char root_buf[] = "/tmp/pimkd_soak_XXXXXX";
  const std::string root = mkdtemp(root_buf);
  ASSERT_FALSE(root.empty());

  const std::uint64_t base_seed =
      std::getenv("PIMKD_SOAK_SEED")
          ? std::strtoull(std::getenv("PIMKD_SOAK_SEED"), nullptr, 10)
          : 20250809;
  const int kIterations = 30;
  Rng timer(base_seed ^ 0x5eed);

  int torn_seen = 0, fallback_seen = 0;
  std::uint64_t frontier_total = 0;
  for (int it = 0; it < kIterations; ++it) {
    const std::string dir = root + "/it" + std::to_string(it);
    const std::uint64_t seed = base_seed + std::uint64_t(it);
    const std::uint64_t sleep_ms = 1 + timer.next_u64() % 80;

    KillOutcome out;
    run_one_kill(exe, dir, seed, sleep_ms, out);
    if (HasFatalFailure()) return;
    torn_seen += out.rec.torn ? 1 : 0;
    fallback_seen += out.rec.fell_back ? 1 : 0;

    core::PimKdTree& got = *out.rec.tree;
    EXPECT_TRUE(got.check_invariants()) << "iteration " << it;
    const auto integ = got.check_integrity();
    EXPECT_TRUE(integ.ok) << "iteration " << it << ": " << integ.to_string();

    // Host-side model replay: the recovered tree must equal the model after
    // exactly B whole batches for some B — scan candidate prefixes, using
    // next_point_id (monotone in the insert count) to find the match cheaply.
    const auto ops = make_ops(seed, kTotalOps);
    core::PimKdTree model(soak_cfg(), initial_points());
    std::size_t batches = 0, matched_ops = 0;
    bool matched = false;
    if (Checkpoint::hash(model) == out.rec.state_hash) {
      matched = true;  // killed before any batch became durable
    }
    for (std::size_t at = 0; !matched && at + kBatchSize <= ops.size();
         at += kBatchSize) {
      apply_batch_to_model(model, ops, at, kBatchSize);
      ++batches;
      if (model.next_point_id() != got.next_point_id()) continue;
      if (Checkpoint::hash(model) == out.rec.state_hash) {
        matched = true;
        matched_ops = at + kBatchSize;
      }
      // next_point_id matches in at most a handful of consecutive batches
      // (every batch inserts); once the model passes the recovered id the
      // scan cannot match later.
      if (model.next_point_id() > got.next_point_id()) break;
    }
    ASSERT_TRUE(matched)
        << "iteration " << it << " (slept " << sleep_ms
        << "ms): recovered state is not any batch-aligned prefix of the "
           "stream — a partial batch or corrupted state became visible";
    frontier_total += batches;

    // Acked => durable: the matched frontier covers every acknowledged op.
    EXPECT_GE(matched_ops, out.acked)
        << "iteration " << it << ": client saw " << out.acked
        << " acks but only " << matched_ops << " ops were recovered";

    // Recovery is idempotent: a second recovery (after the first repaired
    // any torn tail) lands on the identical state.
    RecoveryResult again;
    ASSERT_TRUE(Manager::recover_from(dir + "/state", again).ok());
    EXPECT_EQ(again.state_hash, out.rec.state_hash) << "iteration " << it;

    // The repaired state accepts new writes and stays consistent.
    std::unique_ptr<Manager> cont;
    ManagerConfig mc;
    mc.dir = dir + "/state";
    ASSERT_TRUE(Manager::attach(mc, got, out.rec, cont).ok());
    const std::uint64_t base = got.next_point_id();
    std::vector<Point> extra = {ops[0].point};
    (void)got.insert(extra);
    ASSERT_TRUE(
        cont->log_batch(got.mutation_epoch(), base, std::move(extra), {}).ok());
    ASSERT_TRUE(cont->sync().ok());

    std::system(("rm -rf '" + dir + "'").c_str());
  }
  std::system(("rm -rf '" + root + "'").c_str());

  // Report the fault-space coverage (not an assertion: torn tails depend on
  // where the kill lands, but across 30 kills the frontier must move).
  std::fprintf(stderr,
               "[soak] %d kills: %llu durable batches total, %d torn tails, "
               "%d checkpoint fallbacks\n",
               kIterations, (unsigned long long)frontier_total, torn_seen,
               fallback_seen);
  EXPECT_GT(frontier_total, 0u)
      << "no kill ever let a single batch become durable — the timer window "
         "is miscalibrated";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 4 && std::string(argv[1]) == "--soak-child")
    return soak_child(argv[2], std::strtoull(argv[3], nullptr, 10));
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
