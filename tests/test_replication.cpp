// The Figure-2 caching modes (PimKdConfig::caching, fixed at construction):
//   * query results are byte-identical across the four CachingModes — the
//     modes move copies, never answers;
//   * a read/churn stream under each non-default mode (kNone, kTopDown,
//     kBottomUp) is thread-count-invariant: the binary re-executes itself
//     under PIMKD_THREADS=1 and =8 and byte-compares the ledger summary and
//     the JSONL trace of every mode (same pattern as test_determinism).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pim_kdtree.hpp"
#include "util/generators.hpp"

namespace {

using namespace pimkd;
using namespace pimkd::core;

PimKdConfig base_cfg(CachingMode mode, std::size_t P = 16) {
  PimKdConfig cfg;
  cfg.dim = 2;
  cfg.leaf_cap = 8;
  cfg.sigma = 64;
  cfg.caching = mode;
  cfg.system.num_modules = P;
  cfg.system.cache_words = 1 << 22;
  cfg.system.seed = 42;
  return cfg;
}

std::vector<Request> mixed_reads(std::span<const Point> pts) {
  std::vector<Request> reqs;
  for (std::size_t i = 0; i < 64; ++i) reqs.push_back(Request::knn(pts[i], 6));
  for (std::size_t i = 0; i < 16; ++i) {
    Box b;
    b.lo = pts[i];
    b.hi = pts[i];
    for (int d = 0; d < 2; ++d) b.hi[d] += 0.08;
    reqs.push_back(Request::range(b));
    reqs.push_back(Request::radius_report(pts[i + 64], 0.05));
    reqs.push_back(Request::radius_count(pts[i + 128], 0.07));
  }
  return reqs;
}

// Canonical serialization of a response batch, for byte-for-byte comparison.
std::string serialize(const std::vector<Response>& resp) {
  std::ostringstream os;
  for (const Response& r : resp) {
    os << op_name(r.kind) << '|' << r.error << '|';
    for (const Neighbor& nb : r.neighbors)
      os << nb.id << ':' << nb.sq_dist << ',';
    os << '|';
    for (const PointId id : r.ids) os << id << ',';
    os << '|' << r.count << '\n';
  }
  return os.str();
}

const CachingMode kAllModes[] = {CachingMode::kNone, CachingMode::kTopDown,
                                 CachingMode::kBottomUp, CachingMode::kDual};

TEST(Replication, QueryResultsIdenticalAcrossModes) {
  const auto pts = gen_uniform({.n = 6000, .dim = 2, .seed = 3});
  const auto reqs = mixed_reads(pts);
  std::string baseline;
  for (const CachingMode mode : kAllModes) {
    PimKdTree tree(base_cfg(mode), pts);
    const std::string got = serialize(tree.query(reqs));
    if (baseline.empty()) {
      baseline = got;
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(got, baseline)
          << "mode " << caching_mode_name(mode) << " changed query results";
    }
  }
}

// --- Cross-thread-count determinism of the non-default modes ------------------

std::string self_exe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return std::string(buf);
}

const CachingMode kStaticModes[] = {CachingMode::kNone, CachingMode::kTopDown,
                                    CachingMode::kBottomUp};

std::string trace_file(const std::string& prefix, CachingMode mode) {
  return prefix + "_" + caching_mode_name(mode) + ".jsonl";
}

std::string run_child(const std::string& exe, int threads,
                      const std::string& trace_prefix) {
  const std::string cmd = "PIMKD_THREADS=" + std::to_string(threads) + " '" +
                          exe + "' --replication-child '" + trace_prefix + "'";
  std::FILE* p = popen(cmd.c_str(), "r");
  if (!p) return {};
  std::string out;
  char buf[512];
  while (std::fgets(buf, sizeof buf, p)) out += buf;
  const int rc = pclose(p);
  EXPECT_EQ(rc, 0) << "child failed: " << cmd;
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ReplicationThreadCountDeterminism, StaticModesIdenticalAcrossThreads) {
  const std::string exe = self_exe();
  ASSERT_FALSE(exe.empty());
  const std::string dir = ::testing::TempDir();
  const std::string t1 = dir + "pimkd_rep_t1";
  const std::string t8 = dir + "pimkd_rep_t8";
  const std::string out1 = run_child(exe, 1, t1);
  const std::string out8 = run_child(exe, 8, t8);
  ASSERT_FALSE(out1.empty());
  EXPECT_EQ(out1, out8) << "mode runs diverged across thread counts";
  for (const CachingMode mode : kStaticModes) {
    const std::string trace1 = slurp(trace_file(t1, mode));
    const std::string trace8 = slurp(trace_file(t8, mode));
    ASSERT_FALSE(trace1.empty()) << caching_mode_name(mode);
    EXPECT_EQ(trace1, trace8)
        << "JSONL traces diverged across thread counts under mode "
        << caching_mode_name(mode);
    std::remove(trace_file(t1, mode).c_str());
    std::remove(trace_file(t8, mode).c_str());
  }
}

// One workload per non-default mode: epochs of batched reads (via
// PimKdTree::query) and insert/erase churn, the mix drifting from
// read-heavy to write-heavy mid-stream. Prints every quantity that must be
// thread-count-invariant.
int replication_child(const char* trace_prefix) {
  const auto pts = gen_uniform({.n = 16000, .dim = 2, .seed = 21});
  for (const CachingMode mode : kStaticModes) {
    auto cfg = base_cfg(mode, 32);
    cfg.trace_path = trace_file(trace_prefix, mode);
    PimKdTree tree(cfg, std::span<const Point>(pts.data(), 10000));
    std::size_t next = 10000;
    std::vector<PointId> prev;
    std::uint64_t qh = 0;
    for (int e = 0; e < 12; ++e) {
      const bool read_heavy = e < 6;
      const std::size_t reads = read_heavy ? 300 : 30;
      const std::size_t writes = read_heavy ? 20 : 300;
      std::vector<Request> reqs;
      for (std::size_t i = 0; i < reads; ++i)
        reqs.push_back(Request::knn(pts[(e * 61 + i) % 2000], 4));
      for (const Response& r : tree.query(reqs))
        for (const Neighbor& nb : r.neighbors) qh = qh * 1000003u + nb.id;
      auto ids = tree.insert(std::span<const Point>(pts.data() + next,
                                                    writes / 2));
      next += writes / 2;
      if (!prev.empty()) tree.erase(prev);
      prev = std::move(ids);
    }
    const auto s = tree.metrics().snapshot();
    std::uint64_t ch = 0;
    for (const auto c : tree.metrics().lifetime_module_comm())
      ch = ch * 1000003u + c;
    std::printf("mode=%s comm=%llu rounds=%llu storage=%llu qh=%llu "
                "comm_hash=%llu inv=%d\n",
                caching_mode_name(mode), (unsigned long long)s.communication,
                (unsigned long long)s.rounds,
                (unsigned long long)tree.storage_words(),
                (unsigned long long)qh, (unsigned long long)ch,
                tree.check_invariants() ? 1 : 0);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--replication-child")
    return replication_child(argc >= 3 ? argv[2] : "");
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
