// Golden ledger for insert/erase batches in three fault states. A seeded
// P = 16 tree runs the same sequence of insert and erase batches while it is
// healthy, has one module crashed (sends to it are suppressed), or loses
// counter words addressed to two modules. The Metrics delta over the
// sequence, the per-module lifetime loads, the update-path word tallies,
// the storage ledger, the checkpoint hash and the injector's dropped-word
// count must equal constants recorded before counter writes were summed per
// module and round, so any drift in what a batch charges, to which module or
// in which round, and any change in the loss draws shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <vector>

#include "core/pim_kdtree.hpp"
#include "durability/checkpoint.hpp"
#include "util/generators.hpp"

namespace pimkd::core {
namespace {

struct Golden {
  std::uint64_t cpu_work, pim_work, pim_time, communication, comm_time, rounds;
  std::uint64_t counter_updates, words_counters, words_materialize;
  std::uint64_t storage_words;
  std::uint64_t load_hash;  // FNV-1a of the per-module lifetime work and comm
  std::uint64_t checkpoint_hash;
  std::uint64_t dropped_words;
  friend bool operator==(const Golden&, const Golden&) = default;
};

std::ostream& operator<<(std::ostream& os, const Golden& g) {
  return os << "{" << g.cpu_work << ", " << g.pim_work << ", " << g.pim_time
            << ", " << g.communication << ", " << g.comm_time << ", "
            << g.rounds << ", " << g.counter_updates << ", "
            << g.words_counters << ", " << g.words_materialize << ", "
            << g.storage_words << ", 0x" << std::hex << g.load_hash << ", 0x"
            << g.checkpoint_hash << std::dec << ", " << g.dropped_words << "}";
}

std::uint64_t fnv(const std::vector<std::uint64_t>& a,
                  const std::vector<std::uint64_t>& b) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto* v : {&a, &b})
    for (const std::uint64_t x : *v)
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (x >> (8 * byte)) & 0xff;
        h *= 1099511628211ull;
      }
  return h;
}

enum class State { kHealthy, kOneDead, kCounterLoss };

constexpr Golden kExpected[3] = {
    // kHealthy
    {0, 216910, 15419, 138617, 10687, 5, 2730, 23790, 54270, 87633,
     0xc28647d1f1ad4898, 0x244151576cfb99a1, 0},
    // kOneDead
    {1323, 204044, 15485, 129839, 10692, 5, 2730, 22301, 50484, 82122,
     0x50c2d6a6567c986b, 0x452b13b0671ab12, 0},
    // kCounterLoss
    {0, 215777, 15419, 138617, 10687, 5, 2730, 23790, 54270, 87633,
     0x2c3c73a9bff8354f, 0xfe61c30b7e6c95d3, 1133},
};

Golden measure(State state) {
  PimKdConfig cfg;
  cfg.dim = 2;
  cfg.leaf_cap = 8;
  cfg.system.num_modules = 16;
  cfg.system.seed = 17;
  // Two lossy modules: a broadcast's draws interleave between them in
  // registration order, so the plan pins that order too.
  if (state == State::kCounterLoss)
    cfg.system.fault_spec = "lose@1:m2:500;lose@1:m7:300";
  const auto pts = gen_uniform({.n = 3000, .dim = 2, .seed = 61});
  PimKdTree tree(cfg, pts);
  if (state == State::kOneDead) tree.crash_module(5);
  tree.reset_op_stats();

  const auto before = tree.metrics().snapshot();
  const auto a = tree.insert(gen_uniform({.n = 400, .dim = 2, .seed = 62}));
  std::vector<PointId> gone;
  for (PointId i = 0; i < 3000; i += 5) gone.push_back(i);
  tree.erase(gone);
  // A tight cluster: leaves overflow and subtrees are reconstructed.
  const auto b = tree.insert(
      gen_gaussian_blobs({.n = 300, .dim = 2, .seed = 63}, 1, 0.01));
  gone.assign(a.begin(), a.begin() + 250);
  gone.insert(gone.end(), b.begin() + 100, b.end());
  tree.erase(gone);
  (void)tree.insert(gen_uniform({.n = 64, .dim = 2, .seed = 64}));
  const auto d = tree.metrics().snapshot() - before;

  const auto& ops = tree.op_stats();
  const auto loads = tree.metrics().load_report();
  const pim::FaultInjector* faults = tree.system().faults();
  return {d.cpu_work,
          d.pim_work,
          d.pim_time,
          d.communication,
          d.comm_time,
          d.rounds,
          ops.counter_updates,
          ops.words_counters,
          ops.words_materialize,
          tree.storage_words(),
          fnv(loads.work, loads.comm),
          durability::Checkpoint::hash(tree),
          faults ? faults->dropped_words() : 0};
}

void expect_golden(State state) {
  if (std::getenv("PIMKD_FAULTS") != nullptr)
    GTEST_SKIP() << "the recorded values are for the plans set here";
  EXPECT_EQ(measure(state), kExpected[static_cast<int>(state)]);
}

TEST(UpdateLedgerGolden, Healthy) { expect_golden(State::kHealthy); }

TEST(UpdateLedgerGolden, OneModuleDead) { expect_golden(State::kOneDead); }

TEST(UpdateLedgerGolden, CounterLoss) {
  expect_golden(State::kCounterLoss);
  // The plan must really drop words, or the draw order is not pinned.
  EXPECT_GT(kExpected[2].dropped_words, 0u);
}

}  // namespace
}  // namespace pimkd::core
