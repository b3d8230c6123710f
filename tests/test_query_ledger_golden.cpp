// Golden ledger for every query kind in three fault states. Each kind
// (kNN, ANN, range, radius, radius_count, dependent_points) runs on a seeded
// tree that is healthy, has one module crashed (some subtree visits degrade
// to the host mirror), or has every module crashed (whole queries run on the
// host). For each pair the Metrics delta, the DegradedStats and an FNV-1a
// hash of the results must equal constants recorded before the in-PIM and
// host traversals were merged into one walk per query kind, so any drift in
// pruning, tie-breaks, charge order or fallback accounting shows up here.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/pim_kdtree.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"

namespace pimkd::core {
namespace {

struct Golden {
  std::uint64_t cpu_work, pim_work, pim_time, communication, comm_time, rounds;
  std::uint64_t fallback_queries, fallback_subtrees;
  std::uint64_t result_hash;
  friend bool operator==(const Golden&, const Golden&) = default;
};

std::ostream& operator<<(std::ostream& os, const Golden& g) {
  return os << "{" << g.cpu_work << ", " << g.pim_work << ", " << g.pim_time
            << ", " << g.communication << ", " << g.comm_time << ", "
            << g.rounds << ", " << g.fallback_queries << ", "
            << g.fallback_subtrees << ", 0x" << std::hex << g.result_hash
            << std::dec << "}";
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void mix(const Neighbor& n) {
    mix(n.id);
    mix(std::bit_cast<std::uint64_t>(n.sq_dist));
  }
  template <class T>
  void mix(const std::vector<T>& v) {
    mix(v.size());
    for (const T& x : v) mix(x);
  }
};

enum class State { kHealthy, kOneDead, kAllDead };
constexpr std::size_t kP = 8;
constexpr const char* kKinds[] = {"knn",    "ann",          "range",
                                  "radius", "radius_count", "dependent_points"};

// One row per kind (in kKinds order), one block per State.
constexpr Golden kExpected[3][6] = {
    // kHealthy
    {{0, 2582, 405, 568, 85, 1, 0, 0, 0x3bb9c1bfd6a5548f},
     {0, 2025, 352, 470, 73, 1, 0, 0, 0x63d3827e97cd7e00},
     {0, 2701, 414, 1516, 287, 1, 0, 0, 0x6c39c9393c09854d},
     {0, 7281, 1089, 3771, 527, 1, 0, 0, 0xfc913900f1ddbbd7},
     {0, 7281, 1089, 1710, 244, 1, 0, 0, 0xcca0bf0f5a5c4244},
     {0, 1732, 270, 396, 60, 1, 0, 0, 0xf777c53b67674c0b}},
    // kOneDead
    {{232, 2350, 396, 494, 81, 1, 0, 37, 0x3bb9c1bfd6a5548f},
     {183, 1842, 351, 410, 67, 1, 0, 30, 0x63d3827e97cd7e00},
     {211, 2490, 534, 1444, 321, 1, 0, 36, 0x6c39c9393c09854d},
     {653, 6628, 1213, 3547, 567, 1, 0, 112, 0xfc913900f1ddbbd7},
     {653, 6628, 1213, 1486, 247, 1, 0, 112, 0xcca0bf0f5a5c4244},
     {156, 1576, 276, 344, 60, 1, 0, 26, 0xf777c53b67674c0b}},
    // kAllDead
    {{2582, 0, 0, 0, 0, 1, 64, 0, 0x3bb9c1bfd6a5548f},
     {2025, 0, 0, 0, 0, 1, 64, 0, 0x63d3827e97cd7e00},
     {2701, 0, 0, 0, 0, 1, 24, 0, 0x6c39c9393c09854d},
     {7281, 0, 0, 0, 0, 1, 64, 0, 0xfc913900f1ddbbd7},
     {7281, 0, 0, 0, 0, 1, 64, 0, 0xcca0bf0f5a5c4244},
     {1732, 0, 0, 0, 0, 1, 64, 0, 0xf777c53b67674c0b}},
};

std::vector<Box> gen_boxes(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Box> boxes;
  for (std::size_t t = 0; t < count; ++t) {
    Box b = Box::empty(2);
    Point a, c;
    for (int d = 0; d < 2; ++d) {
      a[d] = rng.next_double() * 0.8;
      c[d] = a[d] + rng.next_double() * 0.2;
    }
    b.extend(a, 2);
    b.extend(c, 2);
    boxes.push_back(b);
  }
  return boxes;
}

// Runs every kind on a fresh seeded tree in `state`; one Golden per kind.
std::vector<Golden> measure(State state) {
  PimKdConfig cfg;
  cfg.dim = 2;
  cfg.leaf_cap = 8;
  cfg.sigma = 32;
  cfg.system.num_modules = kP;
  cfg.system.seed = 5;
  const auto pts = gen_uniform({.n = 3000, .dim = 2, .seed = 41});
  PimKdTree tree(cfg, pts);
  std::vector<double> prio(pts.size());
  Rng prng(43);
  for (double& p : prio) p = prng.next_double();
  tree.set_priorities(prio);
  if (state == State::kOneDead) tree.crash_module(3);
  if (state == State::kAllDead)
    for (std::size_t m = 0; m < kP; ++m) tree.crash_module(m);

  const auto qs = gen_uniform_queries(pts, 2, 64, 47);
  const auto boxes = gen_boxes(24, 53);
  std::vector<double> qprio;
  std::vector<PointId> self;
  for (PointId i = 0; i < qs.size(); ++i) {
    qprio.push_back(prio[i * 7]);
    self.push_back(i * 7);
  }

  std::vector<Golden> out;
  auto run = [&](auto&& fn) {
    tree.reset_degraded_stats();
    const auto before = tree.metrics().snapshot();
    Fnv h;
    for (const auto& r : fn()) h.mix(r);
    const auto d = tree.metrics().snapshot() - before;
    const auto st = tree.degraded_stats();
    out.push_back({d.cpu_work, d.pim_work, d.pim_time, d.communication,
                   d.comm_time, d.rounds, st.host_fallback_queries,
                   st.host_fallback_subtrees, h.h});
  };
  run([&] { return tree.knn(qs, 6); });
  run([&] { return tree.knn(qs, 6, 0.5); });
  run([&] { return tree.range(boxes); });
  run([&] { return tree.radius(qs, 0.06); });
  run([&] { return tree.radius_count(qs, 0.06); });
  run([&] { return tree.dependent_points(qs, qprio, self); });
  return out;
}

void expect_golden(State state) {
  const auto got = measure(state);
  ASSERT_EQ(got.size(), std::size(kKinds));
  for (std::size_t k = 0; k < got.size(); ++k)
    EXPECT_EQ(got[k], kExpected[static_cast<int>(state)][k]) << kKinds[k];
}

TEST(QueryLedgerGolden, Healthy) { expect_golden(State::kHealthy); }

TEST(QueryLedgerGolden, OneModuleDead) {
  expect_golden(State::kOneDead);
  // The state must really exercise partial degradation: subtree fallbacks,
  // no whole-query fallbacks.
  for (const Golden& g : kExpected[1]) EXPECT_EQ(g.fallback_queries, 0u);
  EXPECT_GT(kExpected[1][0].fallback_subtrees, 0u);
}

TEST(QueryLedgerGolden, AllModulesDead) { expect_golden(State::kAllDead); }

}  // namespace
}  // namespace pimkd::core
