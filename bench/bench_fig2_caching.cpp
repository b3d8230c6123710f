// E8 — Figure 2 (replication strategies) + the static-mode mix sweep.
//
// Part 1 builds the same tree under the four strategies (none / top-down /
// bottom-up / dual) and measures what each is good for:
//   * top-down caching makes root-to-leaf searches local inside a group,
//   * bottom-up chains make leaf-to-root walks (kNN backtracking) local,
//   * dual-way gets both, at roughly the summed space.
// The bottom-up walk is driven through the Cursor directly: anchor at a
// leaf's module, then visit successive ancestors.
//
// Part 2 sweeps read/write mixes: for each mix it replays one deterministic
// op stream under every caching mode (fixed at construction) and reports
// which mode moves the fewest words. PIMKD_FIG2_SMOKE=1 shrinks everything
// for CI crash-coverage.
#include "bench_util.hpp"

using namespace pimkd;
using namespace pimkd::bench;

namespace {

// Communication of walking from `leaf` to the root through the cursor.
std::uint64_t bottom_up_walk(core::PimKdTree& tree, core::NodeId leaf,
                             std::size_t start_module) {
  pim::RoundGuard round(tree.metrics());
  const auto before = tree.metrics().snapshot().communication;
  core::Cursor cur(tree.config(), tree.pool(), tree.store(), tree.metrics(),
                   start_module);
  core::NodeId cursor_node = leaf;
  cur.visit(cursor_node);
  while (tree.pool().at(cursor_node).parent != core::kNoNode) {
    cursor_node = tree.pool().at(cursor_node).parent;
    cur.visit(cursor_node);
  }
  return tree.metrics().snapshot().communication - before;
}

// One epoch-structured op stream: `reads` kNN requests (through the unified
// PimKdTree::query() facade) plus writes/2 inserts and writes/2 erases per
// epoch, the erases retiring the previous epoch's inserts so the tree size
// stays ~n0. Returns total communication.
std::uint64_t run_stream(core::PimKdTree& tree, std::span<const Point> all,
                         std::size_t n0, std::size_t epochs, std::size_t reads,
                         std::size_t writes) {
  const auto before = tree.metrics().snapshot().communication;
  std::size_t next = n0;
  std::vector<PointId> prev;
  for (std::size_t e = 0; e < epochs; ++e) {
    std::vector<core::Request> reqs;
    reqs.reserve(reads);
    const std::size_t off = (e * 37) % 1000;
    for (std::size_t i = 0; i < reads; ++i)
      reqs.push_back(core::Request::knn(all[off + i], 4));
    (void)tree.query(reqs);
    const std::size_t w = writes / 2;
    if (w > 0) {
      auto ids = tree.insert(std::span<const Point>(all.data() + next, w));
      next += w;
      if (!prev.empty()) tree.erase(prev);
      prev = std::move(ids);
    }
  }
  return tree.metrics().snapshot().communication - before;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("PIMKD_FIG2_SMOKE") != nullptr;
  banner("E8 bench_fig2_caching", "Figure 2 replication strategies",
         "top-down helps top-down search, bottom-up helps upward walks, "
         "dual helps both; space ~ sum");
  const std::size_t n = smoke ? 1u << 13 : 1u << 16;
  const std::size_t P = 64;
  const std::size_t S = smoke ? 256 : 2048;
  const auto pts = gen_uniform({.n = n, .dim = 2, .seed = 5});
  const auto qs = gen_uniform_queries(pts, 2, S, 6);

  BenchReport rep("bench_fig2_caching");
  {
    Json m;
    m.set("n", n).set("P", P).set("S", S);
    rep.meta(m);
  }
  struct ModeRow {
    const char* name;
    core::CachingMode mode;
  };
  const ModeRow modes[] = {
      {"(a) no intra-group caching", core::CachingMode::kNone},
      {"(c) top-down only", core::CachingMode::kTopDown},
      {"(d) bottom-up only", core::CachingMode::kBottomUp},
      {"(b) dual-way (PIM-kd-tree)", core::CachingMode::kDual},
  };

  Table t({"strategy", "storage words", "space vs none",
           "leafsearch comm/q", "bottom-up walk comm/q", "knn comm/q"});
  std::uint64_t none_words = 0;
  for (const auto& [name, mode] : modes) {
    auto cfg = default_cfg(P);
    cfg.caching = mode;
    core::PimKdTree tree(cfg, pts);
    if (mode == core::CachingMode::kNone) none_words = tree.storage_words();

    const auto b1 = tree.metrics().snapshot();
    const auto leaves = tree.leaf_search(qs);
    const auto d1 = tree.metrics().snapshot() - b1;

    std::uint64_t up_comm = 0;
    for (std::size_t i = 0; i < leaves.size(); ++i)
      up_comm += bottom_up_walk(tree, leaves[i], i % P);

    const auto b2 = tree.metrics().snapshot();
    (void)tree.knn(qs, 8);
    const auto d2 = tree.metrics().snapshot() - b2;

    t.row({name, num(double(tree.storage_words())),
           num(double(tree.storage_words()) / double(std::max<std::uint64_t>(
                                                  none_words, 1))),
           num(double(d1.communication) / double(S)),
           num(double(up_comm) / double(S)),
           num(double(d2.communication) / double(S))});
    Json row;
    row.set("strategy", name).set("storage_words", tree.storage_words())
        .set("leafsearch_comm_per_q", double(d1.communication) / double(S))
        .set("bottom_up_comm_per_q", double(up_comm) / double(S))
        .set("knn_comm_per_q", double(d2.communication) / double(S));
    rep.add_row(row);
  }
  t.print();
  std::printf(
      "\nReference scales: log2(n)=%.1f (hops without caching), "
      "log*P=%d (hops with caching)\n",
      std::log2(double(n)), log_star2(double(P)));

  // --- Part 2: caching modes across read/write mixes ------------------------
  banner("E8b caching modes across read/write mixes",
         "total comm of one op stream under each static mode",
         "the caching mode is a construction-time choice; the best one "
         "depends on the mix");
  const std::size_t an = smoke ? 4000 : 20000;
  const std::size_t aP = 16;
  const std::size_t epochs = smoke ? 24 : 160;
  const auto apts =
      gen_uniform({.n = an + epochs * 200 + 1000, .dim = 2, .seed = 7});

  struct MixSpec {
    const char* name;
    std::size_t reads, writes;
  };
  const MixSpec mixes[] = {
      {"read95", 380, 20},
      {"bal50", 200, 200},
      {"write10", 40, 360},
  };
  const core::CachingMode all_modes[] = {
      core::CachingMode::kNone, core::CachingMode::kTopDown,
      core::CachingMode::kBottomUp, core::CachingMode::kDual};

  Table at({"mix", "none", "topdown", "bottomup", "dual", "best mode"});
  for (const MixSpec& mix : mixes) {
    std::uint64_t comm[4] = {};
    for (const core::CachingMode mode : all_modes) {
      auto cfg = default_cfg(aP, 2, 42);
      cfg.caching = mode;
      core::PimKdTree tree(cfg, std::span<const Point>(apts.data(), an));
      comm[static_cast<int>(mode)] =
          run_stream(tree, apts, an, epochs, mix.reads, mix.writes);
    }
    std::size_t best = 0;
    for (std::size_t m = 1; m < 4; ++m)
      if (comm[m] < comm[best]) best = m;

    at.row({mix.name, num(double(comm[0])), num(double(comm[1])),
            num(double(comm[2])), num(double(comm[3])),
            core::caching_mode_name(all_modes[best])});
    Json row;
    row.set("mix", mix.name)
        .set("reads_per_epoch", std::uint64_t(mix.reads))
        .set("writes_per_epoch", std::uint64_t(mix.writes))
        .set("epochs", std::uint64_t(epochs))
        .set("comm_none", comm[0])
        .set("comm_topdown", comm[1])
        .set("comm_bottomup", comm[2])
        .set("comm_dual", comm[3])
        .set("best_static_mode", core::caching_mode_name(all_modes[best]))
        .set("best_static_comm", comm[best]);
    rep.add_row(row);
  }
  at.print();
  return 0;
}
