// Wall-clock micro-benchmarks (google-benchmark) for the host-side engines.
//
// The paper's claims are cost-model claims (see the other bench binaries);
// this binary tracks the raw throughput of the shared-memory data structures
// and of the simulator itself, so regressions in the implementation are
// visible independently of the model counters.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "util/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "clustering/dbscan.hpp"
#include "clustering/dpc.hpp"
#include "core/pim_kdtree.hpp"
#include "kdtree/logtree.hpp"
#include "kdtree/pkdtree.hpp"
#include "kdtree/static_kdtree.hpp"
#include "util/generators.hpp"

namespace {

using namespace pimkd;

std::vector<Point> data(std::size_t n, int dim = 2) {
  return gen_uniform({.n = n, .dim = dim, .seed = 42});
}

void BM_StaticBuild(benchmark::State& state) {
  const auto pts = data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    StaticKdTree tree({.dim = 2, .leaf_cap = 16}, pts);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StaticBuild)->Arg(1 << 12)->Arg(1 << 15);

void BM_StaticKnn(benchmark::State& state) {
  const auto pts = data(1 << 15);
  StaticKdTree tree({.dim = 2, .leaf_cap = 16}, pts);
  const auto qs = gen_uniform_queries(pts, 2, 1024, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.knn(qs[i++ % qs.size()],
                                      static_cast<std::size_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StaticKnn)->Arg(1)->Arg(8)->Arg(64);

void BM_PkdBatchInsert(benchmark::State& state) {
  const auto base = data(1 << 15);
  const auto batch = gen_uniform({.n = 1024, .dim = 2, .seed = 7});
  for (auto _ : state) {
    state.PauseTiming();
    PkdTree tree({.dim = 2, .alpha = 1.0, .leaf_cap = 16, .sigma = 64,
                  .seed = 3},
                 base);
    state.ResumeTiming();
    benchmark::DoNotOptimize(tree.insert(batch));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_PkdBatchInsert);

// The PIM-kd-tree's host cost for the same batch size: insert 1024 points,
// then erase them, so the tree keeps its size across iterations. Items are
// points updated (2048 per iteration).
void BM_PimKdInsertErase(benchmark::State& state) {
  core::PimKdConfig cfg;
  cfg.dim = 2;
  cfg.system.num_modules = 64;
  core::PimKdTree tree(cfg, data(1 << 15));
  const auto batch = gen_uniform({.n = 1024, .dim = 2, .seed = 7});
  for (auto _ : state) {
    const auto ids = tree.insert(batch);
    tree.erase(ids);
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_PimKdInsertErase);

void BM_LogTreeKnn(benchmark::State& state) {
  LogTree tree({.dim = 2, .leaf_cap = 16});
  const auto pts = data(1 << 14);
  for (std::size_t i = 0; i < pts.size(); i += 512)
    (void)tree.insert(std::span(pts).subspan(i, 512));
  const auto qs = gen_uniform_queries(pts, 2, 512, 2);
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(tree.knn(qs[i++ % qs.size()], 8));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogTreeKnn);

void BM_PimKdBuild(benchmark::State& state) {
  const auto pts = data(static_cast<std::size_t>(state.range(0)));
  core::PimKdConfig cfg;
  cfg.dim = 2;
  cfg.system.num_modules = 64;
  for (auto _ : state) {
    core::PimKdTree tree(cfg, pts);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PimKdBuild)->Arg(1 << 12)->Arg(1 << 14);

void BM_PimKdKnn(benchmark::State& state) {
  const auto pts = data(1 << 14);
  core::PimKdConfig cfg;
  cfg.dim = 2;
  cfg.system.num_modules = 64;
  core::PimKdTree tree(cfg, pts);
  const auto qs = gen_uniform_queries(pts, 2, 1024, 5);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        tree.knn(qs, static_cast<std::size_t>(state.range(0))));
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_PimKdKnn)->Arg(8);

// Latency of one run_bulk dispatch with near-empty chunks: isolates the
// submission/claim/join overhead of the pool from any useful work.
void BM_BulkDispatch(benchmark::State& state) {
  ThreadPool& pool = ThreadPool::instance();
  const auto chunks = static_cast<std::size_t>(state.range(0));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state)
    pool.run_bulk(chunks, [&](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * chunks);
}
BENCHMARK(BM_BulkDispatch)->Arg(4)->Arg(64);

void BM_PimKdLeafSearch(benchmark::State& state) {
  const auto pts = data(1 << 14);
  core::PimKdConfig cfg;
  cfg.dim = 2;
  cfg.system.num_modules = 64;
  core::PimKdTree tree(cfg, pts);
  const auto qs = gen_uniform_queries(pts, 2, 1024, 3);
  for (auto _ : state) benchmark::DoNotOptimize(tree.leaf_search(qs));
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_PimKdLeafSearch);

void BM_PimKdRange(benchmark::State& state) {
  const auto pts = data(1 << 14);
  core::PimKdConfig cfg;
  cfg.dim = 2;
  cfg.system.num_modules = 64;
  core::PimKdTree tree(cfg, pts);
  std::vector<Box> boxes;
  const auto centers = gen_uniform_queries(pts, 2, 256, 9);
  for (const Point& c : centers) {
    Box b;
    for (int d = 0; d < 2; ++d) {
      b.lo[d] = c[d] - 0.03;
      b.hi[d] = c[d] + 0.03;
    }
    boxes.push_back(b);
  }
  for (auto _ : state) benchmark::DoNotOptimize(tree.range(boxes));
  state.SetItemsProcessed(state.iterations() * boxes.size());
}
BENCHMARK(BM_PimKdRange);

// --- Query-kernel micro-benchmarks (util/kernels.hpp) -------------------------
// Direct measurements of the leaf-scan primitives, scalar vs AVX2, chunked
// exactly like the query recursions (kScanChunk points per call). Arg(0) is
// the dimension. The avx2 variants silently run scalar when the CPU lacks
// AVX2 (resolve() degrades) — the reported pair is then ~1x, which the gate
// note in meta() calls out.

kernels::LeafSoa kernel_bench_soa(int dim, std::uint32_t n) {
  const auto pts = data(n, dim);
  kernels::LeafSoa soa;
  soa.reset(n, dim);
  for (std::uint32_t i = 0; i < n; ++i) soa.set(i, pts[i].x.data(), dim);
  return soa;
}

void kernel_leaf_scan(benchmark::State& state, kernels::Isa isa) {
  const int dim = static_cast<int>(state.range(0));
  const std::uint32_t n = 1 << 12;
  const auto soa = kernel_bench_soa(dim, n);
  const auto qs = data(64, dim);
  double out[kernels::kScanChunk];
  std::size_t qi = 0;
  for (auto _ : state) {
    const Point& q = qs[qi++ % qs.size()];
    double acc = 0;
    for (std::uint32_t base = 0; base < n; base += kernels::kScanChunk) {
      const std::uint32_t c = std::min(kernels::kScanChunk, n - base);
      kernels::leaf_sq_dists(isa, soa, base, c, q.x.data(), dim, out);
      acc += out[0];
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
void BM_KernelLeafScanScalar(benchmark::State& state) {
  kernel_leaf_scan(state, kernels::Isa::kScalar);
}
void BM_KernelLeafScanAvx2(benchmark::State& state) {
  kernel_leaf_scan(state, kernels::resolve(kernels::Request::kAvx2));
}
BENCHMARK(BM_KernelLeafScanScalar)->Arg(2)->Arg(8)->Arg(16);
BENCHMARK(BM_KernelLeafScanAvx2)->Arg(2)->Arg(8)->Arg(16);

void kernel_aabb(benchmark::State& state, kernels::Isa isa) {
  const int dim = static_cast<int>(state.range(0));
  const std::uint32_t n = 1 << 12;
  const auto soa = kernel_bench_soa(dim, n);
  Box box;
  for (int d = 0; d < dim; ++d) {
    box.lo[d] = 0.25;
    box.hi[d] = 0.75;
  }
  std::uint8_t out[kernels::kScanChunk];
  for (auto _ : state) {
    std::uint32_t hits = 0;
    for (std::uint32_t base = 0; base < n; base += kernels::kScanChunk) {
      const std::uint32_t c = std::min(kernels::kScanChunk, n - base);
      kernels::leaf_contains(isa, soa, base, c, box.lo.x.data(),
                             box.hi.x.data(), dim, out);
      hits += out[0];
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
void BM_KernelAabbContainsScalar(benchmark::State& state) {
  kernel_aabb(state, kernels::Isa::kScalar);
}
void BM_KernelAabbContainsAvx2(benchmark::State& state) {
  kernel_aabb(state, kernels::resolve(kernels::Request::kAvx2));
}
BENCHMARK(BM_KernelAabbContainsScalar)->Arg(2)->Arg(8)->Arg(16);
BENCHMARK(BM_KernelAabbContainsAvx2)->Arg(2)->Arg(8)->Arg(16);

// The branch-free point-box rejection distance used on every interior node
// of every descent (geometry.hpp delegates to this single definition).
void BM_KernelBoxDist(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const auto pts = data(1 << 10, dim);
  Box box;
  for (int d = 0; d < dim; ++d) {
    box.lo[d] = 0.4;
    box.hi[d] = 0.6;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(box.sq_dist_to(pts[i++ % pts.size()], dim));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelBoxDist)->Arg(2)->Arg(16);

// NodeId-indexed descent with the software prefetch on both children: the
// non-leaf half of every query recursion (knn over a deep tree, k=1, so leaf
// scans are small and the pointer-chase dominates).
void BM_KernelDescent(benchmark::State& state) {
  const auto pts = data(1 << 15);
  core::PimKdConfig cfg;
  cfg.dim = 2;
  cfg.leaf_cap = 4;
  cfg.system.num_modules = 64;
  core::PimKdTree tree(cfg, pts);
  const auto qs = gen_uniform_queries(pts, 2, 512, 17);
  for (auto _ : state) benchmark::DoNotOptimize(tree.knn(qs, 1));
  state.SetItemsProcessed(state.iterations() * qs.size());
}
BENCHMARK(BM_KernelDescent);

void BM_DbscanGrid(benchmark::State& state) {
  const auto pts = gen_blobs_with_noise(
      {.n = static_cast<std::size_t>(state.range(0)), .dim = 2, .seed = 4}, 5,
      0.03, 0.2);
  const DbscanParams p{.eps = 0.02, .minpts = 6};
  for (auto _ : state) benchmark::DoNotOptimize(dbscan_grid(pts, p));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DbscanGrid)->Arg(1 << 12)->Arg(1 << 14);

void BM_DpcShared(benchmark::State& state) {
  const auto pts = gen_gaussian_blobs(
      {.n = static_cast<std::size_t>(state.range(0)), .dim = 2, .seed = 5}, 5,
      0.04);
  const DpcParams p{.dim = 2, .dcut = 0.05, .delta = 0.4, .leaf_cap = 16};
  for (auto _ : state) benchmark::DoNotOptimize(dpc_shared(pts, p));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DpcShared)->Arg(1 << 12)->Arg(1 << 14);

// Forwards every finished run into the BenchReport as a structured row
// (name, real/cpu ns, iterations, throughput) while keeping the normal
// console output, so scripts/reproduce.sh lands the wall-clock timings in
// BENCH_results.json next to the cost-model benches.
class RowReporter : public ::benchmark::ConsoleReporter {
 public:
  // Plain tabular output (no ANSI color): the console stream is routinely
  // captured into bench_output.txt by scripts/reproduce.sh.
  explicit RowReporter(pimkd::bench::BenchReport& rep)
      : ConsoleReporter(OO_Tabular), rep_(rep) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      pimkd::bench::Json row;
      row.set("name", run.benchmark_name())
          .set("real_time_ns", run.GetAdjustedRealTime())
          .set("cpu_time_ns", run.GetAdjustedCPUTime())
          .set("iterations", static_cast<std::uint64_t>(run.iterations));
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end())
        row.set("items_per_second", static_cast<double>(it->second));
      rep_.add_row(row);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  pimkd::bench::BenchReport& rep_;
};

// Directly timed scalar-vs-AVX2 leaf-scan speedup for the reproduce.sh gate
// (ISSUE: >= 1.5x on AVX2 hardware). Timed outside google-benchmark so the
// two legs run back-to-back on identical data; best-of-5 passes each.
double measured_leafscan_speedup() {
  using clock = std::chrono::steady_clock;
  const int dim = 8;
  const std::uint32_t n = 1 << 12;
  const auto soa = kernel_bench_soa(dim, n);
  const auto qs = data(64, dim);
  double out[kernels::kScanChunk];
  auto time_isa = [&](kernels::Isa isa) {
    double best = 1e300;
    for (int pass = 0; pass < 5; ++pass) {
      const auto t0 = clock::now();
      double acc = 0;
      for (int rep = 0; rep < 200; ++rep) {
        const Point& q = qs[static_cast<std::size_t>(rep) % qs.size()];
        for (std::uint32_t base = 0; base < n; base += kernels::kScanChunk) {
          const std::uint32_t c = std::min(kernels::kScanChunk, n - base);
          kernels::leaf_sq_dists(isa, soa, base, c, q.x.data(), dim, out);
          acc += out[0];
        }
      }
      benchmark::DoNotOptimize(acc);
      const double s = std::chrono::duration<double>(clock::now() - t0).count();
      best = std::min(best, s);
    }
    return best;
  };
  const double scalar = time_isa(kernels::Isa::kScalar);
  const double simd = time_isa(kernels::resolve(kernels::Request::kAvx2));
  return simd > 0 ? scalar / simd : 0.0;
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): route runs through RowReporter so
// the structured result file carries the real timings (machine-dependent by
// nature — BENCH_results.json records them together with the thread count so
// comparisons stay apples-to-apples).
int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  pimkd::bench::BenchReport rep("bench_wallclock");
  RowReporter reporter(rep);
  const std::size_t ran = ::benchmark::RunSpecifiedBenchmarks(&reporter);
  ::benchmark::Shutdown();
  pimkd::bench::Json m;
  m.set("benchmarks_run", static_cast<std::uint64_t>(ran))
      .set("threads",
           static_cast<std::uint64_t>(pimkd::ThreadPool::instance().size()))
      .set("note", "wall-clock timings are machine-dependent");
  // SIMD speedup gate. On hardware without AVX2 the gate passes vacuously —
  // there is no vectorized leg to regress — and the note says so honestly.
  const bool avx2 = pimkd::kernels::cpu_supports_avx2();
  m.set("simd_avx2_available", avx2 ? std::uint64_t{1} : std::uint64_t{0});
  if (avx2) {
    const double speedup = measured_leafscan_speedup();
    m.set("simd_leafscan_speedup", speedup)
        .set("simd_gate_ok", speedup >= 1.5 ? std::uint64_t{1}
                                            : std::uint64_t{0})
        .set("simd_gate_note", "gate: avx2 leaf scan >= 1.5x scalar (dim 8)");
    std::fprintf(stderr, "[bench] simd leaf-scan speedup: %.2fx (%s)\n",
                 speedup, speedup >= 1.5 ? "gate ok" : "BELOW 1.5x GATE");
  } else {
    m.set("simd_gate_ok", std::uint64_t{1})
        .set("simd_gate_note",
             "no AVX2 on this host: scalar-only build, speedup gate vacuous");
  }
  rep.meta(m);
  return 0;
}
