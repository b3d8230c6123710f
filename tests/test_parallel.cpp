#include "parallel/primitives.hpp"

#include <gtest/gtest.h>

#include "parallel/thread_pool.hpp"
#include "util/random.hpp"

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace pimkd {
namespace {

TEST(ParallelFor, CoversEveryIndexOnce) {
  constexpr std::size_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyAndSingle) {
  int count = 0;
  parallel_for(5, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  parallel_for(5, 6, [&](std::size_t i) { EXPECT_EQ(i, 5u); ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ParallelFor, NestedDoesNotDeadlock) {
  std::atomic<int> total{0};
  parallel_for(0, 8, [&](std::size_t) {
    parallel_for(0, 8, [&](std::size_t) { total.fetch_add(1); }, 1);
  }, 1);
  EXPECT_EQ(total.load(), 64);
}

TEST(RunBulk, PropagatesExceptionToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_bulk(64,
                             [](std::size_t i) {
                               if (i == 13)
                                 throw std::runtime_error("chunk 13");
                             }),
               std::runtime_error);
}

TEST(RunBulk, PropagatesOnInlinePaths) {
  ThreadPool pool(2);
  // chunks == 1 runs inline in the caller.
  EXPECT_THROW(pool.run_bulk(1, [](std::size_t) {
    throw std::invalid_argument("inline");
  }),
               std::invalid_argument);
  // A zero-worker pool also runs inline.
  ThreadPool serial(0);
  EXPECT_THROW(serial.run_bulk(8, [](std::size_t i) {
    if (i == 3) throw std::invalid_argument("serial");
  }),
               std::invalid_argument);
}

TEST(RunBulk, StopsHandingOutChunksAfterFailure) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  try {
    pool.run_bulk(10000, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("boom");
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      executed.fetch_add(1);
    });
    FAIL() << "expected run_bulk to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // Chunk 0 fails almost immediately; once the failure is observed the
  // remaining chunks are claimed but skipped, so only the handful in flight
  // at that moment actually run.
  EXPECT_LT(executed.load(), 10000);
}

TEST(RunBulk, PoolUsableAfterException) {
  ThreadPool pool(2);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.run_bulk(32,
                               [](std::size_t) {
                                 throw std::runtime_error("every chunk");
                               }),
                 std::runtime_error);
  }
  std::atomic<int> count{0};
  pool.run_bulk(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(RunBulk, NestedBulkPropagatesInnerException) {
  ThreadPool pool(2);
  // The inner (re-entrant) bulk runs inline in the worker; its exception must
  // surface through the outer chunk to the original caller.
  try {
    pool.run_bulk(8, [&](std::size_t outer) {
      pool.run_bulk(8, [outer](std::size_t inner) {
        if (outer == 2 && inner == 3) throw std::runtime_error("inner 2/3");
      });
    });
    FAIL() << "expected the inner exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "inner 2/3");
  }
  // The pool survives the nested failure.
  std::atomic<int> count{0};
  pool.run_bulk(16, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16);
}

TEST(RunBulk, NestedBulkInnerFailureDoesNotPoisonSiblings) {
  ThreadPool pool(4);
  // Only one outer chunk hosts a failing inner bulk; the others run their own
  // (successful) inner bulks to completion. One failure must not leak into a
  // sibling's bulk state.
  std::atomic<int> ok_chunks{0};
  EXPECT_THROW(
      pool.run_bulk(6,
                    [&](std::size_t outer) {
                      if (outer == 1) {
                        pool.run_bulk(4, [](std::size_t) {
                          throw std::runtime_error("poison");
                        });
                      } else {
                        pool.run_bulk(4, [&](std::size_t) {
                          ok_chunks.fetch_add(1);
                        });
                      }
                    }),
      std::runtime_error);
  // The surviving outer chunks each completed all 4 inner chunks.
  EXPECT_EQ(ok_chunks.load() % 4, 0);
  EXPECT_GT(ok_chunks.load(), 0);
}

TEST(RunBulk, ConcurrentThrowersRaceCleanly) {
  ThreadPool pool(4);
  // Every chunk throws "simultaneously": exactly one exception wins the race
  // and reaches the caller, and repeating the experiment never wedges or
  // crashes the pool.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> started{0};
    try {
      pool.run_bulk(64, [&](std::size_t i) {
        started.fetch_add(1);
        throw std::runtime_error("chunk " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      // The winner is one of the chunks that actually started.
      EXPECT_EQ(std::string(e.what()).rfind("chunk ", 0), 0u);
    }
    EXPECT_GE(started.load(), 1);
  }
  std::atomic<int> count{0};
  pool.run_bulk(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(RunBulk, MixedThrowersAndWorkersConcurrently) {
  ThreadPool pool(4);
  // Throwing and non-throwing chunks interleave under contention; the
  // completed work is consistent (no double-executed or torn chunks).
  for (int round = 0; round < 10; ++round) {
    std::vector<std::atomic<int>> hits(256);
    try {
      pool.run_bulk(256, [&](std::size_t i) {
        if (i % 17 == 3) throw std::invalid_argument("thrower");
        hits[i].fetch_add(1);
      });
      FAIL() << "expected an exception";
    } catch (const std::invalid_argument&) {
    }
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_LE(hits[i].load(), 1) << "chunk " << i << " ran twice";
  }
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(parallel_for(0, 1000,
                            [](std::size_t i) {
                              if (i == 500)
                                throw std::invalid_argument("bad index");
                            },
                            1),
               std::invalid_argument);
}

TEST(ParallelReduce, Sum) {
  const std::size_t n = 50000;
  const auto sum = parallel_reduce<std::uint64_t>(
      0, n, 0, [](std::size_t i) { return static_cast<std::uint64_t>(i); },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ExclusiveScan, SmallAndLarge) {
  for (const std::size_t n : {0ul, 1ul, 7ul, 100000ul}) {
    std::vector<std::uint64_t> v(n, 0);
    for (std::size_t i = 0; i < n; ++i) v[i] = i % 5;
    std::vector<std::uint64_t> expect(n);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expect[i] = acc;
      acc += i % 5;
    }
    const auto total = exclusive_scan(v);
    EXPECT_EQ(total, acc);
    EXPECT_EQ(v, expect);
  }
}

TEST(ParallelFilter, KeepsOrder) {
  const std::size_t n = 30000;
  const auto idx =
      parallel_filter_indices(n, [](std::size_t i) { return i % 3 == 0; });
  ASSERT_EQ(idx.size(), (n + 2) / 3);
  for (std::size_t j = 0; j < idx.size(); ++j) EXPECT_EQ(idx[j], j * 3);
}

TEST(ParallelSort, SortsLargeVector) {
  Rng rng(4);
  std::vector<std::uint64_t> v(200000);
  for (auto& x : v) x = rng.next_u64() % 1000;
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  parallel_sort(v, std::less<>{});
  EXPECT_EQ(v, expect);
}

TEST(ParallelSort, SmallVector) {
  std::vector<int> v = {5, 3, 1, 4, 2};
  parallel_sort(v, std::less<>{});
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(GroupBy, GroupsAndStability) {
  const std::vector<std::uint64_t> keys = {7, 3, 7, 9, 3, 7};
  const auto g = group_by(keys);
  ASSERT_EQ(g.keys.size(), 3u);
  ASSERT_EQ(g.offsets.size(), 4u);
  EXPECT_EQ(g.perm.size(), keys.size());
  // Each group contains exactly the indices with its key, in input order.
  for (std::size_t j = 0; j < g.keys.size(); ++j) {
    std::size_t prev = 0;
    bool first = true;
    for (std::size_t t = g.offsets[j]; t < g.offsets[j + 1]; ++t) {
      EXPECT_EQ(keys[g.perm[t]], g.keys[j]);
      if (!first) EXPECT_GT(g.perm[t], prev);
      prev = g.perm[t];
      first = false;
    }
  }
}

TEST(GroupBy, Empty) {
  const auto g = group_by({});
  EXPECT_TRUE(g.keys.empty());
  EXPECT_EQ(g.offsets.size(), 1u);
}

}  // namespace
}  // namespace pimkd
