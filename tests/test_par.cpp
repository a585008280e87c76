#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "par/cost_meter.hpp"
#include "par/parallel.hpp"
#include "par/thread_pool.hpp"

namespace psdp::par {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.run_batch(100, [&](Index k) { hits[static_cast<std::size_t>(k)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  Index sum = 0;  // no synchronization needed: everything is inline
  pool.run_batch(10, [&](Index k) { sum += k; });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, EmptyBatchIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.run_batch(0, [&](Index) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.run_batch(8,
                     [&](Index k) {
                       if (k == 5) throw std::runtime_error("task failed");
                     }),
      std::runtime_error);
  // The pool must remain usable after an exception.
  std::atomic<int> count{0};
  pool.run_batch(4, [&](Index) { count++; });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, SequentialBatchesReuseWorkers) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<Index> sum{0};
    pool.run_batch(16, [&](Index k) { sum += k; });
    ASSERT_EQ(sum.load(), 120) << "round " << round;
  }
}

TEST(ThreadPool, RejectsNegativeWorkerCount) {
  EXPECT_THROW(ThreadPool(-1), InvalidArgument);
}

TEST(ParallelFor, CoversRangeOnce) {
  std::vector<std::atomic<int>> hits(5000);
  parallel_for(0, 5000, [&](Index i) { hits[static_cast<std::size_t>(i)]++; },
               /*grain=*/16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndReversedRanges) {
  bool ran = false;
  parallel_for(3, 3, [&](Index) { ran = true; });
  parallel_for(5, 2, [&](Index) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForChunked, ChunksPartitionTheRange) {
  std::mutex mu;
  std::vector<std::pair<Index, Index>> chunks;
  parallel_for_chunked(0, 10000, [&](Index b, Index e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back({b, e});
  }, /*grain=*/64);
  std::sort(chunks.begin(), chunks.end());
  Index expected_begin = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b, expected_begin);
    EXPECT_LT(b, e);
    expected_begin = e;
  }
  EXPECT_EQ(expected_begin, 10000);
}

TEST(ParallelReduce, MatchesSerialSum) {
  const Index n = 100000;
  const Real got = parallel_sum(0, n, [](Index i) {
    return static_cast<Real>(i);
  }, /*grain=*/128);
  EXPECT_NEAR(got, static_cast<Real>(n) * (n - 1) / 2, 1e-3);
}

TEST(ParallelReduce, DeterministicAcrossRuns) {
  auto run = [] {
    return parallel_sum(0, 50000,
                        [](Index i) { return 1.0 / (static_cast<Real>(i) + 1); },
                        /*grain=*/64);
  };
  const Real a = run();
  const Real b = run();
  EXPECT_EQ(a, b);  // bitwise: chunk partials combined in fixed order
}

TEST(ParallelReduce, CustomCombine) {
  const Real max = parallel_reduce(
      0, 10000, -1e300,
      [](Index i) { return static_cast<Real>((i * 37) % 1001); },
      [](Real a, Real b) { return a > b ? a : b; }, /*grain=*/32);
  EXPECT_EQ(max, 1000);
}

TEST(ParallelMax, FindsMaximum) {
  EXPECT_EQ(parallel_max(0, 1000,
                         [](Index i) { return static_cast<Real>(i % 100); }),
            99);
  EXPECT_THROW(parallel_max(0, 0, [](Index) { return 0.0; }), InvalidArgument);
}

TEST(ParallelFor, NestedParallelismRunsInline) {
  std::atomic<int> total{0};
  parallel_for(0, 8, [&](Index) {
    parallel_for(0, 8, [&](Index) { total++; }, /*grain=*/1);
  }, /*grain=*/1);
  EXPECT_EQ(total.load(), 64);
}

TEST(NumThreads, SetAndRestore) {
  const int before = num_threads();
  set_num_threads(2);
  EXPECT_EQ(num_threads(), 2);
  std::atomic<int> count{0};
  parallel_for(0, 100, [&](Index) { count++; }, /*grain=*/1);
  EXPECT_EQ(count.load(), 100);
  set_num_threads(before);
  EXPECT_THROW(set_num_threads(0), InvalidArgument);
}

TEST(NumThreads, ConcurrentFirstUseSharesOnePool) {
  // The pool and the thread count are created on first use. Many OS
  // threads (serve lanes, plan builders) may make that first use at the
  // same instant; each must get the one shared pool and finish its loop.
  // set_num_threads drops the pool, so every round races a fresh lazy init.
  const int saved = num_threads();
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  constexpr Index kN = 4096;
  const Real want = static_cast<Real>(kN) * (kN - 1) / 2;
  for (int round = 0; round < kRounds; ++round) {
    set_num_threads(2 + round % 3);
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<Real> sums(kThreads, 0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        std::vector<Real> out(static_cast<std::size_t>(kN), 0);
        parallel_for(0, kN, [&](Index i) {
          out[static_cast<std::size_t>(i)] = static_cast<Real>(i);
        }, /*grain=*/64);
        sums[static_cast<std::size_t>(t)] =
            parallel_sum(0, kN, [&](Index i) {
              return out[static_cast<std::size_t>(i)];
            }, /*grain=*/64);
      });
    }
    while (ready.load() < kThreads) std::this_thread::yield();
    go.store(true);
    for (std::thread& t : threads) t.join();
    for (const Real s : sums) ASSERT_EQ(s, want) << "round " << round;
  }
  set_num_threads(saved);
}

TEST(CostMeter, AccumulatesAndResets) {
  CostMeter::reset();
  CostMeter::add_work(100);
  CostMeter::add_work(50);
  CostMeter::add_depth(7);
  const auto cost = CostMeter::snapshot();
  EXPECT_GE(cost.work, 150u);  // other tests' kernels may add more
  EXPECT_GE(cost.depth, 7u);
  CostMeter::reset();
  const auto zero = CostMeter::snapshot();
  EXPECT_EQ(zero.work, 0u);
  EXPECT_EQ(zero.depth, 0u);
}

TEST(CostMeter, ReductionDepthFormula) {
  EXPECT_EQ(reduction_depth(1), 1u);
  EXPECT_EQ(reduction_depth(2), 2u);
  EXPECT_EQ(reduction_depth(1024), 11u);
}

TEST(CostMeter, ThreadSafeAccumulation) {
  CostMeter::reset();
  parallel_for(0, 10000, [](Index) { CostMeter::add_work(1); }, /*grain=*/8);
  EXPECT_EQ(CostMeter::snapshot().work, 10000u);
}

}  // namespace
}  // namespace psdp::par
