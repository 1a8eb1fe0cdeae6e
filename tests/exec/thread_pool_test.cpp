#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel.h"

namespace dm::exec {
namespace {

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  for (int i = 0; i < 1000; ++i) {
    group.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 1000);
}

TEST(ThreadPool, ZeroThreadsRunsInlineOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  const auto caller = std::this_thread::get_id();
  bool ran_before_wait = false;
  std::thread::id ran_on;
  TaskGroup group(pool);
  group.run([&] {
    ran_before_wait = true;
    ran_on = std::this_thread::get_id();
  });
  // Inline mode executes at submission, not at wait.
  EXPECT_TRUE(ran_before_wait);
  EXPECT_EQ(ran_on, caller);
  group.wait();
}

TEST(ThreadPool, OneThreadCompletesOffCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> ran{0};
  TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) {
    group.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ExceptionPropagatesFromWait) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  group.run([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(ThreadPool, LowestSequenceExceptionWins) {
  // Every task throws its own index; the survivor must be the earliest
  // submitted one, independent of scheduling.
  for (unsigned threads : {0u, 1u, 4u}) {
    ThreadPool pool(threads);
    TaskGroup group(pool);
    for (int i = 3; i < 20; ++i) {
      group.run([i] { throw std::runtime_error(std::to_string(i)); });
    }
    try {
      group.wait();
      FAIL() << "wait() must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << "threads=" << threads;
    }
  }
}

TEST(ThreadPool, GroupIsReusableAfterWait) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> ran{0};
  group.run([&ran] { ++ran; });
  group.wait();
  group.run([&ran] { ++ran; });
  group.run([&ran] { ++ran; });
  group.wait();
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, NestedSubmissionDoesNotDeadlock) {
  // A task fans out a child group on the same pool and waits on it — the
  // waiting worker must help drain the queue instead of blocking, even on a
  // one-worker pool.
  for (unsigned threads : {0u, 1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<int> leaves{0};
    TaskGroup outer(pool);
    for (int i = 0; i < 8; ++i) {
      outer.run([&pool, &leaves] {
        TaskGroup inner(pool);
        for (int j = 0; j < 8; ++j) {
          inner.run([&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); });
        }
        inner.wait();
      });
    }
    outer.wait();
    EXPECT_EQ(leaves.load(), 64) << "threads=" << threads;
  }
}

TEST(ThreadPool, StressManyTinyTasks) {
  ThreadPool pool(4);
  constexpr int kTasks = 50'000;
  std::vector<std::uint8_t> hit(kTasks, 0);
  TaskGroup group(pool);
  for (int i = 0; i < kTasks; ++i) {
    group.run([&hit, i] { hit[static_cast<std::size_t>(i)] = 1; });
  }
  group.wait();
  EXPECT_EQ(std::accumulate(hit.begin(), hit.end(), 0), kTasks);
}

TEST(ParallelExec, ParallelForCoversRangeOnce) {
  for (unsigned threads : {0u, 1u, 3u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> counts(999);
    parallel_for_chunks(&pool, counts.size(),
                        [&](std::size_t begin, std::size_t end, std::size_t) {
                          for (std::size_t i = begin; i < end; ++i) {
                            counts[i].fetch_add(1);
                          }
                        });
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
  }
}

TEST(ParallelExec, MapReduceMergesInIndexOrder) {
  // The fold must see chunk results in index order regardless of the pool
  // size; concatenation makes any reordering visible.
  const auto run = [](ThreadPool* pool) {
    const std::vector<std::vector<std::size_t>> parts =
        parallel_map_chunks<std::vector<std::size_t>>(
            pool, 200, [](std::size_t begin, std::size_t end) {
              std::vector<std::size_t> squares;
              for (std::size_t i = begin; i < end; ++i) squares.push_back(i * i);
              return squares;
            });
    EXPECT_EQ(parts.size(), chunk_count_for(pool, 200));
    std::vector<std::size_t> acc;
    for (const auto& part : parts) acc.insert(acc.end(), part.begin(), part.end());
    return acc;
  };
  const std::vector<std::size_t> serial = run(nullptr);
  ASSERT_EQ(serial.size(), 200u);
  for (std::size_t i = 0; i < serial.size(); ++i) EXPECT_EQ(serial[i], i * i);
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(run(&pool), serial) << "threads=" << threads;
  }
}

TEST(ParallelExec, ParallelForPropagatesException) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_for_chunks(&pool, 1000,
                                   [](std::size_t begin, std::size_t end,
                                      std::size_t) {
                                     if (begin <= 777 && 777 < end) {
                                       throw std::runtime_error("x");
                                     }
                                   }),
               std::runtime_error);
}

TEST(ParallelExec, WavesConsumeInIndexOrderWithinTwoWaves) {
  // Every chunk is consumed exactly once, in chunk-index order, with the
  // same boundaries as parallel_map_chunks_n; at most two waves of results
  // are alive at once, whatever the pool size.
  constexpr std::size_t kItems = 1000;
  constexpr std::size_t kChunks = 37;
  for (const std::size_t window : {1u, 3u, 8u}) {
    for (unsigned threads : {0u, 1u, 2u, 8u}) {
      ThreadPool pool(threads);
      std::atomic<std::size_t> alive{0};
      std::atomic<std::size_t> peak{0};
      std::vector<std::pair<std::size_t, std::size_t>> consumed;
      parallel_map_waves_n<std::pair<std::size_t, std::size_t>>(
          &pool, kItems, kChunks, window,
          [&](std::size_t begin, std::size_t end) {
            const std::size_t now = alive.fetch_add(1) + 1;
            std::size_t seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            return std::make_pair(begin, end);
          },
          [&](std::size_t c, std::pair<std::size_t, std::size_t>&& range) {
            alive.fetch_sub(1);
            EXPECT_EQ(c, consumed.size());
            consumed.push_back(range);
          });
      ASSERT_EQ(consumed.size(), kChunks)
          << "window=" << window << " threads=" << threads;
      for (std::size_t c = 0; c < kChunks; ++c) {
        EXPECT_EQ(consumed[c].first, c * kItems / kChunks);
        EXPECT_EQ(consumed[c].second, (c + 1) * kItems / kChunks);
      }
      EXPECT_LE(peak.load(), 2 * window)
          << "window=" << window << " threads=" << threads;
    }
  }
}

TEST(ParallelExec, NullPoolRunsSerially) {
  std::vector<int> order;
  parallel_for_chunks(nullptr, 50,
                      [&](std::size_t begin, std::size_t end, std::size_t c) {
                        EXPECT_EQ(c, 0u);
                        for (std::size_t i = begin; i < end; ++i) {
                          order.push_back(static_cast<int>(i));
                        }
                      });
  ASSERT_EQ(order.size(), 50u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

}  // namespace
}  // namespace dm::exec
