#include "colorbars/runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "colorbars/runtime/seed.hpp"

namespace colorbars::runtime {
namespace {

TEST(DeriveStreamSeed, IsDeterministic) {
  EXPECT_EQ(derive_stream_seed(42, 7), derive_stream_seed(42, 7));
  EXPECT_EQ(derive_stream_seed(0, 0), derive_stream_seed(0, 0));
}

TEST(DeriveStreamSeed, SeparatesIndicesAndBases) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {0ULL, 1ULL, 0x5eedULL, ~0ULL}) {
    for (std::uint64_t index = 0; index < 256; ++index) {
      seeds.insert(derive_stream_seed(base, index));
    }
  }
  // All (base, index) pairs must land on distinct streams.
  EXPECT_EQ(seeds.size(), 4u * 256u);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<int> hits(100, 0);
  pool.parallel_for(0, 100, 8, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  for (unsigned threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    constexpr std::int64_t kCount = 10000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallel_for(0, kCount, 7, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(3, 4, 16, [&](std::int64_t lo, std::int64_t hi) {
    EXPECT_EQ(lo, 3);
    EXPECT_EQ(hi, 4);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ResultIndependentOfThreadCount) {
  // The determinism contract: per-index outputs only.
  constexpr std::int64_t kCount = 4096;
  auto run = [&](unsigned threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(kCount);
    pool.parallel_for(0, kCount, 13, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        out[static_cast<std::size_t>(i)] =
            derive_stream_seed(0xabc, static_cast<std::uint64_t>(i));
      }
    });
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ThreadPool, NestedRegionsCoverRangeExactlyOnce) {
  constexpr std::int64_t kOuter = 6;
  constexpr std::int64_t kMiddle = 8;
  constexpr std::int64_t kInner = 20;
  for (unsigned threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(kOuter * kMiddle * kInner);
    pool.parallel_for(0, kOuter, 1, [&](std::int64_t outer_lo, std::int64_t outer_hi) {
      for (std::int64_t outer = outer_lo; outer < outer_hi; ++outer) {
        pool.parallel_for(0, kMiddle, 1, [&](std::int64_t middle_lo, std::int64_t middle_hi) {
          for (std::int64_t middle = middle_lo; middle < middle_hi; ++middle) {
            pool.parallel_for(0, kInner, 3, [&](std::int64_t lo, std::int64_t hi) {
              for (std::int64_t inner = lo; inner < hi; ++inner) {
                hits[static_cast<std::size_t>((outer * kMiddle + middle) * kInner + inner)]
                    .fetch_add(1);
              }
            });
          }
        });
      }
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << threads << " threads";
  }
}

// Fewer outer indices than threads: the idle workers must join the
// nested regions. Every inner chunk holds until a second thread has run
// a chunk of the same nested region, so a pool that ran nested regions
// inline would leave each region on one thread until the deadline.
TEST(ThreadPool, NestedRegionIsSharedWithIdleWorkers) {
  constexpr std::int64_t kOuter = 2;
  struct Seen {
    std::mutex mutex;
    std::condition_variable grew;
    std::set<std::thread::id> ids;
  };
  std::vector<Seen> seen(kOuter);
  ThreadPool pool(4);
  pool.parallel_for(0, kOuter, 1, [&](std::int64_t outer_lo, std::int64_t outer_hi) {
    for (std::int64_t outer = outer_lo; outer < outer_hi; ++outer) {
      Seen& region = seen[static_cast<std::size_t>(outer)];
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      pool.parallel_for(0, 8, 1, [&](std::int64_t, std::int64_t) {
        std::unique_lock<std::mutex> lock(region.mutex);
        region.ids.insert(std::this_thread::get_id());
        region.grew.notify_all();
        region.grew.wait_until(lock, deadline, [&] { return region.ids.size() >= 2; });
      });
    }
  });
  for (Seen& region : seen) EXPECT_GE(region.ids.size(), 2u);
}

TEST(ThreadPool, NestedExceptionReachesNestedCaller) {
  ThreadPool pool(4);
  std::atomic<int> caught{0};
  pool.parallel_for(0, 4, 1, [&](std::int64_t outer_lo, std::int64_t outer_hi) {
    for (std::int64_t outer = outer_lo; outer < outer_hi; ++outer) {
      try {
        pool.parallel_for(0, 64, 1, [&](std::int64_t lo, std::int64_t hi) {
          if (lo <= 37 && 37 < hi) throw std::runtime_error("inner");
        });
      } catch (const std::runtime_error&) {
        caught.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(caught.load(), 4);
}

// Chunk bounds must stay inside [begin, end) where begin + chunk or the
// signed width end - begin would overflow.
TEST(ThreadPool, RangeAtInt64LimitsStaysInBounds) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  ThreadPool pool(4);

  // An out-of-bounds chunk throws, which drains the region instead of
  // letting a wrapped cursor walk the body across the negative range.
  std::vector<std::atomic<int>> hits(10);
  EXPECT_NO_THROW(pool.parallel_for(kMax - 10, kMax, 4, [&](std::int64_t lo, std::int64_t hi) {
    if (lo < kMax - 10 || hi > kMax || lo >= hi) throw std::out_of_range("chunk");
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i - (kMax - 10))].fetch_add(1);
    }
  }));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  // The full int64 range in chunks of kMax: three chunks that tile it.
  std::mutex mutex;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  pool.parallel_for(kMin, kMax, kMax, [&](std::int64_t lo, std::int64_t hi) {
    std::lock_guard<std::mutex> lock(mutex);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  const std::vector<std::pair<std::int64_t, std::int64_t>> expected = {
      {kMin, -1}, {-1, kMax - 1}, {kMax - 1, kMax}};
  EXPECT_EQ(chunks, expected);
}

TEST(ThreadPool, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000, 1,
                        [&](std::int64_t lo, std::int64_t) {
                          if (lo == 371) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, SequentialRegionsReuseWorkers) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(0, 100, 3, [&](std::int64_t lo, std::int64_t hi) {
      std::int64_t local = 0;
      for (std::int64_t i = lo; i < hi; ++i) local += i;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 99 * 100 / 2);
  }
}

TEST(ThreadPool, SharedPoolResizes) {
  ThreadPool::set_shared_thread_count(3);
  EXPECT_EQ(ThreadPool::shared().thread_count(), 3u);
  std::vector<int> hits(64, 0);
  parallel_for(0, 64, 4, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  // 3 contexts but per-index writes are disjoint — safe without atomics
  // only because the chunks partition the range.
  int total = std::accumulate(hits.begin(), hits.end(), 0);
  EXPECT_EQ(total, 64);
  ThreadPool::set_shared_thread_count(0);  // restore default sizing
}

}  // namespace
}  // namespace colorbars::runtime
