#include "colorbars/runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

namespace colorbars::runtime {

namespace {

unsigned default_thread_count() {
  if (const char* env = std::getenv("COLORBARS_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<unsigned>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// One parallel_for call, living on its caller's stack. Participants
// claim chunks by index and compute bounds in unsigned arithmetic, so a
// claim never leaves [begin, end) and the cursor passes `chunks` by at
// most one per participant, however close `end` sits to INT64_MAX.
struct Region {
  const std::function<void(std::int64_t, std::int64_t)>* body = nullptr;
  std::int64_t begin = 0;
  std::uint64_t span = 0;  // end - begin
  std::uint64_t chunk = 1;
  std::uint64_t chunks = 0;
  std::atomic<std::uint64_t> next{0};
  // Helpers inside run_chunks; guarded by the pool mutex, as is `done`.
  int active_workers = 0;
  std::condition_variable done;
  std::exception_ptr error;
  std::mutex error_mutex;

  [[nodiscard]] bool has_unclaimed() const {
    return next.load(std::memory_order_relaxed) < chunks;
  }

  void run_chunks() {
    for (;;) {
      const std::uint64_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= chunks) break;
      const std::uint64_t offset = index * chunk;
      const std::uint64_t lo = static_cast<std::uint64_t>(begin) + offset;
      const std::uint64_t hi = lo + std::min(chunk, span - offset);
      try {
        (*body)(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi));
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        // Drain the remaining range so other participants stop quickly.
        next.store(chunks, std::memory_order_relaxed);
      }
    }
  }
};

}  // namespace

struct ThreadPool::Impl {
  unsigned contexts = 1;
  std::vector<std::thread> workers;
  std::mutex mutex;
  std::condition_variable work_cv;
  // Regions whose caller is still inside parallel_for, innermost last.
  std::vector<Region*> open;
  bool stopping = false;

  /// Innermost open region with an unclaimed chunk. Caller holds `mutex`.
  [[nodiscard]] Region* claimable() const {
    for (auto it = open.rbegin(); it != open.rend(); ++it) {
      if ((*it)->has_unclaimed()) return *it;
    }
    return nullptr;
  }

  // A worker only claims a chunk from here, while it holds no chunk of
  // its own, so every wait in parallel_for is on helpers that are
  // deeper in the same call tree: the waits-for graph cannot cycle.
  void worker_loop() {
    for (;;) {
      Region* claimed = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock, [&] { return stopping || (claimed = claimable()) != nullptr; });
        if (stopping) return;
        ++claimed->active_workers;
      }
      claimed->run_chunks();
      // Notify under the lock: once it is released the caller may
      // return and destroy the region.
      std::lock_guard<std::mutex> lock(mutex);
      if (--claimed->active_workers == 0) claimed->done.notify_one();
    }
  }
};

ThreadPool::ThreadPool(unsigned threads) : impl_(new Impl) {
  impl_->contexts = threads > 0 ? threads : default_thread_count();
  // The caller of parallel_for is one context; spawn the rest.
  for (unsigned i = 1; i < impl_->contexts; ++i) {
    impl_->workers.emplace_back([impl = impl_] { impl->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
  delete impl_;
}

unsigned ThreadPool::thread_count() const noexcept { return impl_->contexts; }

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end, std::int64_t chunk,
                              const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (end <= begin) return;
  if (chunk <= 0) chunk = 1;
  // Exact for every begin < end, where the signed width could overflow.
  const std::uint64_t span = static_cast<std::uint64_t>(end) - static_cast<std::uint64_t>(begin);
  const auto chunk_size = static_cast<std::uint64_t>(chunk);
  if (impl_->workers.empty() || span <= chunk_size) {
    body(begin, end);
    return;
  }

  Region region;
  region.body = &body;
  region.begin = begin;
  region.span = span;
  region.chunk = chunk_size;
  region.chunks = span / chunk_size + (span % chunk_size != 0 ? 1 : 0);
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->open.push_back(&region);
  }
  impl_->work_cv.notify_all();

  region.run_chunks();

  // Every chunk is claimed now. Unpublish the region so no helper joins
  // late, then wait only for the helpers already running its chunks.
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->open.erase(std::find(impl_->open.begin(), impl_->open.end(), &region));
    region.done.wait(lock, [&] { return region.active_workers == 0; });
  }
  if (region.error) std::rethrow_exception(region.error);
}

namespace {

std::mutex shared_pool_mutex;

std::unique_ptr<ThreadPool>& shared_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool& ThreadPool::shared() {
  std::lock_guard<std::mutex> lock(shared_pool_mutex);
  auto& slot = shared_pool_slot();
  if (!slot) slot = std::make_unique<ThreadPool>();
  return *slot;
}

void ThreadPool::set_shared_thread_count(unsigned threads) {
  std::lock_guard<std::mutex> lock(shared_pool_mutex);
  shared_pool_slot() = std::make_unique<ThreadPool>(threads);
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t chunk,
                  const std::function<void(std::int64_t, std::int64_t)>& body) {
  ThreadPool::shared().parallel_for(begin, end, chunk, body);
}

}  // namespace colorbars::runtime
