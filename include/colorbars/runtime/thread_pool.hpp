#pragma once

// A small chunked fork-join thread pool for the simulation hot paths.
// Design constraints, in order:
//
//  1. Determinism. parallel_for only schedules; each index's output must
//     depend solely on the index (callers write into per-index slots and
//     derive per-index RNG streams via derive_stream_seed). Under that
//     contract results are byte-identical at any thread count.
//  2. No work stealing, no per-task allocation: one atomic chunk cursor
//     per region that workers and the calling thread race to claim.
//  3. Nested calls share idle workers without deadlock: a parallel_for
//     issued from inside a parallel region publishes its own region, and
//     a worker with no chunk in hand claims chunks of the innermost open
//     region that has some left. So inner parallelism (e.g. frame
//     synthesis) fills the cores that outer parallelism (e.g. fewer
//     Monte-Carlo trials than threads) leaves idle. A caller waits only
//     for chunks of its own region and never takes unrelated work, so
//     the waits follow the call tree and cannot cycle.

#include <cstdint>
#include <functional>
#include <vector>

namespace colorbars::runtime {

class ThreadPool {
 public:
  /// `threads` is the total number of execution contexts (including the
  /// caller of parallel_for); 0 picks the COLORBARS_THREADS environment
  /// variable if set, else std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution contexts (>= 1).
  [[nodiscard]] unsigned thread_count() const noexcept;

  /// Applies `body(lo, hi)` over [begin, end) split into chunks of at
  /// most `chunk` indices. Blocks until the whole range is done; the
  /// calling thread participates. The first exception thrown by `body`
  /// is rethrown here (remaining chunks may be skipped). Runs inline
  /// when the pool is single-threaded or the range fits one chunk; a
  /// call nested inside another parallel region is shared with idle
  /// workers like a top-level one.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t chunk,
                    const std::function<void(std::int64_t, std::int64_t)>& body);

  /// Process-wide pool used by the simulation layers. Created on first
  /// use with the default thread count.
  [[nodiscard]] static ThreadPool& shared();

  /// Replaces the shared pool with one of `threads` contexts (0 =
  /// default sizing). Must not race with in-flight parallel work — it is
  /// a startup/test knob, not a dynamic resize.
  static void set_shared_thread_count(unsigned threads);

 private:
  struct Impl;
  Impl* impl_;
};

/// parallel_for on the shared pool.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t chunk,
                  const std::function<void(std::int64_t, std::int64_t)>& body);

}  // namespace colorbars::runtime
