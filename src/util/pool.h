// ThreadPool: a small fixed pool for deterministic fork-join parallelism.
//
// The parallel layers built on top of it (alg::routability trials, the
// batch engine, the parallel bench drivers) all follow one contract:
// split the work into independent indices, give each index its own state
// (seeded RNG stream, output slot), and join. Under that contract the
// *result* is a pure function of the inputs — bit-identical for every
// thread count, including 1 — and only the wall-clock changes.
//
// Partitioning is static and deterministic: for parallel_for(n) on a
// pool of W threads, thread w handles the contiguous block
// [w*n/W, (w+1)*n/W). The calling thread participates as thread 0, so a
// pool of size 1 spawns nothing and runs inline.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace segroute::util {

/// The machine's usable hardware concurrency, clamped to [1, 64]. This
/// is what every "threads = 0 means auto" option in the library
/// (engine::BatchOptions::threads, alg::CapacityOptions::threads,
/// fpga::FabricOptions::threads) resolves to. The clamp bounds the
/// fixed per-pool thread spawn on very wide machines; determinism is
/// unaffected either way, because every parallel layer partitions
/// statically and is bit-identical across thread counts.
int hardware_threads();

/// Resolves a user-facing thread-count option: n <= 0 means "auto"
/// (hardware_threads()), anything else is taken as-is.
int resolve_threads(int n);

class ThreadPool {
 public:
  /// `threads` <= 0: hardware concurrency. The pool keeps `threads - 1`
  /// worker threads parked on a condition variable; the calling thread
  /// is the remaining one.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return nthreads_; }

  /// Calls fn(i) exactly once for every i in [0, n), partitioned into
  /// contiguous per-thread blocks, and returns when all calls finished.
  /// If any fn throws, one of the exceptions is rethrown on the calling
  /// thread after the join. Not reentrant: fn must not call back into
  /// the same pool.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t)>& fn);

  /// Convenience: runs every job concurrently (one index per job).
  void run(const std::vector<std::function<void()>>& jobs);

 private:
  void worker_loop(int w);
  void run_block(int w);

  int nthreads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;  // bumped once per parallel_for
  int pending_ = 0;               // workers still running this generation
  bool stop_ = false;

  // Current job (valid while pending_ > 0).
  const std::function<void(std::int64_t)>* fn_ = nullptr;
  std::int64_t n_ = 0;
  std::exception_ptr error_;  // first exception, guarded by mu_
};

}  // namespace segroute::util
