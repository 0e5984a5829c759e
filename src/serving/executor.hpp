// Deterministic fan-out over an index range on a persistent thread pool.
//
// The serving runtime parallelizes two shapes of work: each slot's per-link
// work (EdgeCluster runs every link's decide, schedule and drain as one
// task, K claims per slot) and whole replicate seeds across cores. Both are
// "each index owns its slot" loops — body(i) reads and writes only state
// owned by index i — so results are bit-identical for any thread count or
// interleaving, which tests assert (parallel == serial). Determinism is a
// contract on the *caller's* body, not something the pool can enforce.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace arvis {

class ParallelExecutor {
 public:
  /// `threads` = total workers including the calling thread; 0 picks
  /// hardware_concurrency. With threads == 1 every parallel_for runs inline
  /// (no pool is spawned, no synchronization cost).
  explicit ParallelExecutor(std::size_t threads = 0);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// Runs body(i) for every i in [0, count); returns when all are done.
  /// Indices are claimed from an atomic counter, so scheduling order is
  /// nondeterministic — body(i) must touch only index-i state. The calling
  /// thread participates. If any body throws, the first exception (by
  /// completion order) is rethrown after the loop drains; the remaining
  /// indices still run.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  void run_current_job();

  std::size_t threads_;
  std::vector<std::thread> workers_;

  // All job state below is guarded by mutex_; index claims take the lock,
  // which keeps a late-waking worker from crossing into a later job's index
  // space (parallel_for waits for active_workers_ == 0 before returning).
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;
  std::size_t next_ = 0;
  std::size_t completed_ = 0;
  std::size_t active_workers_ = 0;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
};

}  // namespace arvis
