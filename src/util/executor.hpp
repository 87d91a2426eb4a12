/// \file executor.hpp
/// \brief Fixed-size thread pool for sweeping independent jobs.
///
/// The ECO workloads are dominated by *independent* problems: the 60
/// (unit, configuration) runs of bench_table1, the random-simulation rounds
/// of a CEC screen, or a verification step that can overlap result
/// assembly. This module provides the one concurrency primitive they all
/// need — a fixed pool of worker threads with task futures and a
/// caller-participating `parallel_for` — plus the process-wide `ECO_JOBS` /
/// `--jobs N` convention for choosing the degree of parallelism.
///
/// Design rules:
///  - **Serial mode is exact.** An executor with `jobs() <= 1` never spawns
///    a thread: `submit` runs the task inline and `parallel_for` is a plain
///    loop in index order, so `--jobs 1` reproduces serial execution
///    bit-for-bit (and is the default when `ECO_JOBS` is unset).
///  - **`parallel_for` is deadlock-free under nesting.** The calling thread
///    participates: indices are claimed from a shared atomic counter by the
///    caller *and* by pool workers, so a `parallel_for` issued from inside a
///    pool task completes even when every worker is busy — the inner caller
///    just runs its own iterations inline.
///  - **Exceptions propagate.** The first exception thrown by any iteration
///    (or submitted task, via its future) is captured and rethrown to the
///    caller; remaining iterations are skipped (not interrupted).
///
/// Thread-count resolution: `default_jobs()` reads the `ECO_JOBS`
/// environment variable (positive integer; `0` means "all hardware
/// threads") and falls back to 1 — parallelism is strictly opt-in so that
/// library behaviour stays deterministic unless a front end asks otherwise.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/cancel.hpp"

namespace eco::util {

/// Number of hardware threads (at least 1).
int hardware_jobs() noexcept;

/// Resolves the process default: `ECO_JOBS` if set (0 = all hardware
/// threads), otherwise 1 (serial).
int default_jobs() noexcept;

/// Fixed-size thread pool. See the file comment for the semantics.
class Executor {
 public:
  /// \p jobs <= 1 selects the inline serial mode; otherwise `jobs - 1`
  /// worker threads are spawned (the caller of parallel_for is the jobs-th).
  explicit Executor(int jobs = default_jobs());
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The configured degree of parallelism (>= 1).
  int jobs() const noexcept { return jobs_; }

  /// A stoppable token tied to this executor's lifetime: `request_stop()`
  /// and the destructor both trip it. Long-running work dispatched on the
  /// pool (engine runs, bench sweeps) chains its CancelToken to this one —
  /// see CancelToken::child — so tearing down the executor cooperatively
  /// aborts in-flight jobs instead of blocking on them.
  const CancelToken& shutdown_token() const noexcept { return shutdown_token_; }

  /// Requests cooperative cancellation of everything observing
  /// shutdown_token(). Queued-but-unstarted tasks still run (they should
  /// observe the token and return early).
  void request_stop() noexcept { shutdown_token_.request_stop(); }

  /// Schedules \p fn on the pool and returns its future. In serial mode the
  /// task runs inline before submit returns (its exception, if any, is
  /// delivered through the future either way).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  /// Runs `fn(0) ... fn(n-1)`, distributing indices over the pool and the
  /// calling thread. Returns when all iterations finished; rethrows the
  /// first exception. Serial mode runs the loop inline in index order.
  void parallel_for(size_t n, const std::function<void(size_t)>& fn);

  /// Pops and runs one queued task on the calling thread. Returns false when
  /// the queue was empty. The building block of `wait_helping`.
  bool run_one_queued();

  /// Waits for \p future while helping: queued tasks are drained on the
  /// calling thread until the future is ready. This makes a submit-then-wait
  /// sequence safe even from inside a pool task — if every worker is busy
  /// (or blocked in wait_helping itself), the waiter eventually pops the
  /// task it is waiting for and runs it inline, so progress is guaranteed.
  /// Rethrows the task's exception, like `future.get()`.
  template <typename T>
  T wait_helping(std::future<T>& future) {
    if (!workers_.empty()) {
      while (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        if (!run_one_queued()) {
          // Queue drained: whatever resolves the future is already running
          // on some thread, so a plain wait is finite.
          future.wait();
        }
      }
    }
    return future.get();
  }

 private:
  struct ForState;

  void enqueue(std::function<void()> task);
  void worker_loop();

  int jobs_;
  CancelToken shutdown_token_ = CancelToken::stoppable();
  std::vector<std::thread> workers_;
  std::vector<std::function<void()>> queue_;  // FIFO (front at index head_)
  size_t queue_head_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace eco::util
