#include "util/executor.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

namespace eco::util {

int hardware_jobs() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int default_jobs() noexcept {
  const char* env = std::getenv("ECO_JOBS");
  if (env == nullptr || env[0] == '\0') return 1;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 0) return 1;  // malformed: stay serial
  if (v == 0) return hardware_jobs();
  return static_cast<int>(v);
}

Executor::Executor(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {
  // The caller of parallel_for participates, so jobs_ - 1 workers saturate
  // jobs_ cores; plain submit()-only usage still gets jobs_ - 1 runners.
  workers_.reserve(static_cast<size_t>(jobs_ - 1));
  for (int i = 0; i + 1 < jobs_; ++i) workers_.emplace_back([this] { worker_loop(); });
}

Executor::~Executor() {
  // Cooperative abort first: in-flight tasks observing shutdown_token()
  // wind down instead of pinning the joins below.
  shutdown_token_.request_stop();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void Executor::enqueue(std::function<void()> task) {
  if (workers_.empty()) {
    task();  // serial mode: run inline, exceptions flow into the future
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool Executor::run_one_queued() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_head_ >= queue_.size()) return false;
    task = std::move(queue_[queue_head_++]);
    if (queue_head_ == queue_.size()) {
      queue_.clear();
      queue_head_ = 0;
    }
  }
  task();
  return true;
}

void Executor::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || queue_head_ < queue_.size(); });
      if (queue_head_ >= queue_.size()) return;  // stop_ and drained
      task = std::move(queue_[queue_head_++]);
      if (queue_head_ == queue_.size()) {
        queue_.clear();
        queue_head_ = 0;
      }
    }
    task();
  }
}

/// Shared state of one parallel_for call. Heap-allocated and reference-
/// counted because helper tasks may start (and immediately finish) after
/// the call already returned.
struct Executor::ForState {
  std::atomic<size_t> next{0};  ///< next unclaimed index
  std::atomic<size_t> done{0};  ///< completed iterations
  size_t n = 0;
  size_t participants = 0;  ///< helper tasks + the calling thread
  const std::function<void(size_t)>* fn = nullptr;
  std::mutex mu;
  std::condition_variable cv;
  size_t exited = 0;          ///< participants that left drain(); guarded by mu
  std::exception_ptr error;   ///< first exception wins; guarded by mu

  /// Claims and runs iterations until the range is exhausted or an error
  /// cancels the remainder.
  void drain() {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (error) break;
      }
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        break;
      }
      done.fetch_add(1, std::memory_order_acq_rel);
    }
    std::lock_guard<std::mutex> lock(mu);
    ++exited;
    cv.notify_all();
  }

  /// True when the caller may safely return: either every iteration ran, or
  /// (after an error) no participant can still be touching fn — unstarted
  /// helper tasks see the error flag and exit without claiming an index.
  bool settled() {
    return done.load(std::memory_order_acquire) == n ||
           (error != nullptr && exited == participants);
  }
};

void Executor::parallel_for(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);  // exact serial execution
    return;
  }

  auto state = std::make_shared<ForState>();
  state->n = n;
  state->fn = &fn;

  // One helper task per worker (bounded, not per index): each claims indices
  // from the shared counter until the range is exhausted.
  const size_t helpers = std::min(workers_.size(), n - 1);
  state->participants = helpers + 1;
  for (size_t h = 0; h < helpers; ++h) enqueue([state] { state->drain(); });

  // The caller participates — this is what makes nested parallel_for calls
  // deadlock-free: even with every worker busy, the caller finishes the
  // range itself.
  state->drain();

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->settled(); });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace eco::util
