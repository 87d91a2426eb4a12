// Tests of util/executor.hpp: the fixed thread pool behind the bench
// sweeps, the CEC simulation screen, and the engine's verify overlap. The
// contract under test (see the executor file comment): serial mode is an
// exact inline loop, parallel_for is deadlock-free under nesting because
// the caller participates, exceptions propagate, and wait_helping makes
// submit-then-wait safe from inside pool tasks.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/executor.hpp"

namespace eco::util {
namespace {

TEST(Jobs, HardwareJobsIsPositive) { EXPECT_GE(hardware_jobs(), 1); }

TEST(Jobs, DefaultJobsReadsEnvironment) {
  // setenv/getenv here is safe: tests in this binary run single-threaded.
  const char* saved = std::getenv("ECO_JOBS");
  const std::string saved_value = saved ? saved : "";

  unsetenv("ECO_JOBS");
  EXPECT_EQ(default_jobs(), 1);
  setenv("ECO_JOBS", "3", 1);
  EXPECT_EQ(default_jobs(), 3);
  setenv("ECO_JOBS", "0", 1);
  EXPECT_EQ(default_jobs(), hardware_jobs());
  setenv("ECO_JOBS", "garbage", 1);
  EXPECT_EQ(default_jobs(), 1);
  setenv("ECO_JOBS", "-2", 1);
  EXPECT_EQ(default_jobs(), 1);
  setenv("ECO_JOBS", "4x", 1);
  EXPECT_EQ(default_jobs(), 1);

  if (saved) setenv("ECO_JOBS", saved_value.c_str(), 1);
  else unsetenv("ECO_JOBS");
}

TEST(Executor, SerialModeMatchesPlainLoopExactly) {
  // jobs <= 1 must not spawn threads and must run indices in order on the
  // calling thread — byte-for-byte the serial program.
  Executor ex(1);
  EXPECT_EQ(ex.jobs(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  ex.parallel_for(17, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<size_t> expected(17);
  std::iota(expected.begin(), expected.end(), size_t{0});
  EXPECT_EQ(order, expected);

  // submit runs inline too, before returning.
  bool ran = false;
  auto future = ex.submit([&] { ran = true; return 7; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(future.get(), 7);
}

TEST(Executor, ParallelForCoversEveryIndexOnce) {
  Executor ex(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ex.parallel_for(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Executor, ResultIndependentOfScheduling) {
  // Sum of f(i) over a fixed range must be identical for every job count.
  auto sweep = [](int jobs) {
    Executor ex(jobs);
    std::atomic<uint64_t> sum{0};
    ex.parallel_for(257, [&](size_t i) { sum.fetch_add(i * i + 1); });
    return sum.load();
  };
  const uint64_t serial = sweep(1);
  EXPECT_EQ(sweep(2), serial);
  EXPECT_EQ(sweep(3), serial);
  EXPECT_EQ(sweep(8), serial);
}

TEST(Executor, ExceptionPropagatesFromParallelFor) {
  for (const int jobs : {1, 4}) {
    Executor ex(jobs);
    std::atomic<int> completed{0};
    try {
      ex.parallel_for(100, [&](size_t i) {
        if (i == 13) throw std::runtime_error("boom at 13");
        completed.fetch_add(1);
      });
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 13");
    }
    // Cancellation: after the throw, the remaining range is skipped.
    EXPECT_LT(completed.load(), 100);
  }
}

TEST(Executor, ExceptionPropagatesThroughSubmitFuture) {
  for (const int jobs : {1, 3}) {
    Executor ex(jobs);
    auto future = ex.submit([]() -> int { throw std::logic_error("task failed"); });
    EXPECT_THROW(future.get(), std::logic_error);
  }
}

TEST(Executor, NestedParallelForDoesNotDeadlock) {
  // Every outer iteration issues an inner parallel_for on the same pool.
  // With caller participation the inner loops finish even when all workers
  // are stuck in outer iterations; a regression here hangs the test (caught
  // by the ctest timeout) rather than failing an assertion.
  Executor ex(4);
  constexpr size_t kOuter = 16, kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  ex.parallel_for(kOuter, [&](size_t o) {
    ex.parallel_for(kInner, [&](size_t i) { hits[o * kInner + i].fetch_add(1); });
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
}

TEST(Executor, WaitHelpingRunsQueuedTasksFromInsidePoolTasks) {
  // Each parallel_for iteration submits a task and then blocks on it. With
  // plain future.get() this deadlocks once every thread is a blocked
  // waiter; wait_helping drains the queue instead.
  Executor ex(2);
  std::atomic<int> sum{0};
  ex.parallel_for(8, [&](size_t i) {
    auto future = ex.submit([i] { return static_cast<int>(i) + 1; });
    sum.fetch_add(ex.wait_helping(future));
  });
  EXPECT_EQ(sum.load(), 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8);
}

TEST(Executor, ManySubmittedTasksAllComplete) {
  Executor ex(4);
  std::vector<std::future<size_t>> futures;
  futures.reserve(200);
  for (size_t i = 0; i < 200; ++i) futures.push_back(ex.submit([i] { return i; }));
  size_t sum = 0;
  for (auto& f : futures) sum += f.get();
  EXPECT_EQ(sum, 200u * 199u / 2u);
}

TEST(Executor, ZeroAndOneIterationEdges) {
  Executor ex(4);
  ex.parallel_for(0, [&](size_t) { FAIL() << "no iterations expected"; });
  int calls = 0;
  ex.parallel_for(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace eco::util
