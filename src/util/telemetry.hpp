/// \file telemetry.hpp
/// \brief Process-wide observability: counters, gauges, hierarchical phase
/// timers, and a Chrome trace_event recorder.
///
/// The engine's headline questions — where do time and conflicts go between
/// SAT_prune, CEGAR_min and the structural fallback? — need a substrate that
/// every layer (sat, qbf, cec, eco, tools, bench) can write to without
/// plumbing. This module provides it:
///
///  - **Counters / gauges**: named monotone counters and last/max gauges,
///    e.g. `qbf.iterations`, `satprune.separators`.
///  - **Phase timers**: RAII `ScopedPhase` pushes a frame onto a per-thread
///    stack; on exit the elapsed time is accumulated under the '/'-joined
///    hierarchical path (`engine/sat_path/support`) and a complete slice is
///    appended to the trace recorder. `ScopedTimer` is the flat,
///    non-hierarchical variant.
///  - **Trace recorder**: bounded in-memory buffer of slices, dumped as
///    Chrome `trace_event` JSON (the "catapult" format understood by
///    `chrome://tracing` and https://ui.perfetto.dev).
///  - **Snapshot**: all of the above plus the process-lifetime SAT solver
///    totals as a struct or as JSON (schema: docs/OBSERVABILITY.md).
///
/// Cost model: everything is compiled out when `ECO_TELEMETRY` is 0
/// (see the `ECOPATCH_TELEMETRY` CMake option); when compiled in, every
/// entry point first checks a relaxed atomic runtime flag (default **off**,
/// enabled by `set_enabled(true)` or the `ECO_TELEMETRY=1` environment
/// variable), so a disabled build-with-telemetry costs one predictable
/// branch per site. The SAT solver stats rollup (`add_solver_totals`) is the
/// one always-on path: a handful of atomic adds per solver *lifetime*, so
/// process totals stay meaningful even with recording off.
///
/// Thread safety: all registry operations are safe to call from any thread;
/// phase stacks are per-thread and slices carry a stable small thread id.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sat/stats.hpp"
#include "util/jsonw.hpp"

/// Compile-time master switch for the instrumentation macros below.
/// Define ECO_TELEMETRY=0 (CMake: -DECOPATCH_TELEMETRY=OFF) to compile all
/// instrumentation sites to nothing. The functions remain defined either
/// way so that tools can still link.
#ifndef ECO_TELEMETRY
#define ECO_TELEMETRY 1
#endif

namespace eco::telemetry {

// ---- Runtime switch -----------------------------------------------------

/// True when recording is active (relaxed atomic read).
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Clears counters, gauges, timers, and the trace buffer (not the runtime
/// flag and not the process-lifetime solver totals).
void reset();

/// Fork-safety hooks. fork_prepare() acquires the registry lock so a child
/// forked while another thread bumps a counter cannot inherit it locked;
/// fork_release() must run in BOTH the parent and the child right after
/// fork(). Used by the service worker pool (service/worker.hpp).
void fork_prepare();
void fork_release();

// ---- Counters / gauges / timers ----------------------------------------

void counter_add(std::string_view name, uint64_t delta = 1);
void gauge_set(std::string_view name, int64_t value);
/// Keeps the maximum of all reported values.
void gauge_max(std::string_view name, int64_t value);
/// Accumulates \p seconds under \p name and bumps its invocation count.
void timer_add(std::string_view name, double seconds);

/// Reads (0 / zero-struct when absent or recording never happened).
uint64_t counter_value(std::string_view name);
int64_t gauge_value(std::string_view name);

struct TimerStat {
  uint64_t count = 0;
  double seconds = 0;
};
TimerStat timer_value(std::string_view name);

// ---- SAT solver rollup (always on) --------------------------------------

/// The solver list (sat/stats.hpp) plus the number of solvers rolled up.
#define ECO_SOLVER_TOTALS(X) X(solvers) ECO_SOLVER_STATS(X)

/// Process-lifetime totals over every sat::Solver ever destroyed.
struct SolverTotals {
#define ECO_X(name) uint64_t name = 0;
  ECO_SOLVER_TOTALS(ECO_X)
#undef ECO_X
};

/// Writes `"name": value` per list entry into the open object of \p w.
inline void write_json(JsonWriter& w, const SolverTotals& t) {
#define ECO_X(name) w.kv(#name, t.name);
  ECO_SOLVER_TOTALS(ECO_X)
#undef ECO_X
}

/// Called by sat::Solver's destructor; cheap unconditional atomic adds.
/// Besides the process-wide rollup, the totals are credited to the
/// innermost accumulator captured on the calling thread (see below).
void add_solver_totals(const SolverTotals& t) noexcept;
SolverTotals solver_totals() noexcept;

/// Per-run (or per-scope) solver-totals sink. Differencing the *process*
/// totals around a run misattributes solver work the moment two runs
/// overlap on different threads; instead, register an accumulator on every
/// thread working for the run (ScopedSolverCapture) and read `totals()` at
/// the end. Concurrency-safe: solvers may be destroyed on several captured
/// threads at once.
class SolverTotalsAccumulator {
 public:
  SolverTotalsAccumulator() noexcept = default;
  SolverTotalsAccumulator(const SolverTotalsAccumulator&) = delete;
  SolverTotalsAccumulator& operator=(const SolverTotalsAccumulator&) = delete;

  /// Adds \p t (relaxed atomics; called from Solver destructors).
  void add(const SolverTotals& t) noexcept;
  /// Sum of everything added so far.
  SolverTotals totals() const noexcept;

 private:
#define ECO_X(name) std::atomic<uint64_t> name##_{0};
  ECO_SOLVER_TOTALS(ECO_X)
#undef ECO_X
};

/// The accumulator of the innermost open ScopedSolverCapture on the calling
/// thread, or nullptr when none is open. The parallel SAT layer uses this to
/// re-open the coordinating run's capture on pool worker threads so clone
/// solvers destroyed there are credited to the right run.
SolverTotalsAccumulator* current_solver_capture() noexcept;

/// Attaches \p acc to the calling thread for this scope: every Solver
/// destroyed on this thread while the capture is open is credited to the
/// accumulator (in addition to the process totals). Captures nest with
/// innermost-wins semantics — a solver belongs to exactly one run, so when
/// a thread executes a task for another run (executor work stealing), that
/// task opens its own capture and the enclosing one is shadowed for the
/// duration. Open one on each worker thread that runs solver work for the
/// same logical run to get a complete per-run tally.
class ScopedSolverCapture {
 public:
  explicit ScopedSolverCapture(SolverTotalsAccumulator& acc) noexcept;
  ~ScopedSolverCapture();
  ScopedSolverCapture(const ScopedSolverCapture&) = delete;
  ScopedSolverCapture& operator=(const ScopedSolverCapture&) = delete;

 private:
  SolverTotalsAccumulator* acc_;
};

// ---- RAII scopes --------------------------------------------------------

/// Flat named timer; accumulates into `timer_value(name)` on destruction.
/// \p name must outlive the scope (pass a string literal).
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name) noexcept;
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* name_;
  uint64_t start_ns_;
  bool active_;
};

/// Hierarchical phase frame. Nested phases accumulate under the '/'-joined
/// path of every open frame on this thread, and each frame emits one
/// complete trace slice. \p name must outlive the scope (string literal).
class ScopedPhase {
 public:
  explicit ScopedPhase(const char* name) noexcept;
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  const char* name_;
  uint64_t start_ns_;
  size_t prev_path_len_;
  bool active_;
};

// ---- Snapshot & export --------------------------------------------------

struct Snapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;  ///< name-sorted
  std::vector<std::pair<std::string, int64_t>> gauges;     ///< name-sorted
  std::vector<std::pair<std::string, TimerStat>> timers;   ///< path-sorted
  SolverTotals solver;
  size_t trace_events = 0;
  size_t dropped_trace_events = 0;
};
Snapshot snapshot();

/// Flat stats snapshot as JSON (schema `ecopatch-telemetry-v1`,
/// docs/OBSERVABILITY.md).
std::string snapshot_json();

/// The recorded slices as Chrome trace_event JSON ("catapult" format).
std::string trace_json();

/// Convenience file writers; return false on I/O failure.
bool write_snapshot_json(const std::string& path);
bool write_trace_json(const std::string& path);

/// Caps the in-memory trace buffer; further slices are counted as dropped.
/// Default: 1M events. **0 disables trace recording entirely**: slices are
/// discarded silently and `dropped_trace_events` does NOT grow (disabled is
/// not the same as overflowing). Shrinking below the current buffer size
/// trims the oldest events and counts the trimmed ones as dropped.
void set_trace_capacity(size_t max_events);

/// The calling thread's current '/'-joined phase path ("" when no frame is
/// open or recording is off). Consumed by the query ledger to attribute
/// records to phases.
std::string current_phase_path();

/// Logs the phase-time and counter summary through log_info (one line per
/// timer/counter), for `--verbose` front ends.
void log_summary();

}  // namespace eco::telemetry

// ---- Instrumentation macros ---------------------------------------------
//
// Use these, not the functions, at instrumentation sites: they vanish
// entirely when ECO_TELEMETRY is 0.

#define ECO_TELEMETRY_CAT2_(a, b) a##b
#define ECO_TELEMETRY_CAT_(a, b) ECO_TELEMETRY_CAT2_(a, b)

#if ECO_TELEMETRY
#define ECO_TELEMETRY_PHASE(name) \
  ::eco::telemetry::ScopedPhase ECO_TELEMETRY_CAT_(eco_tel_phase_, __LINE__){name}
#define ECO_TELEMETRY_TIMER(name) \
  ::eco::telemetry::ScopedTimer ECO_TELEMETRY_CAT_(eco_tel_timer_, __LINE__){name}
#define ECO_TELEMETRY_COUNT(...) ::eco::telemetry::counter_add(__VA_ARGS__)
#define ECO_TELEMETRY_GAUGE_SET(name, v) ::eco::telemetry::gauge_set(name, v)
#define ECO_TELEMETRY_GAUGE_MAX(name, v) ::eco::telemetry::gauge_max(name, v)
#else
#define ECO_TELEMETRY_PHASE(name) ((void)0)
#define ECO_TELEMETRY_TIMER(name) ((void)0)
#define ECO_TELEMETRY_COUNT(...) ((void)0)
#define ECO_TELEMETRY_GAUGE_SET(name, v) ((void)0)
#define ECO_TELEMETRY_GAUGE_MAX(name, v) ((void)0)
#endif
