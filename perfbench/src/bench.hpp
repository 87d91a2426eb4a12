// perfbench: the ecopatch benchmark's shared pieces — metrics and their
// guards, the outcome gate, and the span recorder of the traced run.
// perfbench/README.md explains the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "eco/engine.hpp"
#include "eco/problem.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon;   ///< the ecopatchd binary
  std::string run_dir;  ///< per-run scratch space: inputs, socket, trace file
};

/// One reported number. `samples` says what it was computed from.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string samples;
};

/// What a workload run hands back to main(): the metrics for the result
/// line, lines printed only for people, and every guard failure.
struct Result {
  std::vector<Metric> metrics;      ///< the result line's metrics
  std::vector<Metric> report_only;  ///< printed, never in the result line
  std::vector<std::string> notes;   ///< printed as-is (excluded rows, shares)
  std::vector<std::string> errors;  ///< guard failures; any one fails the run
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t inputs_fingerprint = 0;  ///< hash of every generated input
};

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v);
double mean(const std::vector<double>& v);
double geomean(const std::vector<double>& v);

/// Nearest-rank percentile with the percentile guard: at least 10 samples
/// must rank above it, and the samples ranked just below and just above it
/// must not differ by more than \p bound (a cliff between clusters). On a
/// refusal the problem is appended to \p errors and the metric is not
/// returned.
bool guarded_percentile(const std::vector<double>& samples, double p, double bound,
                        const std::string& name, const std::string& unit,
                        std::vector<Metric>& out, std::vector<std::string>& errors);

// --- the outcome gate --------------------------------------------------------

/// Solver work of one run; exactly repeatable for a fixed job sequence.
struct SatCounts {
  uint64_t solves = 0, conflicts = 0, propagations = 0, decisions = 0;
  bool operator==(const SatCounts&) const = default;
};
SatCounts sat_counts(const eco::core::EngineStats& s);

/// What every later job on the same problem must answer.
struct Reference {
  std::string method;
  int64_t cost = 0;
  uint32_t gates = 0;
  SatCounts sat;
};

/// Independent re-check of a verified patch: simulates \p patched_impl and
/// the spec on the same random shared-input patterns (target inputs held
/// at 0; they are unused after substitution) and compares every output.
bool simulation_agrees(const eco::core::EcoProblem& p, const eco::aig::Aig& patched_impl,
                       uint64_t seed);

/// Empty when \p o answers like \p ref — patched, verified, the same
/// method, cost and gates — and finished on its own (the clock-bound
/// guard: no fail_reason, one ladder attempt, no structural time);
/// otherwise why not.
std::string outcome_mismatch(const eco::core::EcoOutcome& o, const Reference& ref);

/// Solves \p problem once and applies every gate: patched, verified, not
/// clock-bound, and confirmed by simulation. Returns "" and fills \p ref,
/// or returns the failure.
std::string solve_reference(const eco::core::EcoProblem& problem,
                            const eco::core::EngineOptions& options, uint64_t sim_seed,
                            Reference& ref);

// --- process measurements ----------------------------------------------------

/// User + system CPU seconds of process \p pid (all threads), from /proc.
double process_cpu_seconds(int pid);
/// Peak resident set (VmHWM) of \p pid in MiB, from /proc.
double peak_rss_mb(int pid);

// --- spans of the traced run ---------------------------------------------------

/// One timed call: name, interval, causing span, job. Kept in memory and
/// written as Chrome trace-event JSON when the run ends.
struct Span {
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
  int parent = -1;  ///< index into the same recorder, -1 for a job root
  int job = 0;
};

/// Spans of one thread. Not thread-safe: one recorder per client thread.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;
  SpanRecorder(Clock::time_point origin, int thread) : origin_(origin), thread_(thread) {}

  /// Runs \p fn inside a span named \p name; its duration in ms goes to
  /// \p ms when non-null.
  template <class F>
  decltype(auto) time(const char* name, double* ms, F&& fn) {
    struct Closer {
      SpanRecorder& rec;
      int index;
      double* ms;
      ~Closer() {
        rec.close(index);
        if (ms != nullptr) *ms = rec.ms(index);
      }
    } closer{*this, open(name), ms};
    return fn();
  }

  void set_job(int job) { job_ = job; }
  const std::vector<Span>& spans() const { return spans_; }
  int thread() const { return thread_; }

 private:
  /// Opens a span of the current job under the innermost open span.
  int open(const char* name);
  void close(int index);
  double ms(int index) const { return (spans_[index].end_us - spans_[index].start_us) / 1e3; }

  Clock::time_point origin_;
  int thread_;
  int job_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Writes every recorder's spans to \p path as Chrome trace events.
bool write_chrome_trace(const std::string& path, const std::vector<const SpanRecorder*>& recs);

// --- per-layer metrics of the traced run -------------------------------------

/// One traced job: span durations around the layer entry points plus the
/// engine's own phase split and work counters from EcoOutcome::stats.
struct JobLayers {
  double job_ms = 0;  ///< the job's root span
  double load_ms = 0, problem_ms = 0, run_ms = 0, serialize_ms = 0;
  double window_ms = 0, qbf_ms = 0, sat_path_ms = 0, assemble_ms = 0, verify_ms = 0;
  int qbf_iterations = 0, support_sat_calls = 0, satprune_iterations = 0, ladder_retries = 0;
  SatCounts sat;
  uint64_t sim_answered = 0;  ///< queries the simulation bank answered
  uint64_t parsed_bytes = 0;  ///< input bytes parsed, when all three files missed
};
/// Fills the engine part of a JobLayers from \p o.
void add_engine_stats(const eco::core::EcoOutcome& o, JobLayers& j);

/// Service numbers taken from the untraced daemon run (zero on
/// table1_sweep, which has no service).
struct ServiceLayers {
  double overhead_ms = 0, queue_ms = 0, problem_hit_share = 0, evictions_per_job = 0,
         cache_mb = 0;
};

/// Every per-layer metric, per job, in BENCHMARK.json order.
/// \p untraced_ms_per_job is the untraced time of the same work.
std::vector<Metric> per_layer_metrics(const std::vector<JobLayers>& jobs,
                                      const ServiceLayers& service,
                                      double untraced_ms_per_job);

/// Adds the measured layer shares and checks them against the predictions
/// recorded in README.md, naming any that does not hold.
void report_shares(const std::string& workload, const std::vector<JobLayers>& jobs,
                   Result& res);

/// Workload entry points (service.cpp, table1.cpp).
Result run_service(const Args& args, bool fresh);
Result run_table1(const Args& args);

}  // namespace perfbench
