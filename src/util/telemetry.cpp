#include "util/telemetry.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "util/jsonw.hpp"
#include "util/log.hpp"

namespace eco::telemetry {

namespace {

// ---- clock --------------------------------------------------------------

/// Nanoseconds since the first telemetry use in this process. A stable
/// process-local epoch keeps trace timestamps small and monotone.
uint64_t now_ns() noexcept {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

/// Small stable per-thread id for trace slices.
uint32_t thread_id() noexcept {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// ---- registry -----------------------------------------------------------

struct TraceEvent {
  std::string name;   ///< leaf phase/timer name
  uint64_t start_ns;  ///< since process epoch
  uint64_t dur_ns;
  uint32_t tid;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, uint64_t, std::less<>> counters;
  std::map<std::string, int64_t, std::less<>> gauges;
  std::map<std::string, TimerStat, std::less<>> timers;
  std::vector<TraceEvent> trace;
  size_t trace_capacity = 1u << 20;
  size_t dropped_trace = 0;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during static dtors
  return *r;
}

bool initial_enabled() noexcept {
  const char* env = std::getenv("ECO_TELEMETRY");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::atomic<bool> g_enabled{initial_enabled()};

// Always-on process-lifetime solver totals (see header). Constant-initialized
// and trivially destructible, so Solver destructors that run during static
// initialization or teardown can still credit it.
constinit SolverTotalsAccumulator g_solver;

/// Per-thread phase state: the '/'-joined path of the open frames.
thread_local std::string t_phase_path;

/// Per-thread stack of captured solver-totals accumulators (innermost last).
thread_local std::vector<SolverTotalsAccumulator*> t_solver_captures;

void record_slice(const char* leaf, uint64_t start_ns, uint64_t dur_ns) {
  Registry& r = registry();
  // Capacity 0 means "trace recording disabled": discard silently, without
  // inflating the dropped counter (dropped == lost to overflow, not "off").
  if (r.trace_capacity == 0) return;
  if (r.trace.size() >= r.trace_capacity) {
    ++r.dropped_trace;
    return;
  }
  r.trace.push_back(TraceEvent{leaf, start_ns, dur_ns, thread_id()});
}

}  // namespace

// ---- runtime switch -----------------------------------------------------

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.counters.clear();
  r.gauges.clear();
  r.timers.clear();
  r.trace.clear();
  r.dropped_trace = 0;
}

void fork_prepare() { registry().mu.lock(); }
void fork_release() { registry().mu.unlock(); }

// ---- counters / gauges / timers -----------------------------------------

void counter_add(std::string_view name, uint64_t delta) {
  if (!enabled()) return;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.counters.find(name);
  if (it == r.counters.end())
    r.counters.emplace(std::string(name), delta);
  else
    it->second += delta;
}

void gauge_set(std::string_view name, int64_t value) {
  if (!enabled()) return;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.gauges.find(name);
  if (it == r.gauges.end())
    r.gauges.emplace(std::string(name), value);
  else
    it->second = value;
}

void gauge_max(std::string_view name, int64_t value) {
  if (!enabled()) return;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.gauges.find(name);
  if (it == r.gauges.end())
    r.gauges.emplace(std::string(name), value);
  else if (value > it->second)
    it->second = value;
}

namespace {

// Unconditional variant for RAII destructors: a frame opened while recording
// was enabled closes fully even if recording was switched off in between.
void timer_add_unchecked(std::string_view name, double seconds) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.timers.find(name);
  if (it == r.timers.end()) {
    r.timers.emplace(std::string(name), TimerStat{1, seconds});
  } else {
    ++it->second.count;
    it->second.seconds += seconds;
  }
}

}  // namespace

void timer_add(std::string_view name, double seconds) {
  if (!enabled()) return;
  timer_add_unchecked(name, seconds);
}

uint64_t counter_value(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

int64_t gauge_value(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.gauges.find(name);
  return it == r.gauges.end() ? 0 : it->second;
}

TimerStat timer_value(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.timers.find(name);
  return it == r.timers.end() ? TimerStat{} : it->second;
}

// ---- solver rollup ------------------------------------------------------

void SolverTotalsAccumulator::add(const SolverTotals& t) noexcept {
#define ECO_X(name) name##_.fetch_add(t.name, std::memory_order_relaxed);
  ECO_SOLVER_TOTALS(ECO_X)
#undef ECO_X
}

SolverTotals SolverTotalsAccumulator::totals() const noexcept {
  SolverTotals t;
#define ECO_X(name) t.name = name##_.load(std::memory_order_relaxed);
  ECO_SOLVER_TOTALS(ECO_X)
#undef ECO_X
  return t;
}

ScopedSolverCapture::ScopedSolverCapture(SolverTotalsAccumulator& acc) noexcept : acc_(&acc) {
  t_solver_captures.push_back(acc_);
}

ScopedSolverCapture::~ScopedSolverCapture() {
  // Captures are strictly scoped, so this one is the innermost open frame.
  t_solver_captures.pop_back();
}

void add_solver_totals(const SolverTotals& t) noexcept {
  // Innermost capture wins: a solver belongs to exactly one run, and when a
  // pooled thread executes a task on behalf of another run (executor work
  // stealing), that task's own capture must not leak into the captures the
  // thread had open underneath it.
  if (!t_solver_captures.empty()) t_solver_captures.back()->add(t);
  g_solver.add(t);
}

SolverTotals solver_totals() noexcept { return g_solver.totals(); }

SolverTotalsAccumulator* current_solver_capture() noexcept {
  return t_solver_captures.empty() ? nullptr : t_solver_captures.back();
}

// ---- RAII scopes --------------------------------------------------------

ScopedTimer::ScopedTimer(const char* name) noexcept
    : name_(name), start_ns_(0), active_(enabled()) {
  if (active_) start_ns_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
  if (!active_) return;
  const uint64_t end = now_ns();
  timer_add_unchecked(name_, static_cast<double>(end - start_ns_) * 1e-9);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  record_slice(name_, start_ns_, end - start_ns_);
}

ScopedPhase::ScopedPhase(const char* name) noexcept
    : name_(name), start_ns_(0), prev_path_len_(0), active_(enabled()) {
  if (!active_) return;
  prev_path_len_ = t_phase_path.size();
  if (!t_phase_path.empty()) t_phase_path += '/';
  t_phase_path += name_;
  start_ns_ = now_ns();
}

ScopedPhase::~ScopedPhase() {
  if (!active_) return;
  const uint64_t end = now_ns();
  // By destruction time every inner frame has been popped, so the thread
  // path is exactly this frame's hierarchical path.
  timer_add_unchecked(t_phase_path, static_cast<double>(end - start_ns_) * 1e-9);
  t_phase_path.resize(prev_path_len_);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  record_slice(name_, start_ns_, end - start_ns_);
}

// ---- snapshot & export --------------------------------------------------

Snapshot snapshot() {
  Snapshot s;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  s.counters.assign(r.counters.begin(), r.counters.end());
  s.gauges.assign(r.gauges.begin(), r.gauges.end());
  s.timers.assign(r.timers.begin(), r.timers.end());
  s.solver = solver_totals();
  s.trace_events = r.trace.size();
  s.dropped_trace_events = r.dropped_trace;
  return s;
}

std::string snapshot_json() {
  const Snapshot s = snapshot();
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "ecopatch-telemetry-v1");
  w.kv("enabled", enabled());
  w.key("counters");
  w.begin_object();
  for (const auto& [name, v] : s.counters) w.kv(name, v);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, v] : s.gauges) w.kv(name, v);
  w.end_object();
  w.key("timers");
  w.begin_object();
  for (const auto& [name, t] : s.timers) {
    w.key(name);
    w.begin_object();
    w.kv("count", t.count);
    w.kv("seconds", t.seconds);
    w.end_object();
  }
  w.end_object();
  w.key("sat");
  w.begin_object();
  write_json(w, s.solver);
  w.end_object();
  w.kv("trace_events", static_cast<uint64_t>(s.trace_events));
  w.kv("dropped_trace_events", static_cast<uint64_t>(s.dropped_trace_events));
  w.end_object();
  return w.take();
}

std::string trace_json() {
  Registry& r = registry();
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    events = r.trace;
  }
  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  for (const auto& e : events) {
    w.begin_object();
    w.kv("name", e.name);
    w.kv("cat", "phase");
    w.kv("ph", "X");
    // trace_event timestamps are microseconds.
    w.kv("ts", static_cast<double>(e.start_ns) * 1e-3);
    w.kv("dur", static_cast<double>(e.dur_ns) * 1e-3);
    w.kv("pid", 1);
    w.kv("tid", e.tid);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

namespace {
bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}
}  // namespace

bool write_snapshot_json(const std::string& path) { return write_file(path, snapshot_json()); }
bool write_trace_json(const std::string& path) { return write_file(path, trace_json()); }

void set_trace_capacity(size_t max_events) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.trace_capacity = max_events;
  if (r.trace.size() > max_events) {
    // Shrinking below the buffered count evicts the oldest events; they were
    // recorded and lost, so they count as dropped (capacity 0 drops all).
    r.dropped_trace += r.trace.size() - max_events;
    r.trace.erase(r.trace.begin(),
                  r.trace.begin() + static_cast<long>(r.trace.size() - max_events));
  }
}

std::string current_phase_path() { return t_phase_path; }

void log_summary() {
  if (!log_enabled(LogLevel::kInfo)) return;
  const Snapshot s = snapshot();
  for (const auto& [name, t] : s.timers)
    log_info("telemetry: timer %-40s %8.3fs  (%llu calls)", name.c_str(), t.seconds,
             static_cast<unsigned long long>(t.count));
  for (const auto& [name, v] : s.counters)
    log_info("telemetry: count %-40s %llu", name.c_str(),
             static_cast<unsigned long long>(v));
  for (const auto& [name, v] : s.gauges)
    log_info("telemetry: gauge %-40s %lld", name.c_str(), static_cast<long long>(v));
#define ECO_X(name) \
  log_info("telemetry: sat   %-40s %llu", #name, static_cast<unsigned long long>(s.solver.name));
  ECO_SOLVER_TOTALS(ECO_X)
#undef ECO_X
}

}  // namespace eco::telemetry
