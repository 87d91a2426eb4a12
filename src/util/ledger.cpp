#include "util/ledger.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <mutex>

#include "util/buildinfo.hpp"
#include "util/jsonw.hpp"
#include "util/telemetry.hpp"

namespace eco::ledger {

namespace {

/// Nanoseconds since the first ledger use (stable process-local epoch).
uint64_t now_ns() noexcept {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point t0 = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

uint32_t thread_id() noexcept {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// One thread's bounded ring. Slots are overwritten oldest-first; with a
/// sink configured, unflushed slots are written out before being reused, so
/// the JSONL export is lossless. `mu` is uncontended on the append path
/// (only merges/flushes from other threads ever take it concurrently).
struct Buffer {
  std::mutex mu;
  std::vector<Record> slots;
  uint64_t count = 0;    ///< records ever appended to this buffer
  uint64_t flushed = 0;  ///< records already written to the sink
};

struct Global {
  std::mutex mu;                  ///< registry + sink + capacity
  std::vector<Buffer*> buffers;   ///< every thread's buffer (leaked, stable)
  std::FILE* sink = nullptr;
  bool sink_ok = true;
  size_t ring_capacity = 4096;
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> dropped{0};
};

Global& global() {
  static Global* g = new Global();  // leaked: usable during static dtors
  return *g;
}

std::atomic<bool> g_enabled{false};

/// Seeds the runtime flag (and sink) from ECO_LEDGER on first use.
bool init_from_env() {
  const char* env = std::getenv("ECO_LEDGER");
  if (env == nullptr || env[0] == '\0' || (env[0] == '0' && env[1] == '\0')) return false;
  if (env[0] == '1' && env[1] == '\0') return true;  // enabled, no sink
  return set_sink(env);  // enables on success
}

/// Thread-local handle; the Buffer itself is owned by the global registry
/// and outlives the thread so its records stay collectable.
Buffer& local_buffer() {
  thread_local Buffer* buf = [] {
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    auto* b = new Buffer();
    b->slots.reserve(std::min<size_t>(g.ring_capacity, 64));
    b->slots.resize(0);
    g.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

/// Writes buffer records [b.flushed, b.count) to the sink. Callers hold
/// b.mu; takes g.mu for the sink. Returns false on a write failure.
bool flush_buffer_locked(Global& g, Buffer& b) {
  if (b.count == b.flushed) return true;
  std::lock_guard<std::mutex> lock(g.mu);
  if (g.sink == nullptr) return true;
  const size_t cap = b.slots.size();
  bool ok = true;
  for (uint64_t i = b.flushed; i < b.count; ++i) {
    const std::string line = record_json(b.slots[i % cap]);
    if (std::fwrite(line.data(), 1, line.size(), g.sink) != line.size() ||
        std::fputc('\n', g.sink) == EOF)
      ok = false;
  }
  b.flushed = b.count;
  if (!ok) g.sink_ok = false;
  return ok;
}

const char* result_name(QueryResult r) noexcept {
  switch (r) {
    case QueryResult::kSat: return "sat";
    case QueryResult::kUnsat: return "unsat";
    case QueryResult::kUndef: return "undef";
  }
  return "undef";
}

}  // namespace

const char* purpose_name(Purpose p) noexcept {
  switch (p) {
    case Purpose::kUnknown: return "unknown";
    case Purpose::kSupport: return "support";
    case Purpose::kSatPrune: return "satprune";
    case Purpose::kIrredundancy: return "irredundancy";
    case Purpose::kPatchFunc: return "patchfunc";
    case Purpose::kResub: return "resub";
    case Purpose::kCegarMin: return "cegarmin";
    case Purpose::kCec: return "cec";
    case Purpose::kQbf: return "qbf";
    case Purpose::kVerify: return "verify";
    case Purpose::kLadder: return "ladder";
    case Purpose::kSweep: return "sweep";
    case Purpose::kCount_: break;
  }
  return "unknown";
}

const char* kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::kSolve: return "solve";
    case Kind::kSimHit: return "sim_hit";
    case Kind::kQbfIteration: return "qbf_iteration";
    case Kind::kCecCheck: return "cec_check";
    case Kind::kLadderAttempt: return "ladder_attempt";
    case Kind::kPortfolioAttempt: return "portfolio_attempt";
    case Kind::kSweepChunk: return "sweep_chunk";
    case Kind::kCount_: break;
  }
  return "solve";
}

const char* cancel_cause_name(CancelCause c) noexcept {
  switch (c) {
    case CancelCause::kNone: return "none";
    case CancelCause::kStopped: return "stopped";
    case CancelCause::kMemory: return "memory";
    case CancelCause::kDeadline: return "deadline";
    case CancelCause::kBudget: return "budget";
  }
  return "none";
}

// ---- runtime switch -----------------------------------------------------

bool enabled() noexcept {
  static const bool env_on = init_from_env();
  if (env_on && !g_enabled.load(std::memory_order_relaxed))
    g_enabled.store(true, std::memory_order_relaxed);
  return g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  enabled();  // settle the env seed so it cannot re-enable later
  g_enabled.store(on, std::memory_order_relaxed);
}

// ---- purpose scopes -----------------------------------------------------

namespace {
/// Innermost-wins purpose stack (the ScopedSolverCapture pattern).
thread_local std::vector<Purpose> t_purposes;
}  // namespace

Purpose current_purpose() noexcept {
  return t_purposes.empty() ? Purpose::kUnknown : t_purposes.back();
}

ScopedPurpose::ScopedPurpose(Purpose p) noexcept : ScopedPurpose(p, false) {}

ScopedPurpose::ScopedPurpose(Purpose p, bool weak) noexcept
    : pushed_(!weak || t_purposes.empty()) {
  if (pushed_) t_purposes.push_back(p);
}

ScopedPurpose::~ScopedPurpose() {
  if (pushed_) t_purposes.pop_back();
}

double thread_cpu_seconds() noexcept {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- appending ----------------------------------------------------------

void append(Record r) noexcept {
  if (!enabled()) return;
  Global& g = global();
  r.seq = g.seq.fetch_add(1, std::memory_order_relaxed);
  r.thread = thread_id();
  if (r.purpose == Purpose::kUnknown) r.purpose = current_purpose();
  if (r.start_ns == 0) r.start_ns = now_ns();
  if (r.phase[0] == '\0') {
    const std::string path = telemetry::current_phase_path();
    std::strncpy(r.phase, path.c_str(), sizeof(r.phase) - 1);
    r.phase[sizeof(r.phase) - 1] = '\0';
  }

  Buffer& b = local_buffer();
  std::lock_guard<std::mutex> lock(b.mu);
  size_t cap;
  {
    std::lock_guard<std::mutex> glock(g.mu);
    cap = g.ring_capacity;
  }
  if (b.slots.size() < cap && b.slots.size() == b.count) {
    b.slots.push_back(r);
    ++b.count;
    return;
  }
  // Ring full (or capacity shrank): the oldest slot is about to go. Flush
  // it to the sink first, or count it dropped.
  const size_t size = b.slots.size();
  if (b.count >= b.flushed + size) {
    bool flushed = false;
    {
      std::lock_guard<std::mutex> glock(g.mu);
      if (g.sink != nullptr) flushed = true;
    }
    if (flushed) {
      flush_buffer_locked(g, b);
    } else {
      g.dropped.fetch_add(1, std::memory_order_relaxed);
      // Advancing the watermark keeps "unflushed" meaning "still live" if a
      // sink is attached later.
      b.flushed = b.count + 1 - size;
    }
  }
  b.slots[b.count % size] = r;
  ++b.count;
}

void append_sim_hit(Purpose purpose, QueryResult result) noexcept {
  if (!enabled()) return;
  Record r;
  r.kind = Kind::kSimHit;
  r.purpose = purpose;
  r.result = result;
  r.sim_hit = 1;
  append(r);
}

// ---- rings, sink, snapshots ---------------------------------------------

void set_ring_capacity(size_t records) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  g.ring_capacity = std::max<size_t>(records, 1);
}

bool set_sink(const std::string& path) {
  Global& g = global();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Header line: schema + provenance, so a ledger file is self-describing.
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "ecopatch-ledger-v1");
  w.kv("git_commit", build::git_commit());
  w.kv("git_dirty", build::git_dirty());
  w.end_object();
  const std::string header = w.take();
  const bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
                  std::fputc('\n', f) != EOF && std::fflush(f) == 0;
  if (!ok) {
    std::fclose(f);
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(g.mu);
    if (g.sink != nullptr) std::fclose(g.sink);
    g.sink = f;
    g.sink_ok = true;
  }
  g_enabled.store(true, std::memory_order_relaxed);
  return true;
}

bool flush() {
  Global& g = global();
  std::vector<Buffer*> buffers;
  {
    std::lock_guard<std::mutex> lock(g.mu);
    if (g.sink == nullptr) return true;
    buffers = g.buffers;
  }
  bool ok = true;
  for (Buffer* b : buffers) {
    std::lock_guard<std::mutex> lock(b->mu);
    if (!flush_buffer_locked(g, *b)) ok = false;
  }
  std::lock_guard<std::mutex> lock(g.mu);
  if (g.sink != nullptr && std::fflush(g.sink) != 0) ok = false;
  if (!ok) g.sink_ok = false;
  return ok && g.sink_ok;
}

bool close_sink() {
  const bool ok = flush();
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  bool close_ok = true;
  if (g.sink != nullptr) {
    close_ok = std::fclose(g.sink) == 0;
    g.sink = nullptr;
  }
  return ok && close_ok && g.sink_ok;
}

void abandon_sink() noexcept {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  // Deliberately not fclose'd: the FILE (and the offset of the fd under it)
  // belongs to the parent process; flushing or closing it here would write
  // duplicate bytes into — or truncate — the parent's stream.
  g.sink = nullptr;
  g.sink_ok = true;
}

namespace {
/// Buffers locked by fork_prepare(); mutated only under g.mu.
std::vector<Buffer*> g_fork_locked;
}  // namespace

void fork_prepare() {
  Global& g = global();
  g.mu.lock();
  g_fork_locked = g.buffers;
  for (Buffer* b : g_fork_locked) b->mu.lock();
}

void fork_release() {
  Global& g = global();
  for (auto it = g_fork_locked.rbegin(); it != g_fork_locked.rend(); ++it)
    (*it)->mu.unlock();
  g_fork_locked.clear();
  g.mu.unlock();
}

std::vector<Record> collect() {
  Global& g = global();
  std::vector<Buffer*> buffers;
  {
    std::lock_guard<std::mutex> lock(g.mu);
    buffers = g.buffers;
  }
  std::vector<Record> out;
  for (Buffer* b : buffers) {
    std::lock_guard<std::mutex> lock(b->mu);
    const size_t size = b->slots.size();
    if (size == 0) continue;
    const uint64_t live = std::min<uint64_t>(b->count, size);
    for (uint64_t i = b->count - live; i < b->count; ++i)
      out.push_back(b->slots[i % size]);
  }
  std::sort(out.begin(), out.end(),
            [](const Record& a, const Record& b) { return a.seq < b.seq; });
  return out;
}

std::vector<Record> tail(size_t n) {
  std::vector<Record> all = collect();
  if (all.size() > n) all.erase(all.begin(), all.end() - static_cast<long>(n));
  return all;
}

uint64_t dropped() noexcept { return global().dropped.load(std::memory_order_relaxed); }

void reset() {
  Global& g = global();
  std::vector<Buffer*> buffers;
  {
    std::lock_guard<std::mutex> lock(g.mu);
    buffers = g.buffers;
    g.dropped.store(0, std::memory_order_relaxed);
  }
  for (Buffer* b : buffers) {
    std::lock_guard<std::mutex> lock(b->mu);
    b->slots.clear();
    b->count = 0;
    b->flushed = 0;
  }
}

// ---- serialization ------------------------------------------------------

void write_record(JsonWriter& w, const Record& r) {
  w.begin_object();
  w.kv("seq", r.seq);
  w.kv("kind", kind_name(r.kind));
  w.kv("purpose", purpose_name(r.purpose));
  w.kv("result", result_name(r.result));
  w.kv("vars", r.vars);
  w.kv("clauses", r.clauses);
  w.kv("conflicts", r.conflicts);
  w.kv("decisions", r.decisions);
  w.kv("propagations", r.propagations);
  w.kv("sim_hit", r.sim_hit != 0);
  w.kv("wall_seconds", r.wall_seconds);
  w.kv("cpu_seconds", r.cpu_seconds);
  w.kv("cancel", cancel_cause_name(r.cancel));
  if (r.kind == Kind::kPortfolioAttempt) {
    // Schema-additive: readers treat missing keys as 0/false.
    w.kv("par_rank", static_cast<uint64_t>(r.par_rank));
    w.kv("par_winner", r.par_winner != 0);
  }
  w.kv("phase", std::string_view(r.phase));
  w.kv("thread", r.thread);
  w.kv("start_ns", r.start_ns);
  w.end_object();
}

std::string record_json(const Record& r) {
  JsonWriter w;
  write_record(w, r);
  return w.take();
}

}  // namespace eco::ledger
