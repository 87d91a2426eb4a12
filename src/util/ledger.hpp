/// \file ledger.hpp
/// \brief Per-query structured event ledger and crash flight recorder.
///
/// The telemetry layer (util/telemetry.hpp) answers "how much, in
/// aggregate"; the ledger answers "which query, and why": every SAT solve,
/// QBF expansion iteration, CEC check, simulation-bank hit, and strategy-
/// ladder attempt appends one fixed-size Record — purpose tag, instance
/// size, result, conflict/decision/propagation work, wall and thread-CPU
/// time, cancel reason, and the telemetry phase path — into a lock-light
/// per-thread ring buffer.
///
///  - **Purpose tagging**: call sites do not thread a tag through every
///    layer; instead they open a `ScopedPurpose` on the current thread
///    (innermost-wins, the `ScopedSolverCapture` pattern) and every record
///    appended underneath inherits it. Library-level scopes (cec, qbf) use
///    `ScopedPurpose::weak` so an engine-level tag (verify) is not
///    shadowed when it is already set.
///  - **Flight recorder**: the rings are bounded; `tail(n)` merges them and
///    returns the last n records in append order, which `run_eco` dumps
///    into the outcome JSON whenever an attempt ends in `kError` or an
///    armed fault fired — chaos failures become diagnosable post mortem.
///  - **JSONL export**: with a sink configured (`--ledger PATH` /
///    `ECO_LEDGER=PATH`), rings flush to the file as newline-delimited
///    JSON, one record per line, after one `ecopatch-ledger-v1` header
///    line. Rings flush before wrapping, so the export is lossless while
///    memory stays bounded.
///
/// Cost model: like telemetry, every entry point first checks a relaxed
/// atomic runtime flag (default **off**, enabled by `set_enabled(true)`,
/// a sink, or the `ECO_LEDGER` environment variable); the disabled path is
/// one predictable branch per query — far off the per-conflict hot path.
///
/// Thread safety: appends touch only the calling thread's buffer (one
/// uncontended mutex protecting it against concurrent merges); `collect`,
/// `tail`, `flush`, and `reset` are safe from any thread.
///
/// Schema and a worked example: docs/OBSERVABILITY.md, "Query ledger".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace eco {
class JsonWriter;
}

namespace eco::ledger {

/// What a record accounts for. Stable lower_snake_case names via
/// purpose_name(); "unknown" marks an untagged call site (a gap worth
/// closing — `ecoprof report` totals the untagged share).
enum class Purpose : uint8_t {
  kUnknown = 0,
  kSupport,       ///< support feasibility / minimization queries (§3.4)
  kSatPrune,      ///< SAT_prune hitting-set feasibility queries (§3.5)
  kIrredundancy,  ///< cube irredundancy queries (§3.4.2)
  kPatchFunc,     ///< on/off-set cube enumeration and expansion (§3.1)
  kResub,         ///< functional resubstitution dependency checks (§3.6.3)
  kCegarMin,      ///< CEGAR_min counterexample refinements (§3.6)
  kCec,           ///< combinational equivalence checks outside verify
  kQbf,           ///< 2QBF CEGAR feasibility iterations (§3.2)
  kVerify,        ///< the final patched-vs-spec verification
  kLadder,        ///< one strategy-ladder attempt (docs/ROBUSTNESS.md)
  kSweep,         ///< SAT-sweeping class proofs (cec/sweep.hpp)
  kCount_,
};
const char* purpose_name(Purpose p) noexcept;

/// What kind of event the record is.
enum class Kind : uint8_t {
  kSolve = 0,      ///< one sat::Solver::solve() call
  kSimHit,         ///< a query answered by the simulation bank, no search
  kQbfIteration,   ///< one CEGAR iteration (two solves) of the 2QBF check
  kCecCheck,       ///< one cec::check_const0 top-level check
  kLadderAttempt,     ///< one engine attempt (primary or escalation rung)
  kPortfolioAttempt,  ///< one diversified clone raced by sat/parsolve
  kSweepChunk,        ///< one SAT-sweeping prove chunk (cec/sweep.cpp):
                      ///< whole-chunk solver totals; vars = classes proved.
  kCount_,
};
const char* kind_name(Kind k) noexcept;

/// How the recorded query ended.
enum class QueryResult : int8_t {
  kUnsat = -1,  ///< UNSAT / proven / equivalent / attempt failed cleanly
  kUndef = 0,   ///< budget or cancellation cut the query short
  kSat = 1,     ///< SAT / refuted / counterexample / attempt succeeded
};

/// Why the query stopped early (mirrors CancelReason plus the solver's own
/// conflict/propagation budgets). kNone for completed queries.
enum class CancelCause : uint8_t {
  kNone = 0,
  kStopped,   ///< external stop (signal, executor shutdown)
  kMemory,    ///< memory account exceeded
  kDeadline,  ///< wall-clock deadline expired
  kBudget,    ///< conflict/propagation/iteration budget exhausted
};
const char* cancel_cause_name(CancelCause c) noexcept;

/// One ledger entry. Fixed size, no heap: appends never allocate.
struct Record {
  uint64_t seq = 0;         ///< global append order (filled by append())
  uint64_t start_ns = 0;    ///< start time, ns since the ledger epoch
  double wall_seconds = 0;  ///< wall-clock duration
  double cpu_seconds = 0;   ///< thread-CPU duration (CLOCK_THREAD_CPUTIME_ID)
  uint64_t conflicts = 0;   ///< solver conflicts attributed to this query
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint32_t vars = 0;     ///< instance size: solver variables
  uint32_t clauses = 0;  ///< instance size: problem (non-learnt) clauses
  uint32_t thread = 0;   ///< stable small thread id (filled by append())
  Purpose purpose = Purpose::kUnknown;  ///< filled from the scope by append()
  Kind kind = Kind::kSolve;
  QueryResult result = QueryResult::kUndef;
  uint8_t sim_hit = 0;  ///< answered by the simulation bank, no SAT search
  CancelCause cancel = CancelCause::kNone;
  // Parallel SAT (kind kPortfolioAttempt; zero otherwise).
  uint16_t par_rank = 0;   ///< clone rank within the escalation
  uint8_t par_winner = 0;  ///< 1 when this worker's result was adopted
  /// Telemetry phase path at append time ('/'-joined, truncated). Empty
  /// when telemetry recording is off.
  char phase[33] = {};
};
static_assert(sizeof(Record) <= 128, "Record must stay one cache-line pair");

// ---- Runtime switch -----------------------------------------------------

/// True when the ledger records (relaxed atomic read). Seeded from the
/// `ECO_LEDGER` environment variable: empty/"0" off, anything else is
/// treated as a sink path (and turns recording on).
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

// ---- Appending ----------------------------------------------------------

/// Appends \p r to the calling thread's ring. Fills seq, thread, purpose
/// (from the innermost ScopedPurpose when the record carries kUnknown), and
/// the phase path. No-op when disabled.
void append(Record r) noexcept;

/// Convenience: a Kind::kSimHit record for a bank-answered query.
void append_sim_hit(Purpose purpose, QueryResult result) noexcept;

/// The innermost purpose scope open on this thread (kUnknown when none).
Purpose current_purpose() noexcept;

/// Tags every record appended on this thread for this scope. Scopes nest
/// innermost-wins; a *weak* scope only applies when no purpose is set, so
/// a library entry point (cec) does not shadow an engine-level tag
/// (verify) that is already open.
class ScopedPurpose {
 public:
  explicit ScopedPurpose(Purpose p) noexcept;
  ~ScopedPurpose();
  ScopedPurpose(const ScopedPurpose&) = delete;
  ScopedPurpose& operator=(const ScopedPurpose&) = delete;

  /// A scope that applies only when no purpose is set (guaranteed-elision
  /// prvalue: no copy or move happens).
  static ScopedPurpose weak(Purpose p) noexcept { return ScopedPurpose(p, true); }

 private:
  ScopedPurpose(Purpose p, bool weak) noexcept;
  bool pushed_;
};

/// Thread-CPU clock (CLOCK_THREAD_CPUTIME_ID), seconds. Shared with the
/// bench harness; 0 when the clock is unavailable.
double thread_cpu_seconds() noexcept;

// ---- Rings, sink, snapshots ---------------------------------------------

/// Per-thread ring capacity (records). Applies to buffers created after the
/// call; default 4096. Capacity 0 is clamped to 1.
void set_ring_capacity(size_t records);

/// Opens \p path (truncating) as the JSONL sink and enables recording.
/// Returns false on open failure (recording is left untouched). The header
/// line (`schema ecopatch-ledger-v1`, git stamp) is written immediately, so
/// an unwritable path fails here, not at process exit.
bool set_sink(const std::string& path);

/// Flushes every thread's unflushed records to the sink (no-op without
/// one). Returns false if any write failed.
bool flush();

/// Flushes and closes the sink. Recording stays enabled.
bool close_sink();

/// Drops the sink without flushing or closing the file — for forked worker
/// children (service/worker.hpp) that inherited the parent's sink: the
/// FILE, its user-space buffer, and the underlying file offset belong to
/// the supervisor process. Recording stays enabled; the child's records are
/// ring-buffered and counted dropped when they wrap, never interleaved into
/// the parent's JSONL stream.
void abandon_sink() noexcept;

/// Fork-safety hooks. fork_prepare() acquires the global ledger lock and
/// every per-thread ring lock so a child forked while another thread is
/// mid-append cannot inherit a locked mutex; fork_release() must run in
/// BOTH the parent and the child immediately after fork().
void fork_prepare();
void fork_release();

/// All records currently held in the rings, in append (seq) order.
/// Records already flushed to a sink remain collectable until overwritten.
std::vector<Record> collect();

/// The last \p n records in append order (the flight-recorder dump).
std::vector<Record> tail(size_t n);

/// Records overwritten before reaching a sink (ring wrap with no sink, or
/// with one that failed).
uint64_t dropped() noexcept;

/// Clears every ring and the dropped counter (not the enabled flag, not
/// the sink).
void reset();

/// Serializes \p r as one JSON object (the JSONL line body) into \p w.
void write_record(JsonWriter& w, const Record& r);
/// One JSONL line (no trailing newline).
std::string record_json(const Record& r);

}  // namespace eco::ledger
