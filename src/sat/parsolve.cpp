#include "sat/parsolve.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "sat/solver.hpp"
#include "util/executor.hpp"
#include "util/ledger.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace eco::sat {

// ---------------------------------------------------------------------------
// Options: process-wide, env-seeded defaults (the SolverOptions pattern)
// ---------------------------------------------------------------------------

const char* par_mode_name(ParMode m) noexcept {
  switch (m) {
    case ParMode::kOff: return "off";
    case ParMode::kDeterministic: return "on";
  }
  return "off";
}

bool parse_par_mode(std::string_view text, ParMode& out) noexcept {
  if (text == "off") {
    out = ParMode::kOff;
  } else if (text == "on") {
    out = ParMode::kDeterministic;
  } else {
    return false;
  }
  return true;
}

namespace {

long env_long(const char* name, long lo, long hi, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || n < lo || n > hi) return fallback;
  return n;
}

ParSolveOptions env_seeded_par_defaults() {
  ParSolveOptions o;
  if (const char* v = std::getenv("ECO_PAR_SAT")) {
    ParMode m;
    if (parse_par_mode(v, m)) o.mode = m;
  }
  o.clones = static_cast<int>(env_long("ECO_PAR_SAT_CLONES", 2, 32, o.clones));
  o.trigger_conflicts = env_long("ECO_PAR_SAT_TRIGGER", 0, 1L << 40,
                                 static_cast<long>(o.trigger_conflicts));
  return o;
}

ParSolveOptions& mutable_par_defaults() {
  static ParSolveOptions o = env_seeded_par_defaults();
  return o;
}

std::atomic<util::Executor*> g_par_executor{nullptr};

}  // namespace

const ParSolveOptions& ParSolveOptions::defaults() noexcept { return mutable_par_defaults(); }

void ParSolveOptions::set_defaults(const ParSolveOptions& opts) noexcept {
  mutable_par_defaults() = opts;
}

void set_par_executor(util::Executor* executor) noexcept {
  g_par_executor.store(executor, std::memory_order_release);
}

util::Executor* par_executor() noexcept {
  return g_par_executor.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// ParSolveAccess: the only code with friend access to Solver internals
// ---------------------------------------------------------------------------

struct ParSolveAccess {
  static int64_t conflicts_since_start(const Solver& s) noexcept {
    return static_cast<int64_t>(s.stats_.conflicts - s.conflicts_at_solve_start_);
  }
  static int64_t conflict_budget(const Solver& s) noexcept { return s.conflict_budget_; }
  /// Remaining conflict budget of the running solve; -1 when unbudgeted.
  static int64_t remaining_conflicts(const Solver& s) noexcept {
    if (s.conflict_budget_ < 0) return -1;
    return std::max<int64_t>(0, s.conflict_budget_ - conflicts_since_start(s));
  }
  static int64_t trigger_override(const Solver& s) noexcept { return s.par_trigger_override_; }
  static const LitVec& assumptions(const Solver& s) noexcept { return s.assumptions_; }
  static const CancelToken& cancel(const Solver& s) noexcept { return s.cancel_; }
  static const Deadline& deadline(const Solver& s) noexcept { return s.deadline_; }
  static void mark_attempted(Solver& s) noexcept { s.par_attempted_ = true; }
  static int failed_rounds(const Solver& s) noexcept { return s.par_failed_rounds_; }
  static int64_t retry_at(const Solver& s) noexcept { return s.par_retry_at_; }
  /// Books an inconclusive unbudgeted race: the parent searches serially
  /// until \p retry_at conflicts, then races again with a bigger slice.
  static void note_failed_round(Solver& s, int64_t retry_at) noexcept {
    ++s.par_failed_rounds_;
    s.par_retry_at_ = retry_at;
  }
  static SolverStats& stats(Solver& s) noexcept { return s.stats_; }
  static uint32_t num_clauses(const Solver& s) noexcept {
    return static_cast<uint32_t>(s.clauses_.size());
  }

  /// Runs the private solve (no ledger kSolve record — the escalation emits
  /// its own portfolio_attempt records instead).
  static LBool solve_quiet(Solver& s, std::span<const Lit> a) { return s.solve_impl(a); }

  static std::vector<LBool> take_model(Solver& s) { return std::move(s.model_); }

  static void install_sat(Solver& parent, std::vector<LBool> model) {
    parent.model_ = std::move(model);
    parent.model_.resize(static_cast<size_t>(parent.num_vars()), kUndef);
  }
  static void install_unsat(Solver& parent, LitVec core_assumed) {
    parent.core_ = std::move(core_assumed);
    for (const Lit l : parent.core_)
      parent.in_core_mark_[static_cast<size_t>(l.var())] = 1;
  }
  static void note_cancelled(Solver& parent, bool cancel_hit, bool deadline_expired) noexcept {
    if (cancel_hit) parent.cancel_hit_ = true;
    if (deadline_expired) parent.deadline_expired_ = true;
  }
  static bool cancel_hit(const Solver& s) noexcept { return s.cancel_hit_; }
  static bool deadline_expired(const Solver& s) noexcept { return s.deadline_expired_; }

  /// A fresh solver holding the same instance: variables (with decision
  /// flags and saved phases), level-0 facts, problem clauses, and — as a
  /// warm start — the parent's VSIDS activities plus its core- and
  /// tier2-tier learnts. Learnts are derived by resolution over the clause
  /// database alone (never from assumptions), so they transfer as
  /// originals; without them a clone re-derives ~trigger's worth of lemmas
  /// from scratch and loses the race to the warm parent it is meant to
  /// beat. Tier2 transfer is capped so a long-running parent's database
  /// cannot make clone setup quadratic.
  static std::unique_ptr<Solver> clone(Solver& src, const SolverOptions& opts) {
    auto dst = std::make_unique<Solver>(opts);
    dst->par_allowed_ = false;  // escalation never recurses
    const int n = src.num_vars();
    for (Var v = 0; v < n; ++v)
      dst->new_var(src.decision_[static_cast<size_t>(v)] != 0,
                   src.polarity_[static_cast<size_t>(v)] != 0);
    for (Var v = 0; v < n; ++v) {
      dst->activity_[static_cast<size_t>(v)] = src.activity_[static_cast<size_t>(v)];
      dst->order_heap_.update(v, dst->activity_);
    }
    // Unit clauses never enter the arena (add_clause enqueues them
    // directly), so the level-0 trail segment is replayed as units.
    const size_t lvl0 = src.trail_lim_.empty() ? src.trail_.size()
                                               : static_cast<size_t>(src.trail_lim_[0]);
    for (size_t i = 0; i < lvl0 && dst->okay(); ++i) dst->add_unit(src.trail_[i]);
    for (const CRef ref : src.clauses_) {
      if (!dst->okay()) break;
      dst->add_clause(src.clause(ref).lits());
    }
    for (const CRef ref : src.learnts_core_) {
      if (!dst->okay()) break;
      auto c = src.clause(ref);
      if (c.header().tier != Solver::kTierCore) continue;  // stale list entry
      dst->add_clause(c.lits());
    }
    size_t tier2_left = 30000;
    for (const CRef ref : src.learnts_tier2_) {
      if (!dst->okay() || tier2_left == 0) break;
      auto c = src.clause(ref);
      if (c.header().tier != Solver::kTierTier2) continue;  // stale list entry
      dst->add_clause(c.lits());
      --tier2_left;
    }
    return dst;
  }

  /// Rank-seeded search perturbation: flip a fraction of the saved phases
  /// and jitter the VSIDS tie-break order. Deterministic per (seed, rank).
  static void diversify(Solver& s, uint64_t seed) {
    Rng rng(SplitMix64::mix(seed));
    const int n = s.num_vars();
    for (Var v = 0; v < n; ++v) {
      if (rng.chance(1, 5)) s.polarity_[static_cast<size_t>(v)] ^= 1;
      s.activity_[static_cast<size_t>(v)] = rng.uniform() * 1e-3;
      s.order_heap_.update(v, s.activity_);  // no-op for non-decision vars
    }
  }
};

// ---------------------------------------------------------------------------
// The race
// ---------------------------------------------------------------------------

namespace {

struct CloneResult {
  LBool status = kUndef;
  std::vector<LBool> model;  // status kTrue
  LitVec core;               // status kFalse, literals in assumed polarity
  CancelReason cancel = CancelReason::kNone;
  bool deadline_expired = false;
  uint64_t conflicts = 0, decisions = 0, propagations = 0;
  uint32_t vars = 0, clauses = 0;
  double wall = 0, cpu = 0;
  bool done = false;
};

struct Race {
  // Fixed after setup (coordinator), read-only during the race.
  int num = 0;  ///< portfolio clones
  LitVec assumptions;
  std::vector<CancelToken> tokens;
  telemetry::SolverTotalsAccumulator* capture = nullptr;

  // Claimed through the atomic; each solver is touched by exactly one
  // thread (its claimer), which also destroys it — no cross-thread reads.
  std::atomic<int> next{0};
  std::vector<std::unique_ptr<Solver>> solvers;

  // Guarded by mu.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<CloneResult> results;
  int done_count = 0;
  int winner = -1;  ///< fixed once decided; -1 while (or forever) undecided

  /// Called under mu when a rank completes. Fixes the winner as the lowest
  /// rank with a definitive result once every lower rank is done — a
  /// timing-independent tie-break.
  void on_done_locked() {
    if (winner >= 0) return;
    for (int r = 0; r < num; ++r) {
      const auto& res = results[static_cast<size_t>(r)];
      if (!res.done) return;  // a lower rank is pending: undecided
      if (!res.status.is_undef()) {
        winner = r;
        break;
      }
    }
    if (winner >= 0) {
      // The outcome is fixed: stop every other worker. Stopping a child
      // token never propagates to the parent solve's token.
      for (int r = 0; r < num; ++r)
        if (r != winner) tokens[static_cast<size_t>(r)].request_stop();
    }
  }
};

/// Runs one rank on the calling thread: solve, snapshot the result, destroy
/// the clone (inside the claimer's telemetry capture), then publish under
/// the race mutex.
void run_rank(Race& race, int r) {
  const auto idx = static_cast<size_t>(r);
  CloneResult out;
  bool skip;
  {
    std::lock_guard<std::mutex> lock(race.mu);
    skip = race.winner >= 0;  // outcome already fixed: don't even start
  }
  {
    Solver& s = *race.solvers[idx];
    out.vars = static_cast<uint32_t>(s.num_vars());
    out.clauses = ParSolveAccess::num_clauses(s);
    const Timer wall;
    const double cpu0 = ledger::thread_cpu_seconds();
    if (!skip) out.status = ParSolveAccess::solve_quiet(s, race.assumptions);
    out.wall = wall.seconds();
    out.cpu = ledger::thread_cpu_seconds() - cpu0;
    const SolverStats& st = s.stats();
    out.conflicts = st.conflicts;
    out.decisions = st.decisions;
    out.propagations = st.propagations;
    if (out.status.is_true()) out.model = ParSolveAccess::take_model(s);
    if (out.status.is_false()) out.core = s.core();
    if (out.status.is_undef()) {
      out.cancel = race.tokens[idx].reason();
      if (!skip) out.deadline_expired = ParSolveAccess::deadline_expired(s);
    }
  }
  race.solvers[idx].reset();
  {
    std::lock_guard<std::mutex> lock(race.mu);
    race.results[idx] = std::move(out);
    race.results[idx].done = true;
    race.on_done_locked();
    ++race.done_count;
  }
  race.cv.notify_all();
}

/// Claim loop: pulls unclaimed ranks until the race is exhausted. Runs on
/// helper tasks and on the coordinator itself — the coordinator never waits
/// on work nobody is executing, and helpers never touch foreign queue items
/// (unlike a helping wait, which could pull an unrelated sweep task and run
/// it inline under the solve).
void claim_ranks(const std::shared_ptr<Race>& race) {
  std::optional<telemetry::ScopedSolverCapture> capture;
  if (race->capture != nullptr) capture.emplace(*race->capture);
  for (;;) {
    const int r = race->next.fetch_add(1, std::memory_order_relaxed);
    if (r >= race->num) break;
    run_rank(*race, r);
  }
}

/// Map a worker result into a ledger record and append it (coordinator
/// thread: the parent solve's ScopedPurpose tags it).
void append_worker_record(const Race& race, int rank, bool is_winner) {
  const auto& res = race.results[static_cast<size_t>(rank)];
  ledger::Record r;
  r.kind = ledger::Kind::kPortfolioAttempt;
  r.wall_seconds = res.wall;
  r.cpu_seconds = res.cpu;
  r.conflicts = res.conflicts;
  r.decisions = res.decisions;
  r.propagations = res.propagations;
  r.vars = res.vars;
  r.clauses = res.clauses;
  r.par_rank = static_cast<uint16_t>(rank);
  r.par_winner = is_winner ? 1 : 0;
  r.result = res.status.is_true()    ? ledger::QueryResult::kSat
             : res.status.is_false() ? ledger::QueryResult::kUnsat
                                     : ledger::QueryResult::kUndef;
  if (res.status.is_undef()) {
    switch (res.cancel) {
      case CancelReason::kStopped: r.cancel = ledger::CancelCause::kStopped; break;
      case CancelReason::kMemory: r.cancel = ledger::CancelCause::kMemory; break;
      case CancelReason::kDeadline: r.cancel = ledger::CancelCause::kDeadline; break;
      case CancelReason::kNone:
        r.cancel = res.deadline_expired ? ledger::CancelCause::kDeadline
                                        : ledger::CancelCause::kBudget;
        break;
    }
  }
  ledger::append(r);
}

/// Diversified per-rank solver configuration (rank 0 keeps the parent's).
SolverOptions diversified_options(const SolverOptions& base, int rank) {
  SolverOptions o = base;
  if (rank == 0) return o;
  if (rank % 2 == 1)
    o.restart = base.restart == RestartPolicy::kLuby ? RestartPolicy::kEma
                                                     : RestartPolicy::kLuby;
  static constexpr uint32_t kCaps[3] = {1000, 2000, 4000};
  o.local_cap_base = kCaps[rank % 3];
  if (rank % 4 == 3) o.tier2_lbd_cut = base.tier2_lbd_cut + 2;
  return o;
}

}  // namespace

// ---------------------------------------------------------------------------
// Escalation entry point
// ---------------------------------------------------------------------------

std::optional<LBool> maybe_escalate_par(Solver& parent) {
  const ParSolveOptions& o = ParSolveOptions::defaults();
  if (o.mode == ParMode::kOff) return std::nullopt;
  util::Executor* ex = par_executor();
  if (ex == nullptr || ex->jobs() <= 1) return std::nullopt;

  // Trigger: per-solver override beats the process default; a budgeted
  // solve escalates by half its budget at the latest, so the workers still
  // have budget to spend by proxy.
  const int64_t override_trigger = ParSolveAccess::trigger_override(parent);
  if (override_trigger < 0) return std::nullopt;
  int64_t trigger = override_trigger > 0 ? override_trigger : o.trigger_conflicts;
  const int64_t total_budget = ParSolveAccess::conflict_budget(parent);
  if (total_budget >= 0)
    trigger = std::min(trigger, std::max<int64_t>(total_budget / 2, 2000));

  const int64_t gate = std::max(trigger, ParSolveAccess::retry_at(parent));
  if (ParSolveAccess::conflicts_since_start(parent) < gate) return std::nullopt;

  const int64_t remaining = ParSolveAccess::remaining_conflicts(parent);
  if (remaining >= 0 && remaining < 4000) {
    // Nearly exhausted: clone setup would cost more than the leftover
    // budget could buy. Let the serial search spend the remainder.
    ParSolveAccess::mark_attempted(parent);
    return std::nullopt;
  }

  // Helpers never consult pool occupancy (the verdict would depend on sweep
  // timing): they just queue behind the sweep, and the coordinator claims
  // every rank itself if need be.
  auto race = std::make_shared<Race>();
  race->num = std::clamp(o.clones, 2, 32);
  race->assumptions = ParSolveAccess::assumptions(parent);

  // Per-worker conflict slices. Budgeted: split the remainder (spent by
  // proxy — an all-undef race is adopted as the budget verdict). Unbudgeted:
  // a probe slice starting at 2x the trigger and growing 4x per failed
  // round — a failed race costs about as much as the parent had already
  // spent, and the geometric growth means the total speculative work of a
  // never-winning solve stays within a constant factor of its serial work
  // while a genuinely stuck solve ends up racing most of its wall time. If
  // nobody is definitive the parent resumes its own search, so escalation
  // is never worse than serial in outcome.
  int64_t slice;
  if (remaining >= 0) {
    slice = std::max<int64_t>(remaining / race->num, 1000);
  } else {
    const int shift = std::min(2 * ParSolveAccess::failed_rounds(parent), 12);
    slice = std::min<int64_t>(
        std::max<int64_t>(2 * std::max<int64_t>(trigger, 1), 10000) << shift,
        2'000'000);
  }

  // A race must be worth its setup: every clone replays the whole clause
  // database, so on a large instance a thin per-worker slice costs more in
  // construction than the conflicts it buys (measured: 400k-clause resub
  // queries racing 6k-conflict slices decided nothing and regressed the
  // sweep). Clause count and budget state are solver state, so the gate is
  // deterministic; it is terminal because a budgeted remainder only
  // shrinks and an unbudgeted round-0 slice is a constant.
  if (slice < static_cast<int64_t>(ParSolveAccess::num_clauses(parent)) / 16) {
    ParSolveAccess::mark_attempted(parent);
    ECO_TELEMETRY_COUNT("parsat.declined_thin");
    return std::nullopt;
  }

  const CancelToken& parent_cancel = ParSolveAccess::cancel(parent);
  race->solvers.resize(static_cast<size_t>(race->num));
  race->tokens.resize(static_cast<size_t>(race->num));
  race->results.resize(static_cast<size_t>(race->num));
  race->capture = telemetry::current_solver_capture();

  for (int r = 0; r < race->num; ++r) {
    const auto idx = static_cast<size_t>(r);
    auto clone = ParSolveAccess::clone(parent, diversified_options(parent.options(), r));
    if (r > 0) ParSolveAccess::diversify(*clone, o.seed ^ (static_cast<uint64_t>(r) << 17));
    race->tokens[idx] =
        parent_cancel.valid() ? parent_cancel.child(0) : CancelToken::stoppable();
    clone->set_cancel(race->tokens[idx]);
    clone->set_deadline(ParSolveAccess::deadline(parent));
    clone->set_conflict_budget(slice);
    race->solvers[idx] = std::move(clone);
  }

  // Fan out: bounded helper tasks plus the coordinator, all claiming ranks
  // from the shared counter. Every claimed rank is executed by a live
  // thread and every rank gets claimed (the coordinator drains leftovers),
  // so the completion wait below is finite.
  for (int h = 0; h + 1 < race->num; ++h) ex->submit([race] { claim_ranks(race); });
  claim_ranks(race);
  {
    std::unique_lock<std::mutex> lock(race->mu);
    race->cv.wait(lock, [&] { return race->done_count == race->num; });
  }

  // ---- Aggregate --------------------------------------------------------
  const int winner = race->winner;
  if (ledger::enabled())
    for (int r = 0; r < race->num; ++r) append_worker_record(*race, r, r == winner);

  SolverStats& pstats = ParSolveAccess::stats(parent);
  ++pstats.par_escalations;
  ++pstats.par_portfolio;
  ECO_TELEMETRY_COUNT("parsat.escalations");
  ECO_TELEMETRY_COUNT("parsat.portfolio");

  if (winner >= 0) {
    auto& res = race->results[static_cast<size_t>(winner)];
    ++pstats.par_wins;
    ECO_TELEMETRY_COUNT("parsat.wins");
    if (res.status.is_true()) {
      ParSolveAccess::install_sat(parent, std::move(res.model));
      return kTrue;
    }
    ParSolveAccess::install_unsat(parent, std::move(res.core));
    return kFalse;
  }

  // Inconclusive race. Budgeted: the workers spent the remaining budget by
  // proxy — adopt the undef (propagating external-cancel causes so the
  // ledger wrapper reports them). Unbudgeted: resume the serial search and
  // book the next, bigger round once the parent has searched half a slice
  // further (conflict-count state only: deterministic).
  if (remaining >= 0) {
    bool cancel_hit = false, deadline_expired = false;
    for (const auto& res : race->results) {
      cancel_hit |= res.cancel != CancelReason::kNone;
      deadline_expired |= res.deadline_expired;
    }
    ParSolveAccess::note_cancelled(parent, cancel_hit, deadline_expired);
    return kUndef;
  }
  ParSolveAccess::note_failed_round(
      parent, ParSolveAccess::conflicts_since_start(parent) + slice / 2);
  ECO_TELEMETRY_COUNT("parsat.resumed");
  return std::nullopt;
}

}  // namespace eco::sat
