/// \file solver.hpp
/// \brief A from-scratch CDCL SAT solver in the MiniSat tradition.
///
/// The solver implements the features the ECO engine depends on:
///  - incremental clause addition across solve calls,
///  - solving under assumptions,
///  - extraction of the final conflict over assumptions (``analyze_final``),
///    which the paper's baseline configuration uses for support computation,
///  - conflict and propagation budgets so the engine can fall back to the
///    structural patch path on timeout (paper §3.2, §3.6).
///
/// Algorithmically it is a standard CDCL solver: two-watched-literal
/// propagation, VSIDS decision heuristic with an indexed heap, phase saving,
/// restarts (Luby or glucose-style EMA, see SolverOptions), first-UIP
/// conflict analysis with recursive clause minimization, and a three-tier
/// learnt-clause database (Chanseok-Oh style).
///
/// Propagation uses a two-tier watcher scheme (the MiniSat -> Glucose
/// refinement): **binary clauses** live in dedicated watch lists whose
/// entries store the implied literal inline, so propagating a binary chain
/// touches no clause-arena memory at all — one contiguous scan enqueues or
/// conflicts directly. **Longer clauses** use the classic blocker-checked
/// watcher pair with arena access only when the blocker is unsatisfied.
/// Tseitin-encoded circuit CNF is mostly binary/ternary, so every SAT call
/// in support/satprune/patchfunc/cegarmin/qbf/cec benefits. The one
/// consequence visible elsewhere: a binary reason clause may have its
/// implied literal at index 1, so conflict analysis normalizes lazily
/// (see `reason_view`).
///
/// **Watch storage.** Each watcher kind keeps all of its per-literal lists
/// in one flat array (`WatchLists`): a literal owns a block of the array
/// with a begin, a size and a capacity, a full block moves to the end at
/// twice its capacity (or grows in place when it is the last block), and
/// the array is compacted in literal order once moved-out blocks make up
/// half of the live ones. Together with `add_clause` filtering in a member
/// buffer, this makes loading a clause or a variable allocation-free apart
/// from the amortized growth of a few arrays. The engine builds many
/// solvers for a few short queries each, so building and freeing them is
/// as much of the SAT layer's cost as search. Entry order within a list
/// follows `std::vector` exactly, so the watch order, and with it every
/// search, is the one a vector per literal gives.
///
/// **Incremental fast path (assumption-prefix trail reuse).** The engine's
/// dominant workload is many `solve()` calls on one solver whose assumption
/// vectors share a long common prefix (`minimize_assumptions` alone issues
/// O(k log k) such calls per support/cube computation). With
/// `SolverOptions::trail_reuse` (the default), `solve()` does not cancel to
/// decision level 0 on exit; the next call computes the longest common
/// prefix between the previous and current assumption vectors and backtracks
/// only to that level, so the retained trail segment — assumption decisions
/// plus everything unit propagation derived from them — is never re-decided
/// or re-propagated. This is sound because every retained trail literal at
/// level i is a consequence of the clause database and the first i
/// assumptions, both unchanged for the matched prefix; `add_clause` cancels
/// to level 0 first (invalidating the retained trail) whenever the database
/// grows between calls. Consumers maximize the win by keeping assumption
/// order stable: context literals first, then the query-specific suffix
/// (see sat/minimize.hpp and docs/OBSERVABILITY.md "assumption-ordering
/// invariant"). `stats().prefix_reused_levels` / `propagations_saved`
/// report the effect.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sat/stats.hpp"
#include "sat/types.hpp"
#include "util/cancel.hpp"

namespace eco::sat {

/// Restart policy selector (SolverOptions::restart).
enum class RestartPolicy : uint8_t {
  kLuby,  ///< Luby sequence × 100 conflicts (the MiniSat classic)
  kEma,   ///< glucose-style fast/slow LBD EMAs with trail-size blocking
};

/// Tunable solver behavior, fixed at construction.
///
/// Process-wide defaults come from `defaults()` and can be overridden
/// programmatically (`set_defaults`) or via the environment:
/// `ECO_SAT_TRAIL_REUSE=0` disables assumption-prefix trail reuse and
/// `ECO_SAT_RESTART=ema|luby` selects the restart policy. The env hooks
/// exist so benchmarks and CI can A/B the fast path without recompiling.
struct SolverOptions {
  /// Keep the trail across solve() calls and re-use the decision levels of
  /// the longest common assumption prefix (see file comment).
  bool trail_reuse = true;

  /// Let consumers that hold simulation statistics (the sweeping engine,
  /// cec/sweep.hpp) seed each Tseitin variable's saved phase from the
  /// node's signal probability before solving. This flag only gates those
  /// call sites' use of `set_polarity`; the solver itself never reads it.
  /// `ECO_SAT_PHASE_SEED=0` disables it for A/B runs.
  bool phase_seed = true;

  /// Restart policy for the search loop.
  RestartPolicy restart = RestartPolicy::kLuby;

  // -- learnt-clause tiering (Chanseok-Oh three-tier scheme) --------------
  /// Learnts with LBD <= core_lbd_cut are kept forever ("core").
  uint32_t core_lbd_cut = 2;
  /// Learnts with core < LBD <= tier2_lbd_cut sit on a touched-timer
  /// ("tier2"); the rest are aggressively reduced ("local").
  uint32_t tier2_lbd_cut = 6;
  /// Scan tier2 every this many conflicts...
  uint64_t tier2_shrink_interval = 10000;
  /// ...demoting clauses not touched for this many conflicts to local.
  uint64_t tier2_unused_demote = 30000;
  /// Halve the local tier (by activity) every this many conflicts — the
  /// schedule backstop for workloads whose local tier grows slowly.
  uint64_t local_reduce_interval = 15000;
  /// Also halve the local tier whenever it holds this many live clauses.
  /// Local clauses are the high-LBD tail (the valuable ones live in core /
  /// tier2), so a hard cap keeps per-conflict propagation cheap: on
  /// pigeonhole php(11,10) a fixed 2000-clause cap is 1.3–1.9x faster
  /// end-to-end than letting the tier grow between interval reductions.
  /// Set local_cap_increment > 0 to grow the cap per size-triggered
  /// reduction (glucose-style) instead; the cap also self-raises if locked
  /// clauses ever pin a reduction above it (no thrashing).
  uint32_t local_cap_base = 2000;
  uint32_t local_cap_increment = 0;

  // -- EMA restart parameters (RestartPolicy::kEma) -----------------------
  double ema_lbd_fast_alpha = 1.0 / 32.0;
  double ema_lbd_slow_alpha = 1.0 / 4096.0;
  double ema_trail_alpha = 1.0 / 4096.0;
  /// Restart when fast LBD EMA > restart_margin × slow LBD EMA.
  double restart_margin = 1.25;
  /// Block (postpone) the restart when the trail is this much larger than
  /// its EMA — the search is likely closing in on a model.
  double blocking_margin = 1.4;
  /// Minimum conflicts within a restart segment before EMA may fire.
  uint32_t restart_min_conflicts = 50;

  /// Process-wide defaults (env-seeded on first use, see above).
  static const SolverOptions& defaults() noexcept;
  /// Replaces the process-wide defaults (call before creating solvers).
  static void set_defaults(const SolverOptions& opts) noexcept;
};

/// Per-literal lists of small trivially copyable entries (the solver's
/// watch lists), kept in one flat array instead of one heap block per list.
/// List \c l owns the block [begin, begin + cap) of the array and holds its
/// entries in the first \c size slots. A push onto a full list grows the
/// block in place when it is the last block of the array and otherwise
/// moves it to the end at twice its capacity. The vacated block stays dead
/// until the array is compacted in list order. A list's dead blocks sum to
/// less than its capacity (4 + 8 + ... + cap / 2), so dead blocks never
/// reach half of the array; compaction runs once they make up half of the
/// live blocks (a third of the array). Live capacity doubles between two
/// compactions, so they, like the array's own growth, are logarithmic in
/// the number of entries.
///
/// Entry order within a list follows std::vector: push appends, truncate
/// drops the tail, swap_remove moves the last entry into the hole. A push
/// may move any list, so a pointer from data() or operator[] is valid only
/// until the next push.
template <typename T>
class WatchLists {
 public:
  /// Appends an empty list.
  void add_list() { spans_.push_back(Span{static_cast<uint32_t>(data_.size()), 0, 0}); }

  size_t num_lists() const noexcept { return spans_.size(); }
  uint32_t size(size_t l) const noexcept { return spans_[l].size; }
  T* data(size_t l) noexcept { return data_.data() + spans_[l].begin; }
  std::span<T> operator[](size_t l) noexcept { return {data(l), spans_[l].size}; }

  void push(size_t l, T x) {
    if (spans_[l].size == spans_[l].cap) grow(l);
    Span& s = spans_[l];
    data_[s.begin + s.size++] = x;
  }

  /// Keeps the first \p n entries of list \p l.
  void truncate(size_t l, uint32_t n) noexcept { spans_[l].size = n; }

  /// Removes entry \p i of list \p l by moving the list's last entry there.
  void swap_remove(size_t l, uint32_t i) noexcept {
    Span& s = spans_[l];
    --s.size;
    data_[s.begin + i] = data_[s.begin + s.size];
  }

  /// Slots in the flat array, dead blocks included.
  size_t slots() const noexcept { return data_.size(); }

 private:
  // 16 bytes, so that no span straddles a cache line.
  struct alignas(16) Span {
    uint32_t begin;
    uint32_t size;
    uint32_t cap;
  };
  static constexpr uint32_t kMinCap = 4;

  // Out of line, so that push() stays small enough to inline into the
  // propagation loop.
  [[gnu::noinline]] void grow(size_t l) {
    Span& s = spans_[l];
    const uint32_t cap = s.cap == 0 ? kMinCap : 2 * s.cap;
    const size_t end = data_.size();
    if (s.begin + s.cap == end) {
      data_.resize(s.begin + cap);
    } else {
      data_.resize(end + cap);
      std::copy_n(data_.data() + s.begin, s.size, data_.data() + end);
      dead_ += s.cap;
      s.begin = static_cast<uint32_t>(end);
    }
    s.cap = cap;
    if (3 * dead_ >= data_.size()) compact();
  }

  void compact() {
    std::vector<T> packed(data_.size() - dead_);
    uint32_t at = 0;
    for (Span& s : spans_) {
      std::copy_n(data_.data() + s.begin, s.size, packed.data() + at);
      s.begin = at;
      at += s.cap;
    }
    data_ = std::move(packed);
    dead_ = 0;
  }

  std::vector<T> data_;
  std::vector<Span> spans_;
  size_t dead_ = 0;  ///< slots of moved-out blocks
};

/// CDCL SAT solver.
class Solver {
 public:
  explicit Solver(const SolverOptions& options = SolverOptions::defaults());
  /// Rolls this solver's statistics into the process-wide telemetry totals
  /// (util/telemetry.hpp), so snapshots cover every solver ever created.
  ~Solver();

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  const SolverOptions& options() const noexcept { return opts_; }

  // ---- Problem construction -------------------------------------------

  /// Creates a fresh variable and returns its index.
  Var new_var(bool decision = true, bool default_polarity = false);

  /// Number of variables created so far.
  int num_vars() const noexcept { return static_cast<int>(assigns_.size()); }

  /// Adds a clause. Returns false if the solver became provably UNSAT
  /// (empty clause or top-level conflict). Duplicate/true literals handled.
  /// Cancels any retained trail first (growing the database invalidates
  /// assumption-prefix reuse).
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  bool add_unit(Lit l) { return add_clause({l}); }
  bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }
  bool add_ternary(Lit a, Lit b, Lit c) { return add_clause({a, b, c}); }

  /// True while the clause database is not known to be contradictory.
  bool okay() const noexcept { return ok_; }

  // ---- Solving ---------------------------------------------------------

  /// Solves under the given assumptions.
  /// \returns kTrue (SAT), kFalse (UNSAT), or kUndef if a budget ran out.
  LBool solve(std::span<const Lit> assumptions = {});
  LBool solve(std::initializer_list<Lit> assumptions) {
    return solve(std::span<const Lit>(assumptions.begin(), assumptions.size()));
  }

  /// Model value of a literal after a kTrue result. Unassigned model
  /// variables (eliminated by simplification) default to false.
  bool model_value(Lit l) const;
  bool model_value(Var v) const { return model_value(mk_lit(v)); }

  /// After a kFalse result under assumptions: the subset of the assumption
  /// literals that the proof actually used (the "final conflict" core).
  /// Literals appear in their assumed polarity.
  const LitVec& core() const noexcept { return core_; }

  /// True if the assumption literal \p l is in the last core.
  bool in_core(Lit l) const;

  // ---- Budgets ---------------------------------------------------------

  /// Limits the number of conflicts for subsequent solve() calls. A
  /// negative value clears the budget; zero allows no conflict at all, so
  /// solve() returns kUndef before any search (clear_budgets() also clears).
  void set_conflict_budget(int64_t conflicts) noexcept { conflict_budget_ = conflicts; }

  /// Limits the number of propagations for subsequent solve() calls.
  void set_propagation_budget(int64_t props) noexcept { propagation_budget_ = props; }

  /// Sets an absolute wall-clock deadline checked during search; solve()
  /// returns kUndef once it expires. Persists across solve() calls until
  /// replaced. An unlimited Deadline{} clears it.
  void set_deadline(const Deadline& deadline) noexcept {
    deadline_ = deadline;
    deadline_expired_ = false;
    deadline_check_countdown_ = 0;
  }

  /// Attaches a cooperative cancellation token checked during search (same
  /// throttled cadence as the deadline); solve() returns kUndef once it
  /// cancels. A default-constructed (invalid) token clears it. Unlike the
  /// deadline this also reacts to external stop requests and memory-budget
  /// exhaustion, so a CLI signal handler or executor shutdown can abort a
  /// long solve mid-search.
  void set_cancel(const CancelToken& token) noexcept {
    cancel_ = token;
    cancel_hit_ = false;
    deadline_check_countdown_ = 0;
  }

  /// Clears the conflict/propagation budgets (not the deadline).
  void clear_budgets() noexcept {
    conflict_budget_ = -1;
    propagation_budget_ = -1;
  }

  const SolverStats& stats() const noexcept { return stats_; }

  /// Sets the preferred phase used when the variable is picked as decision.
  void set_polarity(Var v, bool negated_first);

  /// Top-level (decision level 0) value of a variable, kUndef if free.
  LBool fixed_value(Var v) const;

  // ---- Intra-query parallel solving (sat/parsolve.hpp) ------------------

  /// Allows or forbids escalating this solver's long solves to the parallel
  /// layer (default allowed; parsolve forbids it on its worker clones so an
  /// escalation never recurses). The layer itself is off unless
  /// ParSolveOptions enables it and an executor is registered.
  void set_par_escalation(bool allowed) noexcept { par_allowed_ = allowed; }

  /// Per-solver override of the escalation trigger (conflicts inside one
  /// solve before the parallel layer may take over): 0 defers to the
  /// process-wide ParSolveOptions default, > 0 replaces it, < 0 disables
  /// escalation for this solver. Consumers running on sliced budgets (QBF
  /// CEGAR) lower it so escalation still has budget left to spend.
  void set_par_trigger(int64_t conflicts) noexcept { par_trigger_override_ = conflicts; }

 private:
  // -- clause arena -----------------------------------------------------
  // Layout per clause: [header][lit0][lit1]...
  // header: learnt flag, reloced/dead flag, learnt tier, 28-bit size.
  // Learnt clauses carry three extra trailing words: activity (float),
  // LBD, and the conflict count at which the clause was last used
  // ("touched", drives tier2 demotion).
  struct Header {
    uint32_t learnt : 1;
    uint32_t reloced : 1;
    uint32_t tier : 2;
    uint32_t size : 28;
  };

  // Learnt tiers (Header::tier). Originals carry kTierCore (ignored).
  static constexpr uint32_t kTierCore = 0;   ///< LBD <= core cut: kept forever
  static constexpr uint32_t kTierTier2 = 1;  ///< mid LBD: touched-timer
  static constexpr uint32_t kTierLocal = 2;  ///< high LBD: aggressively reduced

  class ClauseRefView {
   public:
    ClauseRefView(std::vector<uint32_t>& mem, CRef ref) noexcept : mem_(&mem), ref_(ref) {}
    Header& header() noexcept { return *reinterpret_cast<Header*>(&(*mem_)[ref_]); }
    uint32_t size() noexcept { return header().size; }
    bool learnt() noexcept { return header().learnt != 0; }
    Lit& operator[](uint32_t i) noexcept {
      return *reinterpret_cast<Lit*>(&(*mem_)[ref_ + 1 + i]);
    }
    float& activity() noexcept {
      return *reinterpret_cast<float*>(&(*mem_)[ref_ + 1 + size()]);
    }
    uint32_t& lbd() noexcept { return (*mem_)[ref_ + 2 + size()]; }
    uint32_t& touched() noexcept { return (*mem_)[ref_ + 3 + size()]; }
    std::span<const Lit> lits() noexcept {
      return {reinterpret_cast<const Lit*>(&(*mem_)[ref_ + 1]), size()};
    }

   private:
    std::vector<uint32_t>* mem_;
    CRef ref_;
  };

  ClauseRefView clause(CRef ref) noexcept { return ClauseRefView(arena_, ref); }

  CRef alloc_clause(std::span<const Lit> lits, bool learnt);

  struct Watcher {
    CRef cref;
    Lit blocker;
  };

  /// Watcher for a binary clause: the implied literal is stored inline, so
  /// propagation never dereferences the arena. \c cref is kept only as the
  /// reason / conflict handle for analysis.
  struct BinWatcher {
    Lit other;
    CRef cref;
  };

  struct VarData {
    CRef reason = kCRefUndef;
    int level = 0;
  };

  /// Exponential moving average for the EMA restart policy.
  struct Ema {
    double value = 0;
    bool primed = false;
    void update(double x, double alpha) noexcept {
      if (!primed) {
        value = x;
        primed = true;
      } else {
        value += alpha * (x - value);
      }
    }
  };

  // -- VSIDS heap --------------------------------------------------------
  class VarHeap {
   public:
    void grow(int n) { index_.resize(static_cast<size_t>(n), -1); }
    bool contains(Var v) const { return index_[static_cast<size_t>(v)] >= 0; }
    bool empty() const { return heap_.empty(); }
    void insert(Var v, const std::vector<double>& act);
    void update(Var v, const std::vector<double>& act);
    Var pop(const std::vector<double>& act);

   private:
    void sift_up(size_t i, const std::vector<double>& act);
    void sift_down(size_t i, const std::vector<double>& act);
    std::vector<Var> heap_;
    std::vector<int32_t> index_;
  };

  // -- core CDCL ---------------------------------------------------------
  LBool value(Lit l) const noexcept {
    return LBool(static_cast<uint8_t>(assigns_[static_cast<size_t>(l.var())].raw())) ^ l.sign();
  }
  LBool value(Var v) const noexcept { return assigns_[static_cast<size_t>(v)]; }
  int level(Var v) const noexcept { return vardata_[static_cast<size_t>(v)].level; }
  CRef reason(Var v) const noexcept { return vardata_[static_cast<size_t>(v)].reason; }
  int decision_level() const noexcept { return static_cast<int>(trail_lim_.size()); }

  void attach_clause(CRef ref);
  void detach_clause(CRef ref);
  void remove_clause(CRef ref);

  /// The reason clause of \p v with the invariant "implied literal first"
  /// restored. Long-clause propagation maintains it eagerly; binary
  /// propagation skips the arena write on the hot path, so the swap happens
  /// lazily here, only when analysis actually reads the reason.
  ClauseRefView reason_view(Var v) noexcept;

  void unchecked_enqueue(Lit l, CRef from = kCRefUndef);
  CRef propagate();
  void cancel_until(int target_level);
  Lit pick_branch_lit();
  void new_decision_level() { trail_lim_.push_back(static_cast<int>(trail_.size())); }

  void analyze(CRef confl, LitVec& out_learnt, int& out_btlevel, uint32_t& out_lbd);
  bool lit_redundant(Lit l, uint32_t abstract_levels);
  void analyze_final(Lit p, LitVec& out_core);

  void var_bump_activity(Var v);
  void var_decay_activity() { var_inc_ /= kVarDecay; }
  void cla_bump_activity(ClauseRefView c);
  void cla_decay_activity() { cla_inc_ /= kClaDecay; }

  /// Records one learnt clause in its tier (by LBD) and attaches it.
  void admit_learnt(CRef ref, uint32_t lbd);
  /// LBD-improved-on-use promotion (local -> tier2 -> core).
  void maybe_promote(CRef ref, ClauseRefView c, uint32_t new_lbd);
  /// Demotes tier2 clauses untouched for tier2_unused_demote conflicts.
  void shrink_tier2();
  /// Sorts the local tier by activity and drops the weaker half.
  void reduce_local();
  void maybe_garbage_collect();
  LBool search(int64_t conflicts_before_restart);
  bool within_budget() const noexcept;
  /// The actual solve; the public solve() wraps it with one query-ledger
  /// record (util/ledger.hpp) when the ledger is enabled.
  LBool solve_impl(std::span<const Lit> assumptions);

  uint32_t compute_lbd(std::span<const Lit> lits);

  static double luby(double y, int i);

  // -- data ---------------------------------------------------------------
  static constexpr double kVarDecay = 0.95;
  static constexpr double kClaDecay = 0.999;

  SolverOptions opts_;

  std::vector<uint32_t> arena_;
  std::vector<CRef> clauses_;
  // Learnt tiers. An entry is current iff the clause's Header::tier matches
  // the list; promotions push into the new list and the stale entry is
  // dropped lazily at the old list's next scan (shrink/reduce/rescale/GC).
  std::vector<CRef> learnts_core_;
  std::vector<CRef> learnts_tier2_;
  std::vector<CRef> learnts_local_;

  WatchLists<Watcher> watches_;        // size > 2 clauses, by lit raw
  WatchLists<BinWatcher> watches_bin_;  // binary clauses, by lit raw
  std::vector<LBool> assigns_;
  std::vector<uint8_t> polarity_;  // saved phase: 1 == assign false first
  std::vector<uint8_t> decision_;
  std::vector<VarData> vardata_;
  std::vector<double> activity_;
  VarHeap order_heap_;

  LitVec trail_;
  std::vector<int> trail_lim_;
  size_t qhead_ = 0;

  // Scratch reused across calls: add_clause sorts and filters its literals
  // in add_buf_, search() analyzes each conflict into learnt_.
  LitVec add_buf_;
  LitVec learnt_;

  /// Assumptions of the current solve; retained afterwards as the previous
  /// vector for the next call's common-prefix computation (trail reuse).
  LitVec assumptions_;
  LitVec core_;
  std::vector<uint8_t> in_core_mark_;  // by var
  std::vector<LBool> model_;
  size_t wasted_ = 0;

  std::vector<uint8_t> seen_;
  LitVec analyze_toclear_;
  LitVec analyze_stack_;
  std::vector<int> lbd_seen_;
  int lbd_stamp_ = 0;

  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;

  bool ok_ = true;
  int64_t conflict_budget_ = -1;
  int64_t propagation_budget_ = -1;
  Deadline deadline_{};
  CancelToken cancel_{};
  mutable bool deadline_expired_ = false;
  mutable bool cancel_hit_ = false;
  mutable uint32_t deadline_check_countdown_ = 0;
  uint64_t conflicts_at_solve_start_ = 0;
  uint64_t propagations_at_solve_start_ = 0;

  // Learnt-DB maintenance schedule (conflict counts), plus the live-clause
  // count and current size cap of the local tier (the lists themselves may
  // hold stale or duplicate entries, so they cannot be sized directly).
  uint64_t next_tier2_shrink_ = 0;
  uint64_t next_local_reduce_ = 0;
  size_t locals_live_ = 0;
  size_t local_cap_ = 0;

  // EMA restart state (RestartPolicy::kEma).
  Ema ema_lbd_fast_;
  Ema ema_lbd_slow_;
  Ema ema_trail_;

  // Intra-query parallel solving. sat/parsolve.cpp drives the private state
  // through ParSolveAccess; solve_impl only checks par_allowed_ /
  // par_attempted_ at restart boundaries (docs/PARALLEL_SAT.md).
  friend struct ParSolveAccess;
  bool par_allowed_ = true;
  bool par_attempted_ = false;  ///< terminal: no further escalation this solve()
  int par_failed_rounds_ = 0;   ///< inconclusive races this solve (slice growth)
  int64_t par_retry_at_ = 0;    ///< conflicts_since_start gate for the next race
  int64_t par_trigger_override_ = 0;  ///< 0 = ParSolveOptions default, < 0 = off

  SolverStats stats_;
};

}  // namespace eco::sat
