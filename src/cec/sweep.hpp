/// \file sweep.hpp
/// \brief SAT sweeping (fraiging): equivalence checking by
/// simulation-signature classes refined with small incremental SAT proofs,
/// and the per-check rule that picks it over the monolithic query.
///
/// The monolithic CEC path (cec/cec.hpp) poses one SAT query for the whole
/// miter; past contest size that single query is the scaling wall. The
/// sweeping engine instead works from the inside out, in the style of
/// *Datapath CEC With Hybrid Sweeping Engines and Parallelization*
/// (PAPERS.md):
///
///  1. **Signature classes.** A `SimBank` over the miter packs random
///     patterns (plus any caller seeds and harvested counterexamples) into
///     per-node 64-bit word rows; nodes whose rows match *up to complement*
///     form a candidate equivalence class. Classes are keyed on the
///     complement-canonical row (row XOR'd to make pattern 0 read 0), so a
///     node and its negation land in one class with a recorded phase.
///  2. **Class proving on shared encodings.** Classes are sorted
///     topologically and grouped into fixed-size *chunks*. Each chunk owns
///     one solver and one shared Tseitin encoding of the *reduced* AIG:
///     members are proved front-to-back against their class representative
///     with a small conflict-budgeted incremental query per pair, and every
///     proven equality is asserted back into the chunk's solver as a fact,
///     so later proofs in the chunk ride on earlier ones instead of
///     re-deriving them (the classic fraig cascade). UNSAT merges the member
///     into the representative; SAT harvests the model back into the bank,
///     splitting every class the new pattern distinguishes.
///  3. **Speculative reduction across chunks.** A chunk past the first
///     *speculates* the unproven equalities of every lower class before
///     proving its own (as in SAT sweeping with speculated equivalences).
///     Every such equality — speculated or proven-and-fed-forward — enters
///     the chunk's solver guarded by a selector assumed at each query, so an
///     UNSAT proof's assumption core names exactly the equalities it leaned
///     on. The serial apply step walks pairs in ascending order and accepts
///     a proof iff all of its core dependencies were themselves accepted —
///     by induction the facts under an accepted proof are genuine, so the
///     proof is sound; proofs resting on a refuted or budget-exhausted
///     speculation are downgraded to undef and retried next round against
///     the (now further reduced) miter. Refutations are accepted
///     unconditionally — a model is a real input vector and simulation is
///     ground truth — and enter a refuted-pair memo, so signature classes
///     are re-anchored around known-inequivalent pairs instead of re-proving
///     them, even when the bank has no room left for the counterexample.
///  4. **Merge as you go.** Between rounds the miter is rebuilt through the
///     union-find of proven merges, so downstream cones — and every later
///     SAT query, including the final root query — shrink. Rounds repeat
///     until no class changes or the round cap is hit.
///
/// Chunks are proved concurrently on a caller-provided Executor: each chunk
/// task owns its solver (on a `CancelToken::child` slice of the caller's
/// token, the parsolve discipline) and results are applied serially in class
/// order afterwards.
///
/// **Determinism contract.** Without a deadline or cancellation, a sweep is
/// a pure function of the AIG, the options, and the process-wide
/// SolverOptions: chunk boundaries depend only on the class list (fixed
/// chunk size, never the executor width), chunk tasks are independent (no
/// shared solver state, fixed conflict budgets), task results are merged in
/// class index order, and counterexamples enter the bank in (class, member)
/// order — so the verdict, the proven-pair list, and the stats are identical
/// run-to-run and for any executor width, including serial. Deadlines and
/// cancellation trade that for responsiveness, exactly like every other
/// budgeted path.
///
/// Phase seeding (`SolverOptions::phase_seed`, default on, `ECO_SAT_PHASE_SEED=0`
/// to disable): sweep queries initialize each Tseitin variable's saved phase
/// to the node's majority simulated value (per-node popcount over the bank's
/// packed patterns), so the search starts in the region simulation says is
/// typical (*Circuit-Aware SAT Solving*, PAPERS.md).
///
/// `check_miter` (below) is the one place that chooses between the engines:
/// the monolithic query first, under a conflict cap, and the sweep only for
/// a check that query leaves undecided.
///
/// Observability: `sweep.*` telemetry counters, ledger purpose `sweep` for
/// the class-proving solves, and a `sweep` block in the engine outcome JSON
/// (docs/OBSERVABILITY.md). Algorithm details and tuning: docs/SWEEPING.md.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "cec/cec.hpp"
#include "util/cancel.hpp"
#include "util/jsonw.hpp"
#include "util/timer.hpp"

namespace eco::util {
class Executor;
}

namespace eco::cec {

/// Sweeping engine knobs.
struct SweepOptions {
  /// Random seed words (64 patterns each) for the signature bank.
  uint32_t sim_words = 16;
  /// Extra bank capacity reserved for harvested counterexamples (words).
  /// Generous on purpose: every banked counterexample purifies the signature
  /// classes, and refuting a false pair by SAT costs far more than the
  /// 8 bytes/node a pattern word takes.
  uint32_t cex_words = 40;
  /// Conflict budget per class-member proof (<= 0: a tiny default floor).
  int64_t proof_conflict_budget = 20000;
  /// Maximum refine/prove/merge rounds before the final root query. Rounds
  /// stop early once a round makes no progress, so the cap only bites on
  /// slowly-converging class structures (deep speculation chains).
  uint32_t max_rounds = 16;
  /// Classes per prove chunk (one shared solver + encoding each; the
  /// parallel grain). Fixed by option, never by executor width, so results
  /// are width-invariant. <= 0: the default.
  int64_t chunk_classes = 128;
  /// Wall-clock slice for one chunk task when the caller's CancelToken is
  /// stoppable (CancelToken::child discipline).
  double class_slice_seconds = 5.0;
  /// Random seed for the signature bank fill.
  uint64_t seed = 0x51bba9c5eedULL;
};

/// The sweep counters as an X-macro list (docs/OBSERVABILITY.md).
#define ECO_SWEEP_STATS(X)                                                  \
  X(classes)      /* multi-member candidate classes examined */             \
  X(proofs)       /* pairs proven equivalent by SAT */                      \
  X(refutes)      /* pairs refuted (SAT model found) */                     \
  X(merges)       /* nodes merged (SAT-proven + structural) */              \
  X(cex_splits)   /* counterexamples harvested into the bank */             \
  X(undefs)       /* pair proofs abandoned on budget/deadline */            \
  X(rounds)       /* refine/prove/merge rounds run */                       \
  X(phase_seeded) /* Tseitin variables phase-seeded from the bank */        \
  X(nodes_before) /* AND nodes in the input AIG */                          \
  X(nodes_after)  /* AND nodes in the final reduced AIG */

/// Counters of one sweep (also exported as `sweep.*` telemetry).
struct SweepStats {
#define ECO_X(name) uint64_t name = 0;
  ECO_SWEEP_STATS(ECO_X)
#undef ECO_X

  void accumulate(const SweepStats& other) noexcept;
};

/// Writes `"name": value` per list entry into the open object of \p w.
inline void write_json(JsonWriter& w, const SweepStats& s) {
#define ECO_X(name) w.kv(#name, s.name);
  ECO_SWEEP_STATS(ECO_X)
#undef ECO_X
}

/// A proven equivalence `a == b` between two literals of the *input* AIG
/// (complement encoded in the literals; `lit_node(a) < lit_node(b)`).
struct EquivPair {
  aig::Lit a = aig::kLitInvalid;
  aig::Lit b = aig::kLitInvalid;
};

/// Outcome of a sweep: the CEC verdict, the proven equivalent pairs over the
/// input AIG, and the stats.
struct SweepResult {
  CecResult cec;
  SweepStats stats;
  std::vector<EquivPair> proven;
};

/// Decides whether \p root is constant 0 on \p g by SAT sweeping — the
/// drop-in sweeping counterpart of `check_const0`, same verdict semantics
/// (counterexamples are genuine PI witnesses, kUnknown only on exhausted
/// budget/deadline/cancellation). \p conflict_budget bounds the *final*
/// root query (per-pair proofs use SweepOptions::proof_conflict_budget);
/// \p seed_patterns are screened and folded into the signature bank.
SweepResult sweep_check(const aig::Aig& g, aig::Lit root, int64_t conflict_budget = -1,
                        const eco::Deadline& deadline = {},
                        std::span<const std::vector<bool>> seed_patterns = {},
                        const eco::CancelToken& cancel = {},
                        util::Executor* executor = nullptr,
                        const SweepOptions& options = {});

/// Conflict cap of check_miter's monolithic query: about twice the 15,844
/// conflicts of the largest Table-1 final check below 100,000 (the sizing
/// data are in docs/SWEEPING.md, "Sizing the cap").
inline constexpr int64_t kMonoConflictCap = 32000;

/// Decides whether \p root is constant 0 on \p g, choosing the engine per
/// check: `check_const0` under at most \p mono_conflict_cap conflicts, and
/// only when that query stays undecided, `sweep_check` on the same AIG,
/// seeds, deadline, cancel token and \p executor. A check the monolithic
/// query decides returns its result as is, with zero sweep stats.
///
/// A caller \p conflict_budget (>= 0) at or under the cap is the caller's
/// limit: the monolithic query runs under it and an undecided answer is
/// returned without a sweep. A larger budget bounds the sweep's final root
/// query, as in sweep_check. An expired deadline or a cancelled token also
/// ends the check undecided. \p mono_conflict_cap is a test hook; callers
/// keep the default.
SweepResult check_miter(const aig::Aig& g, aig::Lit root, int64_t conflict_budget = -1,
                        const eco::Deadline& deadline = {},
                        std::span<const std::vector<bool>> seed_patterns = {},
                        const eco::CancelToken& cancel = {},
                        util::Executor* executor = nullptr,
                        int64_t mono_conflict_cap = kMonoConflictCap);

}  // namespace eco::cec
