/// \file parsolve.hpp
/// \brief Intra-query parallel SAT: a deterministic portfolio race for
/// solves that cross a "stuck" threshold.
///
/// The bench sweep parallelizes *across* queries, but one hard QBF-expansion
/// or SAT_prune query still burns a single core while the rest of the
/// Executor idles. This layer hooks `Solver::solve_impl` at restart
/// boundaries: once a solve has spent more than a trigger's worth of
/// conflicts, K diversified clones of the instance (seed, restart policy,
/// phase init, local-cap base) race on the registered Executor; the
/// winner's model / UNSAT core is installed on the parent solver and the
/// siblings are cancelled through per-clone `CancelToken::child` tokens.
///
/// Because the hook sits inside the `Solver::solve` chokepoint, every
/// consumer (support, resub, irredundancy, QBF-CEGAR, CEC) benefits without
/// call-site changes.
///
/// Clones are *warm*: they inherit the parent's saved phases, VSIDS
/// activities, and core- + tier2-tier learnts (learnts are derived by
/// resolution over the clause database alone, never from assumptions, so
/// they transfer soundly as originals). A cold clone would have to
/// re-derive the parent's lemmas from scratch and reliably loses the race
/// it is meant to win.
///
/// **Determinism contract.** The default mode (`--par-sat=on`,
/// `ParMode::kDeterministic`) is a pure function of the instance and the
/// options: reproducible run-to-run and for any `--jobs >= 2`. The
/// escalation decision depends only on solver state (conflict counts,
/// never pool occupancy), worker budgets are fixed conflict slices, clause
/// sharing is disabled, and the winner is picked by a fixed tie-break —
/// the lowest clone rank with a definitive result, considered only once
/// every lower rank has completed. Escalated verdicts are always *valid*
/// but not necessarily *identical* to what a `--jobs 1` / `--par-sat off`
/// run would produce: an adopted model (or budget verdict, below) can
/// steer downstream heuristics onto a different — equally correct and
/// verified — patch. Unbudgeted solves are *never worse* than serial in
/// outcome: if no worker is definitive the parent resumes its own search,
/// re-arming the trigger with a geometrically growing slice (4x per failed
/// round, capped) so a genuinely stuck solve ends up racing most of its
/// wall time while a solve that finishes anyway wastes at most a constant
/// factor in speculation. Budgeted solves let the workers spend the
/// remaining conflict budget by proxy (combined worker slices equal the
/// remainder) — the budget is burned K-ways in parallel, so a
/// budget-saturated query reaches its verdict in roughly 1/K the wall
/// time — and an all-undef race is adopted as the budget verdict.
///
/// Observability: `parsat.*` telemetry counters, `par_*` fields in the
/// solver rollup, and per-worker `portfolio_attempt` ledger records
/// (docs/OBSERVABILITY.md). Tuning and the full contract:
/// docs/PARALLEL_SAT.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "sat/types.hpp"

namespace eco::util {
class Executor;
}

namespace eco::sat {

class Solver;

/// The --par-sat flag: off | on (the deterministic portfolio).
enum class ParMode : uint8_t {
  kOff = 0,
  kDeterministic,  ///< fixed tie-break winner, reproducible for any --jobs
};
const char* par_mode_name(ParMode m) noexcept;

/// Tuning knobs for the parallel layer. Process-wide, like SolverOptions:
/// `defaults()` is env-seeded on first use (`ECO_PAR_SAT=off|on`,
/// `ECO_PAR_SAT_CLONES`, `ECO_PAR_SAT_TRIGGER`) and replaceable via
/// `set_defaults` (bench/CLI `--par-sat`).
struct ParSolveOptions {
  ParMode mode = ParMode::kOff;

  /// Portfolio width (clamped to [2, 32]).
  int clones = 4;

  /// Conflicts inside one solve before it escalates. <= 0 escalates at the
  /// first restart boundary (test use). A budgeted solve clamps this to
  /// half its conflict budget so the workers still have budget to spend.
  /// The default is deliberately high: a solve this deep is in the hard
  /// tail (typical ECO queries finish orders of magnitude earlier), and
  /// escalating solves that would finish anyway only burns speculative CPU.
  int64_t trigger_conflicts = 100000;

  /// Base seed for clone diversification (decorrelated per rank).
  uint64_t seed = 0x9e3779b97f4a7c15ULL;

  static const ParSolveOptions& defaults() noexcept;
  static void set_defaults(const ParSolveOptions& opts) noexcept;
};

/// Parses a --par-sat flag value ("off" | "on"). Returns false (and leaves
/// \p out untouched) on anything else.
bool parse_par_mode(std::string_view text, ParMode& out) noexcept;

/// Registers the executor escalations run on (nullptr unregisters). The
/// executor must outlive every solve issued while it is registered; front
/// ends register their pool right after constructing it. Without a
/// registered executor (or with jobs() <= 1) the layer is inert.
void set_par_executor(util::Executor* executor) noexcept;
util::Executor* par_executor() noexcept;

/// Called by Solver::solve_impl at restart boundaries. Returns nullopt to
/// continue the serial search (not triggered, disabled, declined, or the
/// never-worse resume after an inconclusive race); otherwise the escalated
/// verdict, with model_/core_ already installed on \p solver.
std::optional<LBool> maybe_escalate_par(Solver& solver);

}  // namespace eco::sat
