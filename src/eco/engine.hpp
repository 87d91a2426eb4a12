/// \file engine.hpp
/// \brief The full ECO engine: orchestration of Figure 2 of the paper.
///
/// Pipeline: structural pruning (window) -> target-sufficiency check via
/// 2QBF CEGAR -> per-target loop {universal quantification of the remaining
/// targets, cost-aware support computation, cube-enumeration patch
/// function, substitution} -> verification. On resource exhaustion the
/// engine falls back to structural patches in terms of primary inputs
/// (single-target cofactor / multi-target QBF certificate), optionally
/// improved with CEGAR_min.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "cec/sweep.hpp"
#include "eco/cegarmin.hpp"
#include "eco/problem.hpp"
#include "eco/satprune.hpp"
#include "eco/simfilter.hpp"
#include "eco/support.hpp"
#include "net/network.hpp"
#include "qbf/qbf2.hpp"
#include "util/cancel.hpp"
#include "util/ledger.hpp"
#include "util/telemetry.hpp"

namespace eco::util {
class Executor;
}

namespace eco::core {

/// The three configurations compared in Table 1 of the paper.
enum class Algorithm {
  kBaseline,           ///< analyze_final only ("w/o minimize_assumptions")
  kMinimize,           ///< "w/ minimize_assumptions" (contest-winning config)
  kSatPruneCegarMin,   ///< "SAT_prune + CEGAR_min"
};

/// Why a run failed or stopped early (EcoOutcome::fail_reason). The error
/// taxonomy of docs/ROBUSTNESS.md: every exception or budget event inside
/// run_eco maps to exactly one of these; none escapes as a C++ exception.
enum class FailReason {
  kNone,               ///< clean kPatched / kInfeasible result
  kParse,              ///< an input file failed to parse (net::ParseError)
  kInconsistentInput,  ///< inputs parse but are not a valid problem
  kBudget,             ///< a time/conflict/iteration budget expired
  kMemory,             ///< memory budget exceeded or allocation failure
  kCancelled,          ///< external stop (signal, executor shutdown)
  kInternal,           ///< unexpected internal error — a bug; see fail_detail
};

/// Stable lower_snake_case name ("parse", "budget", ...) used in JSON.
const char* fail_reason_name(FailReason r) noexcept;

struct EngineOptions {
  Algorithm algorithm = Algorithm::kMinimize;
  /// Conflict budget per SAT query in the SAT-based path (< 0 unlimited).
  int64_t conflict_budget = 500000;
  /// Overall wall-clock budget in seconds (<= 0 unlimited). When exceeded
  /// the engine switches to the structural path.
  double time_budget = 0;
  /// Node cap for the universal-quantification expansion (paper §3.1);
  /// exceeding it triggers the structural fallback.
  uint32_t max_expansion_nodes = 4'000'000;
  /// Wall-clock budget for the final verification (0 = auto: at least 30s).
  double verify_time_budget = 0;
  /// Cap on enumerated patch cubes per target.
  uint64_t max_cubes = 100000;
  /// Force the structural path (used by tests and the ablation bench).
  bool force_structural = false;
  qbf::Qbf2Options qbf{};
  SatPruneOptions satprune{};
  CegarMinOptions cegarmin{};
  /// Counterexample-driven simulation bank (simfilter.hpp). Defaults come
  /// from the environment (`ECO_SIM_BANK=0` disables); `--sim-bank`
  /// overrides per run. Disabled -> no filter objects are created at all.
  SimFilterOptions simfilter = SimFilterOptions::defaults();
  /// Last-gasp support improvement (paper §3.4.1), on for non-baseline.
  bool last_gasp = true;
  /// Optional thread pool (util/executor.hpp). When set with more than one
  /// job, the final verification runs concurrently with patch-module /
  /// stats assembly. The engine never creates threads on its own; per-run
  /// SAT stat attribution stays exact either way (the worker thread is
  /// captured into this run's solver-totals accumulator).
  util::Executor* executor = nullptr;
  /// Cooperative cancellation observed by every phase: solver search loops,
  /// QBF iterations, the per-target loop, and verification all poll this
  /// token. Combined with time_budget (whichever cancels first wins);
  /// request_stop() — from a CLI signal handler or Executor::shutdown_token
  /// — aborts the run with FailReason::kCancelled. An invalid token means
  /// only time_budget governs.
  CancelToken cancel{};
  /// Strategy ladder (docs/ROBUSTNESS.md): when the primary attempt ends
  /// kUnknown (budget expiry, quantify overflow, internal error) with
  /// budget left, the driver escalates through fallback rungs — structural
  /// resub, bigger SAT budget, wider window, relaxed cost — each under its
  /// own budget slice with exponential backoff. Attempts are recorded in
  /// EngineStats::ladder. Off = single attempt, bit-identical to the
  /// pre-ladder engine.
  bool ladder = true;
  /// Warm-start stimuli (the patch service, src/service/): shared-PI
  /// pattern prefixes harvested from earlier runs on the same problem
  /// (EcoOutcome::harvested_patterns). They join the run's own sim-bank
  /// harvest as directed seeds for the final verification — stimuli to
  /// screen, never assumed counterexamples — so a verdict can only be
  /// reached faster, not changed. Not owned; may be null.
  const std::vector<std::vector<bool>>* warm_patterns = nullptr;
};

/// Per-target report.
struct TargetPatchInfo {
  std::string target_name;
  std::vector<std::string> support;  ///< names of the patch inputs
  int64_t support_cost = 0;          ///< sum of their weights
  bool structural = false;           ///< produced by the structural path
  std::string sop;                   ///< printable SOP (SAT path only)
  double support_seconds = 0;        ///< support computation time (SAT path)
  int support_sat_calls = 0;         ///< SAT queries for this target's support
};

/// One strategy-ladder attempt (EngineStats::ladder): which rung ran, how
/// it ended, and how long it took. The first entry is always "primary".
struct LadderAttempt {
  std::string rung;         ///< "primary", "resub", "sat_patchfunc", ...
  std::string result;       ///< outcome status name ("patched", "unknown", ...)
  std::string fail_reason;  ///< FailReason name ("none" when it succeeded)
  double seconds = 0;
};

/// Structured engine statistics, filled on every run (independent of the
/// telemetry runtime flag): phase wall-clock breakdown, loop/iteration
/// counts, and the SAT totals aggregated over every solver the run created.
struct EngineStats {
  // Phase breakdown; the phases partition outcome.seconds (up to glue code).
  double window_seconds = 0;      ///< structural pruning (§3.3)
  double qbf_seconds = 0;         ///< 2QBF target-sufficiency check (§3.2)
  double sat_path_seconds = 0;    ///< per-target SAT loop (§3.1/3.4/3.5)
  double structural_seconds = 0;  ///< structural fallback (§3.6)
  double assemble_seconds = 0;    ///< patch module build + substitution
  double verify_seconds = 0;      ///< final equivalence check

  int qbf_iterations = 0;        ///< CEGAR refinements in the feasibility check
  int support_sat_calls = 0;     ///< summed over targets (SAT path)
  int satprune_sat_calls = 0;    ///< SAT_prune feasibility queries
  int satprune_iterations = 0;   ///< implicit-hitting-set refinements
  int targets_attempted = 0;     ///< targets entered in the SAT loop

  // SAT totals of this run, collected by a per-run accumulator
  // (telemetry::SolverTotalsAccumulator): every solver destroyed on the
  // run's threads is credited here, so the values are identical whether the
  // run executes alone or concurrently with other runs in the process.
#define ECO_X(name) uint64_t sat_##name = 0;
  ECO_SOLVER_TOTALS(ECO_X)
#undef ECO_X

  // Simulation-bank filtering (eco/simfilter.hpp), summed over the run's
  // filters; all zero when the bank is disabled.
#define ECO_X(name) uint64_t sim_##name = 0;
  ECO_SIM_STATS(ECO_X)
#undef ECO_X

  // SAT sweeping (cec/sweep.hpp) in the final verification; all zero unless
  // its monolithic query ran past cec::kMonoConflictCap and escalated.
#define ECO_X(name) uint64_t sweep_##name = 0;
  ECO_SWEEP_STATS(ECO_X)
#undef ECO_X

  /// Strategy-ladder log: one entry per attempt ("primary" first, then any
  /// escalation rungs). A single entry means no escalation happened.
  std::vector<LadderAttempt> ladder;
};

/// Writes the `phases`, `sat`, `sweep` and `sim` blocks of \p s into the
/// open object of \p w (the outcome JSON and bench_table1's records).
void write_json(JsonWriter& w, const EngineStats& s);

/// Result of a full ECO run.
struct EcoOutcome {
  enum class Status {
    kPatched,     ///< patch computed and verified
    kInfeasible,  ///< the target set cannot rectify the implementation
    kUnknown,     ///< budgets exhausted before an answer
    kError,       ///< the run failed — see fail_reason / fail_detail
  };
  /// Outcome of the final equivalence check.
  enum class Verification {
    kVerified,      ///< patched implementation proven equivalent to the spec
    kInconclusive,  ///< the check ran out of budget (patch shipped as-is,
                    ///< like the paper's timeout path in §3.2)
    kRefuted,       ///< the check found a mismatch — the patch is wrong
  };
  Status status = Status::kUnknown;
  /// Why the run failed or stopped early; kNone on clean results. Filled
  /// for kError always, and for kUnknown when a budget / stop / refuted
  /// verification ended the run.
  FailReason fail_reason = FailReason::kNone;
  /// One-line diagnostic for kError (the mapped exception message) or for
  /// notable early exits; empty otherwise.
  std::string fail_detail;
  bool verified = false;  ///< verification == kVerified
  Verification verification = Verification::kInconclusive;
  std::string method;  ///< "sat", "structural", "structural+cegar_min"
  /// Total resource cost: each distinct patch input weighted once.
  int64_t total_cost = 0;
  /// AND-node count of the combined patch module.
  uint32_t patch_gates = 0;
  double seconds = 0;
  /// Phase/counter/SAT breakdown of this run (always filled).
  EngineStats stats;
  std::vector<TargetPatchInfo> targets;
  /// The patch as a standalone module: PIs = patch inputs (named after the
  /// implementation signals), PO t = the function for target t.
  aig::Aig patch_module;
  /// The implementation with all patches substituted (target PIs unused).
  aig::Aig patched_impl;
  /// Flight-recorder dump: the last ledger records before a kError outcome
  /// or an injected fault (util/ledger.hpp). Empty on clean runs or with
  /// the ledger disabled; serialized into the outcome JSON.
  std::vector<ledger::Record> flight_recorder;
  /// Shared-PI counterexample prefixes this run harvested from its
  /// simulation banks plus any warm seeds it was given (bounded; the union
  /// fed to the final verification). A serving layer stores these per
  /// session and feeds them back via EngineOptions::warm_patterns. Not
  /// serialized into the outcome JSON.
  std::vector<std::vector<bool>> harvested_patterns;
};

/// Runs the complete flow on \p problem.
///
/// Crash-proof contract: never throws. Every exception raised inside —
/// parser errors, allocation failures, internal logic errors — is mapped to
/// an EcoOutcome with Status::kError and the matching FailReason; budget
/// expiry and external stops surface as kUnknown with fail_reason
/// kBudget/kCancelled. With EngineOptions::ladder the driver retries
/// fallback strategies before giving up (see docs/ROBUSTNESS.md).
EcoOutcome run_eco(const EcoProblem& problem, const EngineOptions& options = {});

/// Convenience: parse-netlists front end (contest-style files already merged
/// into Networks + weights).
EcoOutcome run_eco(const net::Network& impl, const net::Network& spec,
                   const net::WeightMap& weights, const EngineOptions& options = {});

/// Serializes an outcome — status, method, cost, per-target supports, and
/// the EngineStats block — as a JSON object (schema `ecopatch-outcome-v1`,
/// docs/OBSERVABILITY.md). Circuit payloads are summarized, not embedded.
std::string outcome_to_json(const EcoOutcome& outcome);

}  // namespace eco::core
