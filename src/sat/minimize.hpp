/// \file minimize.hpp
/// \brief Procedure ``minimize_assumptions`` (paper Algorithm 1) and the
/// naive linear reference implementation used as its baseline.
///
/// Given a solver whose clause set F is UNSAT under a set of assumption
/// literals A, ``minimize_assumptions`` computes a *minimal* subset of A
/// that keeps F UNSAT, using a divide-and-conquer recursion whose SAT-call
/// complexity is O(max{log N, M}) for N assumptions of which M are kept —
/// compared to O(N) for the naive one-at-a-time loop. The routine is closely
/// related to LEXUNSAT: when A is ordered by increasing cost, the low-cost
/// half is preferred, which is exactly how the ECO engine obtains cost-aware
/// supports (paper §3.4.1) and cost-aware prime cubes (paper §3.5).
#pragma once

#include <functional>
#include <span>

#include "sat/solver.hpp"

namespace eco::sat {

/// Statistics of one minimization run.
struct MinimizeStats {
  int sat_calls = 0;  ///< queries issued, screened ones included
};

/// Caller knowledge that lets ``minimize_assumptions`` skip solver calls.
/// Both members may be empty.
struct QueryScreen {
  /// True when solving under \p assumps (the context, then the queried
  /// slice) is known to be satisfiable, e.g. because the caller holds a
  /// model of it; the query then counts as SAT without a solve. It must
  /// never answer true for an unsatisfiable query. The recursion branches
  /// only on "UNSAT or not", so a sound screen leaves the kept subset and
  /// the order of \p assumps exactly as without it.
  std::function<bool(std::span<const Lit> assumps)> known_sat;
  /// Runs after each query the solver answers SAT, while its model is
  /// readable.
  std::function<void()> on_sat;
};

/// Minimizes the assumption set \p assumps in place (paper Algorithm 1).
///
/// \pre solve(context + assumps) is UNSAT on \p solver.
/// \param context  extra assumption literals that are always assumed and not
///                 subject to minimization (may be empty). Restored on exit.
///
/// **Assumption-ordering invariant.** Every SAT call issued by the recursion
/// assumes `context` first, then a contiguous slice of `assumps`, and the
/// context only grows/shrinks at its tail. Consecutive queries therefore
/// share long common assumption prefixes, which the solver's trail reuse
/// (`SolverOptions::trail_reuse`) converts into retained propagation work.
/// Callers that interleave their own `solve()` calls on the same solver get
/// the same benefit by keeping *their* assumption order stable — put the
/// long-lived context literals first and the per-query literals last (see
/// docs/OBSERVABILITY.md, "Incremental fast path").
/// \returns number S of kept assumptions; after the call the first S entries
///          of \p assumps form the minimal subset (remaining entries are the
///          discarded ones, in unspecified order).
///
/// If a solver budget expires during a query, the affected assumptions are
/// conservatively kept, so the returned prefix is always sufficient for
/// unsatisfiability.
int minimize_assumptions(Solver& solver, LitVec& assumps, LitVec& context,
                         MinimizeStats* stats = nullptr);

/// The same, consulting \p screen before and after every query.
int minimize_assumptions(Solver& solver, LitVec& assumps, LitVec& context,
                         MinimizeStats* stats, const QueryScreen& screen);

/// Convenience overload with an empty context.
int minimize_assumptions(Solver& solver, LitVec& assumps, MinimizeStats* stats = nullptr);

/// Naive deletion-based minimization: tries to drop assumptions one at a
/// time starting from the *last* entry (so with cost-ascending order the
/// expensive ones are dropped first). Same contract as
/// ``minimize_assumptions``; used by the ablation benchmark.
int minimize_assumptions_naive(Solver& solver, LitVec& assumps, LitVec& context,
                               MinimizeStats* stats = nullptr);

}  // namespace eco::sat
