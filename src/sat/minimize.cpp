#include "sat/minimize.hpp"

#include <algorithm>
#include <cassert>

namespace eco::sat {

namespace {

/// One minimization run: the solver, the optional caller screen, and a
/// scratch buffer reused across all queries to avoid a heap allocation per
/// SAT call.
struct Minimizer {
  Solver& solver;
  MinimizeStats* stats;
  const QueryScreen* screen;
  LitVec scratch;

  /// Solves under the current context plus the assumptions in
  /// [\p lo, \p hi) of \p a. Returns the solver verdict, or kTrue without a
  /// solve when the screen knows the query is satisfiable.
  ///
  /// Assumption-ordering invariant: the vector handed to the solver is
  /// always `ctx` followed by the `[lo, hi)` suffix, and `ctx` itself only
  /// grows and shrinks at its tail during the recursion. Consecutive queries
  /// therefore share a long common assumption prefix, which is exactly what
  /// the solver's trail reuse (SolverOptions::trail_reuse) exploits — see
  /// docs/OBSERVABILITY.md.
  LBool query(const LitVec& ctx, const LitVec& a, size_t lo, size_t hi) {
    scratch.assign(ctx.begin(), ctx.end());
    scratch.insert(scratch.end(), a.begin() + static_cast<long>(lo),
                   a.begin() + static_cast<long>(hi));
    if (stats) ++stats->sat_calls;
    if (screen != nullptr && screen->known_sat && screen->known_sat(scratch)) return kTrue;
    const LBool verdict = solver.solve(scratch);
    if (verdict.is_true() && screen != nullptr && screen->on_sat) screen->on_sat();
    return verdict;
  }

  /// Recursive core of Algorithm 1 operating on a[lo, hi).
  /// Kept assumptions are moved to the front of the range; the count is
  /// returned. `ctx` carries the incrementally-assumed outer literals.
  int rec(LitVec& a, size_t lo, size_t hi, LitVec& ctx) {
    const size_t n = hi - lo;
    if (n == 0) return 0;
    if (n == 1) {
      // If there is only one assumption, check whether it is needed.
      if (query(ctx, a, lo, lo).is_false()) return 0;  // UNSAT without it: not needed
      return 1;  // needed (or budget expired: keep, stay safe)
    }

    // Divide assumptions into a lower and a higher part. The lower part
    // holds the cheaper entries when the caller ordered A by increasing cost.
    const size_t n_low = (n + 1) / 2;
    const size_t mid = lo + n_low;

    // Try the lower part without the higher part.
    if (query(ctx, a, lo, mid).is_false()) return rec(a, lo, mid, ctx);

    // Find a solution for A_high while assuming all of A_low.
    ctx.insert(ctx.end(), a.begin() + static_cast<long>(lo), a.begin() + static_cast<long>(mid));
    const int s_high = rec(a, mid, hi, ctx);
    ctx.resize(ctx.size() - n_low);

    // Reorder: place the kept entries of A_high before all entries of A_low.
    std::rotate(a.begin() + static_cast<long>(lo), a.begin() + static_cast<long>(mid),
                a.begin() + static_cast<long>(mid) + s_high);

    // Minimize A_low while assuming the kept part of A_high.
    ctx.insert(ctx.end(), a.begin() + static_cast<long>(lo),
               a.begin() + static_cast<long>(lo) + s_high);
    const int s_low = rec(a, lo + static_cast<size_t>(s_high),
                          lo + static_cast<size_t>(s_high) + n_low, ctx);
    ctx.resize(ctx.size() - static_cast<size_t>(s_high));

    return s_high + s_low;
  }
};

int minimize(Solver& solver, LitVec& assumps, LitVec& context, MinimizeStats* stats,
             const QueryScreen* screen) {
  Minimizer m{solver, stats, screen, {}};
  m.scratch.reserve(context.size() + assumps.size());
  return m.rec(assumps, 0, assumps.size(), context);
}

}  // namespace

int minimize_assumptions(Solver& solver, LitVec& assumps, LitVec& context,
                         MinimizeStats* stats) {
  return minimize(solver, assumps, context, stats, nullptr);
}

int minimize_assumptions(Solver& solver, LitVec& assumps, LitVec& context,
                         MinimizeStats* stats, const QueryScreen& screen) {
  return minimize(solver, assumps, context, stats, &screen);
}

int minimize_assumptions(Solver& solver, LitVec& assumps, MinimizeStats* stats) {
  LitVec ctx;
  return minimize_assumptions(solver, assumps, ctx, stats);
}

int minimize_assumptions_naive(Solver& solver, LitVec& assumps, LitVec& context,
                               MinimizeStats* stats) {
  // Deletion loop: walk from the most expensive (last) entry down, dropping
  // each assumption whose removal keeps the formula UNSAT.
  LitVec kept(assumps);
  LitVec trial;
  trial.reserve(context.size() + assumps.size());
  for (size_t i = kept.size(); i-- > 0;) {
    trial.assign(context.begin(), context.end());
    for (size_t j = 0; j < kept.size(); ++j)
      if (j != i) trial.push_back(kept[j]);
    if (stats) ++stats->sat_calls;
    if (solver.solve(trial).is_false()) kept.erase(kept.begin() + static_cast<long>(i));
  }
  // Write back: kept prefix, then the discarded entries.
  LitVec out(kept);
  for (const Lit l : assumps)
    if (std::find(kept.begin(), kept.end(), l) == kept.end()) out.push_back(l);
  assumps = std::move(out);
  return static_cast<int>(kept.size());
}

}  // namespace eco::sat
