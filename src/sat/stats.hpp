/// \file stats.hpp
/// \brief The solver's counters as one X-macro list, `X(name)` per counter,
/// in `SolverStats`' member order (which fixes `sat::Solver`'s layout).
/// Every struct, roll-up and JSON block of solver counters expands it
/// (docs/OBSERVABILITY.md "Counter lists"). The `par_*` counters
/// (sat/parsolve.hpp) stay on the escalating solver, not on its clones.
#pragma once

#include <cstdint>

#define ECO_SOLVER_STATS(X)                                                        \
  X(decisions)                                                                     \
  X(propagations)                                                                  \
  X(conflicts)                                                                     \
  X(restarts)                                                                      \
  X(learnt_literals)      /* literals in learnt clauses */                         \
  X(db_reductions)        /* local-tier reductions */                              \
  X(solves)                                                                        \
  X(prefix_reused_levels) /* assumption levels kept across solves */               \
  X(propagations_saved)   /* trail literals retained, not re-propagated */         \
  X(restarts_blocked)     /* EMA restarts postponed by trail blocking */           \
  X(learnts_core)         /* tier admissions, incl. promotions and demotions */    \
  X(learnts_tier2)                                                                 \
  X(learnts_local)                                                                 \
  X(par_escalations)      /* solves that crossed the parallel-SAT trigger */       \
  X(par_portfolio)        /* escalations run as a portfolio race */                \
  X(par_wins)             /* escalations that returned definitive */

namespace eco::sat {

/// Aggregate solver statistics, readable at any time.
struct SolverStats {
#define ECO_X(name) uint64_t name = 0;
  ECO_SOLVER_STATS(ECO_X)
#undef ECO_X
};

}  // namespace eco::sat
