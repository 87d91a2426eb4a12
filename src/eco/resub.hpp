/// \file resub.hpp
/// \brief Functional (SAT-based) resubstitution of a patch onto internal
/// divisors — the first alternative of paper §3.6.3.
///
/// Given a function p realized inside the implementation AIG (e.g. a
/// structural patch transferred onto the primary inputs), decide whether p
/// can be re-expressed over a subset of divisor signals and synthesize that
/// expression. The dependency question is the classic two-copy instance —
/// ∃ x1, x2 with d(x1) = d(x2) but p(x1) ≠ p(x2) — posed on the
/// *implementation only*, which is why the paper notes these SAT queries are
/// simpler than the ones over the whole ECO miter. Support selection and
/// cube expansion reuse ``minimize_assumptions`` exactly as in §3.4/§3.5.
#pragma once

#include <span>

#include "eco/problem.hpp"
#include "sop/cover.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace eco::core {

class ResubFilter;

struct ResubOptions {
  int64_t conflict_budget = -1;
  /// Cancellation token (deadline + external stop) enforced inside every
  /// SAT query. An invalid token means unlimited.
  eco::CancelToken cancel{};
  uint64_t max_cubes = 50000;
  /// Optional simulation filter over the same implementation AIG: refutes
  /// the dependency check without SAT when its bank already witnesses the
  /// dependency's failure, and harvests dependency/on-set models.
  ResubFilter* sim = nullptr;
};

struct ResubResult {
  bool ok = false;                ///< a dependency-respecting expression was found
  std::vector<size_t> support;    ///< divisor indices actually used
  sop::Cover cover;               ///< p as an SOP over `support`
  int64_t cost = 0;
};

/// Re-expresses \p func (a literal of \p impl) over the divisor candidates.
/// Unlike the support computation on the ECO miter, there are no don't
/// cares: the expression must equal \p func exactly.
ResubResult functional_resub(const aig::Aig& impl, aig::Lit func,
                             const std::vector<Divisor>& divisors,
                             std::span<const size_t> candidates,
                             const ResubOptions& options = {});

}  // namespace eco::core
