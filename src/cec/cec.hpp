/// \file cec.hpp
/// \brief Combinational equivalence checking (paper §3.2, ref. [12]).
///
/// Used twice by the ECO engine: to verify that the target set is sufficient
/// (on the universally-quantified miter) and to verify the final patched
/// implementation against the specification before a result is reported.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace eco::util {
class Executor;
}

namespace eco::cec {

enum class Status {
  kEquivalent,
  kNotEquivalent,
  kUnknown,  ///< resource budget exhausted
};

struct CecResult {
  Status status = Status::kUnknown;
  /// For kNotEquivalent: a distinguishing input pattern (one value per PI).
  std::vector<bool> counterexample;
};

/// Builds the standard single-output miter: OR over pairwise XORs of the POs
/// of \p a and \p b (which must have matching interfaces). PIs are shared.
aig::Aig build_miter(const aig::Aig& a, const aig::Aig& b);

/// Checks functional equivalence of \p a and \p b.
///
/// Random simulation screens for cheap counterexamples first; the residue is
/// decided by `check_miter` (cec/sweep.hpp): the monolithic SAT query under a
/// conflict cap, then SAT sweeping if it stays undecided.
/// \p conflict_budget < 0 means unlimited.
///
/// Each simulation round draws from its own seed derived from the round
/// index, so the screening is deterministic regardless of how rounds are
/// scheduled. When \p executor is non-null with more than one job, the
/// rounds sweep across its threads; the reported counterexample is always
/// the one from the lowest-numbered failing round, identical to the serial
/// result.
///
/// \p seed_patterns are extra directed stimuli (e.g. the engine's SAT
/// counterexample bank) simulated before the random rounds; any pattern
/// that excites the miter is returned as the counterexample. A pattern
/// shorter than the PI count is completed with 0.
///
/// \p cancel is a cooperative cancellation token threaded into the SAT
/// check; cancellation yields kUnknown. An invalid token is ignored.
CecResult check_equivalence(const aig::Aig& a, const aig::Aig& b,
                            int64_t conflict_budget = -1, uint64_t sim_rounds = 8,
                            const eco::Deadline& deadline = {},
                            eco::util::Executor* executor = nullptr,
                            std::span<const std::vector<bool>> seed_patterns = {},
                            const eco::CancelToken& cancel = {});

/// Decides whether the single-output function rooted in \p g is constant
/// false. Returns kEquivalent when it is, kNotEquivalent (with a satisfying
/// pattern) when it is not. \p seed_patterns as in check_equivalence: they
/// are simulated first and can decide kNotEquivalent without the solver;
/// when none fires, the SAT check proceeds exactly as without seeds.
CecResult check_const0(const aig::Aig& g, aig::Lit root, int64_t conflict_budget = -1,
                       const eco::Deadline& deadline = {},
                       std::span<const std::vector<bool>> seed_patterns = {},
                       const eco::CancelToken& cancel = {});

}  // namespace eco::cec
