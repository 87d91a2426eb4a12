/// \file window.hpp
/// \brief Structural pruning (paper §3.3): compute the logic window the ECO
/// is solved in and the divisor candidates inside it.
#pragma once

#include <cstdint>
#include <vector>

#include "eco/problem.hpp"

namespace eco::core {

struct Window {
  /// Implementation PO indices reachable from the targets (window POs).
  std::vector<uint32_t> affected_pos;
  /// Shared-PI indices in the TFI of the window POs (in impl or spec).
  std::vector<uint32_t> window_pis;
  /// Indices into EcoProblem::divisors that qualify (outside target TFO by
  /// construction; support contained in the window PIs).
  std::vector<size_t> divisor_indices;
  /// True when every PO outside the window is already equivalent between
  /// implementation and specification. When false the ECO is infeasible at
  /// the given targets and \ref mismatch_po names a failing output.
  bool outside_equal = true;
  uint32_t mismatch_po = 0;
};

/// Computes the window. \p conflict_budget bounds the SAT effort of the
/// outside-PO equivalence check (< 0 = unlimited; on timeout the pair is
/// conservatively treated as equal and final verification catches lies).
Window compute_window(const EcoProblem& problem, int64_t conflict_budget = -1);

}  // namespace eco::core
