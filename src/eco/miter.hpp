/// \file miter.hpp
/// \brief Construction and manipulation of the ECO miter (paper Fig. 1,
/// §2.5.1, §3.1).
///
/// The miter M(n, x) compares the implementation (whose targets are the free
/// variables n) against the specification over shared inputs x; it outputs 1
/// iff some primary-output pair differs. Divisor signals of the
/// implementation are carried through every transformation so the support
/// and patch computations can refer to them inside the miter.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "eco/problem.hpp"

namespace eco::core {

/// An ECO miter with tracked divisors.
///
/// PIs: the shared inputs x (indices 0..num_x-1) followed by one PI per
/// *unsubstituted* target (indices num_x + t). Substituted targets keep
/// their PI slot (unused) so target indexing stays stable.
struct EcoMiter {
  aig::Aig aig;
  uint32_t num_x = 0;
  uint32_t num_targets = 0;
  aig::Lit out = aig::kLitFalse;        ///< mismatch literal
  std::vector<aig::Lit> divisor_lits;   ///< miter literal of each problem divisor

  /// PI index of target \p t inside the miter.
  uint32_t target_pi(uint32_t t) const noexcept { return num_x + t; }
  aig::Lit target_lit(uint32_t t) const { return aig.pi_lit(target_pi(t)); }
};

/// Builds M(n, x) from an implementation AIG (problem PI conventions) and
/// the spec, restricted to the PO indices in \p po_subset (empty = all POs).
/// \p divisor_lits are the divisors' literals in \p impl, in divisor order.
EcoMiter build_eco_miter(const aig::Aig& impl, const aig::Aig& spec,
                         std::span<const aig::Lit> divisor_lits,
                         const std::vector<uint32_t>& po_subset = {});

/// The same over the literals of \p divisors.
EcoMiter build_eco_miter(const aig::Aig& impl, const aig::Aig& spec,
                         const std::vector<Divisor>& divisors,
                         const std::vector<uint32_t>& po_subset = {});

/// Universally quantifies the targets in \p quantify out of \p m:
/// out := AND over all assignments of those target PIs of M (paper §3.1).
/// Divisors (never in a target TFO) are preserved. With nothing to quantify
/// \p m is returned as it is. Throws std::runtime_error if the expansion
/// exceeds \p max_nodes AND nodes.
EcoMiter quantify_targets(EcoMiter m, const std::vector<uint32_t>& quantify,
                          uint32_t max_nodes);

/// Cofactors target \p t of \p m to a constant \p value (in place rebuild).
EcoMiter cofactor_target(const EcoMiter& m, uint32_t t, bool value);

/// Substitutes target \p t of \p m by \p func_root, a literal of m.aig whose
/// cone must not contain any target PI.
EcoMiter substitute_target_in_miter(const EcoMiter& m, uint32_t t, aig::Lit func_root);

}  // namespace eco::core
