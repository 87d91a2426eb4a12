/// \file ops.hpp
/// \brief Whole-graph AIG operations: cone transfer, composition, cofactors.
///
/// These are the building blocks for miter construction (paper Fig. 1),
/// target-variable cofactoring (paper §3.1, §3.6) and patch substitution.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "aig/aig.hpp"

namespace eco::aig {

/// Copies the cones of \p roots from \p src into \p dst.
///
/// Once \p map is sized, a call costs the part of the cones not yet in it
/// plus one scan of the index range that part spans, which is never more
/// than one pass over \p src. Many calls can therefore share one map (one
/// PO or patch at a time). New dst nodes are created in ascending src-index
/// order.
///
/// \param map  dst literal for each src node; entries may be preset (the
///             constant node 0 must map to kLitFalse, PIs to their images,
///             and a preset AND node cuts the cone there). Unset entries are
///             kLitInvalid and get filled for AND nodes. The map is sized to
///             \p src on entry.
/// \throws std::invalid_argument when a cone reaches a PI with no preset
///         entry; \p map and \p dst are then left as they were after that
///         sizing.
/// \returns the dst literals corresponding to \p roots.
std::vector<Lit> transfer(const Aig& src, Aig& dst, std::span<const Lit> roots,
                          std::vector<Lit>& map);

/// Appends all of \p src into \p dst, mapping src PI \c i to \p pi_map[i].
/// \returns the dst literals of src's POs.
std::vector<Lit> append(const Aig& src, Aig& dst, std::span<const Lit> pi_map);

/// Builds a new AIG computing the same POs with the listed PIs fixed to
/// constants. The PI/PO interface is preserved (fixed PIs remain as unused
/// inputs).
Aig cofactor_pis(const Aig& src, std::span<const std::pair<uint32_t, bool>> fixed);

/// Builds a new AIG where PI \p pi_index is replaced by the function rooted
/// at \p func_root (a literal of \p src itself, whose cone must not contain
/// that PI). Interface is preserved.
Aig compose_pi(const Aig& src, uint32_t pi_index, Lit func_root);

/// Builds a single-output AIG for the function of \p root inside \p src,
/// with the same PI interface.
Aig extract_cone(const Aig& src, Lit root);

/// Structural equality of interfaces (PI/PO counts), used for miters.
bool interfaces_match(const Aig& a, const Aig& b);

}  // namespace eco::aig
