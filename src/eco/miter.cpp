#include "eco/miter.hpp"

#include <stdexcept>

#include "aig/ops.hpp"

namespace eco::core {

EcoMiter build_eco_miter(const aig::Aig& impl, const aig::Aig& spec,
                         std::span<const aig::Lit> divisor_lits,
                         const std::vector<uint32_t>& po_subset) {
  EcoMiter m;
  m.num_x = spec.num_pis();
  m.num_targets = impl.num_pis() - spec.num_pis();

  std::vector<aig::Lit> pi_map;  // for the implementation (x + targets)
  pi_map.reserve(impl.num_pis());
  for (uint32_t i = 0; i < impl.num_pis(); ++i) pi_map.push_back(m.aig.add_pi(impl.pi_name(i)));

  // Implementation copy: transfer the selected POs plus all divisors.
  std::vector<aig::Lit> impl_roots;
  std::vector<uint32_t> pos;
  if (po_subset.empty()) {
    for (uint32_t i = 0; i < impl.num_pos(); ++i) pos.push_back(i);
  } else {
    pos = po_subset;
  }
  for (const uint32_t po : pos) impl_roots.push_back(impl.po_lit(po));
  impl_roots.insert(impl_roots.end(), divisor_lits.begin(), divisor_lits.end());

  std::vector<aig::Lit> impl_map(impl.num_nodes(), aig::kLitInvalid);
  impl_map[0] = aig::kLitFalse;
  for (uint32_t i = 0; i < impl.num_pis(); ++i) impl_map[impl.pi_node(i)] = pi_map[i];
  const std::vector<aig::Lit> impl_lits = aig::transfer(impl, m.aig, impl_roots, impl_map);

  // Specification copy over the shared inputs.
  std::vector<aig::Lit> spec_roots;
  for (const uint32_t po : pos) spec_roots.push_back(spec.po_lit(po));
  std::vector<aig::Lit> spec_map(spec.num_nodes(), aig::kLitInvalid);
  spec_map[0] = aig::kLitFalse;
  for (uint32_t i = 0; i < spec.num_pis(); ++i) spec_map[spec.pi_node(i)] = pi_map[i];
  const std::vector<aig::Lit> spec_lits = aig::transfer(spec, m.aig, spec_roots, spec_map);

  std::vector<aig::Lit> diffs;
  diffs.reserve(pos.size());
  for (size_t i = 0; i < pos.size(); ++i)
    diffs.push_back(m.aig.add_xor(impl_lits[i], spec_lits[i]));
  m.out = m.aig.add_or_multi(diffs);
  m.aig.add_po(m.out, "miter");

  m.divisor_lits.assign(impl_lits.begin() + static_cast<long>(pos.size()), impl_lits.end());
  return m;
}

EcoMiter build_eco_miter(const aig::Aig& impl, const aig::Aig& spec,
                         const std::vector<Divisor>& divisors,
                         const std::vector<uint32_t>& po_subset) {
  std::vector<aig::Lit> lits;
  lits.reserve(divisors.size());
  for (const auto& d : divisors) lits.push_back(d.lit);
  return build_eco_miter(impl, spec, lits, po_subset);
}

namespace {

/// Rebuilds \p m with the given per-PI substitution (kLitInvalid = keep PI).
EcoMiter rebuild_with(const EcoMiter& m, const std::vector<aig::Lit>& pi_subst) {
  EcoMiter out;
  out.num_x = m.num_x;
  out.num_targets = m.num_targets;

  std::vector<aig::Lit> pi_map;
  pi_map.reserve(m.aig.num_pis());
  for (uint32_t i = 0; i < m.aig.num_pis(); ++i) pi_map.push_back(out.aig.add_pi(m.aig.pi_name(i)));
  for (uint32_t i = 0; i < m.aig.num_pis(); ++i)
    if (pi_subst[i] != aig::kLitInvalid) pi_map[i] = pi_subst[i];

  std::vector<aig::Lit> roots;
  roots.push_back(m.out);
  for (const aig::Lit d : m.divisor_lits) roots.push_back(d);
  std::vector<aig::Lit> map(m.aig.num_nodes(), aig::kLitInvalid);
  map[0] = aig::kLitFalse;
  for (uint32_t i = 0; i < m.aig.num_pis(); ++i) map[m.aig.pi_node(i)] = pi_map[i];
  const std::vector<aig::Lit> lits = aig::transfer(m.aig, out.aig, roots, map);
  out.out = lits[0];
  out.divisor_lits.assign(lits.begin() + 1, lits.end());
  out.aig.add_po(out.out, "miter");
  return out;
}

}  // namespace

EcoMiter cofactor_target(const EcoMiter& m, uint32_t t, bool value) {
  std::vector<aig::Lit> subst(m.aig.num_pis(), aig::kLitInvalid);
  subst[m.target_pi(t)] = value ? aig::kLitTrue : aig::kLitFalse;
  return rebuild_with(m, subst);
}

EcoMiter substitute_target_in_miter(const EcoMiter& m, uint32_t t, aig::Lit func_root) {
  EcoMiter out;
  out.num_x = m.num_x;
  out.num_targets = m.num_targets;
  std::vector<aig::Lit> pi_map;
  pi_map.reserve(m.aig.num_pis());
  for (uint32_t i = 0; i < m.aig.num_pis(); ++i) pi_map.push_back(out.aig.add_pi(m.aig.pi_name(i)));

  std::vector<aig::Lit> map(m.aig.num_nodes(), aig::kLitInvalid);
  map[0] = aig::kLitFalse;
  for (uint32_t i = 0; i < m.aig.num_pis(); ++i)
    if (i != m.target_pi(t)) map[m.aig.pi_node(i)] = pi_map[i];
  const aig::Lit func_roots[] = {func_root};
  const aig::Lit replacement = aig::transfer(m.aig, out.aig, func_roots, map)[0];
  map[m.aig.pi_node(m.target_pi(t))] = replacement;

  std::vector<aig::Lit> roots;
  roots.push_back(m.out);
  for (const aig::Lit d : m.divisor_lits) roots.push_back(d);
  const std::vector<aig::Lit> lits = aig::transfer(m.aig, out.aig, roots, map);
  out.out = lits[0];
  out.divisor_lits.assign(lits.begin() + 1, lits.end());
  out.aig.add_po(out.out, "miter");
  return out;
}

EcoMiter quantify_targets(EcoMiter m, const std::vector<uint32_t>& quantify,
                          uint32_t max_nodes) {
  // Expands m itself, not a rebuilt copy: a transfer builds the cone of its
  // roots in ascending node order, so both give the same nodes.
  for (const uint32_t t : quantify) {
    // m.out := m.out[t=0] & m.out[t=1], divisors preserved.
    EcoMiter next;
    next.num_x = m.num_x;
    next.num_targets = m.num_targets;
    std::vector<aig::Lit> pi_map;
    pi_map.reserve(m.aig.num_pis());
    for (uint32_t i = 0; i < m.aig.num_pis(); ++i)
      pi_map.push_back(next.aig.add_pi(m.aig.pi_name(i)));

    std::vector<aig::Lit> roots;
    roots.push_back(m.out);
    for (const aig::Lit d : m.divisor_lits) roots.push_back(d);

    std::vector<aig::Lit> lits_by_value[2];
    for (const bool value : {false, true}) {
      std::vector<aig::Lit> map(m.aig.num_nodes(), aig::kLitInvalid);
      map[0] = aig::kLitFalse;
      for (uint32_t i = 0; i < m.aig.num_pis(); ++i) map[m.aig.pi_node(i)] = pi_map[i];
      map[m.aig.pi_node(m.target_pi(t))] = value ? aig::kLitTrue : aig::kLitFalse;
      lits_by_value[value] = aig::transfer(m.aig, next.aig, roots, map);
    }
    next.out = next.aig.add_and(lits_by_value[0][0], lits_by_value[1][0]);
    // Divisors do not depend on targets, so both cofactors strash to the
    // same literals; keep the first copy.
    next.divisor_lits.assign(lits_by_value[0].begin() + 1, lits_by_value[0].end());
    next.aig.add_po(next.out, "miter");
    if (next.aig.num_ands() > max_nodes)
      throw std::runtime_error("quantify_targets: expansion exceeds node budget");
    m = std::move(next);
  }
  return m;
}

}  // namespace eco::core
