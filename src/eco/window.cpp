#include "eco/window.hpp"

#include <stdexcept>

#include "aig/ops.hpp"
#include "aig/window.hpp"
#include "cec/cec.hpp"
#include "util/faultpoint.hpp"
#include "util/log.hpp"

namespace eco::core {

Window compute_window(const EcoProblem& problem, int64_t conflict_budget) {
  // Fault site: window extraction blows up (e.g. a pathological TFI/TFO
  // traversal) before any window exists.
  if (ECO_FAULT_POINT(fault::Site::kWindowExtract))
    throw std::runtime_error("window: injected fault (window.extract)");
  Window w;
  const aig::Aig& impl = problem.impl;
  const aig::Aig& spec = problem.spec;

  // 1. POs reachable from the targets.
  std::vector<aig::Node> target_nodes;
  for (uint32_t t = 0; t < problem.num_targets(); ++t)
    target_nodes.push_back(impl.pi_node(problem.target_pi(t)));
  w.affected_pos = aig::tfo_pos(impl, target_nodes);

  // 2. Window PIs: shared PIs in the TFI of the window POs, in either netlist.
  std::vector<uint8_t> pi_in_window(problem.num_shared_pis(), 0);
  {
    std::vector<aig::Lit> impl_roots, spec_roots;
    for (const uint32_t po : w.affected_pos) {
      impl_roots.push_back(impl.po_lit(po));
      spec_roots.push_back(spec.po_lit(po));
    }
    for (const uint32_t pi : aig::support_pis(impl, impl_roots))
      if (pi < problem.num_shared_pis()) pi_in_window[pi] = 1;
    for (const uint32_t pi : aig::support_pis(spec, spec_roots)) pi_in_window[pi] = 1;
  }
  for (uint32_t i = 0; i < problem.num_shared_pis(); ++i)
    if (pi_in_window[i]) w.window_pis.push_back(i);

  // 3. Divisor candidates with support inside the window PIs, in one
  //    forward pass: node 0 and the window PIs are inside, target PIs are
  //    not, and an AND node is inside when both its fanins are.
  //    (Divisors outside the target TFO were selected in make_problem.)
  {
    std::vector<uint8_t> inside(impl.num_nodes(), 0);
    inside[0] = 1;
    for (const uint32_t pi : w.window_pis) inside[impl.pi_node(pi)] = 1;
    for (aig::Node n = impl.num_pis() + 1; n < impl.num_nodes(); ++n)
      inside[n] = inside[aig::lit_node(impl.fanin0(n))] & inside[aig::lit_node(impl.fanin1(n))];
    for (size_t i = 0; i < problem.divisors.size(); ++i)
      if (inside[aig::lit_node(problem.divisors[i].lit)]) w.divisor_indices.push_back(i);
  }

  // 4. POs outside the window must already match.
  std::vector<uint32_t> outside;
  {
    std::vector<uint8_t> affected(impl.num_pos(), 0);
    for (const uint32_t po : w.affected_pos) affected[po] = 1;
    for (uint32_t po = 0; po < impl.num_pos(); ++po)
      if (!affected[po]) outside.push_back(po);
  }
  if (!outside.empty()) {
    aig::Aig check;
    std::vector<aig::Lit> pis;
    for (uint32_t i = 0; i < impl.num_pis(); ++i) pis.push_back(check.add_pi());
    std::vector<aig::Lit> impl_map(impl.num_nodes(), aig::kLitInvalid);
    impl_map[0] = aig::kLitFalse;
    for (uint32_t i = 0; i < impl.num_pis(); ++i) impl_map[impl.pi_node(i)] = pis[i];
    std::vector<aig::Lit> spec_map(spec.num_nodes(), aig::kLitInvalid);
    spec_map[0] = aig::kLitFalse;
    for (uint32_t i = 0; i < spec.num_pis(); ++i) spec_map[spec.pi_node(i)] = pis[i];
    for (const uint32_t po : outside) {
      const aig::Lit impl_roots[] = {impl.po_lit(po)};
      const aig::Lit spec_roots[] = {spec.po_lit(po)};
      const aig::Lit a = aig::transfer(impl, check, impl_roots, impl_map)[0];
      const aig::Lit b = aig::transfer(spec, check, spec_roots, spec_map)[0];
      const aig::Lit diff = check.add_xor(a, b);
      const cec::CecResult result = cec::check_const0(check, diff, conflict_budget);
      if (result.status == cec::Status::kNotEquivalent) {
        w.outside_equal = false;
        w.mismatch_po = po;
        log_info("window: PO %u differs outside the target cone: ECO infeasible", po);
        return w;
      }
      // kUnknown is treated as equal; the final verification will catch it.
    }
  }
  return w;
}

}  // namespace eco::core
