#include "eco/problem.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "aig/window.hpp"

namespace eco::core {

EcoProblem make_problem(const net::Network& impl, const net::Network& spec,
                        const net::WeightMap& weights) {
  // Output interfaces must match by name (order taken from the spec).
  if (impl.outputs.size() != spec.outputs.size())
    throw net::InputError("make_problem: output counts differ");
  std::unordered_map<std::string_view, uint32_t> impl_output;  // name -> impl PO index
  impl_output.reserve(impl.outputs.size());
  for (uint32_t i = 0; i < static_cast<uint32_t>(impl.outputs.size()); ++i)
    impl_output.emplace(impl.outputs[i], i);
  for (const auto& o : spec.outputs)
    if (!impl_output.count(o))
      throw net::InputError("make_problem: spec output '" + o +
                            "' missing from implementation");

  // Inputs: spec inputs must all exist in impl; the surplus are targets.
  const std::unordered_set<std::string_view> spec_ins(spec.inputs.begin(), spec.inputs.end());
  std::vector<std::string> targets;
  for (const auto& in : impl.inputs) {
    if (!spec_ins.count(in)) targets.push_back(in);
  }
  {
    const std::unordered_set<std::string_view> impl_ins(impl.inputs.begin(), impl.inputs.end());
    for (const auto& in : spec.inputs)
      if (!impl_ins.count(in))
        throw net::InputError("make_problem: spec input '" + in +
                              "' missing from implementation");
  }
  if (targets.empty())
    throw net::InputError("make_problem: no target inputs found in implementation");

  // Implementation PI order: shared first (spec order), targets last.
  std::vector<std::string> pi_order = spec.inputs;
  pi_order.insert(pi_order.end(), targets.begin(), targets.end());

  EcoProblem problem;
  net::ElaboratedAig impl_elab = net::elaborate(impl, pi_order);
  net::ElaboratedAig spec_elab = net::elaborate(spec);

  // Align the implementation PO order to the spec's output list.
  problem.impl = std::move(impl_elab.aig);
  std::vector<aig::Lit> po_lits;
  po_lits.reserve(spec.outputs.size());
  for (const auto& o : spec.outputs) po_lits.push_back(problem.impl.po_lit(impl_output.at(o)));
  for (uint32_t i = 0; i < static_cast<uint32_t>(spec.outputs.size()); ++i) {
    problem.impl.set_po(i, po_lits[i]);
    problem.impl.set_po_name(i, spec.outputs[i]);
  }
  problem.spec = std::move(spec_elab.aig);
  problem.target_names = targets;

  // Divisors: shared inputs + gate outputs outside TFO(targets).
  std::vector<aig::Node> target_nodes;
  for (uint32_t t = 0; t < problem.num_targets(); ++t)
    target_nodes.push_back(problem.impl.pi_node(problem.target_pi(t)));
  const std::vector<uint8_t> tfo = aig::tfo_mark(problem.impl, target_nodes);

  constexpr uint32_t kNone = UINT32_MAX;
  std::vector<uint32_t> best_for_node(problem.impl.num_nodes(), kNone);  // -> divisor index
  auto consider = [&](const std::string& name, aig::Lit lit) {
    if (lit == aig::kLitFalse || lit == aig::kLitTrue) return;
    if (tfo[aig::lit_node(lit)]) return;
    const int64_t cost = weights.weight_of(name);
    uint32_t& best = best_for_node[aig::lit_node(lit)];  // node, ignore polarity
    if (best == kNone) {
      best = static_cast<uint32_t>(problem.divisors.size());
      problem.divisors.push_back(Divisor{lit, name, cost});
    } else if (cost < problem.divisors[best].cost) {
      problem.divisors[best] = Divisor{lit, name, cost};
    }
  };
  const size_t num_shared = spec.inputs.size();
  for (size_t i = 0; i < num_shared; ++i) consider(pi_order[i], impl_elab.signal_lits[i]);
  for (size_t g = 0; g < impl.gates.size(); ++g)
    consider(impl.gates[g].output, impl_elab.signal_lits[pi_order.size() + g]);

  // Deterministic order: by cost, then name.
  std::sort(problem.divisors.begin(), problem.divisors.end(),
            [](const Divisor& a, const Divisor& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              return a.name < b.name;
            });
  return problem;
}

}  // namespace eco::core
