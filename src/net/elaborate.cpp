#include "net/elaborate.hpp"

#include <stdexcept>

namespace eco::net {

namespace {

aig::Lit build_gate(aig::Aig& g, GateType type, std::span<const aig::Lit> fanins) {
  switch (type) {
    case GateType::kConst0: return aig::kLitFalse;
    case GateType::kConst1: return aig::kLitTrue;
    case GateType::kBuf: return fanins[0];
    case GateType::kNot: return aig::lit_not(fanins[0]);
    case GateType::kAnd: return g.add_and_multi(fanins);
    case GateType::kNand: return aig::lit_not(g.add_and_multi(fanins));
    case GateType::kOr: return g.add_or_multi(fanins);
    case GateType::kNor: return aig::lit_not(g.add_or_multi(fanins));
    case GateType::kXor: return g.add_xor_multi(fanins);
    case GateType::kXnor: return aig::lit_not(g.add_xor_multi(fanins));
  }
  throw std::logic_error("elaborate: unknown gate type");
}

}  // namespace

ElaboratedAig elaborate(const Network& net) { return elaborate(net, net.inputs); }

ElaboratedAig elaborate(const Network& net, std::span<const std::string> inputs) {
  const SignalIndex index = index_signals(net, inputs);
  const uint32_t num_inputs = index.num_inputs;
  ElaboratedAig out;
  out.signal_lits.resize(num_inputs + net.gates.size(), aig::kLitFalse);
  for (uint32_t i = 0; i < num_inputs; ++i) out.signal_lits[i] = out.aig.add_pi(inputs[i]);

  // Iterative post-order DFS with cycle detection over all gates. A fanin
  // is available once it is an input or a finished gate.
  enum class State : uint8_t { kUnvisited, kOnStack, kDone };
  std::vector<State> state(net.gates.size(), State::kUnvisited);
  std::vector<uint32_t> stack;
  std::vector<aig::Lit> fanins;
  for (uint32_t root = 0; root < net.gates.size(); ++root) {
    if (state[root] == State::kDone) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const uint32_t gi = stack.back();
      if (state[gi] == State::kDone) {
        stack.pop_back();
        continue;
      }
      if (state[gi] == State::kUnvisited) {
        state[gi] = State::kOnStack;
        bool ready = true;
        for (const uint32_t s : index.fanins_of(gi)) {
          if (s < num_inputs) continue;
          const uint32_t dep = s - num_inputs;
          if (state[dep] == State::kDone) continue;
          if (state[dep] == State::kOnStack)
            throw InputError("elaborate: combinational cycle through '" +
                             net.gates[dep].output + "'");
          stack.push_back(dep);
          ready = false;
        }
        if (!ready) continue;
      }
      // All fanins available: build.
      fanins.clear();
      for (const uint32_t s : index.fanins_of(gi)) fanins.push_back(out.signal_lits[s]);
      out.signal_lits[num_inputs + gi] = build_gate(out.aig, net.gates[gi].type, fanins);
      state[gi] = State::kDone;
      stack.pop_back();
    }
  }

  for (size_t o = 0; o < net.outputs.size(); ++o)
    out.aig.add_po(out.signal_lits[index.outputs[o]], net.outputs[o]);
  return out;
}

}  // namespace eco::net
