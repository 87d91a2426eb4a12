/// \file elaborate.hpp
/// \brief Elaboration of a gate-level Network into an AIG plus a literal per
/// signal.
///
/// Every signal of the netlist (inputs and gate outputs) gets an AIG
/// literal, indexed like SignalIndex; that is what connects the ECO engine's
/// divisor selection and weight lookup back to netlist names. Gates that do
/// not reach any output are elaborated too — they are exactly the redundant
/// logic the paper mines for cheap divisors.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "net/network.hpp"

namespace eco::net {

struct ElaboratedAig {
  aig::Aig aig;
  /// AIG literal of every signal by index: the inputs in PI order, then
  /// the output of each gate in `Network::gates` order.
  std::vector<aig::Lit> signal_lits;
};

/// Elaborates \p net. Throws InputError on combinational cycles or on
/// anything Network::validate() rejects (checked first, same message).
ElaboratedAig elaborate(const Network& net);

/// Elaborates \p net as if its input list were \p inputs: the AIG's PIs
/// follow \p inputs, and so do the input entries of `signal_lits`.
ElaboratedAig elaborate(const Network& net, std::span<const std::string> inputs);

}  // namespace eco::net
