/// \file network.hpp
/// \brief Gate-level netlist with named signals, mirroring the ICCAD'17
/// contest benchmark format (paper §4.1).
///
/// The ECO problem is posed on named netlists: an old implementation whose
/// *target* signals appear as extra primary inputs (the contest convention),
/// a new specification, and a weight per named implementation signal. This
/// module holds the netlist; \ref verilog.hpp parses/writes the files and
/// \ref elaborate.hpp turns a Network into an AIG plus a name map.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace eco::net {

/// Lexical/syntactic failure in an input file (Verilog, BLIF, weights,
/// AIGER). The message is a single line of the form
/// `<format>:<line>: <what>`; front ends print it verbatim and exit
/// nonzero, the engine maps it to FailReason::kParse.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Semantically inconsistent input: files that parse but do not form a
/// valid problem (duplicate drivers, undriven outputs, mismatched
/// impl/spec interfaces, combinational cycles). Maps to
/// FailReason::kInconsistentInput.
class InputError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Reads the whole file at \p path into \p bytes, reusing their storage;
/// false when it cannot be opened. Every file front end (the parsers'
/// `_file` entry points and the service's content-hashed loads) reads
/// through this.
bool read_file(const std::string& path, std::string& bytes);

/// Primitive gate types of the structural-Verilog subset.
enum class GateType {
  kAnd,
  kOr,
  kNand,
  kNor,
  kXor,
  kXnor,
  kBuf,
  kNot,
  kConst0,  ///< output tied to 1'b0
  kConst1,  ///< output tied to 1'b1
};

/// Returns the Verilog primitive name ("and", "nor", ...).
const char* gate_type_name(GateType type) noexcept;

/// One gate instance: output signal plus input signals.
struct Gate {
  GateType type = GateType::kBuf;
  std::string output;
  std::vector<std::string> inputs;
  std::string instance_name;  ///< optional
};

/// A combinational gate-level netlist.
struct Network {
  std::string name = "top";
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<Gate> gates;  ///< in arbitrary order; elaboration sorts

  /// All signal names: inputs, gate outputs (deduplicated, insertion order).
  std::vector<std::string> all_signals() const;

  /// Validates structural sanity; throws InputError describing the first
  /// problem found, checking in this order:
  ///  - duplicated input names,
  ///  - per gate: a second driver of its output, then the wrong arity for
  ///    its type,
  ///  - per output: duplicated, then never driven,
  ///  - per gate input: used but never driven.
  void validate() const;

  /// Number of gates (the "#gate" columns of Table 1).
  size_t num_gates() const noexcept { return gates.size(); }
};

/// Every signal name of a Network resolved to an integer, so elaboration
/// and divisor selection work on indices instead of names. Signal `i` below
/// `num_inputs` is input `i`; signal `num_inputs + g` is the output of gate
/// `g`.
struct SignalIndex {
  uint32_t num_inputs = 0;
  /// Fanin signals of gate `g` are `fanins[fanin_begin[g] .. fanin_begin[g + 1])`.
  std::vector<uint32_t> fanin_begin;
  std::vector<uint32_t> fanins;
  /// Signal of each output, in `Network::outputs` order.
  std::vector<uint32_t> outputs;

  std::span<const uint32_t> fanins_of(size_t gate) const noexcept {
    return {fanins.data() + fanin_begin[gate], fanins.data() + fanin_begin[gate + 1]};
  }
};

/// Resolves the signals of \p net with its input list taken to be \p inputs
/// (so a caller can reorder the primary inputs without copying the network).
/// This is the one name-resolution pass: it performs every check of
/// Network::validate() in the same order and throws the same InputError.
SignalIndex index_signals(const Network& net, std::span<const std::string> inputs);

/// Signal weights for resource-aware ECO (contest weight files).
/// Signals missing from the map take \ref default_weight.
struct WeightMap {
  std::unordered_map<std::string, int64_t> weights;
  int64_t default_weight = 1;

  int64_t weight_of(const std::string& signal) const {
    const auto it = weights.find(signal);
    return it == weights.end() ? default_weight : it->second;
  }
};

}  // namespace eco::net
