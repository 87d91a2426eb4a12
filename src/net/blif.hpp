/// \file blif.hpp
/// \brief BLIF reader/writer (combinational subset).
///
/// The ISCAS-85/89 and LGSynth-93 suites underlying the contest benchmarks
/// (paper §4.1) circulate as BLIF. Supported constructs:
///  - ``.model``, ``.inputs``, ``.outputs`` (with ``\`` line continuation),
///  - ``.names`` with PLA-style single-output cover rows (0/1/- inputs,
///    on-set or off-set output column),
///  - constant ``.names`` (no rows = constant 0; a lone ``1`` row =
///    constant 1),
///  - ``.end``, ``#`` comments.
/// Latches and subcircuits are rejected.
#pragma once

#include <iosfwd>
#include <string>

#include "aig/aig.hpp"
#include "net/network.hpp"

namespace eco::net {

/// Parses BLIF directly into an AIG (covers are synthesized through the
/// sop factoring machinery). PI/PO names are preserved.
/// Throws std::runtime_error on malformed or sequential content.
aig::Aig parse_blif_string(const std::string& text);
aig::Aig parse_blif_file(const std::string& path);

/// Writes an AIG as BLIF: one two-input ``.names`` per AND node plus
/// inverter/buffer covers for complemented edges and outputs.
void write_blif(std::ostream& out, const aig::Aig& g, const std::string& model = "top");
void write_blif_file(const std::string& path, const aig::Aig& g,
                     const std::string& model = "top");

}  // namespace eco::net
