/// \file verilog.hpp
/// \brief Reader/writer for the structural-Verilog subset used by the
/// ICCAD'17 contest benchmarks (paper §4.1).
///
/// Supported constructs:
///  - ``module name (ports); ... endmodule`` (one module per file),
///  - ``input``/``output``/``wire`` declarations (comma lists),
///  - primitive instantiations ``and g1 (out, in1, in2, ...);`` for
///    and/or/nand/nor/xor/xnor/buf/not (instance name optional),
///  - ``assign lhs = expr;`` with operators ``~ & ^ |``, parentheses and the
///    constants ``1'b0``/``1'b1``,
///  - ``//`` line comments and ``/* */`` block comments.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "net/network.hpp"

namespace eco::net {

/// Deepest ``~``/parenthesis nesting an ``assign`` expression may have; a
/// deeper one is a ParseError ("expression nested too deeply") rather than
/// unbounded recursion in the parser.
inline constexpr int kMaxExpressionDepth = 1000;

/// Parses one module from the file bytes \p text. Throws ParseError with a
/// line number on malformed input; the resulting network is validated
/// (InputError). The `_file` form reads the file once and parses its bytes.
Network parse_verilog_string(std::string_view text);
Network parse_verilog_file(const std::string& path);

/// Writes \p net as structural Verilog (primitives + constant assigns).
void write_verilog(std::ostream& out, const Network& net);
void write_verilog_file(const std::string& path, const Network& net);

}  // namespace eco::net
