/// \file weights.hpp
/// \brief Reader/writer for contest-style weight files: one
/// ``<signal> <weight>`` pair per line (paper §4.1).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "net/network.hpp"

namespace eco::net {

/// Parses the weight-file bytes \p text. Lines starting with '#' and blank
/// lines are ignored. Throws ParseError on malformed lines (including a
/// weight outside int64_t), trailing tokens, or duplicate signals. The
/// `_file` form reads the file once and parses its bytes.
WeightMap parse_weights_string(std::string_view text);
WeightMap parse_weights_file(const std::string& path);

void write_weights(std::ostream& out, const WeightMap& weights);
void write_weights_file(const std::string& path, const WeightMap& weights);

}  // namespace eco::net
