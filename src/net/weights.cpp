#include "net/weights.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "util/faultpoint.hpp"

namespace eco::net {

namespace {

/// The C-locale isspace set: what `>>` skips between tokens.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

ParseError error_at(int line, const std::string& msg) {
  return ParseError("weights:" + std::to_string(line) + ": " + msg);
}

}  // namespace

WeightMap parse_weights_string(std::string_view text) {
  if (ECO_FAULT_POINT(fault::Site::kNetParse))
    throw ParseError("weights:0: injected fault (net.parse)");
  WeightMap wm;
  int line_no = 0;
  for (size_t pos = 0; pos < text.size();) {
    const size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string_view::npos || line[first] == '#') continue;
    // The signal: the first whitespace-delimited token.
    const char* p = line.data();
    const char* const end = p + line.size();
    while (p != end && is_space(*p)) ++p;
    const char* const signal_begin = p;
    while (p != end && !is_space(*p)) ++p;
    const std::string_view signal(signal_begin, static_cast<size_t>(p - signal_begin));
    // The weight: an optionally signed decimal that fits int64_t. A leading
    // '+' is accepted too; from_chars does not take it, so skip it here.
    while (p != end && is_space(*p)) ++p;
    if (p != end && *p == '+' && end - p > 1 && p[1] >= '0' && p[1] <= '9') ++p;
    int64_t weight = 0;
    const auto [num_end, ec] = std::from_chars(p, end, weight);
    if (signal.empty() || ec != std::errc())
      throw error_at(line_no, "malformed line");
    if (std::any_of(num_end, end, [](char c) { return !is_space(c); }))
      throw error_at(line_no, "trailing tokens");
    if (!wm.weights.emplace(std::string(signal), weight).second)
      throw error_at(line_no, "duplicate signal '" + std::string(signal) + "'");
  }
  return wm;
}

WeightMap parse_weights_file(const std::string& path) {
  std::string text;
  if (!read_file(path, text)) throw ParseError("weights: cannot open file: " + path);
  return parse_weights_string(text);
}

void write_weights(std::ostream& out, const WeightMap& weights) {
  // Deterministic output: sort by name.
  std::vector<std::pair<std::string, int64_t>> sorted(weights.weights.begin(),
                                                      weights.weights.end());
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [name, weight] : sorted) out << name << ' ' << weight << '\n';
}

void write_weights_file(const std::string& path, const WeightMap& weights) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open file for writing: " + path);
  write_weights(out, weights);
}

}  // namespace eco::net
