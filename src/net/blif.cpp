#include "net/blif.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "sop/cover.hpp"
#include "sop/synth.hpp"
#include "util/faultpoint.hpp"

namespace eco::net {

namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  throw ParseError("blif:" + std::to_string(line) + ": " + msg);
}

struct NamesDef {
  std::vector<std::string> inputs;
  std::string output;
  std::vector<std::pair<std::string, char>> rows;  // pattern, output bit
  int line = 0;
};

/// Logical lines: '#' comments stripped, '\' continuations joined.
std::vector<std::pair<int, std::vector<std::string>>> logical_lines(std::istream& in) {
  std::vector<std::pair<int, std::vector<std::string>>> out;
  std::string raw;
  int line_no = 0;
  std::string pending;
  int pending_line = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    if (const size_t hash = raw.find('#'); hash != std::string::npos) raw.resize(hash);
    bool continued = false;
    if (const size_t bs = raw.find_last_not_of(" \t\r");
        bs != std::string::npos && raw[bs] == '\\') {
      raw.resize(bs);
      continued = true;
    }
    if (pending.empty()) pending_line = line_no;
    pending += raw + " ";
    if (continued) continue;
    std::istringstream ls(pending);
    std::vector<std::string> tokens;
    std::string tok;
    while (ls >> tok) tokens.push_back(tok);
    if (!tokens.empty()) out.emplace_back(pending_line, tokens);
    pending.clear();
  }
  return out;
}

aig::Aig parse_blif_stream(std::istream& in) {
  if (ECO_FAULT_POINT(fault::Site::kNetParse))
    throw ParseError("blif:0: injected fault (net.parse)");
  const auto lines = logical_lines(in);

  std::vector<std::string> inputs, outputs;
  std::unordered_map<std::string, NamesDef> defs;
  NamesDef* current = nullptr;

  for (const auto& [line_no, tokens] : lines) {
    const std::string& head = tokens[0];
    if (head == ".model") {
      current = nullptr;
      continue;
    }
    if (head == ".inputs" || head == ".outputs") {
      current = nullptr;
      auto& into = head == ".inputs" ? inputs : outputs;
      into.insert(into.end(), tokens.begin() + 1, tokens.end());
      continue;
    }
    if (head == ".names") {
      if (tokens.size() < 2) fail(line_no, ".names needs at least an output");
      NamesDef def;
      def.inputs.assign(tokens.begin() + 1, tokens.end() - 1);
      def.output = tokens.back();
      def.line = line_no;
      auto [it, fresh] = defs.emplace(def.output, std::move(def));
      if (!fresh) fail(line_no, "signal '" + it->first + "' defined twice");
      current = &it->second;
      continue;
    }
    if (head == ".end") break;
    if (head == ".latch" || head == ".subckt" || head == ".gate")
      fail(line_no, "unsupported construct '" + head + "'");
    if (head[0] == '.') fail(line_no, "unknown directive '" + head + "'");
    // A cover row.
    if (current == nullptr) fail(line_no, "cover row outside .names");
    if (current->inputs.empty()) {
      if (tokens.size() != 1 || (tokens[0] != "1" && tokens[0] != "0"))
        fail(line_no, "bad constant row");
      current->rows.emplace_back("", tokens[0][0]);
    } else {
      if (tokens.size() != 2) fail(line_no, "bad cover row");
      if (tokens[0].size() != current->inputs.size())
        fail(line_no, "pattern width mismatch");
      if (tokens[1] != "0" && tokens[1] != "1") fail(line_no, "bad output column");
      current->rows.emplace_back(tokens[0], tokens[1][0]);
    }
  }

  aig::Aig g;
  std::unordered_map<std::string, aig::Lit> lit_of;
  for (const auto& name : inputs) {
    if (!lit_of.emplace(name, g.add_pi(name)).second)
      fail(0, "duplicate input '" + name + "'");
  }

  // Recursive construction over the .names dependency graph.
  enum class State : uint8_t { kFresh, kOnStack, kDone };
  std::unordered_map<std::string, State> state;
  auto build = [&](auto&& self, const std::string& name) -> aig::Lit {
    if (const auto it = lit_of.find(name); it != lit_of.end()) return it->second;
    const auto def_it = defs.find(name);
    if (def_it == defs.end()) fail(0, "signal '" + name + "' is never defined");
    const NamesDef& def = def_it->second;
    if (state[name] == State::kOnStack) fail(def.line, "combinational cycle at '" + name + "'");
    state[name] = State::kOnStack;

    std::vector<aig::Lit> var_lits;
    var_lits.reserve(def.inputs.size());
    for (const auto& input : def.inputs) var_lits.push_back(self(self, input));

    // Build the cover. All rows must agree on the output column.
    char out_bit = '1';
    sop::Cover cover;
    cover.num_vars = static_cast<uint32_t>(def.inputs.size());
    for (size_t r = 0; r < def.rows.size(); ++r) {
      const auto& [pattern, bit] = def.rows[r];
      if (r == 0) out_bit = bit;
      if (bit != out_bit) fail(def.line, "mixed on-set/off-set rows for '" + name + "'");
      std::vector<sop::Lit> lits;
      for (size_t i = 0; i < pattern.size(); ++i) {
        if (pattern[i] == '1') lits.push_back(sop::lit_pos(static_cast<uint32_t>(i)));
        else if (pattern[i] == '0') lits.push_back(sop::lit_neg(static_cast<uint32_t>(i)));
        else if (pattern[i] != '-') fail(def.line, "bad pattern character");
      }
      cover.cubes.push_back(sop::Cube(std::move(lits)));
    }
    aig::Lit lit = def.rows.empty() ? aig::kLitFalse
                                    : sop::synthesize_cover(g, cover, var_lits);
    if (out_bit == '0') lit = aig::lit_not(lit);  // off-set rows: complement
    state[name] = State::kDone;
    lit_of.emplace(name, lit);
    return lit;
  };

  for (const auto& name : outputs) g.add_po(build(build, name), name);
  return g;
}

}  // namespace

aig::Aig parse_blif_string(const std::string& text) {
  std::istringstream in(text);
  return parse_blif_stream(in);
}

aig::Aig parse_blif_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("blif: cannot open file: " + path);
  return parse_blif_stream(in);
}

void write_blif(std::ostream& out, const aig::Aig& g, const std::string& model) {
  out << ".model " << model << '\n';
  std::vector<std::string> node_name(g.num_nodes());
  out << ".inputs";
  for (uint32_t i = 0; i < g.num_pis(); ++i) {
    node_name[g.pi_node(i)] =
        g.pi_name(i).empty() ? "i" + std::to_string(i) : g.pi_name(i);
    out << ' ' << node_name[g.pi_node(i)];
  }
  out << '\n' << ".outputs";
  std::vector<std::string> po_names(g.num_pos());
  for (uint32_t o = 0; o < g.num_pos(); ++o) {
    po_names[o] = g.po_name(o).empty() ? "o" + std::to_string(o) : g.po_name(o);
    out << ' ' << po_names[o];
  }
  out << '\n';
  // AND fanins never reference the constant node (creation-time
  // simplification removes them), so only POs can be constants.
  for (aig::Node n = g.num_pis() + 1; n < g.num_nodes(); ++n) {
    node_name[n] = "n" + std::to_string(n);
    const aig::Lit f0 = g.fanin0(n);
    const aig::Lit f1 = g.fanin1(n);
    out << ".names " << node_name[aig::lit_node(f0)] << ' ' << node_name[aig::lit_node(f1)]
        << ' ' << node_name[n] << '\n'
        << (aig::lit_compl(f0) ? '0' : '1') << (aig::lit_compl(f1) ? '0' : '1') << " 1\n";
  }
  for (uint32_t o = 0; o < g.num_pos(); ++o) {
    const aig::Lit po = g.po_lit(o);
    if (aig::lit_node(po) == 0) {
      // Constant output.
      out << ".names " << po_names[o] << '\n';
      if (aig::lit_compl(po)) out << "1\n";
      continue;
    }
    out << ".names " << node_name[aig::lit_node(po)] << ' ' << po_names[o] << '\n'
        << (aig::lit_compl(po) ? "0 1\n" : "1 1\n");
  }
  out << ".end\n";
}

void write_blif_file(const std::string& path, const aig::Aig& g, const std::string& model) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("blif: cannot open file for writing: " + path);
  write_blif(out, g, model);
}

}  // namespace eco::net
