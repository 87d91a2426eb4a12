// Golden digests for the netlist front end. The expected values below were
// recorded once and must never move without a deliberate format change:
//  - EcoProblemDigests: every suite unit written out, parsed back and turned
//    into an EcoProblem. The digest covers both AIGs node for node, the PI/PO
//    order and names, the targets and the divisor list, so any change to
//    parsing, elaboration or divisor construction that could move the
//    engine's work shows up here.
//  - ParserMutationDigests: a deterministic mutation corpus fed through the
//    Verilog and weight parsers. Every result (a network, a weight map, or
//    the error's type and text) is folded into one digest per seed text, so
//    the accepted language and every diagnostic stay exactly as recorded.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/suite.hpp"
#include "eco/problem.hpp"
#include "net/network.hpp"
#include "net/verilog.hpp"
#include "net/weights.hpp"
#include "golden.hpp"
#include "util/rng.hpp"

namespace eco::net {
namespace {

using golden::Digest;
using golden::fold_aig;
using golden::hex;

uint64_t problem_digest(const core::EcoProblem& p) {
  Digest d;
  fold_aig(d, p.impl);
  fold_aig(d, p.spec);
  d.u64(p.target_names.size());
  for (const auto& t : p.target_names) d.str(t);
  d.u64(p.divisors.size());
  for (const auto& div : p.divisors) {
    d.u64(div.lit);
    d.str(div.name);
    d.u64(static_cast<uint64_t>(div.cost));
  }
  return d.value();
}

uint64_t unit_problem_digest(int index, int scale) {
  const benchgen::EcoUnit unit = benchgen::make_unit(index, 20170912, scale);
  std::ostringstream impl, spec, weights;
  write_verilog(impl, unit.impl);
  write_verilog(spec, unit.spec);
  write_weights(weights, unit.weights);
  return problem_digest(core::make_problem(parse_verilog_string(impl.str()),
                                           parse_verilog_string(spec.str()),
                                           parse_weights_string(weights.str())));
}

TEST(NetGolden, EcoProblemDigests) {
  struct Golden {
    int index;
    int scale;
    uint64_t digest;
  };
  const Golden golden[] = {
      {0, 1, 0xda24111bc907a890ULL},
      {1, 1, 0xfddc3c99b3a49616ULL},
      {2, 1, 0x3a1292a00be4c48cULL},
      {3, 1, 0xdef6b8d287998ddfULL},
      {4, 1, 0x1f3538d789ca02fcULL},
      {5, 1, 0x3fd036691c4ab2b3ULL},
      {6, 1, 0xc9fca2e7d85c5043ULL},
      {7, 1, 0x700def0c9a729f53ULL},
      {8, 1, 0xf744ad478c512f7fULL},
      {9, 1, 0x3d22f9472db7b75cULL},
      {10, 1, 0x350f5a9aae1fff89ULL},
      {11, 1, 0xd1c3f5e7313e93b6ULL},
      {12, 1, 0xaf62a2149353120fULL},
      {13, 1, 0x13882f4892dc1fbbULL},
      {14, 1, 0x07e8689a99a6b22fULL},
      {15, 1, 0x16f667663066f902ULL},
      {16, 1, 0x935c7e1f0ebedd8bULL},
      {17, 1, 0x254fca8b3382a3b6ULL},
      {18, 1, 0xcde57970915068b9ULL},
      {19, 1, 0x8e0266e863167e3dULL},
      {1, 4, 0x86612201003e0427ULL},
      {3, 4, 0xade1fd0b6e705fbbULL},
      {14, 4, 0x96f310c99048e03fULL},
  };
  for (const Golden& g : golden) {
    const uint64_t got = unit_problem_digest(g.index, g.scale);
    EXPECT_EQ(hex(got), hex(g.digest)) << "unit " << g.index << " at scale " << g.scale;
  }
}

// ---- Mutation differential ----------------------------------------------

std::string read_data(const std::string& name) {
  std::ifstream in(std::string(ECOPATCH_TEST_DATA_DIR) + "/malformed/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in) << name;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

const char* kFullAdder = R"(
// 1-bit full adder, contest style.
module fa (a, b, cin, sum, cout);
  input a, b, cin;
  output sum, cout;
  wire t1, t2, t3;
  xor g1 (t1, a, b);
  xor g2 (sum, t1, cin);
  and g3 (t2, a, b);
  and g4 (t3, t1, cin);
  or  g5 (cout, t2, t3);
endmodule
)";

const char* kAssignHeavy =
    "/* assign-heavy module with escaped names */\n"
    "module \\top$1 (a, b, \\c[0] , y, z, w);\n"
    "  input a, b; input \\c[0] ;\n"
    "  output y, z, w;  // three outputs\n"
    "  wire t, u;\n"
    "  assign t = ~(a & b) | (\\c[0] ^ ~a);   // mixed precedence\n"
    "  assign y = t & 1'b1 | 1'h0;\n"
    "  assign z = ((a)) ^ (b & ~\\c[0] ) ^ t;\n"
    "  assign w = ~~u;\n"
    "  nand n1 (u, t, 1, b); /* constant\n terminal */\n"
    "  buf (v_1.x, u);\n"
    "endmodule\n";

const char* kWeightEdges =
    "# weights with edge cases\r\n"
    "a +5\r\n"
    "  b\t-3  \n"
    "\tc 007\n"
    "d 9223372036854775807\n"
    "e -9223372036854775808\n"
    "   # indented comment\n"
    "\r\n"
    "f 0\n";

/// Bytes the mutator inserts: the Verilog and weight-file grammar.
const char kGrammar[] = "()\\;,=~&^|/*'01bhx_$.#+- \t\r\n\vaeimnodlutw";

std::string mutate(std::string s, SplitMix64& rng) {
  const int edits = 1 + static_cast<int>(rng.next() % 3);
  for (int e = 0; e < edits; ++e) {
    const size_t pos = static_cast<size_t>(rng.next() % (s.size() + 1));
    switch (rng.next() % 4) {
      case 0:  // delete a short run
        s.erase(pos, 1 + rng.next() % 8);
        break;
      case 1:  // insert a grammar byte
        s.insert(pos, 1, kGrammar[rng.next() % (sizeof kGrammar - 1)]);
        break;
      case 2: {  // duplicate a slice somewhere else
        const std::string slice = s.substr(pos, 1 + rng.next() % 32);
        s.insert(static_cast<size_t>(rng.next() % (s.size() + 1)), slice);
        break;
      }
      default:  // truncate
        s.resize(pos);
        break;
    }
  }
  return s;
}

void fold_network(Digest& d, const Network& n) {
  d.str("Network");
  d.str(n.name);
  d.u64(n.inputs.size());
  for (const auto& s : n.inputs) d.str(s);
  d.u64(n.outputs.size());
  for (const auto& s : n.outputs) d.str(s);
  d.u64(n.gates.size());
  for (const Gate& g : n.gates) {
    d.u64(static_cast<uint64_t>(g.type));
    d.str(g.output);
    d.u64(g.inputs.size());
    for (const auto& s : g.inputs) d.str(s);
    d.str(g.instance_name);
  }
}

void fold_weights(Digest& d, const WeightMap& w) {
  std::vector<std::pair<std::string, int64_t>> sorted(w.weights.begin(), w.weights.end());
  std::sort(sorted.begin(), sorted.end());
  d.str("WeightMap");
  d.u64(sorted.size());
  for (const auto& [name, weight] : sorted) {
    d.str(name);
    d.u64(static_cast<uint64_t>(weight));
  }
}

void parse_verilog_into(Digest& d, const std::string& text) {
  fold_network(d, parse_verilog_string(text));
}

void parse_weights_into(Digest& d, const std::string& text) {
  fold_weights(d, parse_weights_string(text));
}

using Parse = void (*)(Digest&, const std::string&);

/// Parses \p text with \p parse and folds the result; any exception other
/// than the two input-error types is a test failure.
void fold_result(Digest& d, const std::string& text, Parse parse) {
  try {
    parse(d, text);
  } catch (const ParseError& e) {
    d.str("ParseError");
    d.str(e.what());
  } catch (const InputError& e) {
    d.str("InputError");
    d.str(e.what());
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unexpected exception '" << e.what() << "' on input:\n" << text;
  }
}

TEST(NetGolden, ParserMutationDigests) {
  const benchgen::EcoUnit unit = benchgen::make_unit(12);
  std::ostringstream impl, spec, wts;
  write_verilog(impl, unit.impl);
  write_verilog(spec, unit.spec);
  write_weights(wts, unit.weights);

  struct Seed {
    const char* label;
    std::string text;
    Parse parse;
    int mutants;
    uint64_t digest;
  };
  const Seed seeds[] = {
      {"bad_gate.v", read_data("bad_gate.v"), parse_verilog_into, 1500, 0x1144d6cda36f3dc2ULL},
      {"garbage.v", read_data("garbage.v"), parse_verilog_into, 1500, 0x1b59a0a7c34e45deULL},
      {"truncated.v", read_data("truncated.v"), parse_verilog_into, 1500, 0x4c2138bd84f70c46ULL},
      {"full adder", kFullAdder, parse_verilog_into, 1500, 0x2507b75af0187939ULL},
      {"assign-heavy", kAssignHeavy, parse_verilog_into, 1500, 0x76f45aa54dabcc05ULL},
      {"unit 12 impl", impl.str(), parse_verilog_into, 600, 0xf32cb4b1287bd47dULL},
      {"unit 12 spec", spec.str(), parse_verilog_into, 600, 0x7fd84b8934d9fb72ULL},
      {"bad_weights.txt", read_data("bad_weights.txt"), parse_weights_into, 1500, 0x270095b832de5c97ULL},
      {"weight edges", kWeightEdges, parse_weights_into, 1500, 0xdba2d594005b9885ULL},
      {"unit 12 weights", wts.str(), parse_weights_into, 1500, 0x69c5426aafc173f0ULL},
  };
  uint64_t stream = 0;
  for (const Seed& s : seeds) {
    Digest d;
    SplitMix64 rng(SplitMix64::mix(++stream));
    fold_result(d, s.text, s.parse);
    for (int m = 0; m < s.mutants; ++m) fold_result(d, mutate(s.text, rng), s.parse);
    EXPECT_EQ(hex(d.value()), hex(s.digest)) << s.label;
  }
}

}  // namespace
}  // namespace eco::net
