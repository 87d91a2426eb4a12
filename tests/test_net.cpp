#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>

#include "aig/sim.hpp"
#include "cec/cec.hpp"
#include "net/elaborate.hpp"
#include "net/network.hpp"
#include "net/verilog.hpp"
#include "net/weights.hpp"

namespace eco::net {
namespace {

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

TEST(Verilog, ParsesFullAdder) {
  const Network net = parse_verilog_string(kFullAdder);
  EXPECT_EQ(net.name, "fa");
  EXPECT_EQ(net.inputs, (std::vector<std::string>{"a", "b", "cin"}));
  EXPECT_EQ(net.outputs, (std::vector<std::string>{"sum", "cout"}));
  EXPECT_EQ(net.num_gates(), 5u);
  EXPECT_EQ(net.gates[0].type, GateType::kXor);
  EXPECT_EQ(net.gates[0].output, "t1");
  EXPECT_EQ(net.gates[0].inputs, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(net.gates[0].instance_name, "g1");
}

TEST(Verilog, FullAdderFunction) {
  const auto elab = elaborate(parse_verilog_string(kFullAdder));
  for (uint32_t m = 0; m < 8; ++m) {
    const std::vector<bool> in = {(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
    const auto out = aig::eval(elab.aig, in);
    const int total = static_cast<int>(in[0]) + in[1] + in[2];
    EXPECT_EQ(out[0], (total % 2) == 1) << "sum at minterm " << m;
    EXPECT_EQ(out[1], total >= 2) << "cout at minterm " << m;
  }
}

TEST(Verilog, GatesWithoutInstanceNames) {
  const Network net = parse_verilog_string(
      "module m (a, y); input a; output y; not (y, a); endmodule");
  ASSERT_EQ(net.num_gates(), 1u);
  EXPECT_TRUE(net.gates[0].instance_name.empty());
}

TEST(Verilog, MultiInputPrimitives) {
  const Network net = parse_verilog_string(
      "module m (a, b, c, d, y); input a, b, c, d; output y;"
      "nand g (y, a, b, c, d); endmodule");
  const auto elab = elaborate(net);
  for (uint32_t m = 0; m < 16; ++m) {
    std::vector<bool> in;
    for (int i = 0; i < 4; ++i) in.push_back(((m >> i) & 1) != 0);
    EXPECT_EQ(aig::eval(elab.aig, in)[0], m != 15);
  }
}

TEST(Verilog, AssignExpressions) {
  const Network net = parse_verilog_string(
      "module m (a, b, c, y); input a, b, c; output y;"
      "assign y = ~(a & b) ^ (b | ~c); endmodule");
  const auto elab = elaborate(net);
  for (uint32_t m = 0; m < 8; ++m) {
    const bool a = m & 1, b = m & 2, c = m & 4;
    const bool expected = !(a && b) != (b || !c);
    EXPECT_EQ(aig::eval(elab.aig, {a, b, c})[0], expected) << "minterm " << m;
  }
}

TEST(Verilog, AssignConstants) {
  const Network net = parse_verilog_string(
      "module m (a, y0, y1); input a; output y0, y1;"
      "assign y0 = 1'b0; assign y1 = 1'b1; endmodule");
  const auto elab = elaborate(net);
  const auto out = aig::eval(elab.aig, {true});
  EXPECT_FALSE(out[0]);
  EXPECT_TRUE(out[1]);
}

TEST(Verilog, CommentsAndWhitespace) {
  const Network net = parse_verilog_string(
      "/* header */ module m (a, y); // ports\n"
      "input a; /* multi\nline */ output y;\n"
      "buf (y, a); // done\nendmodule\n");
  EXPECT_EQ(net.num_gates(), 1u);
}

TEST(Verilog, RoundTripPreservesFunction) {
  const Network net = parse_verilog_string(kFullAdder);
  std::ostringstream out;
  write_verilog(out, net);
  const Network again = parse_verilog_string(out.str());
  const auto a = elaborate(net);
  const auto b = elaborate(again);
  EXPECT_EQ(cec::check_equivalence(a.aig, b.aig).status, cec::Status::kEquivalent);
}

TEST(Verilog, ErrorsCarryLineNumbers) {
  try {
    parse_verilog_string("module m (a);\ninput a;\nfrob (x, a);\nendmodule");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("verilog:3"), std::string::npos) << e.what();
  }
}

TEST(Verilog, RejectsMissingEndmodule) {
  EXPECT_THROW(parse_verilog_string("module m (a); input a;"), std::runtime_error);
}

TEST(Verilog, RejectsWideLiterals) {
  EXPECT_THROW(parse_verilog_string("module m (y); output y; assign y = 2'b10; endmodule"),
               std::runtime_error);
}

/// A module whose only assign nests \p depth copies of \p open (closed by
/// as many \p close) around one signal.
std::string nested_assign(int depth, const std::string& open, const std::string& close) {
  std::string text = "module m (a, y); input a; output y; assign y = ";
  for (int i = 0; i < depth; ++i) text += open;
  text += 'a';
  for (int i = 0; i < depth; ++i) text += close;
  return text + "; endmodule\n";
}

/// Parses on a fresh std::thread, whose default stack is what a daemon
/// worker has; returns "ok" or the error text.
std::string parse_on_thread(const std::string& text) {
  std::string result;
  std::thread([&] {
    try {
      parse_verilog_string(text);
      result = "ok";
    } catch (const ParseError& e) {
      result = e.what();
    } catch (const std::exception& e) {
      result = std::string("unexpected: ") + e.what();
    }
  }).join();
  return result;
}

TEST(Verilog, DeepNestingIsAParseErrorNotACrash) {
  const std::string too_deep = "verilog:1: expression nested too deeply";
  EXPECT_EQ(parse_on_thread(nested_assign(100000, "(", ")")), too_deep);
  EXPECT_EQ(parse_on_thread(nested_assign(1000000, "~", "")), too_deep);
  EXPECT_EQ(parse_on_thread(nested_assign(kMaxExpressionDepth + 1, "(", ")")), too_deep);
  EXPECT_EQ(parse_on_thread(nested_assign(kMaxExpressionDepth + 1, "~(", ")")), too_deep);
}

TEST(Verilog, NestingAtTheBoundParses) {
  EXPECT_EQ(parse_on_thread(nested_assign(kMaxExpressionDepth, "(", ")")), "ok");
  EXPECT_EQ(parse_on_thread(nested_assign(kMaxExpressionDepth, "~", "")), "ok");
  // "~(" is two levels per copy.
  EXPECT_EQ(parse_on_thread(nested_assign(kMaxExpressionDepth / 2, "~(", ")")), "ok");
  const Network net = parse_verilog_string(nested_assign(kMaxExpressionDepth, "~", ""));
  EXPECT_EQ(aig::eval(elaborate(net).aig, {true})[0], true);  // an even number of inversions
}

TEST(Network, ValidateRejectsMultipleDrivers) {
  Network net;
  net.inputs = {"a"};
  net.outputs = {"y"};
  net.gates.push_back({GateType::kBuf, "y", {"a"}, ""});
  net.gates.push_back({GateType::kNot, "y", {"a"}, ""});
  EXPECT_THROW(net.validate(), std::runtime_error);
}

TEST(Network, ValidateRejectsUndrivenUse) {
  Network net;
  net.inputs = {"a"};
  net.outputs = {"y"};
  net.gates.push_back({GateType::kAnd, "y", {"a", "ghost"}, ""});
  EXPECT_THROW(net.validate(), std::runtime_error);
}

TEST(Network, ValidateRejectsBadArity) {
  Network net;
  net.inputs = {"a", "b"};
  net.outputs = {"y"};
  net.gates.push_back({GateType::kNot, "y", {"a", "b"}, ""});
  EXPECT_THROW(net.validate(), std::runtime_error);
}

TEST(Network, AllSignalsDeduplicated) {
  const Network net = parse_verilog_string(kFullAdder);
  const auto signals = net.all_signals();
  EXPECT_EQ(signals.size(), 8u);  // 3 inputs + 5 gate outputs
}

TEST(Elaborate, DanglingGatesStillNamed) {
  const Network net = parse_verilog_string(
      "module m (a, b, y); input a, b; output y;"
      "and (y, a, b); or (unused, a, b); endmodule");
  const auto elab = elaborate(net);
  // Signals are indexed inputs first, then gate outputs: "unused" is gate 1.
  ASSERT_EQ(net.gates[1].output, "unused");
  ASSERT_EQ(elab.signal_lits.size(), net.inputs.size() + net.gates.size());
  const aig::Lit unused = elab.signal_lits[net.inputs.size() + 1];
  EXPECT_TRUE(elab.aig.is_and(aig::lit_node(unused)));
  EXPECT_EQ(elab.aig.num_pos(), 1u);
}

TEST(Elaborate, DetectsCycle) {
  Network net;
  net.name = "cyc";
  net.inputs = {"a"};
  net.outputs = {"y"};
  net.gates.push_back({GateType::kAnd, "y", {"a", "z"}, ""});
  net.gates.push_back({GateType::kAnd, "z", {"a", "y"}, ""});
  EXPECT_THROW(elaborate(net), std::runtime_error);
}

TEST(Elaborate, GateOrderIndependent) {
  // Gates listed in reverse topological order must elaborate fine.
  const Network net = parse_verilog_string(
      "module m (a, b, y); input a, b; output y;"
      "or (y, t2, t1); and (t2, t1, b); xor (t1, a, b); endmodule");
  const auto elab = elaborate(net);
  for (uint32_t m = 0; m < 4; ++m) {
    const bool a = m & 1, b = m & 2;
    const bool t1 = a != b;
    const bool expected = (t1 && b) || t1;
    EXPECT_EQ(aig::eval(elab.aig, {a, b})[0], expected);
  }
}

TEST(Weights, ParseAndLookup) {
  const WeightMap wm = parse_weights_string("# comment\nn1 10\nn2 3\n\nn3 0\n");
  EXPECT_EQ(wm.weight_of("n1"), 10);
  EXPECT_EQ(wm.weight_of("n2"), 3);
  EXPECT_EQ(wm.weight_of("n3"), 0);
  EXPECT_EQ(wm.weight_of("missing"), 1);
}

TEST(Weights, RejectsMalformedAndDuplicates) {
  EXPECT_THROW(parse_weights_string("n1\n"), std::runtime_error);
  EXPECT_THROW(parse_weights_string("n1 2 3\n"), std::runtime_error);
  EXPECT_THROW(parse_weights_string("n1 1\nn1 2\n"), std::runtime_error);
}

TEST(Weights, RoundTrip) {
  WeightMap wm;
  wm.weights = {{"b", 2}, {"a", 7}};
  std::ostringstream out;
  write_weights(out, wm);
  EXPECT_EQ(out.str(), "a 7\nb 2\n");
  const WeightMap again = parse_weights_string(out.str());
  EXPECT_EQ(again.weights, wm.weights);
}

}  // namespace
}  // namespace eco::net
