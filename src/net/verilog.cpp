#include "net/verilog.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "util/faultpoint.hpp"

namespace eco::net {

namespace {

// Byte classes as <cctype> reports them in the C locale, looked up by the
// byte's unsigned value.
enum : uint8_t { kSpace = 1, kAlpha = 2, kDigit = 4, kIdentPunct = 8 };

constexpr std::array<uint8_t, 256> make_classes() {
  std::array<uint8_t, 256> t{};
  for (int c = '\t'; c <= '\r'; ++c) t[c] = kSpace;
  t[' '] = kSpace;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kAlpha;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kAlpha;
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit;
  t['_'] = t['$'] = t['.'] = kIdentPunct;
  return t;
}

constexpr std::array<uint8_t, 256> kClasses = make_classes();

bool is(char c, uint8_t classes) {
  return (kClasses[static_cast<unsigned char>(c)] & classes) != 0;
}

struct Token {
  enum class Kind { kIdent, kPunct, kConst0, kConst1, kEnd } kind = Kind::kEnd;
  std::string_view text;  ///< view into the source bytes
  int line = 0;
};

ParseError error_at(int line, const std::string& msg) {
  return ParseError("verilog:" + std::to_string(line) + ": " + msg);
}

/// Scans the file bytes into tokens, one token of lookahead.
class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) { advance(); }

  const Token& peek() const { return tok_; }

  Token take() {
    const Token t = tok_;
    advance();
    return t;
  }

  /// Fails at the line of the lookahead token.
  [[noreturn]] void fail(const std::string& msg) const { throw error_at(tok_.line, msg); }

 private:
  void advance() {
    skip_space_and_comments();
    const size_t start = pos_;
    if (pos_ == src_.size()) {
      tok_ = Token{Token::Kind::kEnd, {}, line_};
      return;
    }
    const char c = src_[pos_];
    if (is(c, kAlpha) || c == '_' || c == '\\') {
      size_t begin = start;
      if (c == '\\') {
        // Escaped identifier: up to whitespace, without the backslash.
        begin = ++pos_;
        while (pos_ < src_.size() && !is(src_[pos_], kSpace)) ++pos_;
      } else {
        while (pos_ < src_.size() && is(src_[pos_], kAlpha | kDigit | kIdentPunct)) ++pos_;
      }
      tok_ = Token{Token::Kind::kIdent, src_.substr(begin, pos_ - begin), line_};
      return;
    }
    if (is(c, kDigit)) {
      while (pos_ < src_.size() && (is(src_[pos_], kAlpha | kDigit) || src_[pos_] == '\''))
        ++pos_;
      const std::string_view lit = src_.substr(start, pos_ - start);
      Token::Kind kind;
      if (lit == "1'b0" || lit == "1'h0" || lit == "0")
        kind = Token::Kind::kConst0;
      else if (lit == "1'b1" || lit == "1'h1" || lit == "1")
        kind = Token::Kind::kConst1;
      else
        throw error_at(line_, "unsupported literal '" + std::string(lit) + "'");
      tok_ = Token{kind, lit, line_};
      return;
    }
    ++pos_;
    tok_ = Token{Token::Kind::kPunct, src_.substr(start, 1), line_};
  }

  void skip_space_and_comments() {
    const size_t n = src_.size();
    for (;;) {
      while (pos_ < n && is(src_[pos_], kSpace)) {
        if (src_[pos_] == '\n') ++line_;
        ++pos_;
      }
      if (pos_ + 1 >= n || src_[pos_] != '/') return;
      if (src_[pos_ + 1] == '/') {
        // Through the newline; the line advances even at end of input.
        const size_t eol = src_.find('\n', pos_ + 2);
        pos_ = eol == std::string_view::npos ? n : eol + 1;
        ++line_;
      } else if (src_[pos_ + 1] == '*') {
        // Closed by the first "*/" after the opening "/*".
        const size_t body = pos_ + 2;
        const size_t close = src_.find("*/", body);
        const size_t end = close == std::string_view::npos ? n : close + 2;
        line_ += static_cast<int>(std::count(src_.begin() + body, src_.begin() + end, '\n'));
        if (close == std::string_view::npos) throw error_at(line_, "unterminated block comment");
        pos_ = end;
      } else {
        return;
      }
    }
  }

  std::string_view src_;
  size_t pos_ = 0;
  Token tok_;
  int line_ = 1;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : lex_(text) {}

  Network parse() {
    expect_ident("module");
    net_.name = std::string(expect_any_ident("module name"));
    if (peek_punct('(')) skip_port_list();
    expect_punct(';');
    while (lex_.peek().kind != Token::Kind::kEnd) {
      const Token t = lex_.peek();
      if (t.kind != Token::Kind::kIdent) lex_.fail("expected a statement");
      if (t.text == "endmodule") {
        lex_.take();
        net_.validate();
        // Exact-size containers: the session cache budgets an estimate of
        // a network's footprint, so growth slack would be unbudgeted memory.
        net_.inputs.shrink_to_fit();
        net_.outputs.shrink_to_fit();
        net_.gates.shrink_to_fit();
        return std::move(net_);
      }
      if (t.text == "input") {
        parse_decl(&net_.inputs);
      } else if (t.text == "output") {
        parse_decl(&net_.outputs);
      } else if (t.text == "wire") {
        parse_decl(nullptr);
      } else if (t.text == "assign") {
        parse_assign();
      } else {
        parse_gate();
      }
    }
    lex_.fail("missing endmodule");
  }

 private:
  void skip_port_list() {
    expect_punct('(');
    int depth = 1;
    while (depth > 0) {
      const Token t = lex_.take();
      if (t.kind == Token::Kind::kEnd) lex_.fail("unterminated port list");
      if (t.kind == Token::Kind::kPunct && t.text == "(") ++depth;
      if (t.kind == Token::Kind::kPunct && t.text == ")") --depth;
    }
  }

  /// A declaration list; \p into null drops the names (wires).
  void parse_decl(std::vector<std::string>* into) {
    lex_.take();  // keyword
    for (;;) {
      const std::string_view name = expect_any_ident("signal name");
      if (into != nullptr) into->emplace_back(name);
      const Token t = lex_.take();
      if (t.kind == Token::Kind::kPunct && t.text == ";") return;
      if (!(t.kind == Token::Kind::kPunct && t.text == ","))
        lex_.fail("expected ',' or ';' in declaration");
    }
  }

  void parse_gate() {
    const std::string_view prim = expect_any_ident("gate type");
    GateType type;
    if (prim == "and") type = GateType::kAnd;
    else if (prim == "or") type = GateType::kOr;
    else if (prim == "nand") type = GateType::kNand;
    else if (prim == "nor") type = GateType::kNor;
    else if (prim == "xor") type = GateType::kXor;
    else if (prim == "xnor") type = GateType::kXnor;
    else if (prim == "buf") type = GateType::kBuf;
    else if (prim == "not") type = GateType::kNot;
    else lex_.fail("unknown gate primitive '" + std::string(prim) + "'");

    std::string instance;
    if (lex_.peek().kind == Token::Kind::kIdent) instance = std::string(lex_.take().text);
    expect_punct('(');
    std::string output(parse_terminal());
    terminals_.clear();
    while (peek_punct(',')) {
      lex_.take();
      terminals_.push_back(parse_terminal());
    }
    expect_punct(')');
    expect_punct(';');
    net_.gates.push_back(Gate{type, std::move(output),
                              std::vector<std::string>(terminals_.begin(), terminals_.end()),
                              std::move(instance)});
  }

  /// A gate terminal: a signal name or a constant (materialized as a
  /// constant-driver signal).
  std::string_view parse_terminal() {
    const Token t = lex_.take();
    if (t.kind == Token::Kind::kIdent) return t.text;
    if (t.kind == Token::Kind::kConst0) return const_signal(false);
    if (t.kind == Token::Kind::kConst1) return const_signal(true);
    lex_.fail("expected signal or constant");
  }

  std::string_view const_signal(bool value) {
    const std::string_view name = value ? "_vlog_const1" : "_vlog_const0";
    if (!const_made_[value]) {
      net_.gates.push_back(
          Gate{value ? GateType::kConst1 : GateType::kConst0, std::string(name), {}, {}});
      const_made_[value] = true;
    }
    return name;
  }

  // assign lhs = expr;  with precedence ~ > & > ^ > |.
  void parse_assign() {
    lex_.take();  // 'assign'
    const std::string lhs(expect_any_ident("assign target"));
    expect_punct('=');
    const std::string rhs = parse_or(lhs);
    if (rhs != lhs) net_.gates.push_back(Gate{GateType::kBuf, lhs, {rhs}, {}});
    expect_punct(';');
  }

  std::string parse_or(const std::string& hint) {
    std::string acc = parse_xor(hint);
    while (peek_punct('|')) {
      lex_.take();
      acc = emit(GateType::kOr, {acc, parse_xor(hint)}, hint);
    }
    return acc;
  }

  std::string parse_xor(const std::string& hint) {
    std::string acc = parse_and(hint);
    while (peek_punct('^')) {
      lex_.take();
      acc = emit(GateType::kXor, {acc, parse_and(hint)}, hint);
    }
    return acc;
  }

  std::string parse_and(const std::string& hint) {
    std::string acc = parse_unary(hint);
    while (peek_punct('&')) {
      lex_.take();
      acc = emit(GateType::kAnd, {acc, parse_unary(hint)}, hint);
    }
    return acc;
  }

  /// Each `~` and `(` is one level of recursion, so the nesting is bounded
  /// before it can exhaust the stack.
  std::string parse_unary(const std::string& hint) {
    const bool invert = peek_punct('~');
    if (!invert && !peek_punct('(')) return std::string(parse_terminal());
    if (depth_ == kMaxExpressionDepth) lex_.fail("expression nested too deeply");
    ++depth_;
    lex_.take();
    std::string out;
    if (invert) {
      out = emit(GateType::kNot, {parse_unary(hint)}, hint);
    } else {
      out = parse_or(hint);
      expect_punct(')');
    }
    --depth_;
    return out;
  }

  std::string emit(GateType type, std::vector<std::string> ins, const std::string& hint) {
    std::string name = hint + "$e" + std::to_string(temp_counter_++);
    net_.gates.push_back(Gate{type, name, std::move(ins), {}});
    return name;
  }

  bool peek_punct(char p) const {
    return lex_.peek().kind == Token::Kind::kPunct && lex_.peek().text[0] == p;
  }

  void expect_punct(char p) {
    const Token t = lex_.take();
    if (!(t.kind == Token::Kind::kPunct && t.text[0] == p))
      lex_.fail("expected '" + std::string(1, p) + "', found '" + std::string(t.text) + "'");
  }

  void expect_ident(std::string_view kw) {
    const Token t = lex_.take();
    if (!(t.kind == Token::Kind::kIdent && t.text == kw))
      lex_.fail("expected '" + std::string(kw) + "', found '" + std::string(t.text) + "'");
  }

  std::string_view expect_any_ident(const std::string& what) {
    const Token t = lex_.take();
    if (t.kind != Token::Kind::kIdent) lex_.fail("expected " + what);
    return t.text;
  }

  Lexer lex_;
  Network net_;
  /// Terminal views of the gate being parsed (reused across gates).
  std::vector<std::string_view> terminals_;
  int temp_counter_ = 0;
  int depth_ = 0;
  bool const_made_[2] = {false, false};
};

}  // namespace

Network parse_verilog_string(std::string_view text) {
  if (ECO_FAULT_POINT(fault::Site::kNetParse))
    throw ParseError("verilog:0: injected fault (net.parse)");
  return Parser(text).parse();
}

Network parse_verilog_file(const std::string& path) {
  std::string text;
  if (!read_file(path, text)) throw ParseError("verilog: cannot open file: " + path);
  return parse_verilog_string(text);
}

void write_verilog(std::ostream& out, const Network& net) {
  out << "module " << net.name << " (";
  bool first = true;
  for (const auto& s : net.inputs) {
    out << (first ? "" : ", ") << s;
    first = false;
  }
  for (const auto& s : net.outputs) {
    out << (first ? "" : ", ") << s;
    first = false;
  }
  out << ");\n";
  auto write_decl = [&](const char* kw, const std::vector<std::string>& names) {
    for (const auto& s : names) out << "  " << kw << ' ' << s << ";\n";
  };
  write_decl("input", net.inputs);
  write_decl("output", net.outputs);
  // Wires: driven signals that are neither inputs nor outputs.
  {
    std::unordered_set<std::string> io(net.inputs.begin(), net.inputs.end());
    io.insert(net.outputs.begin(), net.outputs.end());
    for (const auto& g : net.gates)
      if (!io.count(g.output)) out << "  wire " << g.output << ";\n";
  }
  for (const auto& g : net.gates) {
    if (g.type == GateType::kConst0 || g.type == GateType::kConst1) {
      out << "  assign " << g.output << " = 1'b" << (g.type == GateType::kConst1 ? 1 : 0)
          << ";\n";
      continue;
    }
    out << "  " << gate_type_name(g.type) << ' ';
    if (!g.instance_name.empty()) out << g.instance_name << ' ';
    out << '(' << g.output;
    for (const auto& in : g.inputs) out << ", " << in;
    out << ");\n";
  }
  out << "endmodule\n";
}

void write_verilog_file(const std::string& path, const Network& net) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open file for writing: " + path);
  write_verilog(out, net);
}

}  // namespace eco::net
