/// \file aig.hpp
/// \brief And-Inverter Graph (AIG): the circuit representation used by the
/// whole library (paper §2.2).
///
/// Conventions mirror the AIGER/ABC world:
///  - a *node* is an index; node 0 is the constant-FALSE node, followed by
///    the primary inputs, followed by AND nodes in topological order;
///  - a *literal* packs a node index and a complement bit
///    (lit = 2*node + complemented); literal 0 is constant false, literal 1
///    constant true;
///  - AND nodes are structurally hashed and locally simplified at creation,
///    so sharing is maximal by construction and trivial ANDs never exist.
///    The hash is one open-addressing array of node indices beside the two
///    fanin arrays, so a copy of an Aig copies three flat arrays.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace eco::aig {

/// AIG literal: 2*node + complement.
using Lit = uint32_t;
/// AIG node index.
using Node = uint32_t;

constexpr Lit kLitFalse = 0;
constexpr Lit kLitTrue = 1;
constexpr Lit kLitInvalid = UINT32_MAX;

constexpr Node lit_node(Lit l) noexcept { return l >> 1; }
constexpr bool lit_compl(Lit l) noexcept { return (l & 1u) != 0; }
constexpr Lit lit_not(Lit l) noexcept { return l ^ 1u; }
constexpr Lit lit_make(Node n, bool complemented = false) noexcept {
  return 2 * n + static_cast<Lit>(complemented);
}
/// Conditional complement.
constexpr Lit lit_notif(Lit l, bool c) noexcept { return l ^ static_cast<Lit>(c); }

/// And-Inverter Graph.
class Aig {
 public:
  Aig();

  // ---- construction ----------------------------------------------------

  /// Appends a primary input; returns its (positive) literal.
  Lit add_pi(std::string name = {});

  /// Appends a structurally hashed AND node (with local simplification);
  /// returns its literal, possibly an existing node or a constant.
  Lit add_and(Lit a, Lit b);

  // Derived connectives, all built on add_and.
  Lit add_or(Lit a, Lit b) { return lit_not(add_and(lit_not(a), lit_not(b))); }
  Lit add_nand(Lit a, Lit b) { return lit_not(add_and(a, b)); }
  Lit add_nor(Lit a, Lit b) { return add_and(lit_not(a), lit_not(b)); }
  Lit add_xor(Lit a, Lit b) {
    return add_or(add_and(a, lit_not(b)), add_and(lit_not(a), b));
  }
  Lit add_xnor(Lit a, Lit b) { return lit_not(add_xor(a, b)); }
  /// MUX: sel ? t : e.
  Lit add_mux(Lit sel, Lit t, Lit e) {
    return add_or(add_and(sel, t), add_and(lit_not(sel), e));
  }
  /// Balanced AND/OR over a span of literals (empty AND = true, empty OR = false).
  Lit add_and_multi(std::span<const Lit> lits);
  Lit add_or_multi(std::span<const Lit> lits);
  Lit add_xor_multi(std::span<const Lit> lits);

  /// Appends a primary output driven by \p l. Returns the PO index.
  uint32_t add_po(Lit l, std::string name = {});

  /// Redirects an existing PO to a new driver (used when substituting
  /// patches).
  void set_po(uint32_t po_index, Lit l);

  // ---- inspection --------------------------------------------------------

  uint32_t num_nodes() const noexcept { return static_cast<uint32_t>(fanin0_.size()); }
  uint32_t num_pis() const noexcept { return num_pis_; }
  uint32_t num_pos() const noexcept { return static_cast<uint32_t>(pos_.size()); }
  uint32_t num_ands() const noexcept { return num_nodes() - 1 - num_pis_; }

  bool is_const0(Node n) const noexcept { return n == 0; }
  bool is_pi(Node n) const noexcept { return n >= 1 && n <= num_pis_; }
  bool is_and(Node n) const noexcept { return n > num_pis_; }

  /// Fanins of an AND node.
  Lit fanin0(Node n) const noexcept { return fanin0_[n]; }
  Lit fanin1(Node n) const noexcept { return fanin1_[n]; }

  /// PI accessors. PI indices run 0..num_pis()-1; node = index+1.
  Lit pi_lit(uint32_t pi_index) const noexcept { return lit_make(pi_index + 1); }
  Node pi_node(uint32_t pi_index) const noexcept { return pi_index + 1; }
  /// Index of a PI node (inverse of pi_node). \pre is_pi(n).
  uint32_t pi_index(Node n) const noexcept { return n - 1; }
  const std::string& pi_name(uint32_t pi_index) const { return pi_names_[pi_index]; }
  void set_pi_name(uint32_t pi_index, std::string name) { pi_names_[pi_index] = std::move(name); }

  Lit po_lit(uint32_t po_index) const noexcept { return pos_[po_index]; }
  const std::string& po_name(uint32_t po_index) const { return po_names_[po_index]; }
  void set_po_name(uint32_t po_index, std::string name) {
    po_names_[po_index] = std::move(name);
  }

  /// Logic level of each node (PIs/const at level 0).
  std::vector<uint32_t> levels() const;

  /// Number of AND nodes in the transitive fanin cones of \p roots.
  uint32_t cone_size(std::span<const Lit> roots) const;

  // ---- whole-graph operations -------------------------------------------

  /// Returns a copy with dangling AND nodes (not reaching any PO) removed.
  /// PI/PO order and names are preserved.
  Aig cleanup() const;

 private:
  /// Doubles the structural hash and reinserts every AND node in index order.
  void grow_strash();

  uint32_t num_pis_ = 0;
  std::vector<Lit> fanin0_;  // per node; kLitInvalid for PIs
  std::vector<Lit> fanin1_;
  std::vector<Lit> pos_;
  std::vector<std::string> pi_names_;
  std::vector<std::string> po_names_;
  /// Structural hash: linear probing over AND node indices, 0 marking an
  /// empty slot (node 0 is never an AND). A slot's key (fanin0, fanin1) is
  /// read back from its node; the capacity is a power of two (or 0 before
  /// the first AND) and the table is kept at most half full.
  std::vector<Node> strash_;
};

}  // namespace eco::aig
