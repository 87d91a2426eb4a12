#include "aig/aig.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace eco::aig {

namespace {

/// Capacity of the structural hash at the first AND node.
constexpr size_t kMinStrashSlots = 64;

/// Home slot of the key (a, b) in a table of \p slots (a power of two):
/// the top bits of the key times 2^64 / golden ratio.
size_t strash_slot(Lit a, Lit b, size_t slots) noexcept {
  const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
  return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> (64 - std::countr_zero(slots)));
}

}  // namespace

Aig::Aig() {
  // Node 0: constant false.
  fanin0_.push_back(kLitInvalid);
  fanin1_.push_back(kLitInvalid);
}

Lit Aig::add_pi(std::string name) {
  assert(num_ands() == 0 && "PIs must be created before AND nodes");
  const Node n = num_nodes();
  fanin0_.push_back(kLitInvalid);
  fanin1_.push_back(kLitInvalid);
  ++num_pis_;
  pi_names_.push_back(std::move(name));
  return lit_make(n);
}

Lit Aig::add_and(Lit a, Lit b) {
  assert(lit_node(a) < num_nodes() && lit_node(b) < num_nodes());
  // Local simplification.
  if (a == kLitFalse || b == kLitFalse || a == lit_not(b)) return kLitFalse;
  if (a == kLitTrue) return b;
  if (b == kLitTrue) return a;
  if (a == b) return a;
  if (a > b) std::swap(a, b);
  // Room for one more AND at most half full, so every probe ends at a gap.
  if (2 * (static_cast<size_t>(num_ands()) + 1) > strash_.size()) grow_strash();
  const size_t mask = strash_.size() - 1;
  size_t i = strash_slot(a, b, strash_.size());
  for (Node m; (m = strash_[i]) != 0; i = (i + 1) & mask)
    if (fanin0_[m] == a && fanin1_[m] == b) return lit_make(m);
  const Node n = num_nodes();
  fanin0_.push_back(a);
  fanin1_.push_back(b);
  strash_[i] = n;
  return lit_make(n);
}

void Aig::grow_strash() {
  strash_.assign(std::max(kMinStrashSlots, 2 * strash_.size()), 0);
  const size_t mask = strash_.size() - 1;
  for (Node n = num_pis_ + 1; n < num_nodes(); ++n) {
    size_t i = strash_slot(fanin0_[n], fanin1_[n], strash_.size());
    while (strash_[i] != 0) i = (i + 1) & mask;
    strash_[i] = n;
  }
}

Lit Aig::add_and_multi(std::span<const Lit> lits) {
  if (lits.empty()) return kLitTrue;
  std::vector<Lit> layer(lits.begin(), lits.end());
  while (layer.size() > 1) {
    std::vector<Lit> next;
    for (size_t i = 0; i + 1 < layer.size(); i += 2)
      next.push_back(add_and(layer[i], layer[i + 1]));
    if (layer.size() % 2 == 1) next.push_back(layer.back());
    layer = std::move(next);
  }
  return layer[0];
}

Lit Aig::add_or_multi(std::span<const Lit> lits) {
  std::vector<Lit> inv;
  inv.reserve(lits.size());
  for (const Lit l : lits) inv.push_back(lit_not(l));
  return lit_not(add_and_multi(inv));
}

Lit Aig::add_xor_multi(std::span<const Lit> lits) {
  Lit acc = kLitFalse;
  for (const Lit l : lits) acc = add_xor(acc, l);
  return acc;
}

uint32_t Aig::add_po(Lit l, std::string name) {
  assert(lit_node(l) < num_nodes());
  pos_.push_back(l);
  po_names_.push_back(std::move(name));
  return static_cast<uint32_t>(pos_.size()) - 1;
}

void Aig::set_po(uint32_t po_index, Lit l) {
  assert(po_index < pos_.size() && lit_node(l) < num_nodes());
  pos_[po_index] = l;
}

std::vector<uint32_t> Aig::levels() const {
  std::vector<uint32_t> level(num_nodes(), 0);
  for (Node n = num_pis_ + 1; n < num_nodes(); ++n)
    level[n] = 1 + std::max(level[lit_node(fanin0_[n])], level[lit_node(fanin1_[n])]);
  return level;
}

uint32_t Aig::cone_size(std::span<const Lit> roots) const {
  std::vector<uint8_t> mark(num_nodes(), 0);
  std::vector<Node> stack;
  for (const Lit r : roots) stack.push_back(lit_node(r));
  uint32_t count = 0;
  while (!stack.empty()) {
    const Node n = stack.back();
    stack.pop_back();
    if (mark[n]) continue;
    mark[n] = 1;
    if (!is_and(n)) continue;
    ++count;
    stack.push_back(lit_node(fanin0_[n]));
    stack.push_back(lit_node(fanin1_[n]));
  }
  return count;
}

Aig Aig::cleanup() const {
  Aig out;
  std::vector<Lit> map(num_nodes(), kLitInvalid);
  map[0] = kLitFalse;
  for (uint32_t i = 0; i < num_pis_; ++i) {
    const Lit l = out.add_pi(pi_names_[i]);
    map[pi_node(i)] = l;
  }
  // Mark reachable nodes from POs.
  std::vector<uint8_t> reach(num_nodes(), 0);
  std::vector<Node> stack;
  for (const Lit po : pos_) stack.push_back(lit_node(po));
  while (!stack.empty()) {
    const Node n = stack.back();
    stack.pop_back();
    if (reach[n]) continue;
    reach[n] = 1;
    if (is_and(n)) {
      stack.push_back(lit_node(fanin0_[n]));
      stack.push_back(lit_node(fanin1_[n]));
    }
  }
  // Rebuild reachable AND nodes in topological (index) order.
  for (Node n = num_pis_ + 1; n < num_nodes(); ++n) {
    if (!reach[n]) continue;
    const Lit a = fanin0_[n];
    const Lit b = fanin1_[n];
    map[n] = out.add_and(lit_notif(map[lit_node(a)], lit_compl(a)),
                         lit_notif(map[lit_node(b)], lit_compl(b)));
  }
  for (uint32_t i = 0; i < num_pos(); ++i) {
    const Lit po = pos_[i];
    out.add_po(lit_notif(map[lit_node(po)], lit_compl(po)), po_names_[i]);
  }
  return out;
}

}  // namespace eco::aig
