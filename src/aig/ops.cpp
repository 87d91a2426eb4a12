#include "aig/ops.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace eco::aig {

namespace {

/// Marks a cone node in `map` while transfer collects it. No dst literal
/// takes this value (it would need 2^31 dst nodes).
constexpr Lit kLitPending = kLitInvalid - 1;

}  // namespace

std::vector<Lit> transfer(const Aig& src, Aig& dst, std::span<const Lit> roots,
                          std::vector<Lit>& map) {
  map.resize(src.num_nodes(), kLitInvalid);
  map[0] = kLitFalse;
  // Collect the unmapped cone, marking it in `map` itself and keeping its
  // index range, so a call scans only the range its new nodes span.
  std::vector<Node> stack;
  Node first = src.num_nodes();
  Node last = 0;
  for (const Lit r : roots) stack.push_back(lit_node(r));
  while (!stack.empty()) {
    const Node n = stack.back();
    stack.pop_back();
    if (map[n] != kLitInvalid) continue;
    if (!src.is_and(n)) {
      for (Node m = first; m <= last; ++m)
        if (map[m] == kLitPending) map[m] = kLitInvalid;
      throw std::invalid_argument("transfer: PI node " + std::to_string(n) +
                                  " has no preset mapping");
    }
    map[n] = kLitPending;
    first = std::min(first, n);
    last = std::max(last, n);
    stack.push_back(lit_node(src.fanin0(n)));
    stack.push_back(lit_node(src.fanin1(n)));
  }
  // Build in topological (index) order, so dst gets its nodes in the same
  // order as from a full scan.
  for (Node n = first; n <= last; ++n) {
    if (map[n] != kLitPending) continue;
    const Lit a = src.fanin0(n);
    const Lit b = src.fanin1(n);
    map[n] = dst.add_and(lit_notif(map[lit_node(a)], lit_compl(a)),
                         lit_notif(map[lit_node(b)], lit_compl(b)));
  }
  std::vector<Lit> out;
  out.reserve(roots.size());
  for (const Lit r : roots) out.push_back(lit_notif(map[lit_node(r)], lit_compl(r)));
  return out;
}

std::vector<Lit> append(const Aig& src, Aig& dst, std::span<const Lit> pi_map) {
  assert(pi_map.size() == src.num_pis());
  std::vector<Lit> map(src.num_nodes(), kLitInvalid);
  map[0] = kLitFalse;
  for (uint32_t i = 0; i < src.num_pis(); ++i) map[src.pi_node(i)] = pi_map[i];
  std::vector<Lit> roots;
  roots.reserve(src.num_pos());
  for (uint32_t i = 0; i < src.num_pos(); ++i) roots.push_back(src.po_lit(i));
  return transfer(src, dst, roots, map);
}

Aig cofactor_pis(const Aig& src, std::span<const std::pair<uint32_t, bool>> fixed) {
  Aig out;
  std::vector<Lit> pi_map;
  pi_map.reserve(src.num_pis());
  for (uint32_t i = 0; i < src.num_pis(); ++i) pi_map.push_back(out.add_pi(src.pi_name(i)));
  for (const auto& [pi, value] : fixed) {
    assert(pi < pi_map.size());
    pi_map[pi] = value ? kLitTrue : kLitFalse;
  }
  const std::vector<Lit> pos = append(src, out, pi_map);
  for (uint32_t i = 0; i < src.num_pos(); ++i) out.add_po(pos[i], src.po_name(i));
  return out;
}

Aig compose_pi(const Aig& src, uint32_t pi_index, Lit func_root) {
  Aig out;
  std::vector<Lit> pi_map;
  pi_map.reserve(src.num_pis());
  for (uint32_t i = 0; i < src.num_pis(); ++i) pi_map.push_back(out.add_pi(src.pi_name(i)));
  // First place the replacement function (it may not depend on pi_index).
  std::vector<Lit> map(src.num_nodes(), kLitInvalid);
  map[0] = kLitFalse;
  for (uint32_t i = 0; i < src.num_pis(); ++i)
    if (i != pi_index) map[src.pi_node(i)] = pi_map[i];
  const Lit root[] = {func_root};
  const Lit replacement = transfer(src, out, root, map)[0];
  // Now map the substituted PI and transfer the POs.
  map[src.pi_node(pi_index)] = replacement;
  std::vector<Lit> roots;
  roots.reserve(src.num_pos());
  for (uint32_t i = 0; i < src.num_pos(); ++i) roots.push_back(src.po_lit(i));
  const std::vector<Lit> pos = transfer(src, out, roots, map);
  for (uint32_t i = 0; i < src.num_pos(); ++i) out.add_po(pos[i], src.po_name(i));
  return out;
}

Aig extract_cone(const Aig& src, Lit root) {
  Aig out;
  std::vector<Lit> pi_map;
  pi_map.reserve(src.num_pis());
  for (uint32_t i = 0; i < src.num_pis(); ++i) pi_map.push_back(out.add_pi(src.pi_name(i)));
  std::vector<Lit> map(src.num_nodes(), kLitInvalid);
  map[0] = kLitFalse;
  for (uint32_t i = 0; i < src.num_pis(); ++i) map[src.pi_node(i)] = pi_map[i];
  const Lit roots[] = {root};
  out.add_po(transfer(src, out, roots, map)[0], "f");
  return out;
}

bool interfaces_match(const Aig& a, const Aig& b) {
  return a.num_pis() == b.num_pis() && a.num_pos() == b.num_pos();
}

}  // namespace eco::aig
