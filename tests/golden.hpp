// Shared helpers of the golden-digest tests (test_net_golden.cpp,
// test_eco_golden.cpp): an FNV-1a digest over a canonical byte stream and
// the node-for-node fold of an AIG. A recorded digest must never move
// without a deliberate format change, so these helpers must not change.
#pragma once

#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "aig/aig.hpp"

namespace eco::golden {

/// FNV-1a over a canonical byte stream.
class Digest {
 public:
  void bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline std::string hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

/// Folds \p g node for node: sizes, every AND's fanins, PI names, PO drivers
/// and PO names.
inline void fold_aig(Digest& d, const aig::Aig& g) {
  d.u64(g.num_nodes());
  d.u64(g.num_pis());
  for (aig::Node n = g.num_pis() + 1; n < g.num_nodes(); ++n) {
    d.u64(g.fanin0(n));
    d.u64(g.fanin1(n));
  }
  for (uint32_t i = 0; i < g.num_pis(); ++i) d.str(g.pi_name(i));
  d.u64(g.num_pos());
  for (uint32_t i = 0; i < g.num_pos(); ++i) {
    d.u64(g.po_lit(i));
    d.str(g.po_name(i));
  }
}

}  // namespace eco::golden
