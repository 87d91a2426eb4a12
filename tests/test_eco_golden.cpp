// Golden digests for structural pruning and cone transfer. The expected
// values below were recorded once and must never move without a deliberate
// change to the engine's work:
//  - WindowDigests: core::compute_window on suite units. The digest covers
//    the affected POs, window PIs, divisor indices and the outside verdict,
//    so a faster window that picks a different divisor set or verdict shows
//    up here.
//  - TransferDigests: the AIGs that aig::transfer builds, folded node for
//    node: ECO miters over all POs plus every divisor and over the window
//    POs, target quantification and substitution on multi-target units, and
//    cofactor_pis, compose_pi and extract_cone. Every AIG built downstream
//    of transfer depends on the order it creates nodes in, so this pins it.
//  - UnquantifiedMiterEqualsItsRebuild: quantify_targets returns a miter
//    with nothing to quantify as it is; on the suite units that equals a
//    rebuild of the miter through transfer, node for node.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "aig/ops.hpp"
#include "benchgen/suite.hpp"
#include "eco/miter.hpp"
#include "eco/problem.hpp"
#include "eco/window.hpp"
#include "golden.hpp"

namespace eco::core {
namespace {

using golden::Digest;
using golden::fold_aig;
using golden::hex;

EcoProblem unit_problem(int index, int scale) {
  const benchgen::EcoUnit u = benchgen::make_unit(index, 20170912, scale);
  return make_problem(u.impl, u.spec, u.weights);
}

template <typename T>
void fold_list(Digest& d, const std::vector<T>& v) {
  d.u64(v.size());
  for (const T x : v) d.u64(static_cast<uint64_t>(x));
}

uint64_t window_digest(const Window& w) {
  Digest d;
  fold_list(d, w.affected_pos);
  fold_list(d, w.window_pis);
  fold_list(d, w.divisor_indices);
  d.u64(0);  // size of a since-removed, always empty list: keeps the digests
  d.u64(w.outside_equal ? 1 : 0);
  d.u64(w.mismatch_po);
  return d.value();
}

void fold_miter(Digest& d, const EcoMiter& m) {
  fold_aig(d, m.aig);
  d.u64(m.num_x);
  d.u64(m.num_targets);
  d.u64(m.out);
  fold_list(d, m.divisor_lits);
}

/// Folds every transfer-built AIG derived from one problem.
uint64_t transfer_digest(const EcoProblem& p) {
  Digest d;
  fold_miter(d, build_eco_miter(p.impl, p.spec, p.divisors));
  const Window w = compute_window(p);
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors, w.affected_pos);
  fold_miter(d, m);
  // A divisor lies outside every target's TFO, so it may replace a target.
  const aig::Lit func = p.divisors.empty() ? aig::kLitFalse : p.divisors.back().lit;
  if (p.num_targets() >= 2) {
    std::vector<uint32_t> rest;
    for (uint32_t t = 1; t < p.num_targets(); ++t) rest.push_back(t);
    try {
      fold_miter(d, quantify_targets(m, rest, 4'000'000));
    } catch (const std::runtime_error&) {
      d.str("quantify overflow");
    }
    const aig::Lit func_in_m = m.divisor_lits.empty() ? aig::kLitFalse : m.divisor_lits.back();
    fold_miter(d, substitute_target_in_miter(m, 0, func_in_m));
  }
  const std::pair<uint32_t, bool> fixed[] = {{0u, true}, {p.target_pi(0), false}};
  fold_aig(d, aig::cofactor_pis(p.impl, fixed));
  fold_aig(d, aig::compose_pi(p.impl, p.target_pi(0), func));
  fold_aig(d, aig::extract_cone(p.impl, p.impl.po_lit(0)));
  fold_aig(d, aig::extract_cone(p.spec, p.spec.po_lit(p.spec.num_pos() - 1)));
  return d.value();
}

uint64_t miter_digest(const EcoMiter& m) {
  Digest d;
  fold_miter(d, m);
  return d.value();
}

/// \p m transferred into a fresh AIG over the same PIs, from its output and
/// every divisor, in that order.
EcoMiter identity_rebuild(const EcoMiter& m) {
  EcoMiter out;
  out.num_x = m.num_x;
  out.num_targets = m.num_targets;
  std::vector<aig::Lit> map(m.aig.num_nodes(), aig::kLitInvalid);
  map[0] = aig::kLitFalse;
  for (uint32_t i = 0; i < m.aig.num_pis(); ++i)
    map[m.aig.pi_node(i)] = out.aig.add_pi(m.aig.pi_name(i));
  std::vector<aig::Lit> roots = {m.out};
  roots.insert(roots.end(), m.divisor_lits.begin(), m.divisor_lits.end());
  const std::vector<aig::Lit> lits = aig::transfer(m.aig, out.aig, roots, map);
  out.out = lits[0];
  out.divisor_lits.assign(lits.begin() + 1, lits.end());
  out.aig.add_po(out.out, "miter");
  return out;
}

TEST(EcoGolden, WindowDigests) {
  struct Golden {
    int index;
    int scale;
    uint64_t digest;
  };
  const Golden golden[] = {
      {0, 1, 0xa9beabbee16bfbe5ULL},
      {1, 1, 0xeae040d063c27596ULL},
      {2, 1, 0x404c055c3850962cULL},
      {3, 1, 0xe3e88093294f6dc1ULL},
      {4, 1, 0x7c03b999093cfaadULL},
      {5, 1, 0x0033a1c6996da80bULL},
      {6, 1, 0xd8f4f47c26297b8aULL},
      {7, 1, 0x432bc9bfb5565bdcULL},
      {8, 1, 0x19ca87c9fefc04bbULL},
      {9, 1, 0x9f1bfcf30abed6b7ULL},
      {10, 1, 0x67da7d9f6be43a77ULL},
      {11, 1, 0x0e9b04c19ac2f166ULL},
      {12, 1, 0x7a7f6b3fc6d73d7dULL},
      {13, 1, 0x1a223bd19a077b83ULL},
      {14, 1, 0xfa6d11f6fe0f17f0ULL},
      {15, 1, 0x5a7a2e36f481821dULL},
      {16, 1, 0x15d546b4d7470affULL},
      {17, 1, 0xb5c4ef63c0f3c522ULL},
      {18, 1, 0xee6c89ef47bf7b46ULL},
      {19, 1, 0xf373db7ffd1bb3edULL},
      {1, 4, 0x7a24ec961712f5bcULL},
      {3, 4, 0xcac03c662d201ee7ULL},
      {14, 4, 0x207d6c3a38076260ULL},
      {1, 16, 0xcc7b1dd2945c58e4ULL},
      {3, 16, 0xb8dc4247ffdf3aa5ULL},
      {14, 16, 0xb14fb1112548189dULL},
  };
  for (const Golden& g : golden) {
    const uint64_t got = window_digest(compute_window(unit_problem(g.index, g.scale)));
    EXPECT_EQ(hex(got), hex(g.digest)) << "unit " << g.index << " at scale " << g.scale;
  }
}

TEST(EcoGolden, TransferDigests) {
  struct Golden {
    int index;
    int scale;
    uint64_t digest;
  };
  const Golden golden[] = {
      {0, 1, 0x2139c3b73e402927ULL},
      {1, 1, 0xdf7d0ca1d1f326ceULL},
      {2, 1, 0x5897ae9ce89b8f55ULL},
      {3, 1, 0x7f68d94b6829c53bULL},
      {4, 1, 0xf056b9a73f6a343aULL},
      {5, 1, 0x0924c3af99538558ULL},
      {6, 1, 0x1e96b2cd6d420572ULL},
      {7, 1, 0x3ce182bdc48fede8ULL},
      {8, 1, 0x589f86f509a242abULL},
      {9, 1, 0xa30a0e6dce26b528ULL},
      {10, 1, 0xc1c92299e2c60074ULL},
      {11, 1, 0xd8f25ca7221c07c0ULL},
      {12, 1, 0xf69d68b6ac028b68ULL},
      {13, 1, 0xc742be5d8a043a20ULL},
      {14, 1, 0xeb20a0e30205e0afULL},
      {15, 1, 0x8da7ee1de50d27f0ULL},
      {16, 1, 0xd2fd17abe2fb61eeULL},
      {17, 1, 0x7076334eab1bb234ULL},
      {18, 1, 0x32e3dd2b7f1d504cULL},
      {19, 1, 0x8ea7584fc98d3501ULL},
      {1, 4, 0xde3f9f14a6f94884ULL},
      {3, 4, 0x254e5ba4c8c92197ULL},
      {14, 4, 0x25b80163cd10ab31ULL},
  };
  for (const Golden& g : golden) {
    const uint64_t got = transfer_digest(unit_problem(g.index, g.scale));
    EXPECT_EQ(hex(got), hex(g.digest)) << "unit " << g.index << " at scale " << g.scale;
  }
}

TEST(EcoGolden, UnquantifiedMiterEqualsItsRebuild) {
  // Each single-target job, and the last target of every job, quantifies
  // nothing. Returning the miter as it is matches the rebuild when no node
  // lies outside the cones of its output and divisors. Checked on every unit
  // at scale 1 and on the scale-4 units of the digests above.
  std::vector<std::pair<int, int>> units = {{1, 4}, {3, 4}, {14, 4}};
  for (int index = 0; index < 20; ++index) units.emplace_back(index, 1);
  for (const auto& [index, scale] : units) {
    const EcoProblem p = unit_problem(index, scale);
    const Window w = compute_window(p);
    for (const std::vector<uint32_t>& pos : {std::vector<uint32_t>{}, w.affected_pos}) {
      const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors, pos);
      const uint64_t digest = miter_digest(m);
      EXPECT_EQ(hex(miter_digest(identity_rebuild(m))), hex(digest))
          << "unit " << index << " at scale " << scale << ", " << pos.size() << " POs";
      EXPECT_EQ(hex(miter_digest(quantify_targets(m, {}, 0))), hex(digest));
    }
  }
}

}  // namespace
}  // namespace eco::core
