#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/ops.hpp"
#include "aig/sim.hpp"
#include "aig/window.hpp"
#include "util/rng.hpp"

namespace eco::aig {
namespace {

TEST(AigLit, Helpers) {
  EXPECT_EQ(lit_node(kLitFalse), 0u);
  EXPECT_FALSE(lit_compl(kLitFalse));
  EXPECT_TRUE(lit_compl(kLitTrue));
  EXPECT_EQ(lit_not(kLitFalse), kLitTrue);
  EXPECT_EQ(lit_make(3, true), 7u);
  EXPECT_EQ(lit_notif(lit_make(3), true), lit_make(3, true));
  EXPECT_EQ(lit_notif(lit_make(3), false), lit_make(3));
}

TEST(Aig, ConstantSimplifications) {
  Aig g;
  const Lit a = g.add_pi("a");
  EXPECT_EQ(g.add_and(a, kLitFalse), kLitFalse);
  EXPECT_EQ(g.add_and(kLitFalse, a), kLitFalse);
  EXPECT_EQ(g.add_and(a, kLitTrue), a);
  EXPECT_EQ(g.add_and(kLitTrue, a), a);
  EXPECT_EQ(g.add_and(a, a), a);
  EXPECT_EQ(g.add_and(a, lit_not(a)), kLitFalse);
  EXPECT_EQ(g.num_ands(), 0u);
}

TEST(Aig, StructuralHashingSharesNodes) {
  Aig g;
  const Lit a = g.add_pi("a");
  const Lit b = g.add_pi("b");
  const Lit x = g.add_and(a, b);
  const Lit y = g.add_and(b, a);  // commuted
  EXPECT_EQ(x, y);
  EXPECT_EQ(g.num_ands(), 1u);
  const Lit z = g.add_and(lit_not(a), b);
  EXPECT_NE(x, z);
  EXPECT_EQ(g.num_ands(), 2u);
}

TEST(Aig, DerivedGatesTruthTables) {
  Aig g;
  const Lit a = g.add_pi("a");
  const Lit b = g.add_pi("b");
  g.add_po(g.add_and(a, b), "and");
  g.add_po(g.add_or(a, b), "or");
  g.add_po(g.add_xor(a, b), "xor");
  g.add_po(g.add_nand(a, b), "nand");
  g.add_po(g.add_nor(a, b), "nor");
  g.add_po(g.add_xnor(a, b), "xnor");
  const auto tts = po_truth_tables(g);
  EXPECT_EQ(tts[0][0], 0b1000u);
  EXPECT_EQ(tts[1][0], 0b1110u);
  EXPECT_EQ(tts[2][0], 0b0110u);
  EXPECT_EQ(tts[3][0], 0b0111u);
  EXPECT_EQ(tts[4][0], 0b0001u);
  EXPECT_EQ(tts[5][0], 0b1001u);
}

TEST(Aig, MuxTruthTable) {
  Aig g;
  const Lit s = g.add_pi("s");
  const Lit t = g.add_pi("t");
  const Lit e = g.add_pi("e");
  g.add_po(g.add_mux(s, t, e), "mux");
  // Minterm order: s is PI0 (bit0), t PI1, e PI2.
  const auto tt = truth_table(g, g.po_lit(0));
  for (uint32_t m = 0; m < 8; ++m) {
    const bool sv = m & 1, tv = m & 2, ev = m & 4;
    const bool expected = sv ? tv : ev;
    EXPECT_EQ(((tt[0] >> m) & 1) != 0, expected) << "minterm " << m;
  }
}

TEST(Aig, MultiInputGates) {
  Aig g;
  std::vector<Lit> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(g.add_pi());
  g.add_po(g.add_and_multi(ins), "and5");
  g.add_po(g.add_or_multi(ins), "or5");
  g.add_po(g.add_xor_multi(ins), "xor5");
  const auto tts = po_truth_tables(g);
  for (uint32_t m = 0; m < 32; ++m) {
    const int ones = __builtin_popcount(m);
    EXPECT_EQ(((tts[0][0] >> m) & 1) != 0, ones == 5);
    EXPECT_EQ(((tts[1][0] >> m) & 1) != 0, ones > 0);
    EXPECT_EQ(((tts[2][0] >> m) & 1) != 0, (ones % 2) == 1);
  }
}

TEST(Aig, EmptyMultiGates) {
  Aig g;
  EXPECT_EQ(g.add_and_multi({}), kLitTrue);
  EXPECT_EQ(g.add_or_multi({}), kLitFalse);
  EXPECT_EQ(g.add_xor_multi({}), kLitFalse);
}

TEST(Aig, LevelsAreMonotone) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit x = g.add_and(a, b);
  const Lit y = g.add_and(x, lit_not(a));
  g.add_po(y);
  const auto levels = g.levels();
  EXPECT_EQ(levels[lit_node(a)], 0u);
  EXPECT_EQ(levels[lit_node(x)], 1u);
  EXPECT_EQ(levels[lit_node(y)], 2u);
}

TEST(Aig, CleanupRemovesDanglingNodes) {
  Aig g;
  const Lit a = g.add_pi("a");
  const Lit b = g.add_pi("b");
  const Lit used = g.add_and(a, b);
  g.add_and(lit_not(a), lit_not(b));  // dangling
  g.add_po(used, "f");
  EXPECT_EQ(g.num_ands(), 2u);
  const Aig clean = g.cleanup();
  EXPECT_EQ(clean.num_ands(), 1u);
  EXPECT_EQ(clean.num_pis(), 2u);
  EXPECT_EQ(clean.num_pos(), 1u);
  EXPECT_EQ(clean.pi_name(0), "a");
  EXPECT_EQ(clean.po_name(0), "f");
  EXPECT_EQ(truth_table(clean, clean.po_lit(0))[0], truth_table(g, g.po_lit(0))[0]);
}

TEST(Aig, ConeSizeCountsSharedNodesOnce) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit x = g.add_and(a, b);
  const Lit y = g.add_and(x, lit_not(b));
  const Lit z = g.add_and(x, b);
  const Lit roots[] = {y, z};
  EXPECT_EQ(g.cone_size(roots), 3u);
}

TEST(AigOps, AppendPreservesFunction) {
  Aig src;
  const Lit a = src.add_pi("a");
  const Lit b = src.add_pi("b");
  src.add_po(src.add_xor(a, b), "x");

  Aig dst;
  const Lit p = dst.add_pi("p");
  const Lit q = dst.add_pi("q");
  const std::vector<Lit> pi_map = {p, q};
  const auto outs = append(src, dst, pi_map);
  dst.add_po(outs[0], "x");
  EXPECT_EQ(truth_table(dst, dst.po_lit(0))[0], 0b0110u);
}

TEST(AigOps, AppendWithInvertedAndConstantInputs) {
  Aig src;
  const Lit a = src.add_pi("a");
  const Lit b = src.add_pi("b");
  src.add_po(src.add_and(a, b), "f");

  Aig dst;
  const Lit p = dst.add_pi("p");
  dst.add_pi("q");
  const std::vector<Lit> pi_map = {lit_not(p), kLitTrue};  // f = !p & 1 = !p
  const auto outs = append(src, dst, pi_map);
  dst.add_po(outs[0], "f");
  const auto tt = truth_table(dst, dst.po_lit(0));
  EXPECT_EQ(tt[0] & 0xFu, 0b0101u);
}

TEST(AigOps, CofactorPis) {
  Aig g;
  const Lit a = g.add_pi("a");
  const Lit b = g.add_pi("b");
  const Lit c = g.add_pi("c");
  g.add_po(g.add_mux(a, b, c), "f");
  const std::pair<uint32_t, bool> fix1[] = {{0u, true}};  // a=1 -> f=b
  const Aig pos_cof = cofactor_pis(g, fix1);
  EXPECT_EQ(pos_cof.num_pis(), 3u);
  const auto tt = truth_table(pos_cof, pos_cof.po_lit(0));
  for (uint32_t m = 0; m < 8; ++m)
    EXPECT_EQ(((tt[0] >> m) & 1) != 0, (m & 2) != 0);
  const std::pair<uint32_t, bool> fix0[] = {{0u, false}};  // a=0 -> f=c
  const Aig neg_cof = cofactor_pis(g, fix0);
  const auto tt0 = truth_table(neg_cof, neg_cof.po_lit(0));
  for (uint32_t m = 0; m < 8; ++m)
    EXPECT_EQ(((tt0[0] >> m) & 1) != 0, (m & 4) != 0);
}

TEST(AigOps, ComposePiSubstitutesFunction) {
  Aig g;
  const Lit a = g.add_pi("a");
  const Lit b = g.add_pi("b");
  const Lit c = g.add_pi("c");
  g.add_po(g.add_and(a, b), "f");
  // Replace a by (b xor c): f = (b xor c) & b = b & !c.
  const Lit bxc = g.add_xor(b, c);
  const Aig composed = compose_pi(g, 0, bxc);
  const auto tt = truth_table(composed, composed.po_lit(0));
  for (uint32_t m = 0; m < 8; ++m) {
    const bool bv = m & 2, cv = m & 4;
    EXPECT_EQ(((tt[0] >> m) & 1) != 0, bv && !cv);
  }
}

TEST(AigOps, TransferThrowsOnUnmappedPi) {
  Aig src;
  const Lit a = src.add_pi("a");
  src.add_po(a, "f");
  Aig dst;
  std::vector<Lit> map;  // no PI mapping provided
  const Lit roots[] = {src.po_lit(0)};
  EXPECT_THROW(transfer(src, dst, roots, map), std::invalid_argument);
}

TEST(AigOps, TransferThrowLeavesMapUnchanged) {
  Aig src;
  const Lit a = src.add_pi("a");
  const Lit b = src.add_pi("b");
  const Lit c = src.add_pi("c");
  const Lit ab = src.add_and(a, b);
  const Lit cut = src.add_or(ab, lit_not(b));
  const Lit reach = src.add_or(cut, ab);
  const Lit root = src.add_and(reach, src.add_xor(cut, c));
  Aig dst;
  const Lit p = dst.add_pi("p");
  const Lit q = dst.add_pi("q");
  const Lit r = dst.add_pi("r");
  // PIs a and b plus one AND node preset, the way build_patch_module cuts
  // patch cones at divisor nodes; PI c stays unmapped.
  std::vector<Lit> map(src.num_nodes(), kLitInvalid);
  map[0] = kLitFalse;
  map[lit_node(a)] = p;
  map[lit_node(b)] = q;
  map[lit_node(cut)] = lit_notif(r, lit_compl(cut));
  const std::vector<Lit> before = map;
  const uint32_t dst_nodes = dst.num_nodes();
  const Lit roots[] = {root};
  EXPECT_THROW(transfer(src, dst, roots, map), std::invalid_argument);
  EXPECT_EQ(map, before);
  EXPECT_EQ(dst.num_nodes(), dst_nodes);
  // A valid follow-up call on the same map succeeds: reach = r | (p & q).
  const Lit ok_roots[] = {reach};
  const std::vector<Lit> out = transfer(src, dst, ok_roots, map);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(truth_table(dst, out[0]), truth_table(dst, dst.add_or(r, dst.add_and(p, q))));
}

TEST(AigOps, ExtractConeKeepsInterface) {
  Aig g;
  const Lit a = g.add_pi("a");
  const Lit b = g.add_pi("b");
  const Lit c = g.add_pi("c");
  (void)c;
  const Lit f = g.add_or(a, b);
  const Aig cone = extract_cone(g, f);
  EXPECT_EQ(cone.num_pis(), 3u);
  EXPECT_EQ(cone.num_pos(), 1u);
  const auto tt = truth_table(cone, cone.po_lit(0));
  for (uint32_t m = 0; m < 8; ++m)
    EXPECT_EQ(((tt[0] >> m) & 1) != 0, (m & 1) || (m & 2));
}

TEST(AigSim, SimulateMatchesEval) {
  Rng rng(5);
  Aig g;
  std::vector<Lit> pis;
  for (int i = 0; i < 8; ++i) pis.push_back(g.add_pi());
  std::vector<Lit> pool = pis;
  for (int i = 0; i < 40; ++i) {
    const Lit x = pool[rng.below(pool.size())];
    const Lit y = pool[rng.below(pool.size())];
    pool.push_back(g.add_and(lit_notif(x, rng.chance(1, 2)), lit_notif(y, rng.chance(1, 2))));
  }
  for (int i = 0; i < 4; ++i) g.add_po(pool[pool.size() - 1 - static_cast<size_t>(i)]);

  const std::vector<uint64_t> pi_words = random_pi_words(g, rng);
  const auto words = simulate(g, pi_words);
  for (int bit = 0; bit < 8; ++bit) {
    std::vector<bool> pattern(g.num_pis());
    for (uint32_t i = 0; i < g.num_pis(); ++i)
      pattern[i] = ((pi_words[i] >> bit) & 1ULL) != 0;
    const auto po_values = eval(g, pattern);
    for (uint32_t i = 0; i < g.num_pos(); ++i)
      EXPECT_EQ(po_values[i], ((sim_value(words, g.po_lit(i)) >> bit) & 1ULL) != 0);
  }
}

TEST(AigSim, TruthTableRejectsWidePis) {
  Aig g;
  for (int i = 0; i < 17; ++i) g.add_pi();
  g.add_po(kLitTrue);
  EXPECT_THROW(truth_table(g, kLitTrue), std::invalid_argument);
}

TEST(AigWindow, TfiMarksExactCone) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit x = g.add_and(a, b);
  const Lit y = g.add_and(b, c);
  g.add_po(x);
  g.add_po(y);
  const Node roots[] = {lit_node(x)};
  const auto mark = tfi_mark(g, roots);
  EXPECT_TRUE(mark[lit_node(x)]);
  EXPECT_TRUE(mark[lit_node(a)]);
  EXPECT_TRUE(mark[lit_node(b)]);
  EXPECT_FALSE(mark[lit_node(c)]);
  EXPECT_FALSE(mark[lit_node(y)]);
}

TEST(AigWindow, TfoMarksDownstream) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit x = g.add_and(a, b);
  const Lit y = g.add_and(x, c);
  const Lit z = g.add_and(b, c);
  g.add_po(y);
  g.add_po(z);
  const Node seeds[] = {lit_node(x)};
  const auto mark = tfo_mark(g, seeds);
  EXPECT_TRUE(mark[lit_node(x)]);
  EXPECT_TRUE(mark[lit_node(y)]);
  EXPECT_FALSE(mark[lit_node(z)]);
  const auto pos = tfo_pos(g, seeds);
  ASSERT_EQ(pos.size(), 1u);
  EXPECT_EQ(pos[0], 0u);
}

TEST(AigWindow, SupportPis) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  (void)a;
  const Lit y = g.add_and(b, c);
  g.add_po(y);
  const Lit roots[] = {y};
  const auto support = support_pis(g, roots);
  EXPECT_EQ(support, (std::vector<uint32_t>{1, 2}));
}

// Property: random AIG, cleanup preserves all PO functions.
class AigRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(AigRandomTest, CleanupPreservesFunctions) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  Aig g;
  std::vector<Lit> pool;
  const int num_pis = 4 + static_cast<int>(rng.below(6));
  for (int i = 0; i < num_pis; ++i) pool.push_back(g.add_pi());
  for (int i = 0; i < 60; ++i) {
    const Lit x = pool[rng.below(pool.size())];
    const Lit y = pool[rng.below(pool.size())];
    pool.push_back(g.add_and(lit_notif(x, rng.chance(1, 2)), lit_notif(y, rng.chance(1, 2))));
  }
  for (int i = 0; i < 3; ++i)
    g.add_po(lit_notif(pool[rng.below(pool.size())], rng.chance(1, 2)));
  const Aig clean = g.cleanup();
  EXPECT_LE(clean.num_ands(), g.num_ands());
  const auto tts_before = po_truth_tables(g);
  const auto tts_after = po_truth_tables(clean);
  EXPECT_EQ(tts_before, tts_after);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AigRandomTest, ::testing::Range(0, 10));

// ---- transfer differential -----------------------------------------------

/// The original transfer: marks the cone in an array the size of src and
/// scans every node. Kept as the reference the cone-sized transfer must
/// match literal for literal and node for node.
std::vector<Lit> reference_transfer(const Aig& src, Aig& dst, std::span<const Lit> roots,
                                    std::vector<Lit>& map) {
  map.resize(src.num_nodes(), kLitInvalid);
  map[0] = kLitFalse;
  std::vector<uint8_t> need(src.num_nodes(), 0);
  std::vector<Node> stack;
  for (const Lit r : roots) stack.push_back(lit_node(r));
  while (!stack.empty()) {
    const Node n = stack.back();
    stack.pop_back();
    if (need[n] || map[n] != kLitInvalid) continue;
    need[n] = 1;
    if (src.is_and(n)) {
      stack.push_back(lit_node(src.fanin0(n)));
      stack.push_back(lit_node(src.fanin1(n)));
    } else if (src.is_pi(n)) {
      throw std::invalid_argument("transfer: PI node " + std::to_string(n) +
                                  " has no preset mapping");
    }
  }
  for (Node n = 1; n < src.num_nodes(); ++n) {
    if (!need[n] || !src.is_and(n)) continue;
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

Aig random_aig(Rng& rng, int num_pis, int num_ands) {
  Aig g;
  std::vector<Lit> pool;
  for (int i = 0; i < num_pis; ++i) pool.push_back(g.add_pi());
  for (int i = 0; i < num_ands; ++i) {
    // Favour recent nodes so the graph gets deep as well as wide.
    const size_t lo = rng.chance(1, 2) ? pool.size() - std::min<size_t>(pool.size(), 16) : 0;
    const Lit x = pool[lo + rng.below(pool.size() - lo)];
    const Lit y = pool[rng.below(pool.size())];
    pool.push_back(g.add_and(lit_notif(x, rng.chance(1, 2)), lit_notif(y, rng.chance(1, 2))));
  }
  return g;
}

std::vector<Lit> random_roots(Rng& rng, const Aig& g) {
  std::vector<Lit> roots(1 + rng.below(6));
  for (Lit& r : roots) r = lit_make(static_cast<Node>(rng.below(g.num_nodes())), rng.chance(1, 2));
  return roots;
}

void expect_same_aig(const Aig& a, const Aig& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_pis(), b.num_pis());
  for (Node n = a.num_pis() + 1; n < a.num_nodes(); ++n) {
    EXPECT_EQ(a.fanin0(n), b.fanin0(n)) << "node " << n;
    EXPECT_EQ(a.fanin1(n), b.fanin1(n)) << "node " << n;
  }
}

/// Runs transfer and the reference on twin (dst, map) states and checks that
/// both return the same literals (or both throw) and leave the same state.
void expect_transfer_matches(const Aig& src, std::span<const Lit> roots, Aig& dst,
                             std::vector<Lit>& map, Aig& ref_dst, std::vector<Lit>& ref_map) {
  std::vector<Lit> got, want;
  bool threw = false, ref_threw = false;
  try {
    got = transfer(src, dst, roots, map);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  try {
    want = reference_transfer(src, ref_dst, roots, ref_map);
  } catch (const std::invalid_argument&) {
    ref_threw = true;
  }
  EXPECT_EQ(threw, ref_threw);
  EXPECT_EQ(got, want);
  EXPECT_EQ(map, ref_map);
  expect_same_aig(dst, ref_dst);
}

void check_transfer_against_reference(uint64_t seed) {
  Rng rng(seed);
  const int num_pis = 2 + static_cast<int>(rng.below(10));
  const Aig src = random_aig(rng, num_pis, 10 + static_cast<int>(rng.below(300)));
  Aig dst;
  for (int i = 0; i < 4; ++i) dst.add_pi();
  Aig ref_dst = dst;

  // One map shared by several calls: PIs preset (a few dropped or sent to
  // constants), plus some AND nodes preset as cuts onto dst PIs.
  std::vector<Lit> map(src.num_nodes(), kLitInvalid);
  map[0] = kLitFalse;
  for (uint32_t i = 0; i < src.num_pis(); ++i) {
    if (rng.chance(1, 12)) continue;
    map[src.pi_node(i)] = rng.chance(1, 8) ? static_cast<Lit>(rng.below(2))
                                           : lit_make(1 + rng.below(4), rng.chance(1, 2));
  }
  const uint64_t cut_den = 1 + rng.below(20);
  for (Node n = src.num_pis() + 1; n < src.num_nodes(); ++n)
    if (rng.chance(1, cut_den)) map[n] = lit_make(1 + rng.below(4), rng.chance(1, 2));
  std::vector<Lit> ref_map = map;

  const int calls = 1 + static_cast<int>(rng.below(5));
  for (int c = 0; c < calls; ++c) {
    const std::vector<Lit> roots = random_roots(rng, src);
    expect_transfer_matches(src, roots, dst, map, ref_dst, ref_map);
  }
  // Whole-graph transfer over the same map, then into a fresh map with
  // every PI mapped (the append pattern).
  std::vector<Lit> all;
  for (Node n = 0; n < src.num_nodes(); ++n) all.push_back(lit_make(n));
  expect_transfer_matches(src, all, dst, map, ref_dst, ref_map);
  std::vector<Lit> fresh(src.num_nodes(), kLitInvalid), ref_fresh;
  fresh[0] = kLitFalse;
  for (uint32_t i = 0; i < src.num_pis(); ++i) fresh[src.pi_node(i)] = lit_make(1 + i % 4);
  ref_fresh = fresh;
  expect_transfer_matches(src, random_roots(rng, src), dst, fresh, ref_dst, ref_fresh);
  expect_transfer_matches(src, all, dst, fresh, ref_dst, ref_fresh);
}

// Random AIGs with random root sets, PI maps with gaps and constants, AND
// nodes preset as cuts, and several calls sharing one map and one dst.
TEST(AigOps, TransferMatchesReference) {
  for (uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    check_transfer_against_reference(seed);
  }
}

// ---- strash differential -------------------------------------------------

/// The original structural hash: an unordered_map from the ordered fanin
/// pair to its node. Kept as the reference the flat table must match literal
/// for literal; the derived connectives repeat Aig's definitions.
class ReferenceStrash {
 public:
  Lit add_pi() {
    fanins_.emplace_back(kLitInvalid, kLitInvalid);
    return lit_make(num_nodes() - 1);
  }
  Lit add_and(Lit a, Lit b) {
    if (a == kLitFalse || b == kLitFalse || a == lit_not(b)) return kLitFalse;
    if (a == kLitTrue) return b;
    if (b == kLitTrue) return a;
    if (a == b) return a;
    if (a > b) std::swap(a, b);
    const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
    if (const auto it = strash_.find(key); it != strash_.end()) return lit_make(it->second);
    const Node n = num_nodes();
    fanins_.emplace_back(a, b);
    strash_.emplace(key, n);
    return lit_make(n);
  }
  Lit add_or(Lit a, Lit b) { return lit_not(add_and(lit_not(a), lit_not(b))); }
  Lit add_xor(Lit a, Lit b) { return add_or(add_and(a, lit_not(b)), add_and(lit_not(a), b)); }
  Lit add_mux(Lit sel, Lit t, Lit e) { return add_or(add_and(sel, t), add_and(lit_not(sel), e)); }
  Lit add_and_multi(std::span<const Lit> lits) {
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
  Lit add_or_multi(std::span<const Lit> lits) {
    std::vector<Lit> inv;
    for (const Lit l : lits) inv.push_back(lit_not(l));
    return lit_not(add_and_multi(inv));
  }
  Lit add_xor_multi(std::span<const Lit> lits) {
    Lit acc = kLitFalse;
    for (const Lit l : lits) acc = add_xor(acc, l);
    return acc;
  }
  uint32_t num_nodes() const { return static_cast<uint32_t>(fanins_.size()); }
  const std::pair<Lit, Lit>& fanins(Node n) const { return fanins_[n]; }

 private:
  std::vector<std::pair<Lit, Lit>> fanins_{{kLitInvalid, kLitInvalid}};
  std::unordered_map<uint64_t, Node> strash_;
};

/// Applies \p steps random calls to \p g and \p ref alike and checks that
/// each returns the same literal. \p pool holds literals both have returned
/// (constant false included); new results join it.
void extend_against_reference(Rng& rng, Aig& g, ReferenceStrash& ref, std::vector<Lit>& pool,
                              int steps) {
  const auto pick = [&] { return lit_notif(pool[rng.below(pool.size())], rng.chance(1, 2)); };
  std::vector<std::pair<Lit, Lit>> pairs;
  for (int s = 0; s < steps; ++s) {
    Lit got = kLitInvalid, want = kLitInvalid;
    switch (rng.below(8)) {
      case 0:
      case 1:
      case 2: {
        Lit a = pick(), b = pick();
        switch (rng.below(10)) {
          case 0:  // a pair seen before, operands swapped
            if (!pairs.empty()) std::tie(b, a) = pairs[rng.below(pairs.size())];
            break;
          case 1: b = a; break;
          case 2: b = lit_not(a); break;
          case 3: b = static_cast<Lit>(rng.below(2)); break;
          default: break;
        }
        pairs.emplace_back(a, b);
        got = g.add_and(a, b);
        want = ref.add_and(a, b);
        break;
      }
      case 3: {
        const Lit a = pick(), b = pick();
        got = g.add_or(a, b);
        want = ref.add_or(a, b);
        break;
      }
      case 4: {
        const Lit a = pick(), b = pick();
        got = g.add_xor(a, b);
        want = ref.add_xor(a, b);
        break;
      }
      case 5: {
        const Lit sel = pick(), t = pick(), e = pick();
        got = g.add_mux(sel, t, e);
        want = ref.add_mux(sel, t, e);
        break;
      }
      default: {
        std::vector<Lit> lits(rng.below(7));
        for (Lit& l : lits) l = pick();
        const uint64_t kind = rng.below(3);
        got = kind == 0 ? g.add_and_multi(lits) : kind == 1 ? g.add_or_multi(lits)
                                                            : g.add_xor_multi(lits);
        want = kind == 0 ? ref.add_and_multi(lits) : kind == 1 ? ref.add_or_multi(lits)
                                                               : ref.add_xor_multi(lits);
        break;
      }
    }
    ASSERT_EQ(got, want) << "step " << s;
    pool.push_back(got);
  }
}

void expect_same_nodes(const Aig& g, const ReferenceStrash& ref) {
  ASSERT_EQ(g.num_nodes(), ref.num_nodes());
  for (Node n = g.num_pis() + 1; n < g.num_nodes(); ++n) {
    EXPECT_EQ(g.fanin0(n), ref.fanins(n).first) << "node " << n;
    EXPECT_EQ(g.fanin1(n), ref.fanins(n).second) << "node " << n;
  }
}

/// Every AND node's fanin pair, in either order, must hash back to it.
void expect_every_and_found(Aig& g) {
  const uint32_t nodes = g.num_nodes();
  for (Node n = g.num_pis() + 1; n < nodes; ++n) {
    EXPECT_EQ(g.add_and(g.fanin0(n), g.fanin1(n)), lit_make(n));
    EXPECT_EQ(g.add_and(g.fanin1(n), g.fanin0(n)), lit_make(n));
  }
  EXPECT_EQ(g.num_nodes(), nodes);
}

// Seeded random sequences of add_and (constants, complements, repeated and
// degenerate pairs) and derived connectives, through many table growths
// (seed 0 builds about 26,000 AND nodes, growing the table from 64 slots ten
// times); halfway, a copy is extended on its own while the original must
// stay as it was.
TEST(Aig, StrashMatchesReference) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed + 7000);
    Aig g;
    ReferenceStrash ref;
    std::vector<Lit> pool{kLitFalse};
    const int num_pis = 2 + static_cast<int>(rng.below(11));
    for (int i = 0; i < num_pis; ++i) {
      const Lit pi = g.add_pi();
      ASSERT_EQ(pi, ref.add_pi());
      pool.push_back(pi);
    }
    const int steps = seed == 0 ? 40000 : 1 + static_cast<int>(rng.below(3000));
    extend_against_reference(rng, g, ref, pool, steps / 2);

    Aig copy = random_aig(rng, 3, 50);  // assigned over: its own table goes
    copy = g;
    ReferenceStrash ref_copy = ref;
    std::vector<Lit> copy_pool = pool;
    const uint32_t nodes = g.num_nodes();
    extend_against_reference(rng, copy, ref_copy, copy_pool, steps - steps / 2);
    EXPECT_EQ(g.num_nodes(), nodes);
    expect_every_and_found(g);
    expect_same_nodes(g, ref);

    extend_against_reference(rng, g, ref, pool, steps - steps / 2);
    Aig copy_of_copy(copy);
    expect_every_and_found(copy_of_copy);
    expect_same_nodes(g, ref);
    expect_same_nodes(copy, ref_copy);
    expect_same_nodes(copy_of_copy, ref_copy);
  }
}

}  // namespace
}  // namespace eco::aig
