#include <gtest/gtest.h>

#include "aig/sim.hpp"
#include "eco/cegarmin.hpp"
#include "eco/miter.hpp"
#include "eco/structural.hpp"
#include "eco/window.hpp"
#include "net/verilog.hpp"

namespace eco::core {
namespace {

/// Implementation with a rich set of internal signals equivalent to parts of
/// a PI-based patch: old y = t | d, new y = ((a&b) ^ c) | d. The impl keeps
/// `ab = a & b` and `abx = ab ^ c`, so the patch cone over {a,b,c} can be
/// cut at `abx` (cost 1) instead of using three expensive PIs.
EcoProblem rich_problem() {
  const net::Network impl = net::parse_verilog_string(R"(
    module impl (a, b, c, d, t, y);
      input a, b, c, d, t;
      output y;
      or  g1 (y, t, d);
      and g2 (ab, a, b);
      xor g3 (abx, ab, c);
    endmodule
  )");
  const net::Network spec = net::parse_verilog_string(R"(
    module spec (a, b, c, d, y);
      input a, b, c, d;
      output y;
      and g1 (w1, a, b);
      xor g2 (w2, w1, c);
      or  g3 (y, w2, d);
    endmodule
  )");
  net::WeightMap weights;
  weights.weights = {{"a", 20}, {"b", 20}, {"c", 20}, {"d", 20}, {"ab", 5}, {"abx", 1}};
  return make_problem(impl, spec, weights);
}

TEST(CegarMin, FindsCheapEquivalentCut) {
  const EcoProblem p = rich_problem();
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  const StructuralPatches sp = structural_patch_single(m, 0);
  ASSERT_TRUE(sp.ok);
  // The PI-based patch is !d & ((a&b)^c): over PIs it costs 80 (a,b,c,d).
  const auto rewrites = cegar_min(p, sp.patch);
  ASSERT_EQ(rewrites.size(), 1u);
  ASSERT_TRUE(rewrites[0].used_cut);
  // The min cut replaces the (a&b)^c cone by `abx` (cost 1) and keeps the
  // PI d (cost 20): total 21, far below the 80 of the full PI support.
  EXPECT_EQ(rewrites[0].cut_cost, 21);
  ASSERT_EQ(rewrites[0].node_assignment.size(), 2u);
  std::vector<std::string> names;
  for (const auto& [node, assignment] : rewrites[0].node_assignment)
    names.push_back(p.divisors[assignment.first].name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"abx", "d"}));
}

TEST(CegarMin, RebuiltPatchIsFunctionallyCorrect) {
  const EcoProblem p = rich_problem();
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  const StructuralPatches sp = structural_patch_single(m, 0);
  const auto rewrites = cegar_min(p, sp.patch);
  ASSERT_TRUE(rewrites[0].used_cut);

  aig::Aig work = p.impl;
  const aig::Lit patch = rebuild_patch_on_cut(work, p.divisors, sp.patch, 0, rewrites[0]);
  work.add_po(patch, "patch");
  // Patch must equal (a&b)^c on the care set d=0 (d=1 is don't care since
  // y = t | d is 1 regardless of t).
  for (uint32_t mm = 0; mm < 16; ++mm) {
    const bool a = mm & 1, b = mm & 2, c = mm & 4, d = mm & 8;
    const std::vector<bool> in = {a, b, c, d, false};
    const bool value = aig::eval(work, in).back();
    if (!d) {
      EXPECT_EQ(value, (a && b) != c) << "minterm " << mm;
    }
  }
}

TEST(CegarMin, ComplementEquivalenceUsed) {
  // The impl only keeps the COMPLEMENT of the needed function; the cut must
  // still find it, using the divisor complemented.
  const net::Network impl = net::parse_verilog_string(R"(
    module impl (a, b, t, y);
      input a, b, t;
      output y;
      buf g1 (y, t);
      nand g2 (nab, a, b);
    endmodule
  )");
  const net::Network spec = net::parse_verilog_string(R"(
    module spec (a, b, y);
      input a, b;
      output y;
      and g1 (y, a, b);
    endmodule
  )");
  net::WeightMap weights;
  weights.weights = {{"a", 30}, {"b", 30}, {"nab", 1}};
  const EcoProblem p = make_problem(impl, spec, weights);
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  const StructuralPatches sp = structural_patch_single(m, 0);
  const auto rewrites = cegar_min(p, sp.patch);
  ASSERT_TRUE(rewrites[0].used_cut);
  EXPECT_EQ(rewrites[0].cut_cost, 1);
  const auto& [node, assignment] = rewrites[0].node_assignment[0];
  EXPECT_EQ(p.divisors[assignment.first].name, "nab");
  EXPECT_TRUE(assignment.second) << "divisor must be used complemented";

  aig::Aig work = p.impl;
  const aig::Lit patch = rebuild_patch_on_cut(work, p.divisors, sp.patch, 0, rewrites[0]);
  work.add_po(patch, "patch");
  for (uint32_t mm = 0; mm < 4; ++mm) {
    const bool a = mm & 1, b = mm & 2;
    EXPECT_EQ(aig::eval(work, {a, b, false}).back(), a && b);
  }
}

TEST(CegarMin, NoCutWhenNothingEquivalent) {
  // No internal logic: the patch cone PIs are the only candidates; they are
  // divisors themselves, so the "cut" is the PI set at PI cost — CEGAR_min
  // may keep or cut at PIs but cannot do better than their summed cost.
  const net::Network impl = net::parse_verilog_string(R"(
    module impl (a, b, t, y);
      input a, b, t;
      output y;
      or g1 (y, t, b);
    endmodule
  )");
  const net::Network spec = net::parse_verilog_string(R"(
    module spec (a, b, y);
      input a, b;
      output y;
      or g1 (w, a, b);
      buf g2 (y, w);
    endmodule
  )");
  net::WeightMap weights;
  weights.weights = {{"a", 3}, {"b", 4}};
  const EcoProblem p = make_problem(impl, spec, weights);
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  const StructuralPatches sp = structural_patch_single(m, 0);
  const auto rewrites = cegar_min(p, sp.patch);
  ASSERT_EQ(rewrites.size(), 1u);
  if (rewrites[0].used_cut) {
    EXPECT_GE(rewrites[0].cut_cost, 1);
    EXPECT_LE(rewrites[0].cut_cost, 7);
  }
}

TEST(CegarMin, ConstantPatchHasEmptySupport) {
  const net::Network impl = net::parse_verilog_string(R"(
    module impl (c, t, y);
      input c, t;
      output y;
      or (y, t, c);
    endmodule
  )");
  const net::Network spec = net::parse_verilog_string(R"(
    module spec (c, y);
      input c;
      output y;
      buf (y, c);
    endmodule
  )");
  const EcoProblem p = make_problem(impl, spec, net::WeightMap{});
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  const StructuralPatches sp = structural_patch_single(m, 0);
  // Patch = M(0, x) = 0 here (impl with t=0 equals spec), i.e. constant.
  const auto rewrites = cegar_min(p, sp.patch);
  ASSERT_TRUE(rewrites[0].used_cut);
  EXPECT_EQ(rewrites[0].cut_cost, 0);
  EXPECT_TRUE(rewrites[0].node_assignment.empty());
}

TEST(MiterOps, SubstituteTargetInMiter) {
  const EcoProblem p = rich_problem();
  EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  // Substitute the correct patch function (abx divisor) for the target:
  // the miter must become constant-0 (no mismatch left).
  aig::Lit abx = aig::kLitInvalid;
  for (size_t i = 0; i < p.divisors.size(); ++i)
    if (p.divisors[i].name == "abx") abx = m.divisor_lits[i];
  ASSERT_NE(abx, aig::kLitInvalid);
  const EcoMiter fixed = substitute_target_in_miter(m, 0, abx);
  for (uint32_t mm = 0; mm < 32; ++mm) {
    std::vector<bool> in;
    for (int i = 0; i < 5; ++i) in.push_back(((mm >> i) & 1) != 0);
    EXPECT_FALSE(aig::eval(fixed.aig, in)[0]) << "mismatch left at " << mm;
  }
}

}  // namespace
}  // namespace eco::core
