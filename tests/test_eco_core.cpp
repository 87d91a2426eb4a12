#include <gtest/gtest.h>

#include "aig/sim.hpp"
#include "eco/miter.hpp"
#include "eco/patchfunc.hpp"
#include "eco/problem.hpp"
#include "eco/satprune.hpp"
#include "eco/structural.hpp"
#include "eco/support.hpp"
#include "eco/window.hpp"
#include "net/verilog.hpp"
#include "qbf/qbf2.hpp"

namespace eco::core {
namespace {

/// Reference problem: the old implementation computed y = t | c where the
/// old t logic has been cut out; the new spec wants y = (a & b) | c and
/// z = a ^ b on an untouched output. Divisors include a redundant internal
/// signal `ab` that equals a & b, making a 1-divisor patch possible.
EcoProblem reference_problem(int64_t cost_a = 5, int64_t cost_b = 5, int64_t cost_ab = 1) {
  const net::Network impl = net::parse_verilog_string(R"(
    module impl (a, b, c, t, y, z);
      input a, b, c, t;
      output y, z;
      or  g1 (y, t, c);
      xor g2 (z, a, b);
      and g3 (ab, a, b);   // redundant: a handy divisor
    endmodule
  )");
  const net::Network spec = net::parse_verilog_string(R"(
    module spec (a, b, c, y, z);
      input a, b, c;
      output y, z;
      and g1 (w, a, b);
      or  g2 (y, w, c);
      xor g3 (z, a, b);
    endmodule
  )");
  net::WeightMap weights;
  weights.weights = {{"a", cost_a}, {"b", cost_b}, {"c", 2}, {"ab", cost_ab}, {"z", 7}, {"y", 9}};
  return make_problem(impl, spec, weights);
}

TEST(Problem, MakeProblemExtractsTargetsAndDivisors) {
  const EcoProblem p = reference_problem();
  EXPECT_EQ(p.num_shared_pis(), 3u);
  EXPECT_EQ(p.num_targets(), 1u);
  EXPECT_EQ(p.target_names, (std::vector<std::string>{"t"}));
  // Divisors: a, b, c, ab, z (y is in the target's TFO and must be absent).
  std::vector<std::string> names;
  for (const auto& d : p.divisors) names.push_back(d.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "ab"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "z"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "y"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "t"), names.end());
  // Cost-sorted.
  for (size_t i = 1; i < p.divisors.size(); ++i)
    EXPECT_LE(p.divisors[i - 1].cost, p.divisors[i].cost);
}

TEST(Problem, RejectsInterfaceMismatch) {
  const net::Network impl = net::parse_verilog_string(
      "module i (a, t, y); input a, t; output y; and (y, a, t); endmodule");
  const net::Network bad_spec = net::parse_verilog_string(
      "module s (a, b, y); input a, b; output y; and (y, a, b); endmodule");
  net::WeightMap w;
  EXPECT_THROW(make_problem(impl, bad_spec, w), std::runtime_error);
}

TEST(Problem, RejectsWhenNoTargets) {
  const net::Network impl = net::parse_verilog_string(
      "module i (a, y); input a; output y; buf (y, a); endmodule");
  const net::Network spec = net::parse_verilog_string(
      "module s (a, y); input a; output y; not (y, a); endmodule");
  net::WeightMap w;
  EXPECT_THROW(make_problem(impl, spec, w), std::runtime_error);
}

TEST(Window, ComputesAffectedConeAndDivisors) {
  const EcoProblem p = reference_problem();
  const Window w = compute_window(p);
  ASSERT_TRUE(w.outside_equal);
  // Only PO "y" is affected by the target.
  ASSERT_EQ(w.affected_pos.size(), 1u);
  EXPECT_EQ(p.impl.po_name(w.affected_pos[0]), "y");
  EXPECT_FALSE(w.divisor_indices.empty());
}

TEST(Window, DetectsOutsideMismatch) {
  // Mutate the spec on the untouched output z: infeasible at this target.
  const net::Network impl = net::parse_verilog_string(R"(
    module impl (a, b, c, t, y, z);
      input a, b, c, t;
      output y, z;
      or  g1 (y, t, c);
      xor g2 (z, a, b);
    endmodule
  )");
  const net::Network spec = net::parse_verilog_string(R"(
    module spec (a, b, c, y, z);
      input a, b, c;
      output y, z;
      and g1 (w, a, b);
      or  g2 (y, w, c);
      xnor g3 (z, a, b);   // differs, and the target cannot fix it
    endmodule
  )");
  const EcoProblem p = make_problem(impl, spec, net::WeightMap{});
  const Window w = compute_window(p);
  EXPECT_FALSE(w.outside_equal);
}

TEST(Miter, MismatchSemantics) {
  const EcoProblem p = reference_problem();
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  // Miter inputs: a, b, c, t. M = 1 iff impl(y,z) != spec(y,z).
  // impl y = t | c ; spec y = (a&b) | c. Mismatch iff t != a&b and c = 0.
  for (uint32_t mm = 0; mm < 16; ++mm) {
    const bool a = mm & 1, b = mm & 2, c = mm & 4, t = mm & 8;
    const std::vector<bool> pattern = {a, b, c, t};
    const bool expect_mismatch = !c && (t != (a && b));
    EXPECT_EQ(aig::eval(m.aig, pattern)[0], expect_mismatch) << "minterm " << mm;
  }
}

TEST(Miter, CofactorTarget) {
  const EcoProblem p = reference_problem();
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  const EcoMiter m0 = cofactor_target(m, 0, false);
  // M(0): mismatch iff a&b and c=0 (impl y = c, spec y = (a&b)|c).
  for (uint32_t mm = 0; mm < 8; ++mm) {
    const bool a = mm & 1, b = mm & 2, c = mm & 4;
    const std::vector<bool> pattern = {a, b, c, false};
    EXPECT_EQ(aig::eval(m0.aig, pattern)[0], a && b && !c);
  }
}

TEST(Miter, QuantifyRemovesDependence) {
  // Two targets driving one output through an OR: quantifying one target
  // universally ANDs its cofactors.
  const net::Network impl = net::parse_verilog_string(R"(
    module impl (a, t0, t1, y);
      input a, t0, t1;
      output y;
      or (y, t0, t1);
    endmodule
  )");
  const net::Network spec = net::parse_verilog_string(R"(
    module spec (a, y);
      input a;
      output y;
      buf (y, a);
    endmodule
  )");
  const EcoProblem p = make_problem(impl, spec, net::WeightMap{});
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  const EcoMiter mq = quantify_targets(m, {1}, 100000);
  // M_q(t0, a) = M(t0, 0, a) & M(t0, 1, a).
  // M(t0,t1,a) = (t0|t1) != a. Quantified: ((t0|0)!=a) & ((t0|1)!=a)
  //            = (t0 != a) & (1 != a) = (t0 != a) & !a = t0 & !a.
  for (uint32_t mm = 0; mm < 4; ++mm) {
    const bool a = mm & 1, t0 = mm & 2;
    // PI order: a, t0, t1 (t1 now irrelevant).
    EXPECT_EQ(aig::eval(mq.aig, {a, t0, false})[0], t0 && !a);
    EXPECT_EQ(aig::eval(mq.aig, {a, t0, true})[0], t0 && !a);
  }
}

TEST(Miter, QuantifyRespectsNodeBudget) {
  const EcoProblem p = reference_problem();
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  EXPECT_THROW(quantify_targets(m, {0}, 0), std::runtime_error);
}

size_t divisor_index_by_name(const EcoProblem& p, const std::string& name) {
  for (size_t i = 0; i < p.divisors.size(); ++i)
    if (p.divisors[i].name == name) return i;
  ADD_FAILURE() << "divisor not found: " << name;
  return SIZE_MAX;
}

TEST(Support, FindsCheapSingleDivisor) {
  const EcoProblem p = reference_problem();
  const Window w = compute_window(p);
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors, w.affected_pos);
  SupportInstance inst(m, 0, p.divisors, w.divisor_indices);
  SupportOptions options;
  const SupportResult r = compute_support(inst, p.divisors, options);
  ASSERT_TRUE(r.feasible);
  // `ab` (cost 1) alone is a valid support: patch = ab.
  ASSERT_EQ(r.chosen.size(), 1u);
  EXPECT_EQ(p.divisors[r.chosen[0]].name, "ab");
  EXPECT_EQ(r.cost, 1);
}

TEST(Support, AnalyzeFinalModeIsSoundButLooser) {
  const EcoProblem p = reference_problem();
  const Window w = compute_window(p);
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors, w.affected_pos);
  SupportInstance inst(m, 0, p.divisors, w.divisor_indices);
  SupportOptions options;
  options.mode = SupportMode::kAnalyzeFinal;
  const SupportResult r = compute_support(inst, p.divisors, options);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.chosen.size(), 1u);
  // The returned subset must itself be sufficient.
  EXPECT_TRUE(inst.check_subset(r.chosen).is_false());
}

TEST(Support, CostOrderingPrefersCheapDivisors) {
  // Make `ab` expensive: the engine should pick {a, b} (cost 4) instead.
  const EcoProblem p = reference_problem(/*cost_a=*/2, /*cost_b=*/2, /*cost_ab=*/100);
  const Window w = compute_window(p);
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors, w.affected_pos);
  SupportInstance inst(m, 0, p.divisors, w.divisor_indices);
  const SupportResult r = compute_support(inst, p.divisors, SupportOptions{});
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.cost, 4);
  for (const size_t g : r.chosen) EXPECT_NE(p.divisors[g].name, "ab");
}

TEST(Support, InfeasibleWithEmptyCandidates) {
  const EcoProblem p = reference_problem();
  const Window w = compute_window(p);
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors, w.affected_pos);
  SupportInstance inst(m, 0, p.divisors, {});
  const SupportResult r = compute_support(inst, p.divisors, SupportOptions{});
  EXPECT_FALSE(r.feasible);
}

TEST(SatPrune, MatchesOrBeatsMinimize) {
  const EcoProblem p = reference_problem(3, 3, 4);
  const Window w = compute_window(p);
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors, w.affected_pos);
  SupportInstance inst(m, 0, p.divisors, w.divisor_indices);
  const SupportResult minimized = compute_support(inst, p.divisors, SupportOptions{});
  ASSERT_TRUE(minimized.feasible);
  const SatPruneResult pruned = sat_prune(inst, p.divisors, SatPruneOptions{}, &minimized.chosen);
  ASSERT_TRUE(pruned.feasible);
  EXPECT_TRUE(pruned.optimal);
  EXPECT_LE(pruned.cost, minimized.cost);
  EXPECT_TRUE(inst.check_subset(pruned.chosen).is_false());
}

TEST(SatPrune, FindsTrueMinimumAgainstBruteForce) {
  // ab costs 3; {a, b} costs 2+2=4 -> minimum is {ab}.
  const EcoProblem p = reference_problem(2, 2, 3);
  const Window w = compute_window(p);
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors, w.affected_pos);
  SupportInstance inst(m, 0, p.divisors, w.divisor_indices);
  const SatPruneResult pruned = sat_prune(inst, p.divisors, SatPruneOptions{});
  ASSERT_TRUE(pruned.feasible);
  EXPECT_TRUE(pruned.optimal);
  EXPECT_EQ(pruned.cost, 3);
  ASSERT_EQ(pruned.chosen.size(), 1u);
  EXPECT_EQ(p.divisors[pruned.chosen[0]].name, "ab");
}

TEST(PatchFunc, SingleCubeCover) {
  const EcoProblem p = reference_problem();
  const Window w = compute_window(p);
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors, w.affected_pos);
  const std::vector<size_t> support = {divisor_index_by_name(p, "ab")};
  const PatchFuncResult r = compute_patch_cover(m, 0, p.divisors, support, PatchFuncOptions{});
  ASSERT_TRUE(r.ok);
  // Patch = ab: one cube, one positive literal of variable 0.
  ASSERT_EQ(r.cover.cubes.size(), 1u);
  EXPECT_EQ(r.cover.cubes[0].lits(), (std::vector<sop::Lit>{sop::lit_pos(0)}));
}

TEST(PatchFunc, TwoVariableCover) {
  const EcoProblem p = reference_problem();
  const Window w = compute_window(p);
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors, w.affected_pos);
  const std::vector<size_t> support = {divisor_index_by_name(p, "a"),
                                       divisor_index_by_name(p, "b")};
  const PatchFuncResult r = compute_patch_cover(m, 0, p.divisors, support, PatchFuncOptions{});
  ASSERT_TRUE(r.ok);
  // Patch = a & b.
  ASSERT_EQ(r.cover.cubes.size(), 1u);
  EXPECT_EQ(r.cover.cubes[0].num_lits(), 2u);
  EXPECT_FALSE(sop::lit_negated(r.cover.cubes[0].lits()[0]));
  EXPECT_FALSE(sop::lit_negated(r.cover.cubes[0].lits()[1]));
}

TEST(PatchFunc, BaselineCoreExpansionStillValid) {
  const EcoProblem p = reference_problem();
  const Window w = compute_window(p);
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors, w.affected_pos);
  const std::vector<size_t> support = {divisor_index_by_name(p, "a"),
                                       divisor_index_by_name(p, "b"),
                                       divisor_index_by_name(p, "c")};
  PatchFuncOptions options;
  options.use_minimize = false;
  const PatchFuncResult r = compute_patch_cover(m, 0, p.divisors, support, options);
  ASSERT_TRUE(r.ok);
  // Validity: on minterms where c=0, cover must equal a&b (c=1 is don't care).
  for (uint32_t mm = 0; mm < 4; ++mm) {
    const bool a = mm & 1, b = mm & 2;
    EXPECT_EQ(r.cover.eval({a, b, false}), a && b);
  }
}

TEST(Structural, SingleTargetCofactorPatch) {
  const EcoProblem p = reference_problem();
  const Window w = compute_window(p);
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors, w.affected_pos);
  const StructuralPatches sp = structural_patch_single(m, 0);
  ASSERT_TRUE(sp.ok);
  ASSERT_EQ(sp.patch.num_pos(), 1u);
  // Patch(x) = M(0, x) = a & b & !c; must satisfy a&b -> patch -> (a&b)|c
  // restricted to the care set c=0 (where patch value matters).
  for (uint32_t mm = 0; mm < 8; ++mm) {
    const bool a = mm & 1, b = mm & 2, c = mm & 4;
    const bool patch = aig::eval(sp.patch, {a, b, c})[0];
    if (!c) {
      EXPECT_EQ(patch, a && b) << "minterm " << mm;
    }
  }
}

TEST(Structural, MultiTargetCertificatePatch) {
  const net::Network impl = net::parse_verilog_string(R"(
    module impl (a, b, t0, t1, y0, y1);
      input a, b, t0, t1;
      output y0, y1;
      and (y0, t0, a);
      or  (y1, t1, b);
    endmodule
  )");
  const net::Network spec = net::parse_verilog_string(R"(
    module spec (a, b, y0, y1);
      input a, b;
      output y0, y1;
      and (y0, a, b);
      buf (y1, b);
    endmodule
  )");
  const EcoProblem p = make_problem(impl, spec, net::WeightMap{});
  ASSERT_EQ(p.num_targets(), 2u);
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  const auto cert = qbf::solve_exists_forall(m.aig, m.out, m.num_x);
  ASSERT_EQ(cert.status, qbf::Qbf2Status::kFalse);
  const StructuralPatches sp = structural_patch_multi(m, cert);
  ASSERT_TRUE(sp.ok);
  ASSERT_EQ(sp.patch.num_pos(), 2u);
  // Substituting the patches must make impl equal to spec:
  // y0 = patch0 & a must equal a & b ; y1 = patch1 | b must equal b.
  for (uint32_t mm = 0; mm < 4; ++mm) {
    const bool a = mm & 1, b = mm & 2;
    const auto patch = aig::eval(sp.patch, {a, b});
    EXPECT_EQ(patch[0] && a, a && b) << "y0 at " << mm;
    EXPECT_EQ(patch[1] || b, b) << "y1 at " << mm;
  }
}

TEST(Structural, MultiTargetRequiresCertificate) {
  const EcoProblem p = reference_problem();
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  qbf::Qbf2Result empty;
  EXPECT_FALSE(structural_patch_multi(m, empty).ok);
}

}  // namespace
}  // namespace eco::core
