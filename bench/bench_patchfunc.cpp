// bench_patchfunc: Ablation B (DESIGN.md) — patch function computation by
// cube enumeration + factoring (paper §3.5) versus the interpolant-style
// monolithic patch (the structural cofactor of §3.6.1 serves as the stand-in
// for a general interpolant, as both return one unminimized circuit).
//
// For each single-target suite unit both methods run on the same support
// question; reported are patch sizes (AIG AND nodes) and runtimes.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cmath>
#include <cstring>

#include "benchgen/suite.hpp"
#include "eco/engine.hpp"
#include "eco/miter.hpp"
#include "eco/patchfunc.hpp"
#include "eco/problem.hpp"
#include "eco/structural.hpp"
#include "eco/support.hpp"
#include "eco/window.hpp"
#include "sop/synth.hpp"
#include "util/numparse.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  uint64_t seed = 20170912;
  for (int i = 1; i < argc; i += 2) {
    // argv[argc] is null, so a trailing "--seed" fails parse_u64.
    if (std::strcmp(argv[i], "--seed") != 0 || !eco::util::parse_u64(argv[i + 1], seed)) {
      std::fprintf(stderr, "usage: %s [--seed N]\n", argv[0]);
      return 2;
    }
  }

  std::printf("Ablation B: cube enumeration + factoring vs. monolithic cofactor patch\n");
  std::printf("(single-target units of the synthetic suite)\n\n");
  std::printf("%-7s | %6s %8s %9s | %9s %9s | %7s\n", "unit", "#cubes", "enum(g)", "enum(s)",
              "cof(g)", "cof(s)", "ratio");

  double log_ratio = 0;
  int counted = 0;
  for (int u = 0; u < eco::benchgen::kNumUnits; ++u) {
    const eco::benchgen::EcoUnit unit = eco::benchgen::make_unit(u, seed);
    if (unit.num_targets != 1) continue;
    const eco::core::EcoProblem problem =
        eco::core::make_problem(unit.impl, unit.spec, unit.weights);
    const eco::core::Window window = eco::core::compute_window(problem);
    if (!window.outside_equal) continue;
    const eco::core::EcoMiter miter = eco::core::build_eco_miter(
        problem.impl, problem.spec, problem.divisors, window.affected_pos);

    // Shared support for the cube-enumeration method (per-unit budget so a
    // hard unit cannot stall the ablation).
    const eco::Deadline unit_deadline(30.0);
    eco::core::SupportInstance inst(miter, 0, problem.divisors, window.divisor_indices);
    inst.solver().set_deadline(unit_deadline);
    eco::core::SupportOptions sopt;
    sopt.conflict_budget = 200000;
    const eco::core::SupportResult support =
        eco::core::compute_support(inst, problem.divisors, sopt);
    if (!support.feasible) {
      std::printf("%-7s | support unavailable within budget\n", unit.name.c_str());
      continue;
    }
    std::vector<size_t> chosen = support.chosen;
    std::sort(chosen.begin(), chosen.end());

    eco::Timer t_enum;
    eco::core::PatchFuncOptions pf_opt;
    pf_opt.conflict_budget = 200000;
    pf_opt.cancel = eco::CancelToken(30.0);
    const eco::core::PatchFuncResult pf = eco::core::compute_patch_cover(
        miter, 0, problem.divisors, chosen, pf_opt);
    if (!pf.ok) {
      std::printf("%-7s | enumeration exceeded its budget\n", unit.name.c_str());
      continue;
    }
    eco::aig::Aig scratch;
    std::vector<eco::aig::Lit> vars;
    for (size_t i = 0; i < chosen.size(); ++i) vars.push_back(scratch.add_pi());
    const eco::aig::Lit enum_root = eco::sop::synthesize_cover(scratch, pf.cover, vars);
    const eco::aig::Lit enum_roots[] = {enum_root};
    const uint32_t enum_gates = scratch.cone_size(enum_roots);
    const double enum_secs = t_enum.seconds();

    eco::Timer t_cof;
    const eco::core::StructuralPatches sp = eco::core::structural_patch_single(miter, 0);
    const double cof_secs = t_cof.seconds();
    const uint32_t cof_gates = sp.patch.num_ands();

    const double ratio = static_cast<double>(std::max(enum_gates, 1u)) /
                         static_cast<double>(std::max(cof_gates, 1u));
    log_ratio += std::log(ratio);
    ++counted;
    std::printf("%-7s | %6" PRIu64 " %8u %9.3f | %9u %9.3f | %7.3f\n", unit.name.c_str(),
                pf.cubes_enumerated, enum_gates, enum_secs, cof_gates, cof_secs, ratio);
  }
  if (counted)
    std::printf("\nGeomean patch-size ratio (enumeration / cofactor): %.3f "
                "(< 1 means enumeration wins, matching the paper's choice)\n",
                std::exp(log_ratio / counted));
  return 0;
}
