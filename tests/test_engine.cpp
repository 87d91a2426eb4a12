#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "benchgen/circuits.hpp"
#include "benchgen/mutate.hpp"
#include "benchgen/weightgen.hpp"
#include "cec/cec.hpp"
#include "eco/engine.hpp"
#include "eco/miter.hpp"
#include "eco/window.hpp"
#include "net/verilog.hpp"
#include "qbf/qbf2.hpp"
#include "util/cancel.hpp"
#include "util/executor.hpp"
#include "util/rng.hpp"

namespace eco::core {
namespace {

EngineOptions fast_options(Algorithm algorithm) {
  EngineOptions options;
  options.algorithm = algorithm;
  options.conflict_budget = 200000;
  options.max_expansion_nodes = 500000;
  options.time_budget = 20;  // bounds every phase, including verification
  return options;
}

/// Checks the reported patch module against the patched implementation: the
/// patched implementation must be equivalent to the spec (the engine already
/// claims `verified`; re-check independently here).
void expect_outcome_consistent(const EcoProblem& problem, const EcoOutcome& outcome) {
  ASSERT_EQ(outcome.status, EcoOutcome::Status::kPatched);
  EXPECT_TRUE(outcome.verified);
  ASSERT_EQ(outcome.targets.size(), problem.num_targets());
  // Patch module interface: one PO per target; PIs named after divisors.
  EXPECT_EQ(outcome.patch_module.num_pos(), problem.num_targets());
  // Reported cost equals the union of reported supports.
  std::vector<std::string> all;
  for (const auto& t : outcome.targets)
    all.insert(all.end(), t.support.begin(), t.support.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  int64_t cost = 0;
  for (const auto& name : all) {
    bool found = false;
    for (const auto& d : problem.divisors)
      if (d.name == name) {
        cost += d.cost;
        found = true;
        break;
      }
    EXPECT_TRUE(found) << "support name not a divisor: " << name;
  }
  EXPECT_EQ(cost, outcome.total_cost);
}

/// A verified SAT-path patch proves target sufficiency, so the engine skips
/// the 2QBF check: it must report no QBF work, and the check it skipped must
/// indeed answer "sufficient" (kFalse) on the problem's feasibility miter.
void expect_sat_patch_skips_sufficient_check(const EcoProblem& problem,
                                             const EcoOutcome& outcome) {
  if (outcome.method != "sat" || !outcome.verified) return;
  EXPECT_EQ(outcome.stats.qbf_iterations, 0);
  EXPECT_EQ(outcome.stats.qbf_seconds, 0.0);
  const Window window = compute_window(problem, /*conflict_budget=*/200000);
  const EcoMiter m = build_eco_miter(problem.impl, problem.spec, std::span<const aig::Lit>{},
                                     window.affected_pos);
  EXPECT_EQ(qbf::solve_exists_forall(m.aig, m.out, m.num_x).status, qbf::Qbf2Status::kFalse);
}

TEST(Engine, ReferenceSingleTargetAllAlgorithms) {
  const net::Network impl = net::parse_verilog_string(R"(
    module impl (a, b, c, t, y, z);
      input a, b, c, t;
      output y, z;
      or  g1 (y, t, c);
      xor g2 (z, a, b);
      and g3 (ab, a, b);
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
  weights.weights = {{"a", 5}, {"b", 5}, {"c", 2}, {"ab", 1}, {"z", 7}, {"y", 9}};
  const EcoProblem problem = make_problem(impl, spec, weights);

  for (const Algorithm algorithm :
       {Algorithm::kBaseline, Algorithm::kMinimize, Algorithm::kSatPruneCegarMin}) {
    const EcoOutcome outcome = run_eco(problem, fast_options(algorithm));
    expect_outcome_consistent(problem, outcome);
    if (algorithm != Algorithm::kBaseline) {
      // Cost-aware configs must find the 1-cost patch t = ab.
      EXPECT_EQ(outcome.total_cost, 1) << "algorithm " << static_cast<int>(algorithm);
      EXPECT_EQ(outcome.targets[0].sop, "ab");
    }
  }
}

TEST(Engine, InfeasibleOutsideTargetCone) {
  const net::Network impl = net::parse_verilog_string(R"(
    module impl (a, b, t, y, z);
      input a, b, t;
      output y, z;
      or  (y, t, a);
      and (z, a, b);
    endmodule
  )");
  const net::Network spec = net::parse_verilog_string(R"(
    module spec (a, b, y, z);
      input a, b;
      output y, z;
      or  (y, a, b);
      nand (z, a, b);
    endmodule
  )");
  const EcoOutcome outcome = run_eco(impl, spec, net::WeightMap{}, fast_options(Algorithm::kMinimize));
  EXPECT_EQ(outcome.status, EcoOutcome::Status::kInfeasible);
}

TEST(Engine, InfeasibleInsideTargetConeViaQbf) {
  // y = t & a cannot implement y = a | b: at a=0,b=1 the spec wants 1 but
  // t & 0 = 0 for every t.
  const net::Network impl = net::parse_verilog_string(R"(
    module impl (a, b, t, y);
      input a, b, t;
      output y;
      and (y, t, a);
    endmodule
  )");
  const net::Network spec = net::parse_verilog_string(R"(
    module spec (a, b, y);
      input a, b;
      output y;
      or (y, a, b);
    endmodule
  )");
  const EcoOutcome outcome = run_eco(impl, spec, net::WeightMap{}, fast_options(Algorithm::kMinimize));
  EXPECT_EQ(outcome.status, EcoOutcome::Status::kInfeasible);
  EXPECT_EQ(outcome.method, "qbf");
}

TEST(Engine, MultiTargetSatPath) {
  const net::Network impl = net::parse_verilog_string(R"(
    module impl (a, b, c, t0, t1, y0, y1);
      input a, b, c, t0, t1;
      output y0, y1;
      and (y0, t0, c);
      or  (y1, t1, c);
      xor (axb, a, b);
      and (anb, a, b);
    endmodule
  )");
  const net::Network spec = net::parse_verilog_string(R"(
    module spec (a, b, c, y0, y1);
      input a, b, c;
      output y0, y1;
      xor (w0, a, b);
      and (y0, w0, c);
      and (w1, a, b);
      or  (y1, w1, c);
    endmodule
  )");
  net::WeightMap weights;
  weights.weights = {{"a", 5}, {"b", 5}, {"c", 1}, {"axb", 1}, {"anb", 1}};
  const EcoOutcome outcome = run_eco(impl, spec, weights, fast_options(Algorithm::kMinimize));
  ASSERT_EQ(outcome.status, EcoOutcome::Status::kPatched);
  EXPECT_TRUE(outcome.verified);
  EXPECT_EQ(outcome.method, "sat");
  ASSERT_EQ(outcome.targets.size(), 2u);
  // Each patch should be the matching cheap divisor.
  EXPECT_LE(outcome.total_cost, 2);
}

TEST(Engine, StructuralFallbackWhenExpansionCapped) {
  const net::Network impl = net::parse_verilog_string(R"(
    module impl (a, b, c, t0, t1, y0, y1);
      input a, b, c, t0, t1;
      output y0, y1;
      and (y0, t0, c);
      or  (y1, t1, c);
    endmodule
  )");
  const net::Network spec = net::parse_verilog_string(R"(
    module spec (a, b, c, y0, y1);
      input a, b, c;
      output y0, y1;
      xor (w0, a, b);
      and (y0, w0, c);
      and (w1, a, b);
      or  (y1, w1, c);
    endmodule
  )");
  EngineOptions options = fast_options(Algorithm::kMinimize);
  options.max_expansion_nodes = 0;  // force the structural path
  const EcoOutcome outcome = run_eco(impl, spec, net::WeightMap{}, options);
  ASSERT_EQ(outcome.status, EcoOutcome::Status::kPatched);
  EXPECT_TRUE(outcome.verified);
  EXPECT_EQ(outcome.method, "structural");
  for (const auto& t : outcome.targets) EXPECT_TRUE(t.structural);
  // The SAT path returned no patch, so the sufficiency check ran after it
  // and handed the multi-target structural path its certificate.
  EXPECT_GT(outcome.stats.qbf_iterations, 0);
}

TEST(Engine, LateSufficiencyCheckRunsInItsGraceWindow) {
  // The two-target instance above, under a caller token whose deadline has
  // passed: the SAT path stops at once, and the late check must still run
  // in its own grace window and give the structural path the certificate
  // that a forced structural run with a live token gets up front.
  const net::Network impl = net::parse_verilog_string(R"(
    module impl (a, b, c, t0, t1, y0, y1);
      input a, b, c, t0, t1;
      output y0, y1;
      and (y0, t0, c);
      or  (y1, t1, c);
    endmodule
  )");
  const net::Network spec = net::parse_verilog_string(R"(
    module spec (a, b, c, y0, y1);
      input a, b, c;
      output y0, y1;
      xor (w0, a, b);
      and (y0, w0, c);
      and (w1, a, b);
      or  (y1, w1, c);
    endmodule
  )");
  EngineOptions expired = fast_options(Algorithm::kMinimize);
  expired.max_expansion_nodes = 0;
  expired.cancel = CancelToken(0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(expired.cancel.cancelled());
  const EcoOutcome late = run_eco(impl, spec, net::WeightMap{}, expired);

  EngineOptions forced = fast_options(Algorithm::kMinimize);
  forced.max_expansion_nodes = 0;
  forced.force_structural = true;
  const EcoOutcome first = run_eco(impl, spec, net::WeightMap{}, forced);

  ASSERT_EQ(first.status, EcoOutcome::Status::kPatched);
  ASSERT_EQ(late.status, EcoOutcome::Status::kPatched);
  EXPECT_TRUE(late.verified);
  EXPECT_EQ(late.method, first.method);
  EXPECT_EQ(late.total_cost, first.total_cost);
  EXPECT_EQ(late.patch_gates, first.patch_gates);
  EXPECT_EQ(late.stats.qbf_iterations, first.stats.qbf_iterations);
  EXPECT_GT(late.stats.qbf_iterations, 0);
}

TEST(Engine, ForceStructuralWithCegarMin) {
  const net::Network impl = net::parse_verilog_string(R"(
    module impl (a, b, c, t, y);
      input a, b, c, t;
      output y;
      or  (y, t, c);
      and (ab, a, b);
    endmodule
  )");
  const net::Network spec = net::parse_verilog_string(R"(
    module spec (a, b, c, y);
      input a, b, c;
      output y;
      and (w, a, b);
      or  (y, w, c);
    endmodule
  )");
  net::WeightMap weights;
  weights.weights = {{"a", 50}, {"b", 50}, {"c", 50}, {"ab", 1}};
  EngineOptions options = fast_options(Algorithm::kSatPruneCegarMin);
  options.force_structural = true;
  const EcoOutcome outcome = run_eco(impl, spec, weights, options);
  ASSERT_EQ(outcome.status, EcoOutcome::Status::kPatched);
  EXPECT_TRUE(outcome.verified);
  EXPECT_EQ(outcome.method, "structural+cegar_min");
  // A forced structural run checks sufficiency up front.
  EXPECT_GT(outcome.stats.qbf_iterations, 0);
  // CEGAR_min should discover that the patch cone is expressible over the
  // cheap equivalent signal `ab` (plus possibly c), beating the PI support.
  EXPECT_LT(outcome.total_cost, 150);

  // Compare against plain structural (no CEGAR_min) to confirm improvement.
  EngineOptions plain = fast_options(Algorithm::kMinimize);
  plain.force_structural = true;
  const EcoOutcome base = run_eco(impl, spec, weights, plain);
  ASSERT_EQ(base.status, EcoOutcome::Status::kPatched);
  EXPECT_LE(outcome.total_cost, base.total_cost);
}

TEST(Engine, ConstantPatchFunctions) {
  // Spec forces y = c regardless: patch t must be constant 0 (or any value
  // that makes t|0 ... here y_impl = t | c vs spec y = c -> t must be 0 when
  // c = 0 -> patch = 0 works).
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
  const EcoOutcome outcome = run_eco(impl, spec, net::WeightMap{}, fast_options(Algorithm::kMinimize));
  ASSERT_EQ(outcome.status, EcoOutcome::Status::kPatched);
  EXPECT_TRUE(outcome.verified);
  EXPECT_EQ(outcome.total_cost, 0);
  EXPECT_EQ(outcome.patch_gates, 0u);
}

// Per-run SAT stat attribution: EngineStats.sat_* comes from a per-run
// accumulator, not from differencing the process-wide totals, so two engines
// running concurrently — sharing an executor, with their verification steps
// bouncing between threads — must report exactly the stats of their solo
// runs. (The old differencing scheme failed precisely here: any solver
// destroyed by the *other* run inside the window inflated both reports.)
TEST(Engine, ConcurrentRunsKeepExactPerRunSatAttribution) {
  std::vector<EcoProblem> problems;
  for (const uint64_t seed : {111ULL, 222ULL}) {
    Rng rng(seed);
    const net::Network base = benchgen::make_random_logic(8, 6, 80, rng);
    const benchgen::EcoInstance instance = benchgen::make_eco_instance(base, 2, rng);
    const net::WeightMap weights =
        benchgen::make_weights(instance.impl, benchgen::WeightType::kT1, rng);
    problems.push_back(make_problem(instance.impl, instance.spec, weights));
  }

  // Solo reference runs, strictly serial.
  std::vector<EcoOutcome> solo;
  for (const EcoProblem& p : problems) solo.push_back(run_eco(p, fast_options(Algorithm::kMinimize)));

  // Both runs concurrently on one shared pool; each also hands the executor
  // to the engine so the verification steps overlap assembly and may execute
  // on whichever thread picks them up.
  util::Executor executor(2);
  EngineOptions options = fast_options(Algorithm::kMinimize);
  options.executor = &executor;
  std::vector<EcoOutcome> conc(problems.size());
  executor.parallel_for(problems.size(), [&](size_t i) { conc[i] = run_eco(problems[i], options); });

  for (size_t i = 0; i < problems.size(); ++i) {
    ASSERT_EQ(conc[i].status, solo[i].status) << "problem " << i;
    EXPECT_EQ(conc[i].total_cost, solo[i].total_cost);
    EXPECT_EQ(conc[i].patch_gates, solo[i].patch_gates);
    EXPECT_EQ(conc[i].method, solo[i].method);
    const EngineStats& c = conc[i].stats;
    const EngineStats& s = solo[i].stats;
#define ECO_X(name) EXPECT_EQ(c.sat_##name, s.sat_##name) << "problem " << i << " sat " #name;
    ECO_SOLVER_TOTALS(ECO_X)
#undef ECO_X
#define ECO_X(name) EXPECT_EQ(c.sweep_##name, s.sweep_##name) << "problem " << i << " sweep " #name;
    ECO_SWEEP_STATS(ECO_X)
#undef ECO_X
#define ECO_X(name) EXPECT_EQ(c.sim_##name, s.sim_##name) << "problem " << i << " sim " #name;
    ECO_SIM_STATS(ECO_X)
#undef ECO_X
    EXPECT_GT(c.sat_solvers, 0u);
  }
}

// Property: over random generated instances, every algorithm produces a
// verified patch, and on single-target instances the cost-aware mode never
// exceeds the baseline's cost. (Single-target only: minimize starts from the
// same final-conflict core as the baseline and only shrinks or swaps toward
// cheaper divisors, so its cost is a deterministic lower bound there. With
// several targets the smaller first patch changes the circuit later targets
// are solved against, and the union cost of the diverged trajectories is not
// ordered.)
class EngineRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineRandomTest, RandomInstancesPatchedAndVerified) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 15485863ULL + 41);
  for (int iter = 0; iter < 3; ++iter) {
    const int num_targets = 1 + static_cast<int>(rng.below(3));
    const net::Network base = benchgen::make_random_logic(
        6 + static_cast<int>(rng.below(6)), 4 + static_cast<int>(rng.below(4)),
        40 + static_cast<int>(rng.below(80)), rng);
    benchgen::EcoInstance instance;
    try {
      instance = benchgen::make_eco_instance(base, num_targets, rng);
    } catch (const std::runtime_error&) {
      continue;  // not enough observable gates in this draw
    }
    const net::WeightMap weights = benchgen::make_weights(
        instance.impl, static_cast<benchgen::WeightType>(rng.below(8)), rng);
    const EcoProblem problem = make_problem(instance.impl, instance.spec, weights);

    int64_t baseline_cost = -1;
    for (const Algorithm algorithm :
         {Algorithm::kBaseline, Algorithm::kMinimize, Algorithm::kSatPruneCegarMin}) {
      const EcoOutcome outcome = run_eco(problem, fast_options(algorithm));
      ASSERT_EQ(outcome.status, EcoOutcome::Status::kPatched)
          << "algorithm " << static_cast<int>(algorithm) << " failed on seed "
          << GetParam() << " iter " << iter;
      EXPECT_TRUE(outcome.verified);
      expect_sat_patch_skips_sufficient_check(problem, outcome);
      if (algorithm == Algorithm::kBaseline) {
        baseline_cost = outcome.total_cost;
      } else if (algorithm == Algorithm::kMinimize && num_targets == 1) {
        EXPECT_LE(outcome.total_cost, baseline_cost)
            << "single-target instance, seed " << GetParam() << " iter " << iter;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace eco::core
