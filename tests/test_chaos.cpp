// Chaos suite: sweep the fault-injection matrix through full engine runs
// and assert the crash-proof contract of docs/ROBUSTNESS.md:
//   1. run_eco never throws and never crashes, whatever fires;
//   2. a deadline-bounded run never hangs far past its budget;
//   3. a patch reported `verified` is confirmed by an independent CEC run
//      with every fault disarmed — injected faults may lose results, but
//      they must never forge one.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aig/ops.hpp"
#include "benchgen/suite.hpp"
#include "cec/cec.hpp"
#include "eco/engine.hpp"
#include "eco/problem.hpp"
#include "net/verilog.hpp"
#include "util/faultpoint.hpp"
#include "util/timer.hpp"

namespace eco::core {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

EngineOptions chaos_options() {
  EngineOptions options;
  options.conflict_budget = 100000;
  options.max_expansion_nodes = 500000;
  options.time_budget = 20;
  options.qbf.max_iterations = 500;
  return options;
}

/// Rebuilds the verification miter from scratch — same construction as the
/// engine's verify phase, but run with all faults disarmed, so it cannot be
/// fooled by an injected verify fault.
bool independently_equivalent(const EcoProblem& problem, const aig::Aig& patched) {
  aig::Aig check;
  std::vector<aig::Lit> x;
  for (uint32_t i = 0; i < problem.num_shared_pis(); ++i)
    x.push_back(check.add_pi(problem.spec.pi_name(i)));

  std::vector<aig::Lit> impl_map(patched.num_nodes(), aig::kLitInvalid);
  impl_map[0] = aig::kLitFalse;
  for (uint32_t i = 0; i < problem.num_shared_pis(); ++i)
    impl_map[patched.pi_node(i)] = x[i];
  for (uint32_t t = 0; t < problem.num_targets(); ++t)
    impl_map[patched.pi_node(problem.target_pi(t))] = aig::kLitFalse;
  std::vector<aig::Lit> impl_roots;
  for (uint32_t i = 0; i < patched.num_pos(); ++i) impl_roots.push_back(patched.po_lit(i));
  const auto impl_pos = aig::transfer(patched, check, impl_roots, impl_map);

  std::vector<aig::Lit> spec_map(problem.spec.num_nodes(), aig::kLitInvalid);
  spec_map[0] = aig::kLitFalse;
  for (uint32_t i = 0; i < problem.num_shared_pis(); ++i)
    spec_map[problem.spec.pi_node(i)] = x[i];
  std::vector<aig::Lit> spec_roots;
  for (uint32_t i = 0; i < problem.spec.num_pos(); ++i)
    spec_roots.push_back(problem.spec.po_lit(i));
  const auto spec_pos = aig::transfer(problem.spec, check, spec_roots, spec_map);

  std::vector<aig::Lit> diffs;
  for (size_t i = 0; i < impl_pos.size(); ++i)
    diffs.push_back(check.add_xor(impl_pos[i], spec_pos[i]));
  const aig::Lit out = check.add_or_multi(diffs);
  return cec::check_const0(check, out).status == cec::Status::kEquivalent;
}

/// One chaos run: arm \p spec, run the engine on benchgen unit \p unit, and
/// assert the contract. Returns the outcome for spec-specific checks.
EcoOutcome chaos_run(int unit, const std::string& spec, bool ladder) {
  const benchgen::EcoUnit u = benchgen::make_unit(unit, /*seed=*/20170912);
  const EcoProblem problem = make_problem(u.impl, u.spec, u.weights);

  EXPECT_TRUE(fault::arm(spec)) << spec;
  EngineOptions options = chaos_options();
  options.ladder = ladder;
  Timer timer;
  const EcoOutcome outcome = run_eco(problem, options);  // must not throw
  const double elapsed = timer.seconds();
  fault::disarm_all();

  // Never hang: time_budget 20s, plus bounded grace windows for the
  // structural path and verification, times up to 5 ladder attempts, is
  // still far under this ceiling on these tiny units.
  EXPECT_LT(elapsed, 120.0) << spec;

  // Always a structured outcome.
  const auto s = outcome.status;
  EXPECT_TRUE(s == EcoOutcome::Status::kPatched || s == EcoOutcome::Status::kInfeasible ||
              s == EcoOutcome::Status::kUnknown || s == EcoOutcome::Status::kError)
      << spec;
  if (s == EcoOutcome::Status::kError) {
    EXPECT_NE(outcome.fail_reason, FailReason::kNone) << spec;
  }
  EXPECT_FALSE(outcome.stats.ladder.empty()) << spec;

  // Never forge a verified patch.
  if (outcome.verified) {
    EXPECT_TRUE(independently_equivalent(problem, outcome.patched_impl)) << spec;
  }
  return outcome;
}

EcoOutcome chaos_run(int unit, const std::string& spec) {
  return chaos_run(unit, spec, /*ladder=*/true);
}

TEST_F(ChaosTest, BaselineNoFaultsPatches) {
  const EcoOutcome outcome = chaos_run(0, "sat.budget:0");  // armed but never fires
  EXPECT_EQ(outcome.status, EcoOutcome::Status::kPatched);
  EXPECT_TRUE(outcome.verified);
  EXPECT_EQ(outcome.fail_reason, FailReason::kNone);
  EXPECT_EQ(outcome.stats.ladder.size(), 1u);  // no escalation happened
}

TEST_F(ChaosTest, SatBudgetAlwaysFails) {
  // Every solve reports budget exhaustion: the SAT path cannot conclude;
  // whatever comes out, the contract holds and nothing is forged.
  chaos_run(0, "sat.budget");
}

TEST_F(ChaosTest, CnfLoadAlwaysFails) {
  // CNF encoding throws bad_alloc at every solver: ends kError/kMemory or
  // recovers via rungs that avoid the failing path.
  const EcoOutcome outcome = chaos_run(0, "cnf.load");
  if (outcome.status == EcoOutcome::Status::kError) {
    EXPECT_EQ(outcome.fail_reason, FailReason::kMemory);
  }
}

TEST_F(ChaosTest, WindowExtractAlwaysFails) {
  // The window phase throws before anything else runs: every attempt ends
  // kError with kInternal (a runtime_error escaping a phase is a bug class).
  const EcoOutcome outcome = chaos_run(0, "window.extract");
  EXPECT_EQ(outcome.status, EcoOutcome::Status::kError);
  EXPECT_EQ(outcome.fail_reason, FailReason::kInternal);
  EXPECT_FALSE(outcome.fail_detail.empty());
}

TEST_F(ChaosTest, QbfIterCapAlwaysFires) {
  // Feasibility check gives up instantly whenever it runs: the SAT path must
  // still solve the unit on its own (its patch makes the check unnecessary).
  chaos_run(0, "qbf.itercap");
}

TEST_F(ChaosTest, QbfIterCapFiresWhenStructuralIsForced) {
  // A forced structural run checks sufficiency before anything else, so the
  // seam is visited; without the certificate the single-target structural
  // patch must still come out verified.
  const benchgen::EcoUnit u = benchgen::make_unit(0, /*seed=*/20170912);
  const EcoProblem problem = make_problem(u.impl, u.spec, u.weights);
  ASSERT_TRUE(fault::arm("qbf.itercap"));
  EngineOptions options = chaos_options();
  options.force_structural = true;
  const EcoOutcome outcome = run_eco(problem, options);
  EXPECT_GT(fault::fired_count(fault::Site::kQbfIterCap), 0u);
  fault::disarm_all();
  ASSERT_EQ(outcome.status, EcoOutcome::Status::kPatched);
  EXPECT_TRUE(outcome.verified);
  EXPECT_TRUE(independently_equivalent(problem, outcome.patched_impl));
}

TEST_F(ChaosTest, VerifyTimeoutAlwaysFires) {
  // Verification is inconclusive: patch ships unverified, never `verified`.
  const EcoOutcome outcome = chaos_run(0, "verify.timeout");
  EXPECT_FALSE(outcome.verified);
  if (outcome.status == EcoOutcome::Status::kPatched) {
    EXPECT_EQ(outcome.verification, EcoOutcome::Verification::kInconclusive);
  }
}

TEST_F(ChaosTest, AllocGuardAlwaysFires) {
  // The expansion allocation guard trips on every target: the SAT path
  // falls back; the structural path must still deliver.
  chaos_run(0, "alloc.guard");
}

TEST_F(ChaosTest, IntermittentFaultsAcrossSites) {
  // Probabilistic chaos across several sites at once, deterministic seed.
  chaos_run(1, "sat.budget:0.3:11,cnf.load:0.1:12,alloc.guard:0.5:13,verify.timeout:0.5:14");
}

TEST_F(ChaosTest, LadderOffStillCrashProof) {
  const EcoOutcome outcome = chaos_run(0, "window.extract", /*ladder=*/false);
  EXPECT_EQ(outcome.status, EcoOutcome::Status::kError);
  EXPECT_EQ(outcome.fail_reason, FailReason::kInternal);
  EXPECT_EQ(outcome.stats.ladder.size(), 1u);  // single attempt, no rungs
}

TEST_F(ChaosTest, LadderRecoversFromTransientWindowFault) {
  // The window fault fires on the first attempt only (prob chosen so draw 0
  // fires, later draws mostly don't): the ladder should recover a patch.
  const benchgen::EcoUnit u = benchgen::make_unit(0, /*seed=*/20170912);
  const EcoProblem problem = make_problem(u.impl, u.spec, u.weights);
  // Find a seed whose first draw fires at prob 0.4 — deterministic search.
  for (uint64_t seed = 1; seed < 64; ++seed) {
    fault::disarm_all();
    ASSERT_TRUE(fault::arm("window.extract:0.4:" + std::to_string(seed)));
    if (!fault::should_fail(fault::Site::kWindowExtract)) continue;
    // Re-arm to reset the draw counter: draw 0 fires for this seed.
    ASSERT_TRUE(fault::arm("window.extract:0.4:" + std::to_string(seed)));
    EngineOptions options = chaos_options();
    const EcoOutcome outcome = run_eco(problem, options);
    fault::disarm_all();
    // The primary attempt errored; some rung ran after it.
    ASSERT_GE(outcome.stats.ladder.size(), 2u);
    EXPECT_EQ(outcome.stats.ladder[0].result, "error");
    EXPECT_EQ(outcome.stats.ladder[0].fail_reason, "internal");
    if (outcome.verified) {
      EXPECT_TRUE(independently_equivalent(problem, outcome.patched_impl));
    }
    return;
  }
  FAIL() << "no seed with a firing first draw found";
}

TEST_F(ChaosTest, MemoryBudgetEndsRunAsMemory) {
  // A tiny cooperative memory budget: the SAT path's quantify charge trips
  // it; the run must end kUnknown/kError with a memory classification and
  // must not escalate (the account is shared across rungs).
  const benchgen::EcoUnit u = benchgen::make_unit(0, /*seed=*/20170912);
  const EcoProblem problem = make_problem(u.impl, u.spec, u.weights);
  EngineOptions options = chaos_options();
  options.cancel = CancelToken(0.0, /*memory_budget_bytes=*/1);
  const EcoOutcome outcome = run_eco(problem, options);
  if (outcome.status == EcoOutcome::Status::kUnknown ||
      outcome.status == EcoOutcome::Status::kError) {
    EXPECT_EQ(outcome.fail_reason, FailReason::kMemory);
  }
  EXPECT_EQ(outcome.stats.ladder.size(), 1u);
}

TEST_F(ChaosTest, ExternalStopEndsRunAsCancelled) {
  // Stop requested before the run starts: the engine winds down immediately
  // with kCancelled and the ladder must not retry.
  const benchgen::EcoUnit u = benchgen::make_unit(0, /*seed=*/20170912);
  const EcoProblem problem = make_problem(u.impl, u.spec, u.weights);
  EngineOptions options = chaos_options();
  CancelToken stop = CancelToken::stoppable();
  stop.request_stop();
  options.cancel = stop;
  const EcoOutcome outcome = run_eco(problem, options);
  if (outcome.status == EcoOutcome::Status::kUnknown) {
    EXPECT_EQ(outcome.fail_reason, FailReason::kCancelled);
  }
  EXPECT_EQ(outcome.stats.ladder.size(), 1u);
}

TEST_F(ChaosTest, NetParseFaultThrowsParseErrorAtTheFrontEnd) {
  ASSERT_TRUE(fault::arm("net.parse"));
  EXPECT_THROW(net::parse_verilog_string("module m (a, y); input a; output y; "
                                         "buf g (y, a); endmodule"),
               net::ParseError);
}

TEST_F(ChaosTest, InconsistentNetworksBecomeErrorOutcome) {
  // The run_eco(Network, ...) overload owns the make_problem boundary:
  // inconsistent inputs become kError/kInconsistentInput, never a throw.
  const net::Network impl = net::parse_verilog_string(R"(
    module impl (a, t, y);
      input a, t;
      output y;
      and g1 (y, a, t);
    endmodule
  )");
  const net::Network spec = net::parse_verilog_string(R"(
    module spec (a, y, z);
      input a;
      output y, z;
      buf g1 (y, a);
      not g2 (z, a);
    endmodule
  )");
  const EcoOutcome outcome = run_eco(impl, spec, {}, chaos_options());
  EXPECT_EQ(outcome.status, EcoOutcome::Status::kError);
  EXPECT_EQ(outcome.fail_reason, FailReason::kInconsistentInput);
  EXPECT_FALSE(outcome.fail_detail.empty());
}

}  // namespace
}  // namespace eco::core
