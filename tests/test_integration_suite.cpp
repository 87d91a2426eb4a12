#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "benchgen/suite.hpp"
#include "eco/engine.hpp"
#include "eco/miter.hpp"
#include "eco/window.hpp"
#include "net/aignet.hpp"
#include "net/elaborate.hpp"
#include "net/verilog.hpp"
#include "net/weights.hpp"
#include "qbf/qbf2.hpp"

namespace eco::core {
namespace {

/// End-to-end on real suite units (the small ones, to keep the test quick):
/// every configuration must produce a verified patch; cost-aware configs
/// must not exceed the baseline's cost; and the reported patch module must
/// be consistent with the reported supports.
class SuiteIntegration : public ::testing::TestWithParam<int> {};

TEST_P(SuiteIntegration, AllConfigurationsPatchAndVerify) {
  const benchgen::EcoUnit unit = benchgen::make_unit(GetParam());
  const EcoProblem problem = make_problem(unit.impl, unit.spec, unit.weights);

  int64_t baseline_cost = -1;
  for (const Algorithm algorithm :
       {Algorithm::kBaseline, Algorithm::kMinimize, Algorithm::kSatPruneCegarMin}) {
    EngineOptions options;
    options.algorithm = algorithm;
    options.time_budget = 20;
    options.conflict_budget = 200000;
    const EcoOutcome outcome = run_eco(problem, options);
    ASSERT_EQ(outcome.status, EcoOutcome::Status::kPatched)
        << unit.name << " algorithm " << static_cast<int>(algorithm);
    EXPECT_TRUE(outcome.verified);
    EXPECT_EQ(outcome.targets.size(), problem.num_targets());
    EXPECT_EQ(outcome.patch_module.num_pos(), problem.num_targets());
    // Patch module inputs must match the union of reported supports.
    std::set<std::string> support_names;
    for (const auto& t : outcome.targets)
      support_names.insert(t.support.begin(), t.support.end());
    EXPECT_EQ(outcome.patch_module.num_pis(), support_names.size());
    // A verified SAT-path patch proves sufficiency, so the 2QBF check is
    // skipped; run here, it must agree that the targets suffice.
    if (outcome.method == "sat") {
      EXPECT_EQ(outcome.stats.qbf_iterations, 0);
      const Window window = compute_window(problem, options.conflict_budget);
      const EcoMiter m = build_eco_miter(problem.impl, problem.spec,
                                         std::span<const aig::Lit>{}, window.affected_pos);
      EXPECT_EQ(qbf::solve_exists_forall(m.aig, m.out, m.num_x).status,
                qbf::Qbf2Status::kFalse);
    }
    if (algorithm == Algorithm::kBaseline) baseline_cost = outcome.total_cost;
    if (algorithm == Algorithm::kMinimize) {
      EXPECT_LE(outcome.total_cost, baseline_cost);
    }
  }
}

// The small/fast units only.
INSTANTIATE_TEST_SUITE_P(Units, SuiteIntegration, ::testing::Values(0, 1, 3, 12, 16));

TEST(SuiteIntegration, ContestFileRoundTrip) {
  // Serialize a unit to contest files and back; the engine result on the
  // round-tripped instance must still verify.
  const benchgen::EcoUnit unit = benchgen::make_unit(0);
  std::ostringstream impl_text, spec_text, weight_text;
  net::write_verilog(impl_text, unit.impl);
  net::write_verilog(spec_text, unit.spec);
  net::write_weights(weight_text, unit.weights);

  const net::Network impl = net::parse_verilog_string(impl_text.str());
  const net::Network spec = net::parse_verilog_string(spec_text.str());
  const net::WeightMap weights = net::parse_weights_string(weight_text.str());

  EngineOptions options;
  options.time_budget = 20;
  const EcoOutcome outcome = run_eco(impl, spec, weights, options);
  ASSERT_EQ(outcome.status, EcoOutcome::Status::kPatched);
  EXPECT_TRUE(outcome.verified);

  // The patch module itself survives a Verilog round trip.
  std::ostringstream patch_text;
  net::write_verilog(patch_text, net::aig_to_network(outcome.patch_module, "patch"));
  const net::Network patch_net = net::parse_verilog_string(patch_text.str());
  patch_net.validate();
  EXPECT_EQ(patch_net.outputs.size(), outcome.patch_module.num_pos());
}

}  // namespace
}  // namespace eco::core
