// contest_flow: the ICCAD'17-style file flow.
//
//   contest_flow <impl.v> <spec.v> <weights.txt> [patch.v]
//
// reads an old implementation (targets = inputs missing from the spec), a
// new specification and a weight file, runs the engine, prints the report
// and writes the patch netlist. Run without arguments to see the flow on a
// generated suite unit: the three files are first written to ./eco_demo/
// and then consumed again, exercising the full parser/writer round trip.
//
// Build & run:  cmake --build build && ./build/examples/contest_flow

#include <cstdio>
#include <filesystem>

#include "benchgen/suite.hpp"
#include "eco/engine.hpp"
#include "net/aignet.hpp"
#include "net/verilog.hpp"
#include "net/weights.hpp"

int main(int argc, char** argv) {
  std::string impl_path, spec_path, weights_path, patch_path = "patch.v";
  if (argc >= 4) {
    impl_path = argv[1];
    spec_path = argv[2];
    weights_path = argv[3];
    if (argc >= 5) patch_path = argv[4];
  } else {
    // Demo mode: materialize suite unit 2 as contest-style files.
    const eco::benchgen::EcoUnit unit = eco::benchgen::make_unit(1);
    std::filesystem::create_directories("eco_demo");
    impl_path = "eco_demo/impl.v";
    spec_path = "eco_demo/spec.v";
    weights_path = "eco_demo/weights.txt";
    patch_path = "eco_demo/patch.v";
    eco::net::write_verilog_file(impl_path, unit.impl);
    eco::net::write_verilog_file(spec_path, unit.spec);
    eco::net::write_weights_file(weights_path, unit.weights);
    std::printf("demo files written to eco_demo/ (unit %s, weight type %s)\n\n",
                unit.name.c_str(), eco::benchgen::weight_type_name(unit.weight_type));
  }

  const eco::net::Network impl = eco::net::parse_verilog_file(impl_path);
  const eco::net::Network spec = eco::net::parse_verilog_file(spec_path);
  const eco::net::WeightMap weights = eco::net::parse_weights_file(weights_path);

  eco::core::EngineOptions options;
  options.algorithm = eco::core::Algorithm::kMinimize;
  options.time_budget = 60;
  const eco::core::EcoOutcome outcome = eco::core::run_eco(impl, spec, weights, options);

  switch (outcome.status) {
    case eco::core::EcoOutcome::Status::kInfeasible:
      std::printf("ECO infeasible: the target set cannot rectify the implementation.\n");
      return 1;
    case eco::core::EcoOutcome::Status::kUnknown:
      std::printf("ECO inconclusive within the budget.\n");
      return 2;
    case eco::core::EcoOutcome::Status::kError:
      std::fprintf(stderr, "ECO engine error (%s): %s\n",
                   eco::core::fail_reason_name(outcome.fail_reason),
                   outcome.fail_detail.c_str());
      return 3;
    case eco::core::EcoOutcome::Status::kPatched:
      break;
  }

  std::printf("patched%s in %.2fs — cost %lld, %u gates, method %s\n",
              outcome.verified ? " & verified" : " (NOT verified)", outcome.seconds,
              static_cast<long long>(outcome.total_cost), outcome.patch_gates,
              outcome.method.c_str());
  for (const auto& target : outcome.targets) {
    std::printf("  %-12s inputs:", target.target_name.c_str());
    for (const auto& s : target.support) std::printf(" %s", s.c_str());
    std::printf("\n");
  }
  eco::net::write_verilog_file(patch_path,
                               eco::net::aig_to_network(outcome.patch_module, "patch"));
  std::printf("patch written to %s\n", patch_path.c_str());
  return 0;
}
