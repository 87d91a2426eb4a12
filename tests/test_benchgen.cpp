#include <gtest/gtest.h>

#include <unordered_set>

#include "aig/sim.hpp"
#include "benchgen/circuits.hpp"
#include "benchgen/mutate.hpp"
#include "benchgen/suite.hpp"
#include "benchgen/weightgen.hpp"
#include "net/elaborate.hpp"
#include "util/rng.hpp"

namespace eco::benchgen {
namespace {

TEST(Circuits, AdderComputesSums) {
  const net::Network net = make_adder(4);
  net.validate();
  const auto elab = net::elaborate(net);
  Rng rng(1);
  for (int iter = 0; iter < 50; ++iter) {
    const uint32_t a = static_cast<uint32_t>(rng.below(16));
    const uint32_t b = static_cast<uint32_t>(rng.below(16));
    const bool cin = rng.chance(1, 2);
    std::vector<bool> in;
    for (int i = 0; i < 4; ++i) in.push_back(((a >> i) & 1) != 0);
    for (int i = 0; i < 4; ++i) in.push_back(((b >> i) & 1) != 0);
    in.push_back(cin);
    const auto out = aig::eval(elab.aig, in);
    const uint32_t expected = a + b + cin;
    for (int i = 0; i < 4; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], ((expected >> i) & 1) != 0);
    EXPECT_EQ(out[4], ((expected >> 4) & 1) != 0);
  }
}

TEST(Circuits, MultiplierComputesProducts) {
  const net::Network net = make_multiplier(4);
  net.validate();
  const auto elab = net::elaborate(net);
  for (uint32_t a = 0; a < 16; ++a)
    for (uint32_t b = 0; b < 16; ++b) {
      std::vector<bool> in;
      for (int i = 0; i < 4; ++i) in.push_back(((a >> i) & 1) != 0);
      for (int i = 0; i < 4; ++i) in.push_back(((b >> i) & 1) != 0);
      const auto out = aig::eval(elab.aig, in);
      const uint32_t expected = a * b;
      for (int i = 0; i < 8; ++i)
        EXPECT_EQ(out[static_cast<size_t>(i)], ((expected >> i) & 1) != 0)
            << a << "*" << b << " bit " << i;
    }
}

TEST(Circuits, AluOpsCorrect) {
  const net::Network net = make_alu(4);
  net.validate();
  const auto elab = net::elaborate(net);
  Rng rng(2);
  for (int iter = 0; iter < 60; ++iter) {
    const uint32_t a = static_cast<uint32_t>(rng.below(16));
    const uint32_t b = static_cast<uint32_t>(rng.below(16));
    const int op = static_cast<int>(rng.below(4));
    std::vector<bool> in;
    for (int i = 0; i < 4; ++i) in.push_back(((a >> i) & 1) != 0);
    for (int i = 0; i < 4; ++i) in.push_back(((b >> i) & 1) != 0);
    in.push_back((op & 1) != 0);  // op0
    in.push_back((op & 2) != 0);  // op1
    const auto out = aig::eval(elab.aig, in);
    uint32_t expected = 0;
    switch (op) {
      case 0: expected = a + b; break;
      case 1: expected = a & b; break;
      case 2: expected = a | b; break;
      case 3: expected = a ^ b; break;
    }
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(out[static_cast<size_t>(i)], ((expected >> i) & 1) != 0)
          << "op " << op << " bit " << i;
  }
}

TEST(Circuits, ComparatorSemantics) {
  const net::Network net = make_comparator(3, 2);
  net.validate();
  const auto elab = net::elaborate(net);
  Rng rng(3);
  for (int iter = 0; iter < 60; ++iter) {
    std::vector<uint32_t> x(2), y(2);
    std::vector<bool> in;
    // Input order: per lane, interleaved x_i, y_i.
    for (int l = 0; l < 2; ++l) {
      x[static_cast<size_t>(l)] = static_cast<uint32_t>(rng.below(8));
      y[static_cast<size_t>(l)] = static_cast<uint32_t>(rng.below(8));
      for (int i = 0; i < 3; ++i) {
        in.push_back(((x[static_cast<size_t>(l)] >> i) & 1) != 0);
        in.push_back(((y[static_cast<size_t>(l)] >> i) & 1) != 0);
      }
    }
    const auto out = aig::eval(elab.aig, in);
    for (int l = 0; l < 2; ++l) {
      EXPECT_EQ(out[static_cast<size_t>(2 * l)], x[static_cast<size_t>(l)] == y[static_cast<size_t>(l)]);
      EXPECT_EQ(out[static_cast<size_t>(2 * l + 1)], x[static_cast<size_t>(l)] > y[static_cast<size_t>(l)]);
    }
  }
}

TEST(Circuits, RandomLogicIsWellFormedAndDeterministic) {
  Rng rng1(7), rng2(7);
  const net::Network a = make_random_logic(10, 5, 100, rng1);
  const net::Network b = make_random_logic(10, 5, 100, rng2);
  a.validate();
  EXPECT_EQ(a.num_gates(), b.num_gates());
  for (size_t i = 0; i < a.gates.size(); ++i) {
    EXPECT_EQ(a.gates[i].type, b.gates[i].type);
    EXPECT_EQ(a.gates[i].inputs, b.gates[i].inputs);
  }
  net::elaborate(a);  // must not throw (acyclic, driven)
}

TEST(Circuits, ParityMasksWellFormed) {
  Rng rng(9);
  const net::Network net = make_parity_masks(16, 8, rng);
  net.validate();
  const auto elab = net::elaborate(net);
  EXPECT_EQ(elab.aig.num_pos(), 8u);
}

TEST(Mutate, InstanceIsFeasibleByConstruction) {
  Rng rng(11);
  const net::Network base = make_adder(4);
  const EcoInstance inst = make_eco_instance(base, 2, rng);
  inst.impl.validate();
  inst.spec.validate();
  EXPECT_EQ(inst.target_names.size(), 2u);
  // Target signals are inputs of impl but not of spec.
  for (const auto& t : inst.target_names) {
    EXPECT_NE(std::find(inst.impl.inputs.begin(), inst.impl.inputs.end(), t),
              inst.impl.inputs.end());
    EXPECT_EQ(std::find(inst.spec.inputs.begin(), inst.spec.inputs.end(), t),
              inst.spec.inputs.end());
  }
  // Same PI/PO interface otherwise.
  EXPECT_EQ(inst.impl.inputs.size(), base.inputs.size() + 2);
  EXPECT_EQ(inst.spec.outputs.size(), base.outputs.size());
}

TEST(Mutate, SpecInternalNamesAreRenamed) {
  Rng rng(13);
  const net::Network base = make_adder(3);
  const EcoInstance inst = make_eco_instance(base, 1, rng);
  std::unordered_set<std::string> io(inst.spec.inputs.begin(), inst.spec.inputs.end());
  io.insert(inst.spec.outputs.begin(), inst.spec.outputs.end());
  for (const auto& g : inst.spec.gates)
    if (!io.count(g.output)) {
      EXPECT_EQ(g.output.rfind("sp_", 0), 0u) << "unrenamed internal: " << g.output;
    }
}

TEST(Mutate, ThrowsWhenTooManyTargets) {
  Rng rng(15);
  net::Network base;
  base.name = "tiny";
  base.inputs = {"a"};
  base.outputs = {"y"};
  base.gates.push_back({net::GateType::kNot, "y", {"a"}, ""});
  EXPECT_THROW(make_eco_instance(base, 5, rng), std::runtime_error);
}

TEST(Weights, CoverAllSignalsAndAreNonNegative) {
  Rng rng(17);
  const net::Network base = make_alu(4);
  const EcoInstance inst = make_eco_instance(base, 1, rng);
  for (int wt = 0; wt < 8; ++wt) {
    Rng wrng(static_cast<uint64_t>(100 + wt));
    const net::WeightMap wm = make_weights(inst.impl, static_cast<WeightType>(wt), wrng);
    for (const auto& s : inst.impl.all_signals()) {
      ASSERT_TRUE(wm.weights.count(s)) << "missing weight for " << s;
      EXPECT_GE(wm.weights.at(s), 0);
    }
  }
}

TEST(Weights, T1AndT2HaveOppositeDepthCorrelation) {
  Rng rng(19);
  const net::Network base = make_multiplier(6);
  Rng r1(23), r2(23);
  const net::WeightMap w1 = make_weights(base, WeightType::kT1, r1);
  const net::WeightMap w2 = make_weights(base, WeightType::kT2, r2);
  // Use gate list order as a proxy: earlier gates are shallower in these
  // generators. Compute means over the first and last quartile.
  const size_t n = base.gates.size();
  auto mean = [&](const net::WeightMap& wm, size_t lo, size_t hi) {
    double total = 0;
    for (size_t i = lo; i < hi; ++i) total += static_cast<double>(wm.weight_of(base.gates[i].output));
    return total / static_cast<double>(hi - lo);
  };
  const double shallow1 = mean(w1, 0, n / 4), deep1 = mean(w1, 3 * n / 4, n);
  const double shallow2 = mean(w2, 0, n / 4), deep2 = mean(w2, 3 * n / 4, n);
  EXPECT_GT(shallow1, deep1);
  EXPECT_GT(deep2, shallow2);
}

TEST(Suite, AllUnitsWellFormedAndDeterministic) {
  for (int i = 0; i < kNumUnits; ++i) {
    const EcoUnit unit = make_unit(i);
    unit.impl.validate();
    unit.spec.validate();
    EXPECT_EQ(unit.name, "unit" + std::to_string(i + 1));
    EXPECT_GE(unit.num_targets, 1);
    const EcoUnit again = make_unit(i);
    EXPECT_EQ(unit.impl.num_gates(), again.impl.num_gates());
    EXPECT_EQ(unit.spec.num_gates(), again.spec.num_gates());
  }
}

TEST(Suite, SizesSpanTheContestRange) {
  size_t smallest = SIZE_MAX, largest = 0;
  int max_targets = 0;
  for (int i = 0; i < kNumUnits; ++i) {
    const EcoUnit unit = make_unit(i);
    smallest = std::min(smallest, unit.impl.num_gates());
    largest = std::max(largest, unit.impl.num_gates());
    max_targets = std::max(max_targets, unit.num_targets);
  }
  EXPECT_LT(smallest, 50u);
  EXPECT_GT(largest, 4000u);
  EXPECT_EQ(max_targets, 12);
}

TEST(Suite, RejectsOutOfRangeIndex) {
  EXPECT_THROW(make_unit(-1), std::out_of_range);
  EXPECT_THROW(make_unit(kNumUnits), std::out_of_range);
}

}  // namespace
}  // namespace eco::benchgen
