/// \file suite.hpp
/// \brief The 20-unit benchmark suite standing in for the ICCAD'17 contest
/// benchmarks (paper §4.1, Table 1; substitution documented in DESIGN.md).
///
/// Units span the suite's shape: sizes from a handful of gates to tens of
/// thousands, 1–12 rectification targets, and the eight weight
/// distributions T1–T8. Everything is deterministic from the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "benchgen/mutate.hpp"
#include "benchgen/weightgen.hpp"
#include "net/network.hpp"

namespace eco::benchgen {

struct EcoUnit {
  std::string name;
  net::Network impl;
  net::Network spec;
  net::WeightMap weights;
  int num_targets = 0;
  WeightType weight_type = WeightType::kT1;
};

/// Builds unit \p index (0-based, 0..19). \p scale multiplies the recipe's
/// size parameters (gate counts grow roughly linearly in \p scale, ~10× at
/// scale 10): datapath widths for the arithmetic families, gate/input counts
/// for random logic. Scaled units carry an "@xN" name suffix; scale 1 is
/// bit-identical to the historical suite. Targets are cut from the larger
/// netlist, so fanout cones widen and rewires reach proportionally farther.
EcoUnit make_unit(int index, uint64_t seed = 20170912, int scale = 1);

/// Number of units in the suite.
constexpr int kNumUnits = 20;

}  // namespace eco::benchgen
