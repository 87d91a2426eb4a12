#include "benchgen/suite.hpp"

#include <stdexcept>

#include "benchgen/circuits.hpp"

namespace eco::benchgen {

namespace {

/// Per-unit recipe mirroring the spread of Table 1 (circuit family, size,
/// target count, weight type).
struct UnitRecipe {
  enum class Family { kAdder, kMult, kAlu, kCmp, kRandom, kParity };
  Family family;
  int p0 = 0, p1 = 0, p2 = 0;  ///< family-specific size parameters
  int targets = 1;
  WeightType wtype = WeightType::kT1;
};

const UnitRecipe kRecipes[kNumUnits] = {
    // unit 1: tiny sanity instance (Table 1 row 1 is 6 gates).
    {UnitRecipe::Family::kAdder, 1, 0, 0, 1, WeightType::kT1},
    // unit 2: mid-size control logic, single target.
    {UnitRecipe::Family::kCmp, 8, 10, 0, 1, WeightType::kT2},
    // unit 3: wide comparator bank, single target.
    {UnitRecipe::Family::kCmp, 16, 14, 0, 1, WeightType::kT3},
    // unit 4: small random logic.
    {UnitRecipe::Family::kRandom, 11, 6, 60, 1, WeightType::kT4},
    // unit 5: large multiplier, two targets.
    {UnitRecipe::Family::kMult, 12, 0, 0, 2, WeightType::kT5},
    // unit 6: large multiplier, two targets (structurally hard in Table 1).
    {UnitRecipe::Family::kMult, 16, 0, 0, 2, WeightType::kT6},
    // unit 7: ALU, single target.
    {UnitRecipe::Family::kAlu, 24, 0, 0, 1, WeightType::kT7},
    // unit 8: random logic, single target.
    {UnitRecipe::Family::kRandom, 64, 32, 2400, 1, WeightType::kT8},
    // unit 9: parity masks, four targets.
    {UnitRecipe::Family::kParity, 48, 40, 0, 4, WeightType::kT1},
    // unit 10: small but deep random logic, two targets.
    {UnitRecipe::Family::kRandom, 32, 24, 1500, 2, WeightType::kT2},
    // unit 11: eight targets (structural in Table 1).
    {UnitRecipe::Family::kRandom, 48, 50, 2000, 8, WeightType::kT3},
    // unit 12: big cone feeding few outputs.
    {UnitRecipe::Family::kRandom, 46, 27, 3000, 1, WeightType::kT4},
    // unit 13: small dense logic, single target.
    {UnitRecipe::Family::kRandom, 25, 16, 350, 1, WeightType::kT5},
    // unit 14: twelve targets on a small circuit (Table 1 row 14).
    {UnitRecipe::Family::kRandom, 17, 15, 450, 12, WeightType::kT6},
    // unit 15: comparator lanes, single target.
    {UnitRecipe::Family::kCmp, 12, 8, 0, 1, WeightType::kT7},
    // unit 16: adder with wide interface, two targets.
    {UnitRecipe::Family::kAdder, 100, 0, 0, 2, WeightType::kT8},
    // unit 17: ALU, eight targets.
    {UnitRecipe::Family::kAlu, 16, 0, 0, 8, WeightType::kT1},
    // unit 18: random logic, single target.
    {UnitRecipe::Family::kRandom, 96, 40, 3200, 1, WeightType::kT2},
    // unit 19: large multiplier, four targets (structural in Table 1).
    {UnitRecipe::Family::kMult, 14, 0, 0, 4, WeightType::kT3},
    // unit 20: widest interface, four targets.
    {UnitRecipe::Family::kParity, 512, 96, 0, 4, WeightType::kT4},
};

/// Multiplies the recipe's size parameters so the unit's gate count grows
/// roughly linearly in \p scale. Widths scale directly for the linear-cost
/// families; the array multiplier is quadratic in its width, so it takes
/// ceil(sqrt(scale)); random logic scales its gate target linearly and its
/// interface by ~sqrt so the DAG gets deeper as well as wider.
UnitRecipe scale_recipe(UnitRecipe r, int scale) {
  if (scale <= 1) return r;
  int root = 1;
  while (root * root < scale) ++root;  // ceil(sqrt(scale))
  using Family = UnitRecipe::Family;
  switch (r.family) {
    case Family::kAdder:
    case Family::kAlu:
      r.p0 *= scale;
      break;
    case Family::kMult:
      r.p0 *= root;
      break;
    case Family::kCmp:
      r.p0 *= root;
      r.p1 *= root;
      break;
    case Family::kRandom:
      r.p0 *= root;
      r.p1 *= root;
      r.p2 *= scale;
      break;
    case Family::kParity:
      r.p0 *= root;
      r.p1 *= root;
      break;
  }
  return r;
}

net::Network build_base(const UnitRecipe& recipe, Rng& rng) {
  using Family = UnitRecipe::Family;
  switch (recipe.family) {
    case Family::kAdder: return make_adder(recipe.p0);
    case Family::kMult: return make_multiplier(recipe.p0);
    case Family::kAlu: return make_alu(recipe.p0);
    case Family::kCmp: return make_comparator(recipe.p0, recipe.p1);
    case Family::kRandom: return make_random_logic(recipe.p0, recipe.p1, recipe.p2, rng);
    case Family::kParity: return make_parity_masks(recipe.p0, recipe.p1, rng);
  }
  throw std::logic_error("unknown family");
}

}  // namespace

EcoUnit make_unit(int index, uint64_t seed, int scale) {
  if (index < 0 || index >= kNumUnits)
    throw std::out_of_range("make_unit: index must be in [0, 20)");
  if (scale < 1) throw std::out_of_range("make_unit: scale must be >= 1");
  const UnitRecipe recipe = scale_recipe(kRecipes[index], scale);
  Rng rng(seed * 1000003ULL + static_cast<uint64_t>(index) * 7919ULL + 1);

  EcoUnit unit;
  unit.name = "unit" + std::to_string(index + 1);
  if (scale > 1) unit.name += "@x" + std::to_string(scale);
  unit.num_targets = recipe.targets;
  unit.weight_type = recipe.wtype;

  const net::Network base = build_base(recipe, rng);
  EcoInstance instance = make_eco_instance(base, recipe.targets, rng);
  unit.weights = make_weights(instance.impl, recipe.wtype, rng);
  unit.impl = std::move(instance.impl);
  unit.spec = std::move(instance.spec);
  return unit;
}

}  // namespace eco::benchgen
