#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aig/sim.hpp"
#include "aig/simbank.hpp"
#include "benchgen/circuits.hpp"
#include "benchgen/mutate.hpp"
#include "benchgen/suite.hpp"
#include "benchgen/weightgen.hpp"
#include "cec/cec.hpp"
#include "eco/engine.hpp"
#include "eco/miter.hpp"
#include "eco/simfilter.hpp"
#include "eco/support.hpp"
#include "eco/window.hpp"
#include "net/verilog.hpp"
#include "util/rng.hpp"

namespace eco::core {
namespace {

/// Same reference instance as test_eco_core: y = t | c must become
/// y = (a & b) | c, with a redundant divisor `ab` = a & b available.
EcoProblem reference_problem() {
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
  return make_problem(impl, spec, weights);
}

/// Reference check of a bank: every node row over every pattern must agree
/// with aig::eval of the pattern the bank reports for that column.
void expect_bank_matches_eval(aig::SimBank& bank) {
  const aig::Aig& g = bank.aig();
  for (uint32_t p = 0; p < bank.num_patterns(); ++p) {
    const std::vector<bool> pattern = bank.pattern(p);
    ASSERT_EQ(pattern.size(), g.num_pis());
    // Recompute all node values by direct single-pattern simulation.
    std::vector<uint64_t> pi_words(g.num_pis());
    for (uint32_t i = 0; i < g.num_pis(); ++i) pi_words[i] = pattern[i] ? ~0ULL : 0ULL;
    const std::vector<uint64_t> ref = aig::simulate(g, pi_words);
    for (aig::Node n = 0; n < g.num_nodes(); ++n) {
      const bool expect = (ref[n] & 1ULL) != 0;
      EXPECT_EQ(bank.value(aig::lit_make(n), p), expect)
          << "node " << n << " pattern " << p;
    }
  }
}

TEST(SimBank, SeedAndAppendedPatternsMatchReferenceSimulation) {
  const EcoProblem p = reference_problem();
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  aig::SimBankOptions opt;
  opt.seed_words = 2;
  opt.capacity_words = 4;
  aig::SimBank bank(m.aig, opt);
  EXPECT_EQ(bank.num_patterns(), 2u * 64u);
  expect_bank_matches_eval(bank);

  // Append directed patterns one by one; values must stay exact (the last
  // word is partially filled, exercising the valid-mask path).
  Rng rng(7);
  for (int k = 0; k < 37; ++k) {
    std::vector<bool> pat(m.aig.num_pis());
    for (size_t i = 0; i < pat.size(); ++i) pat[i] = rng.below(2) != 0;
    ASSERT_TRUE(bank.add_pattern(pat));
  }
  EXPECT_EQ(bank.num_patterns(), 2u * 64u + 37u);
  expect_bank_matches_eval(bank);
}

TEST(SimBank, ExtendsOverAigGrowth) {
  const EcoProblem p = reference_problem();
  aig::Aig g = build_eco_miter(p.impl, p.spec, p.divisors).aig;
  aig::SimBankOptions opt;
  opt.seed_words = 1;
  opt.capacity_words = 2;
  aig::SimBank bank(g, opt);
  // Read a row (forces the initial sync), then grow the AIG and append a
  // pattern; rows of the new nodes must be simulated on the next query.
  bank.row(0);
  const aig::Lit x = g.pi_lit(0), y = g.pi_lit(1);
  const aig::Lit f = g.add_and(aig::lit_not(g.add_and(x, y)), g.add_and(x, aig::lit_not(y)));
  bank.add_pattern(std::vector<bool>(g.num_pis(), true));
  expect_bank_matches_eval(bank);
  // Spot-check the new node: f = ~(x&y) & (x&~y) == x & ~y & ~(x&y) == false
  // whenever x&y, i.e. f is x&~y&... evaluate directly.
  for (uint32_t p2 = 0; p2 < bank.num_patterns(); ++p2) {
    const std::vector<bool> pat = bank.pattern(p2);
    const bool expect = !(pat[0] && pat[1]) && (pat[0] && !pat[1]);
    EXPECT_EQ(bank.value(f, p2), expect);
  }
}

TEST(SimBank, CapacityCapRespected) {
  const EcoProblem p = reference_problem();
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  aig::SimBankOptions opt;
  opt.seed_words = 1;
  opt.capacity_words = 1;
  aig::SimBank bank(m.aig, opt);
  EXPECT_TRUE(bank.full());
  EXPECT_FALSE(bank.add_pattern(std::vector<bool>(m.aig.num_pis(), false)));
  EXPECT_EQ(bank.num_patterns(), 64u);
}

/// A full-stride bank: every row spans the whole capacity and the buffer is
/// zero-filled. The reference of the differential test below.
class FullStrideBank {
 public:
  FullStrideBank(const aig::Aig& g, const aig::SimBankOptions& options) : g_(&g) {
    const uint64_t nodes = std::max<uint64_t>(1, g.num_nodes());
    capacity_ = std::max<uint64_t>(
        1, std::min<uint64_t>(options.capacity_words, options.memory_budget_bytes / (8 * nodes)));
    const size_t seed_words = std::min<size_t>(options.seed_words, capacity_);
    known_ = g.num_nodes();
    words_.assign(known_ * capacity_, 0);
    const std::vector<uint64_t> pi_words = aig::random_pi_words(g, options.seed, seed_words);
    for (uint32_t i = 0; i < g.num_pis(); ++i)
      for (size_t w = 0; w < seed_words; ++w)
        words_[g.pi_node(i) * capacity_ + w] = pi_words[i * seed_words + w];
    patterns_ = static_cast<uint32_t>(seed_words * 64);
  }

  bool add_pattern(const std::vector<bool>& pi_values) {
    if (patterns_ >= capacity_ * 64) return false;
    const size_t w = patterns_ / 64;
    for (uint32_t i = 0; i < g_->num_pis(); ++i)
      if (pi_values[i]) words_[g_->pi_node(i) * capacity_ + w] |= 1ULL << (patterns_ % 64);
    ++patterns_;
    clean_ = std::min(clean_, w);
    return true;
  }

  std::span<const uint64_t> row(aig::Node n) {
    const size_t target = (patterns_ + 63) / 64;
    const auto simulate = [&](aig::Node m, size_t from, size_t to) {
      const aig::Lit a = g_->fanin0(m), b = g_->fanin1(m);
      const uint64_t ma = aig::lit_compl(a) ? ~0ULL : 0ULL;
      const uint64_t mb = aig::lit_compl(b) ? ~0ULL : 0ULL;
      for (size_t w = from; w < to; ++w)
        words_[m * capacity_ + w] = (words_[aig::lit_node(a) * capacity_ + w] ^ ma) &
                                    (words_[aig::lit_node(b) * capacity_ + w] ^ mb);
    };
    if (g_->num_nodes() > known_) {
      words_.resize(g_->num_nodes() * capacity_, 0);
      for (aig::Node m = static_cast<aig::Node>(known_); m < g_->num_nodes(); ++m)
        simulate(m, 0, clean_);
      resim_ += (g_->num_nodes() - known_) * clean_;
      known_ = g_->num_nodes();
    }
    if (clean_ < target) {
      for (aig::Node m = g_->num_pis() + 1; m < known_; ++m) simulate(m, clean_, target);
      resim_ += g_->num_ands() * (target - clean_);
      clean_ = target;
    }
    return {words_.data() + n * capacity_, target};
  }

  uint64_t resim_node_words() const { return resim_; }

 private:
  const aig::Aig* g_;
  size_t capacity_ = 0, known_ = 0, clean_ = 0;
  uint32_t patterns_ = 0;
  std::vector<uint64_t> words_;
  uint64_t resim_ = 0;
};

/// Leaves \p bytes of poisoned memory in the allocator's free lists, so a
/// bank word read before it is simulated or zeroed differs from the
/// reference. Blocks stay below glibc's 128 KB mmap threshold, whose chunks
/// would go back to the system on free.
void poison_free_memory(size_t bytes) {
  bytes = std::min<size_t>(bytes, 120 << 10);
  void* block = std::malloc(bytes);
  ASSERT_NE(block, nullptr);
  std::memset(block, 0xa5, bytes);
  std::free(block);
}

TEST(SimBank, MatchesFullStrideReference) {
  // Random AIGs that grow after the banks are built, and random pattern
  // batches up to and past the capacity, under several seed/capacity shapes
  // (a small memory budget lowers the capacity).
  Rng rng(2024);
  const uint32_t shapes[][2] = {{4, 16}, {1, 2}, {0, 3}, {2, 5}, {3, 8}, {4, 4}, {1, 1}};
  int reached_full = 0;
  for (int round = 0; round < 28; ++round) {
    const auto& shape = shapes[round % 7];
    aig::Aig g;
    std::vector<aig::Lit> pool;
    const int num_pis = 1 + static_cast<int>(rng.below(40));
    for (int i = 0; i < num_pis; ++i) pool.push_back(g.add_pi());
    const auto grow = [&](uint64_t ands) {
      for (uint64_t i = 0; i < ands; ++i)
        pool.push_back(g.add_and(aig::lit_notif(pool[rng.below(pool.size())], rng.chance(1, 2)),
                                 aig::lit_notif(pool[rng.below(pool.size())], rng.chance(1, 2))));
    };
    grow(rng.below(300));
    aig::SimBankOptions opt;
    opt.seed_words = shape[0];
    opt.capacity_words = shape[1];
    opt.seed = rng.next();
    if (round >= 21) opt.memory_budget_bytes = 8 * g.num_nodes() * 3;
    FullStrideBank ref(g, opt);
    poison_free_memory(8 * g.num_nodes() * std::max<size_t>(1, shape[0]));
    aig::SimBank bank(g, opt);
    for (int step = 0; step < 12; ++step) {
      poison_free_memory(16 * g.num_nodes() * shape[1] + 4096);
      for (uint64_t op = 1 + rng.below(4); op-- > 0;) {
        if (rng.chance(1, 3)) {
          grow(rng.below(60));
          continue;
        }
        for (uint64_t k = rng.below(rng.chance(1, 4) ? 400 : 70); k-- > 0;) {
          std::vector<bool> pattern(g.num_pis());
          for (size_t i = 0; i < pattern.size(); ++i) pattern[i] = rng.chance(1, 2);
          ASSERT_EQ(bank.add_pattern(pattern), ref.add_pattern(pattern));
        }
      }
      for (aig::Node n = 0; n < g.num_nodes(); ++n) {
        const auto want = ref.row(n);
        const auto got = bank.row(n);
        ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
            << "round " << round << " step " << step << " node " << n;
      }
      ASSERT_EQ(bank.resim_node_words(), ref.resim_node_words())
          << "round " << round << " step " << step;
    }
    reached_full += bank.full() ? 1 : 0;
  }
  EXPECT_GE(reached_full, 7) << "too few rounds reached the capacity";
}

/// Every harvested counterexample must evaluate the miter to the recorded
/// class: out = 1, and the target PI equal to the recorded on/off claim.
TEST(SimFilter, HarvestedCounterexamplesEvaluateMiterToRecordedClass) {
  const EcoProblem p = reference_problem();
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  std::vector<size_t> all(p.divisors.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;

  SimFilterOptions fopt;
  fopt.seed_words = 1;
  SimFilter filter(m, /*target=*/0, fopt);
  SupportInstance inst(m, 0, p.divisors, all);
  inst.attach_sim_filter(&filter);

  // Insufficient subsets produce kTrue verdicts whose models are harvested.
  // {} and {c} cannot express the patch t = a & b.
  std::vector<size_t> c_only;
  for (size_t i = 0; i < p.divisors.size(); ++i)
    if (p.divisors[i].name == "c") c_only.push_back(i);
  ASSERT_EQ(c_only.size(), 1u);
  EXPECT_TRUE(inst.check_subset(std::span<const size_t>{}).is_true());
  EXPECT_TRUE(inst.check_subset(c_only).is_true());
  ASSERT_GT(filter.num_counterexamples(), 0u);

  // The miter's PO 0 is the mismatch output; its target PI is index
  // num_x + 0. An on-set point (recorded_off = false) witnesses
  // M(target=0, x) = 1, an off-set point M(target=1, x) = 1.
  for (uint32_t i = 0; i < filter.num_counterexamples(); ++i) {
    const std::vector<bool> pattern = filter.counterexample_pattern(i);
    ASSERT_EQ(pattern.size(), m.aig.num_pis());
    EXPECT_EQ(pattern[m.target_pi(0)], filter.recorded_off(i)) << "counterexample " << i;
    EXPECT_TRUE(aig::eval(m.aig, pattern)[0]) << "counterexample " << i
                                              << " does not excite the miter";
  }
}

/// refutes_subset must be exact: whenever it answers, the solver (without
/// filtering) must agree the subset is insufficient; and it must never
/// refute a subset the solver proves sufficient.
TEST(SimFilter, SubsetRefutationAgreesWithSolver) {
  const EcoProblem p = reference_problem();
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  std::vector<size_t> all(p.divisors.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;

  SimFilterOptions fopt;
  fopt.seed_words = 2;
  SimFilter filter(m, 0, fopt);
  // Harvest a few counterexamples to sharpen the bank beyond the seeds.
  {
    SupportInstance grow(m, 0, p.divisors, all);
    grow.attach_sim_filter(&filter);
    grow.check_subset(std::span<const size_t>{});
  }

  Rng rng(11);
  int refuted = 0;
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<size_t> subset;
    for (size_t i = 0; i < all.size(); ++i)
      if (rng.below(2) != 0) subset.push_back(i);
    const bool sim_says_insufficient = filter.refutes_subset(subset);
    // Fresh instance: no filter involved in the verdict.
    SupportInstance check(m, 0, p.divisors, all);
    const sat::LBool verdict = check.check_subset(subset);
    ASSERT_FALSE(verdict.is_undef());
    if (sim_says_insufficient) {
      ++refuted;
      EXPECT_TRUE(verdict.is_true()) << "bank refuted a sufficient subset";
      // The separator must name at least one distinguishing divisor, all
      // from the candidate list.
      const std::vector<size_t> sep = filter.separator(all);
      EXPECT_FALSE(sep.empty());
      for (const size_t d : sep) EXPECT_LT(d, p.divisors.size());
    }
  }
  // The reference instance is tiny: with 128+ patterns the bank must have
  // answered at least one insufficient draw (e.g. the empty/near-empty ones).
  EXPECT_GT(refuted, 0);
}

TEST(ResubFilter, NeverRefutesATrueDependency) {
  // func = a ^ b over divisors {a, b} IS a function of its divisors; over
  // {a & b} it is not (00 vs 01 agree on ab = 0 but differ on the xor).
  aig::Aig g;
  const aig::Lit a = g.add_pi("a");
  const aig::Lit b = g.add_pi("b");
  const aig::Lit ab = g.add_and(a, b);
  const aig::Lit x = g.add_and(aig::lit_not(ab), aig::lit_not(g.add_and(aig::lit_not(a), aig::lit_not(b))));
  g.add_po(x, "x");

  std::vector<Divisor> divisors(3);
  divisors[0].lit = a;
  divisors[0].name = "a";
  divisors[1].lit = b;
  divisors[1].name = "b";
  divisors[2].lit = ab;
  divisors[2].name = "ab";

  SimFilterOptions fopt;
  fopt.seed_words = 4;  // 256 random draws over 2 PIs: all 4 minterms present
  ResubFilter filter(g, fopt);

  const std::vector<size_t> good = {0, 1};
  EXPECT_FALSE(filter.refutes_dependency(x, divisors, good));
  const std::vector<size_t> bad = {2};
  EXPECT_TRUE(filter.refutes_dependency(x, divisors, bad));
}

TEST(CecSeeds, SeedPatternDecidesWithoutSolver) {
  // g: out = a & ~b. The seed {1, 0} excites it; seeds are screened before
  // the random rounds, so the counterexample is exactly the seed.
  aig::Aig g;
  const aig::Lit a = g.add_pi("a");
  const aig::Lit b = g.add_pi("b");
  const aig::Lit out = g.add_and(a, aig::lit_not(b));
  g.add_po(out, "out");

  const std::vector<std::vector<bool>> seeds = {{false, false}, {true, false}};
  const cec::CecResult r = cec::check_const0(g, out, /*conflict_budget=*/-1, {}, seeds);
  ASSERT_EQ(r.status, cec::Status::kNotEquivalent);
  EXPECT_EQ(r.counterexample, (std::vector<bool>{true, false}));

  // Short seeds are completed with 0: {true} alone also hits a & ~b.
  const std::vector<std::vector<bool>> short_seed = {{true}};
  const cec::CecResult r2 = cec::check_const0(g, out, -1, {}, short_seed);
  ASSERT_EQ(r2.status, cec::Status::kNotEquivalent);
  EXPECT_EQ(r2.counterexample, (std::vector<bool>{true, false}));

  // Seeds that do not fire leave the verdict to the SAT path, which must
  // still find the function satisfiable.
  const std::vector<std::vector<bool>> misses = {{false, true}, {true, true}};
  const cec::CecResult r3 = cec::check_const0(g, out, -1, {}, misses);
  ASSERT_EQ(r3.status, cec::Status::kNotEquivalent);
  EXPECT_TRUE(aig::eval(g, r3.counterexample)[0]);

  // And on a constant-false root, seeds cannot produce a false positive.
  const aig::Lit never = g.add_and(a, aig::lit_not(a));
  const cec::CecResult r4 = cec::check_const0(g, never, -1, {}, seeds);
  EXPECT_EQ(r4.status, cec::Status::kEquivalent);
}

EngineOptions fast_options(Algorithm algorithm, bool sim_bank) {
  EngineOptions options;
  options.algorithm = algorithm;
  options.conflict_budget = 200000;
  options.max_expansion_nodes = 500000;
  options.time_budget = 20;
  options.simfilter.enabled = sim_bank;
  return options;
}

/// Differential property over generated benchmark mutations: the simulation
/// bank must be invisible in every result field — identical outcome, cost,
/// gate count, and method with the bank on and off — while strictly avoiding
/// solver work whenever its counters fire.
// Algorithm 1 with the bank screen on (a SimFilter attached) must choose the
// same support at the same cost, with the same query count, as without a
// filter, on the first target of the scale-1 suite units; the screen must
// answer some of those queries without the solver. unit12 and unit20 (make_unit
// 11 and 19), whose Table-1 rows all run to the clock, are left out: their
// support computations alone take about 10 s each.
TEST(SimFilter, ScreenedSupportMatchesUnscreenedOnSuiteUnits) {
  uint64_t screened_solves = 0, plain_solves = 0, refuted = 0;
  int compared = 0;
  for (int u = 0; u < benchgen::kNumUnits; ++u) {
    if (u == 11 || u == 19) continue;
    const benchgen::EcoUnit unit = benchgen::make_unit(u);
    const EcoProblem problem = make_problem(unit.impl, unit.spec, unit.weights);
    const Window window = compute_window(problem, /*conflict_budget=*/300000);
    if (!window.outside_equal) continue;
    std::vector<uint32_t> rest;
    for (uint32_t t = 1; t < problem.num_targets(); ++t) rest.push_back(t);
    EcoMiter mq;
    try {
      mq = quantify_targets(build_eco_miter(problem.impl, problem.spec, problem.divisors,
                                            window.affected_pos),
                            rest, /*max_nodes=*/200000);
    } catch (const std::runtime_error&) {
      continue;  // expansion too large: the engine falls back here as well
    }
    SupportOptions sopt;
    sopt.conflict_budget = 300000;
    const auto run = [&](bool with_filter, uint64_t& solves) {
      SupportInstance inst(mq, 0, problem.divisors, window.divisor_indices);
      std::optional<SimFilter> filter;
      if (with_filter) {
        filter.emplace(mq, 0);
        inst.attach_sim_filter(&*filter);
      }
      const SupportResult r = compute_support(inst, problem.divisors, sopt);
      solves += inst.solver().stats().solves;
      if (filter.has_value()) refuted += filter->stats().refuted_support;
      return r;
    };
    const SupportResult plain = run(false, plain_solves);
    const SupportResult screened = run(true, screened_solves);
    EXPECT_EQ(screened.feasible, plain.feasible) << unit.name;
    EXPECT_EQ(screened.budget_expired, plain.budget_expired) << unit.name;
    EXPECT_EQ(screened.chosen, plain.chosen) << unit.name;
    EXPECT_EQ(screened.cost, plain.cost) << unit.name;
    EXPECT_EQ(screened.sat_calls, plain.sat_calls) << unit.name;
    ++compared;
  }
  EXPECT_GT(compared, benchgen::kNumUnits / 2);
  EXPECT_GT(refuted, 0u);
  EXPECT_LT(screened_solves, plain_solves);
}

// Warm-session patterns seed each target's bank as bank patterns: a filter
// lists only its own counterexamples, and a run fed the previous run's
// harvest returns the same outcome with no more solves, its harvest listing
// its own counterexamples before the warm ones.
TEST(SimFilter, WarmPrefixesSeedTheBankButAreNotCounterexamples) {
  const EcoProblem p = reference_problem();
  const EcoMiter m = build_eco_miter(p.impl, p.spec, p.divisors);
  SimFilter filter(m, 0);
  const uint32_t seeds = filter.bank().num_patterns();
  const std::vector<std::vector<bool>> warm = {
      std::vector<bool>(m.num_x, true), std::vector<bool>(m.num_x, false)};
  filter.seed_prefixes(warm);
  ASSERT_EQ(filter.bank().num_patterns(), seeds + 4);
  for (uint32_t i = 0; i < 4; ++i) {
    const std::vector<bool> pattern = filter.bank().pattern(seeds + i);
    EXPECT_EQ(pattern[m.target_pi(0)], i % 2 == 1);
    for (uint32_t x = 0; x < m.num_x; ++x) EXPECT_EQ(pattern[x], warm[i / 2][x]);
  }
  EXPECT_EQ(filter.num_counterexamples(), 0u);
  EXPECT_TRUE(filter.counterexample_prefixes(m.num_x, 256).empty());
  std::vector<bool> cex(m.aig.num_pis(), false);
  cex[0] = true;
  filter.add_counterexample(cex, /*off_set=*/false);
  ASSERT_EQ(filter.num_counterexamples(), 1u);
  EXPECT_EQ(filter.counterexample_pattern(0), cex);

  for (const int u : {0, 1, 3}) {
    const benchgen::EcoUnit unit = benchgen::make_unit(u);
    const EcoProblem problem = make_problem(unit.impl, unit.spec, unit.weights);
    const EcoOutcome cold = run_eco(problem, fast_options(Algorithm::kMinimize, true));
    ASSERT_EQ(cold.status, EcoOutcome::Status::kPatched) << unit.name;
    ASSERT_FALSE(cold.harvested_patterns.empty()) << unit.name;
    EngineOptions options = fast_options(Algorithm::kMinimize, true);
    options.warm_patterns = &cold.harvested_patterns;
    const EcoOutcome warm_run = run_eco(problem, options);
    ASSERT_EQ(warm_run.status, cold.status) << unit.name;
    EXPECT_EQ(warm_run.verified, cold.verified) << unit.name;
    EXPECT_EQ(warm_run.method, cold.method) << unit.name;
    EXPECT_EQ(warm_run.total_cost, cold.total_cost) << unit.name;
    EXPECT_EQ(warm_run.patch_gates, cold.patch_gates) << unit.name;
    EXPECT_EQ(warm_run.stats.support_sat_calls, cold.stats.support_sat_calls) << unit.name;
    EXPECT_LE(warm_run.stats.sat_solves, cold.stats.sat_solves) << unit.name;
    EXPECT_GE(warm_run.stats.sim_refuted_support, cold.stats.sim_refuted_support) << unit.name;
    // The harvest is this run's own counterexamples, then the warm seeds.
    const auto& harvest = warm_run.harvested_patterns;
    const auto& seeded = cold.harvested_patterns;
    ASSERT_LT(harvest.size(), 256u) << unit.name;
    ASSERT_GT(harvest.size(), seeded.size()) << unit.name;
    EXPECT_TRUE(std::equal(seeded.begin(), seeded.end(), harvest.end() - seeded.size()))
        << unit.name;
  }
}

class SimFilterDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SimFilterDifferentialTest, BankOnOffResultsAreIdentical) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761ULL + 17);
  uint64_t bank_patterns = 0;
  uint64_t filter_hits = 0;
  int instances = 0;
  for (int iter = 0; iter < 4; ++iter) {
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
    ++instances;

    const Algorithm algorithm = static_cast<Algorithm>((GetParam() + iter) % 3);
    const EcoOutcome off = run_eco(problem, fast_options(algorithm, false));
    const EcoOutcome on = run_eco(problem, fast_options(algorithm, true));

    EXPECT_EQ(on.status, off.status) << "seed " << GetParam() << " iter " << iter;
    EXPECT_EQ(on.verified, off.verified) << "seed " << GetParam() << " iter " << iter;
    EXPECT_EQ(on.method, off.method) << "seed " << GetParam() << " iter " << iter;
    EXPECT_EQ(on.total_cost, off.total_cost) << "seed " << GetParam() << " iter " << iter;
    EXPECT_EQ(on.patch_gates, off.patch_gates) << "seed " << GetParam() << " iter " << iter;

    // The bank must be truly off when disabled...
    EXPECT_EQ(off.stats.sim_bank_patterns, 0u);
    EXPECT_EQ(off.stats.sim_refuted_support + off.stats.sim_filtered_resub +
                  off.stats.sim_irredundant_hits,
              0u);
    bank_patterns += on.stats.sim_bank_patterns;
    filter_hits += on.stats.sim_refuted_support + on.stats.sim_filtered_resub +
                   on.stats.sim_irredundant_hits;
    // ...and every answered query is a solve the off run had to make.
    if (on.stats.sim_refuted_support + on.stats.sim_irredundant_hits > 0) {
      EXPECT_LT(on.stats.sat_solves, off.stats.sat_solves)
          << "seed " << GetParam() << " iter " << iter;
    }
  }
  // Each parameter value sees several generated instances; the engine's SAT
  // path always records at least its enumeration models into the bank.
  if (instances > 0) {
    EXPECT_GT(bank_patterns + filter_hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimFilterDifferentialTest, ::testing::Range(0, 8));

// ---- indistinguishable_pair differential ---------------------------------

struct SigHash {
  size_t operator()(const std::vector<uint64_t>& v) const noexcept {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const uint64_t w : v) h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

/// The original search: one heap-allocated signature per on-set pattern in
/// an unordered_map, first on-set pattern per signature kept. Kept as the
/// reference the flat signature table must match.
std::optional<std::pair<uint32_t, uint32_t>> reference_indistinguishable_pair(
    aig::SimBank& bank, const std::vector<uint64_t>& on, const std::vector<uint64_t>& off,
    std::span<const aig::Lit> lits) {
  const size_t words = bank.num_words();
  std::vector<std::span<const uint64_t>> rows;
  std::vector<uint64_t> compl_mask;
  for (const aig::Lit l : lits) {
    rows.push_back(bank.row(aig::lit_node(l)));
    compl_mask.push_back(aig::lit_compl(l) ? ~0ULL : 0ULL);
  }
  std::vector<uint64_t> sig(lits.size() / 64 + 1);
  const auto signature_of = [&](uint32_t p) {
    std::fill(sig.begin(), sig.end(), 0);
    for (size_t j = 0; j < rows.size(); ++j)
      sig[j / 64] |= (((rows[j][p / 64] ^ compl_mask[j]) >> (p % 64)) & 1ULL) << (j % 64);
    return sig;
  };
  std::unordered_map<std::vector<uint64_t>, uint32_t, SigHash> on_sigs;
  for (size_t w = 0; w < words; ++w)
    for (uint64_t bits = on[w]; bits != 0; bits &= bits - 1) {
      const uint32_t p = static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits));
      on_sigs.emplace(signature_of(p), p);
    }
  if (on_sigs.empty()) return std::nullopt;
  for (size_t w = 0; w < words; ++w)
    for (uint64_t bits = off[w]; bits != 0; bits &= bits - 1) {
      const uint32_t p = static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits));
      const auto it = on_sigs.find(signature_of(p));
      if (it != on_sigs.end()) return std::make_pair(it->second, p);
    }
  return std::nullopt;
}

// Seeded random banks over random AIGs, random on/off sets (empty, sparse
// and dense) and literal lists from empty to three signature words, with
// repeats, complements and the constant node.
TEST(SimFilter, IndistinguishablePairMatchesReference) {
  size_t found = 0, queries = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed + 900);
    aig::Aig g;
    std::vector<aig::Lit> pool;
    const int num_pis = 2 + static_cast<int>(rng.below(10));
    for (int i = 0; i < num_pis; ++i) pool.push_back(g.add_pi());
    for (int i = 0; i < 150; ++i)
      pool.push_back(g.add_and(aig::lit_notif(pool[rng.below(pool.size())], rng.chance(1, 2)),
                               aig::lit_notif(pool[rng.below(pool.size())], rng.chance(1, 2))));
    aig::SimBankOptions opt;
    opt.seed_words = 1 + static_cast<uint32_t>(rng.below(3));
    opt.capacity_words = 6;
    opt.seed = seed;
    aig::SimBank bank(g, opt);
    const uint64_t extra = rng.below(150);
    for (uint64_t k = 0; k < extra; ++k) {
      std::vector<bool> pat(g.num_pis());
      for (size_t i = 0; i < pat.size(); ++i) pat[i] = rng.chance(1, 2);
      bank.add_pattern(pat);
    }
    const size_t words = bank.num_words();
    for (int q = 0; q < 25; ++q) {
      std::vector<uint64_t> on(words), off(words);
      const uint64_t density = rng.below(4);  // 0: empty on-set
      for (size_t w = 0; w < words; ++w) {
        uint64_t bits = density == 0 ? 0 : rng.next();
        for (uint64_t d = density; d < 3; ++d) bits &= rng.next();
        on[w] = bits & bank.valid_mask(w);
        off[w] = rng.next() & ~on[w] & bank.valid_mask(w);
      }
      std::vector<aig::Lit> lits(rng.chance(1, 2) ? rng.below(7) : rng.below(160));
      for (aig::Lit& l : lits)
        l = aig::lit_make(static_cast<aig::Node>(rng.below(g.num_nodes())), rng.chance(1, 2));
      const auto want = reference_indistinguishable_pair(bank, on, off, lits);
      EXPECT_EQ(indistinguishable_pair(bank, on, off, lits), want);
      found += want.has_value();
      ++queries;
    }
  }
  // Both outcomes must be well represented for the comparison to mean much.
  EXPECT_GT(found, queries / 5);
  EXPECT_LT(found, queries - queries / 5);
}

}  // namespace
}  // namespace eco::core
