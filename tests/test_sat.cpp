#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace eco::sat {
namespace {

/// Brute-force satisfiability over <= 24 variables, for cross-checking.
bool brute_force_sat(const Cnf& cnf, const LitVec& assumptions = {}) {
  EXPECT_LE(cnf.num_vars, 24);
  for (uint32_t m = 0; m < (1u << cnf.num_vars); ++m) {
    auto lit_true = [&](Lit l) { return (((m >> l.var()) & 1u) != 0) != l.sign(); };
    bool ok = std::all_of(assumptions.begin(), assumptions.end(), lit_true);
    for (const auto& clause : cnf.clauses) {
      if (!ok) break;
      ok = std::any_of(clause.begin(), clause.end(), lit_true);
    }
    if (ok) return true;
  }
  return false;
}

/// Checks that the solver's model satisfies every clause of \p cnf.
void expect_model_satisfies(const Solver& s, const Cnf& cnf) {
  for (const auto& clause : cnf.clauses) {
    const bool sat = std::any_of(clause.begin(), clause.end(),
                                 [&](Lit l) { return s.model_value(l); });
    EXPECT_TRUE(sat) << "model violates a clause";
  }
}

Cnf random_3sat(Rng& rng, int num_vars, int num_clauses) {
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (int i = 0; i < num_clauses; ++i) {
    LitVec clause;
    for (int k = 0; k < 3; ++k)
      clause.push_back(mk_lit(static_cast<Var>(rng.below(static_cast<uint64_t>(num_vars))),
                              rng.chance(1, 2)));
    cnf.clauses.push_back(clause);
  }
  return cnf;
}

/// Pigeonhole principle: n+1 pigeons in n holes, classic hard UNSAT family.
Cnf pigeonhole(int holes) {
  const int pigeons = holes + 1;
  Cnf cnf;
  cnf.num_vars = pigeons * holes;
  auto var_of = [&](int p, int h) { return static_cast<Var>(p * holes + h); };
  for (int p = 0; p < pigeons; ++p) {
    LitVec clause;
    for (int h = 0; h < holes; ++h) clause.push_back(mk_lit(var_of(p, h)));
    cnf.clauses.push_back(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        cnf.clauses.push_back({mk_lit(var_of(p1, h), true), mk_lit(var_of(p2, h), true)});
  return cnf;
}

TEST(Lit, PackingRoundTrip) {
  const Lit a = mk_lit(5);
  EXPECT_EQ(a.var(), 5);
  EXPECT_FALSE(a.sign());
  const Lit na = ~a;
  EXPECT_EQ(na.var(), 5);
  EXPECT_TRUE(na.sign());
  EXPECT_EQ(~na, a);
  EXPECT_EQ(a ^ true, na);
  EXPECT_EQ(a ^ false, a);
}

TEST(LBool, NegationEncoding) {
  EXPECT_TRUE((kTrue ^ true) == kFalse);
  EXPECT_TRUE((kFalse ^ true) == kTrue);
  EXPECT_TRUE((kUndef ^ true) == kUndef);
  EXPECT_TRUE((kTrue ^ false) == kTrue);
}

TEST(Solver, EmptyProblemIsSat) {
  Solver s;
  EXPECT_TRUE(s.solve().is_true());
}

TEST(Solver, SingleUnit) {
  Solver s;
  const Var v = s.new_var();
  ASSERT_TRUE(s.add_unit(mk_lit(v)));
  EXPECT_TRUE(s.solve().is_true());
  EXPECT_TRUE(s.model_value(v));
}

TEST(Solver, ContradictoryUnitsAreUnsat) {
  Solver s;
  const Var v = s.new_var();
  EXPECT_TRUE(s.add_unit(mk_lit(v)));
  EXPECT_FALSE(s.add_unit(mk_lit(v, true)));
  EXPECT_FALSE(s.okay());
  EXPECT_TRUE(s.solve().is_false());
}

TEST(Solver, TautologyClauseIgnored) {
  Solver s;
  const Var v = s.new_var();
  EXPECT_TRUE(s.add_clause({mk_lit(v), mk_lit(v, true)}));
  EXPECT_TRUE(s.solve().is_true());
}

TEST(Solver, DuplicateLiteralsHandled) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  EXPECT_TRUE(s.add_clause({mk_lit(a), mk_lit(a), mk_lit(b)}));
  EXPECT_TRUE(s.add_unit(mk_lit(a, true)));
  EXPECT_TRUE(s.solve().is_true());
  EXPECT_TRUE(s.model_value(b));
}

TEST(Solver, ImplicationChainPropagates) {
  Solver s;
  constexpr int kN = 50;
  std::vector<Var> vars;
  for (int i = 0; i < kN; ++i) vars.push_back(s.new_var());
  for (int i = 0; i + 1 < kN; ++i)
    ASSERT_TRUE(s.add_binary(mk_lit(vars[static_cast<size_t>(i)], true),
                             mk_lit(vars[static_cast<size_t>(i + 1)])));
  ASSERT_TRUE(s.add_unit(mk_lit(vars[0])));
  ASSERT_TRUE(s.solve().is_true());
  for (int i = 0; i < kN; ++i) EXPECT_TRUE(s.model_value(vars[static_cast<size_t>(i)]));
}

TEST(Solver, XorChainSatAndUnsat) {
  // x0 xor x1 xor ... xor x(n-1) = 1 encoded pairwise; then force parity 0.
  Solver s;
  constexpr int kN = 8;
  std::vector<Var> x;
  for (int i = 0; i < kN; ++i) x.push_back(s.new_var());
  std::vector<Var> p;  // prefix parity
  p.push_back(x[0]);
  for (int i = 1; i < kN; ++i) {
    const Var q = s.new_var();
    const Lit a = mk_lit(p.back()), b = mk_lit(x[static_cast<size_t>(i)]), o = mk_lit(q);
    // q = a xor b
    ASSERT_TRUE(s.add_ternary(~o, a, b));
    ASSERT_TRUE(s.add_ternary(~o, ~a, ~b));
    ASSERT_TRUE(s.add_ternary(o, ~a, b));
    ASSERT_TRUE(s.add_ternary(o, a, ~b));
    p.push_back(q);
  }
  ASSERT_TRUE(s.add_unit(mk_lit(p.back())));
  EXPECT_TRUE(s.solve().is_true());
  int ones = 0;
  for (int i = 0; i < kN; ++i) ones += s.model_value(x[static_cast<size_t>(i)]);
  EXPECT_EQ(ones % 2, 1);
}

TEST(Solver, PigeonholeUnsat) {
  for (int holes = 2; holes <= 6; ++holes) {
    Solver s;
    const Cnf cnf = pigeonhole(holes);
    ASSERT_TRUE(load_into(s, cnf));
    EXPECT_TRUE(s.solve().is_false()) << "PHP(" << holes << ") must be UNSAT";
  }
}

TEST(Solver, AssumptionsSelectBranch) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_binary(mk_lit(a), mk_lit(b)));
  EXPECT_TRUE(s.solve({mk_lit(a, true)}).is_true());
  EXPECT_TRUE(s.model_value(b));
  EXPECT_TRUE(s.solve({mk_lit(b, true)}).is_true());
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.solve({mk_lit(a, true), mk_lit(b, true)}).is_false());
}

TEST(Solver, CoreContainsOnlyRelevantAssumptions) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var(), d = s.new_var();
  // a & b -> contradiction; c, d irrelevant.
  ASSERT_TRUE(s.add_binary(mk_lit(a, true), mk_lit(b, true)));
  const LitVec assumptions = {mk_lit(c), mk_lit(d), mk_lit(a), mk_lit(b)};
  ASSERT_TRUE(s.solve(assumptions).is_false());
  const LitVec& core = s.core();
  EXPECT_LE(core.size(), 2u);
  for (const Lit l : core) {
    EXPECT_TRUE(l == mk_lit(a) || l == mk_lit(b));
  }
  EXPECT_TRUE(s.in_core(mk_lit(a)));
  EXPECT_TRUE(s.in_core(mk_lit(b)));
  EXPECT_FALSE(s.in_core(mk_lit(c)));
  EXPECT_FALSE(s.in_core(mk_lit(d)));
}

TEST(Solver, CoreIsEmptyWhenUnsatWithoutAssumptions) {
  Solver s;
  const Var a = s.new_var();
  ASSERT_TRUE(s.add_unit(mk_lit(a)));
  s.add_unit(mk_lit(a, true));
  const Var b = s.new_var();
  EXPECT_TRUE(s.solve({mk_lit(b)}).is_false());
  EXPECT_TRUE(s.core().empty());
}

TEST(Solver, CoreUnderPropagatedAssumption) {
  // Assumption falsified by unit propagation from earlier assumptions.
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_binary(mk_lit(a, true), mk_lit(b, true)));  // a -> !b
  ASSERT_TRUE(s.solve({mk_lit(a), mk_lit(b)}).is_false());
  EXPECT_GE(s.core().size(), 1u);
  for (const Lit l : s.core()) EXPECT_TRUE(l == mk_lit(a) || l == mk_lit(b));
}

TEST(Solver, IncrementalAcrossSolves) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_binary(mk_lit(a), mk_lit(b)));
  EXPECT_TRUE(s.solve().is_true());
  ASSERT_TRUE(s.add_unit(mk_lit(a, true)));
  EXPECT_TRUE(s.solve().is_true());
  EXPECT_TRUE(s.model_value(b));
  ASSERT_TRUE(s.add_unit(mk_lit(b, true)) == false || s.solve().is_false());
  EXPECT_TRUE(s.solve().is_false());
}

TEST(Solver, ConflictBudgetReturnsUndef) {
  Solver s;
  const Cnf cnf = pigeonhole(8);  // hard enough to exceed a tiny budget
  ASSERT_TRUE(load_into(s, cnf));
  // A budget of zero is a real budget that no search fits in, not "no
  // budget": solve() stops before the first decision.
  s.set_conflict_budget(0);
  EXPECT_TRUE(s.solve().is_undef());
  EXPECT_EQ(s.stats().conflicts, 0u);
  EXPECT_EQ(s.stats().decisions, 0u);
  s.set_conflict_budget(5);
  EXPECT_TRUE(s.solve().is_undef());
  // A negative budget clears it, as clear_budgets() does.
  s.set_conflict_budget(-1);
  EXPECT_TRUE(s.solve().is_false());
}

TEST(Solver, FixedValueAtTopLevel) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_unit(mk_lit(a, true)));
  EXPECT_TRUE(s.fixed_value(a).is_false());
  EXPECT_TRUE(s.fixed_value(b).is_undef());
}

TEST(Solver, PolarityHintRespectedOnFreeVar) {
  Solver s;
  const Var a = s.new_var();
  s.set_polarity(a, /*negated_first=*/true);
  ASSERT_TRUE(s.solve().is_true());
  EXPECT_FALSE(s.model_value(a));
  Solver s2;
  const Var c = s2.new_var();
  s2.set_polarity(c, /*negated_first=*/false);
  ASSERT_TRUE(s2.solve().is_true());
  EXPECT_TRUE(s2.model_value(c));
}

// Property: solver verdict matches brute force on random 3-SAT, and SAT
// models actually satisfy the formula.
class RandomCnfTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomCnfTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  for (int iter = 0; iter < 30; ++iter) {
    const int num_vars = 4 + static_cast<int>(rng.below(9));
    const int num_clauses = static_cast<int>(rng.below(static_cast<uint64_t>(6 * num_vars))) + 1;
    const Cnf cnf = random_3sat(rng, num_vars, num_clauses);
    Solver s;
    const bool load_ok = load_into(s, cnf);
    const LBool verdict = load_ok ? s.solve() : kFalse;
    const bool expected = brute_force_sat(cnf);
    EXPECT_EQ(verdict.is_true(), expected);
    if (verdict.is_true()) expect_model_satisfies(s, cnf);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnfTest, ::testing::Range(0, 10));

// Property: whenever solve under assumptions is UNSAT, re-solving with only
// the core assumptions is still UNSAT.
class RandomCoreTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomCoreTest, CoreIsSufficient) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 17);
  for (int iter = 0; iter < 20; ++iter) {
    const int num_vars = 6 + static_cast<int>(rng.below(8));
    const Cnf cnf = random_3sat(rng, num_vars, 3 * num_vars);
    Solver s;
    if (!load_into(s, cnf)) continue;
    LitVec assumptions;
    for (Var v = 0; v < num_vars; ++v)
      if (rng.chance(1, 2)) assumptions.push_back(mk_lit(v, rng.chance(1, 2)));
    if (!s.solve(assumptions).is_false()) continue;
    const LitVec core = s.core();
    // Core is a subset of the assumptions.
    for (const Lit l : core)
      EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l), assumptions.end());
    // Core alone is still UNSAT (checked with a fresh solver + brute force).
    Solver s2;
    ASSERT_TRUE(load_into(s2, cnf));
    EXPECT_TRUE(s2.solve(core).is_false());
    EXPECT_FALSE(brute_force_sat(cnf, core));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCoreTest, ::testing::Range(0, 8));

TEST(Solver, ManyVariablesStress) {
  // A chain of equivalences x0 = x1 = ... = xn with a final inversion.
  Solver s;
  constexpr int kN = 2000;
  std::vector<Var> x;
  for (int i = 0; i < kN; ++i) x.push_back(s.new_var());
  for (int i = 0; i + 1 < kN; ++i) {
    ASSERT_TRUE(s.add_binary(mk_lit(x[static_cast<size_t>(i)], true),
                             mk_lit(x[static_cast<size_t>(i + 1)])));
    ASSERT_TRUE(s.add_binary(mk_lit(x[static_cast<size_t>(i)]),
                             mk_lit(x[static_cast<size_t>(i + 1)], true)));
  }
  EXPECT_TRUE(s.solve({mk_lit(x[0])}).is_true());
  EXPECT_TRUE(s.model_value(x[kN - 1]));
  EXPECT_TRUE(s.solve({mk_lit(x[0]), mk_lit(x[kN - 1], true)}).is_false());
}

TEST(Solver, LearntDatabaseReductionKeepsSoundness) {
  // Run a hard instance with an aggressive maintenance schedule so the
  // three-tier machinery (local reductions, tier2 demotion, GC) all fire,
  // then confirm queries still behave.
  SolverOptions opts;
  opts.local_reduce_interval = 300;
  opts.tier2_shrink_interval = 200;
  opts.tier2_unused_demote = 400;
  Solver s(opts);
  const Cnf cnf = pigeonhole(7);
  ASSERT_TRUE(load_into(s, cnf));
  EXPECT_TRUE(s.solve().is_false());
  EXPECT_GT(s.stats().db_reductions, 0u);
  EXPECT_GT(s.stats().learnts_core + s.stats().learnts_tier2 + s.stats().learnts_local, 0u);
  // An assumption-free UNSAT latches the solver: the formula itself is
  // contradictory, so further clauses are rejected and solves stay UNSAT.
  EXPECT_FALSE(s.okay());
  const Var extra = s.new_var();
  EXPECT_FALSE(s.add_unit(mk_lit(extra)));
  EXPECT_TRUE(s.solve().is_false());  // still UNSAT overall
}

// The dedicated binary-clause watch lists (solver.hpp, two-tier scheme)
// change the propagation order and keep reason clauses un-normalized until
// conflict analysis reads them. These tests drive exactly those paths:
// binary-heavy CNFs, conflicts inside the binary pass, and cores derived
// from chains of binary reasons.

/// Random CNF dominated by binary clauses (with a few units and ternaries),
/// the Tseitin shape the two-tier watchers are built for.
Cnf random_binary_heavy(Rng& rng, int num_vars, int num_clauses) {
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (int i = 0; i < num_clauses; ++i) {
    const uint64_t shape = rng.below(10);
    const int width = shape < 7 ? 2 : (shape < 9 ? 3 : 1);
    LitVec clause;
    for (int k = 0; k < width; ++k)
      clause.push_back(mk_lit(static_cast<Var>(rng.below(static_cast<uint64_t>(num_vars))),
                              rng.chance(1, 2)));
    cnf.clauses.push_back(clause);
  }
  return cnf;
}

class BinaryHeavyCnfTest : public ::testing::TestWithParam<int> {};

TEST_P(BinaryHeavyCnfTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6151 + 3);
  for (int iter = 0; iter < 40; ++iter) {
    const int num_vars = 4 + static_cast<int>(rng.below(10));
    const int num_clauses = 1 + static_cast<int>(rng.below(static_cast<uint64_t>(5 * num_vars)));
    const Cnf cnf = random_binary_heavy(rng, num_vars, num_clauses);
    Solver s;
    const bool load_ok = load_into(s, cnf);
    const LBool verdict = load_ok ? s.solve() : kFalse;
    EXPECT_EQ(verdict.is_true(), brute_force_sat(cnf));
    if (verdict.is_true()) expect_model_satisfies(s, cnf);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryHeavyCnfTest, ::testing::Range(0, 10));

TEST_P(BinaryHeavyCnfTest, CoresUnderAssumptionsAreSound) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2887 + 11);
  for (int iter = 0; iter < 25; ++iter) {
    const int num_vars = 5 + static_cast<int>(rng.below(9));
    const Cnf cnf = random_binary_heavy(rng, num_vars, 4 * num_vars);
    Solver s;
    if (!load_into(s, cnf)) continue;
    LitVec assumptions;
    for (Var v = 0; v < num_vars; ++v)
      if (rng.chance(1, 2)) assumptions.push_back(mk_lit(v, rng.chance(1, 2)));
    if (!s.solve(assumptions).is_false()) continue;
    const LitVec core = s.core();
    for (const Lit l : core) {
      EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l), assumptions.end());
      EXPECT_TRUE(s.in_core(l));
    }
    EXPECT_FALSE(brute_force_sat(cnf, core));
  }
}

TEST(Solver, BinaryImplicationChainCore) {
  // x0 -> x1 -> ... -> x19 entirely through binary clauses, and a kill
  // switch t -> ~x19. Assuming {x0, t} forces analyze_final to walk the
  // whole chain of *binary* reason clauses (the lazily-normalized
  // reason_view path) at a nonzero decision level; the core must name
  // exactly the two assumptions, not the spectator.
  Solver s;
  constexpr int kN = 20;
  std::vector<Var> x;
  for (int i = 0; i < kN; ++i) x.push_back(s.new_var());
  for (int i = 0; i + 1 < kN; ++i)
    ASSERT_TRUE(s.add_binary(mk_lit(x[static_cast<size_t>(i)], true),
                             mk_lit(x[static_cast<size_t>(i + 1)])));
  const Var t = s.new_var();
  const Var spectator = s.new_var();
  ASSERT_TRUE(s.add_binary(mk_lit(t, true), mk_lit(x[kN - 1], true)));

  ASSERT_TRUE(s.solve({mk_lit(x[0]), mk_lit(spectator), mk_lit(t)}).is_false());
  EXPECT_TRUE(s.in_core(mk_lit(x[0])));
  EXPECT_TRUE(s.in_core(mk_lit(t)));
  EXPECT_FALSE(s.in_core(mk_lit(spectator)));
  EXPECT_EQ(s.core().size(), 2u);

  // Assuming from the middle of the chain behaves identically.
  ASSERT_TRUE(s.solve({mk_lit(spectator), mk_lit(x[kN / 2]), mk_lit(t)}).is_false());
  EXPECT_TRUE(s.in_core(mk_lit(x[kN / 2])));
  EXPECT_TRUE(s.in_core(mk_lit(t)));
  EXPECT_EQ(s.core().size(), 2u);

  // Dropping either core member makes the instance satisfiable again.
  ASSERT_TRUE(s.solve({mk_lit(x[0]), mk_lit(spectator)}).is_true());
  EXPECT_TRUE(s.model_value(x[kN - 1]));
  ASSERT_TRUE(s.solve({mk_lit(spectator), mk_lit(t)}).is_true());
  EXPECT_FALSE(s.model_value(x[0]));
}

TEST(Solver, BinaryConflictMidPropagation) {
  // A diamond a -> b, a -> ~c, b -> c: assuming a conflicts inside the
  // binary watch pass itself (both polarities of c forced by binaries).
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  ASSERT_TRUE(s.add_binary(mk_lit(a, true), mk_lit(b)));
  ASSERT_TRUE(s.add_binary(mk_lit(a, true), mk_lit(c, true)));
  ASSERT_TRUE(s.add_binary(mk_lit(b, true), mk_lit(c)));
  ASSERT_TRUE(s.solve({mk_lit(a)}).is_false());
  ASSERT_EQ(s.core().size(), 1u);
  EXPECT_EQ(s.core()[0], mk_lit(a));
  EXPECT_TRUE(s.solve({mk_lit(a, true)}).is_true());
  EXPECT_TRUE(s.solve().is_true());
}

// WatchLists (solver.hpp) keeps every literal's watch list in one flat
// array. This drives it with the solver's access patterns (push, truncate,
// swap_remove, in-place rewrite, and a propagate-style scan that pushes onto
// other lists mid-scan) next to one std::vector per list, through many block
// moves and several compactions, and compares every list.
struct Entry {
  uint32_t id;
  uint32_t tag;
  bool operator==(const Entry&) const = default;
};

TEST(SatWatchLists, MatchesVectorReference) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 104729);
    WatchLists<Entry> lists;
    std::vector<std::vector<Entry>> ref;
    uint32_t next_id = 0;
    size_t compactions = 0;
    size_t max_slots = 0;
    auto add_list = [&] {
      lists.add_list();
      ref.emplace_back();
    };
    auto expect_same = [&](size_t l) {
      const auto got = lists[l];
      ASSERT_EQ(got.size(), ref[l].size()) << "list " << l << ", seed " << seed;
      for (size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], ref[l][i]) << "list " << l << " entry " << i << ", seed " << seed;
    };
    auto push = [&](size_t l) {
      const Entry e{next_id++, static_cast<uint32_t>(rng.below(1000))};
      const size_t before = lists.slots();
      lists.push(l, e);
      ref[l].push_back(e);
      if (lists.slots() < before) ++compactions;
      max_slots = std::max(max_slots, lists.slots());
    };
    for (int i = 0; i < 16; ++i) add_list();

    for (int op = 0; op < 20000; ++op) {
      const size_t l = rng.below(lists.num_lists());
      const uint64_t kind = rng.below(100);
      if (kind < 55) {
        push(l);
      } else if (kind < 63 && !ref[l].empty()) {
        const auto n = static_cast<uint32_t>(rng.below(ref[l].size() + 1));
        lists.truncate(l, n);
        ref[l].resize(n);
      } else if (kind < 78 && !ref[l].empty()) {
        const auto i = static_cast<uint32_t>(rng.below(ref[l].size()));
        lists.swap_remove(l, i);
        ref[l][i] = ref[l].back();
        ref[l].pop_back();
      } else if (kind < 84) {
        // In-place rewrite, as garbage collection relocates clause refs.
        for (Entry& e : lists[l]) e.tag = e.tag * 3 + 1;
        for (Entry& e : ref[l]) e.tag = e.tag * 3 + 1;
      } else if (kind < 98) {
        // propagate(): walk list l by index, keep some entries, move the
        // others onto different lists, re-reading the base after each push.
        Entry* ws = lists.data(l);
        const uint32_t n = lists.size(l);
        uint32_t j = 0;
        std::vector<Entry> kept;
        for (uint32_t i = 0; i < n; ++i) {
          const Entry e = ws[i];
          if (rng.chance(1, 2) || lists.num_lists() < 2) {
            ws[j++] = e;
            kept.push_back(e);
            continue;
          }
          size_t to = rng.below(lists.num_lists() - 1);
          if (to >= l) ++to;
          const size_t before = lists.slots();
          lists.push(to, e);
          ref[to].push_back(e);
          if (lists.slots() < before) ++compactions;
          max_slots = std::max(max_slots, lists.slots());
          ws = lists.data(l);
        }
        lists.truncate(l, j);
        ref[l] = kept;
      } else {
        add_list();
      }
      expect_same(l);
      if (op % 1000 == 999)
        for (size_t k = 0; k < ref.size(); ++k) expect_same(k);
    }
    for (size_t k = 0; k < ref.size(); ++k) expect_same(k);
    EXPECT_GE(compactions, 3u) << "seed " << seed;
    EXPECT_GT(max_slots, 1000u) << "seed " << seed;
  }
}

TEST(Dimacs, ParseAndWriteRoundTrip) {
  const std::string text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n";
  const Cnf cnf = parse_dimacs_string(text);
  EXPECT_EQ(cnf.num_vars, 3);
  ASSERT_EQ(cnf.clauses.size(), 2u);
  EXPECT_EQ(cnf.clauses[0].size(), 2u);
  EXPECT_EQ(cnf.clauses[0][0], mk_lit(0));
  EXPECT_EQ(cnf.clauses[0][1], mk_lit(1, true));
  std::ostringstream out;
  write_dimacs(out, cnf);
  const Cnf again = parse_dimacs_string(out.str());
  EXPECT_EQ(again.num_vars, cnf.num_vars);
  EXPECT_EQ(again.clauses, cnf.clauses);
}

TEST(Dimacs, RejectsMalformedInput) {
  EXPECT_THROW(parse_dimacs_string("p cnf x y\n"), std::runtime_error);
  EXPECT_THROW(parse_dimacs_string("1 2 0\n"), std::runtime_error);
  EXPECT_THROW(parse_dimacs_string("p cnf 2 1\n1 3 0\n"), std::runtime_error);
  EXPECT_THROW(parse_dimacs_string("p cnf 2 1\n1 2\n"), std::runtime_error);
}

}  // namespace
}  // namespace eco::sat
