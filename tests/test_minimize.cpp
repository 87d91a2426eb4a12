#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "sat/minimize.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace eco::sat {
namespace {

/// Builds a solver where assuming all of `selectors` makes it UNSAT, with
/// known minimal cores. Each "requirement" clause (OR of selector negations)
/// encodes that at least one selector of the group must be dropped.
struct SelectorProblem {
  Solver solver;
  LitVec selectors;
};

TEST(Minimize, SingleNeededAssumption) {
  Solver s;
  const Var a = s.new_var();
  ASSERT_TRUE(s.add_unit(mk_lit(a, true)));  // a must be false
  LitVec assumps = {mk_lit(a)};
  ASSERT_TRUE(s.solve(assumps).is_false());
  EXPECT_EQ(minimize_assumptions(s, assumps), 1);
  EXPECT_EQ(assumps[0], mk_lit(a));
}

TEST(Minimize, SingleUnneededAssumption) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_unit(mk_lit(a, true)));
  LitVec ctx = {mk_lit(a)};                // the context alone is UNSAT
  LitVec assumps = {mk_lit(b)};
  ASSERT_TRUE(s.solve({mk_lit(a), mk_lit(b)}).is_false());
  EXPECT_EQ(minimize_assumptions(s, assumps, ctx), 0);
}

TEST(Minimize, DropsIrrelevantAssumptions) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  std::vector<Var> junk;
  for (int i = 0; i < 10; ++i) junk.push_back(s.new_var());
  ASSERT_TRUE(s.add_binary(mk_lit(a, true), mk_lit(b, true)));
  LitVec assumps;
  assumps.push_back(mk_lit(a));
  for (const Var v : junk) assumps.push_back(mk_lit(v));
  assumps.push_back(mk_lit(b));
  ASSERT_TRUE(s.solve(assumps).is_false());
  const int kept = minimize_assumptions(s, assumps);
  EXPECT_EQ(kept, 2);
  const std::set<Lit> kept_set(assumps.begin(), assumps.begin() + kept);
  EXPECT_TRUE(kept_set.count(mk_lit(a)));
  EXPECT_TRUE(kept_set.count(mk_lit(b)));
}

TEST(Minimize, PrefersLowIndexEntriesWhenInterchangeable) {
  // Any single one of the four selectors is enough for UNSAT:
  // clauses force s_i -> false for each i. Minimization should keep exactly
  // one, and with the low-first strategy it should be the first entry.
  Solver s;
  LitVec sel;
  for (int i = 0; i < 4; ++i) {
    const Var v = s.new_var();
    ASSERT_TRUE(s.add_unit(mk_lit(v, true)));
    sel.push_back(mk_lit(v));
  }
  ASSERT_TRUE(s.solve(sel).is_false());
  LitVec assumps = sel;
  const int kept = minimize_assumptions(s, assumps);
  EXPECT_EQ(kept, 1);
  EXPECT_EQ(assumps[0], sel[0]);
}

/// Property: the kept prefix is (a) still UNSAT and (b) minimal — removing
/// any single kept assumption makes the problem SAT.
void check_minimality(Solver& s, const LitVec& kept) {
  ASSERT_TRUE(s.solve(kept).is_false());
  for (size_t i = 0; i < kept.size(); ++i) {
    LitVec sub;
    for (size_t j = 0; j < kept.size(); ++j)
      if (j != i) sub.push_back(kept[j]);
    EXPECT_TRUE(s.solve(sub).is_true())
        << "kept assumption " << i << " is redundant: subset not minimal";
  }
}

class MinimizeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MinimizeRandomTest, ProducesMinimalUnsatSubsets) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 3);
  for (int iter = 0; iter < 15; ++iter) {
    Solver s;
    const int n = 6 + static_cast<int>(rng.below(10));
    LitVec sel;
    for (int i = 0; i < n; ++i) sel.push_back(mk_lit(s.new_var()));
    // Random "requirement" clauses over negated selectors; plus one clause
    // that guarantees overall UNSAT when all selectors are assumed.
    const int groups = 1 + static_cast<int>(rng.below(4));
    for (int g = 0; g < groups; ++g) {
      LitVec clause;
      const int width = 1 + static_cast<int>(rng.below(3));
      for (int k = 0; k < width; ++k)
        clause.push_back(~sel[rng.below(static_cast<uint64_t>(n))]);
      ASSERT_TRUE(s.add_clause(clause));
    }
    if (!s.solve(sel).is_false()) continue;  // all selectors assumable: skip
    LitVec assumps = sel;
    MinimizeStats stats;
    const int kept = minimize_assumptions(s, assumps, &stats);
    ASSERT_GE(kept, 1);
    LitVec prefix(assumps.begin(), assumps.begin() + kept);
    check_minimality(s, prefix);
    EXPECT_GT(stats.sat_calls, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeRandomTest, ::testing::Range(0, 10));

TEST(Minimize, NaiveAgreesOnMinimality) {
  Rng rng(991);
  for (int iter = 0; iter < 10; ++iter) {
    Solver s;
    const int n = 8;
    LitVec sel;
    for (int i = 0; i < n; ++i) sel.push_back(mk_lit(s.new_var()));
    for (int g = 0; g < 3; ++g) {
      LitVec clause;
      for (int k = 0; k < 2; ++k)
        clause.push_back(~sel[rng.below(static_cast<uint64_t>(n))]);
      ASSERT_TRUE(s.add_clause(clause));
    }
    if (!s.solve(sel).is_false()) continue;
    LitVec a1 = sel, a2 = sel;
    LitVec ctx1, ctx2;
    const int k1 = minimize_assumptions(s, a1, ctx1);
    const int k2 = minimize_assumptions_naive(s, a2, ctx2);
    LitVec p1(a1.begin(), a1.begin() + k1);
    LitVec p2(a2.begin(), a2.begin() + k2);
    check_minimality(s, p1);
    check_minimality(s, p2);
  }
}

TEST(Minimize, DivideAndConquerUsesFewCallsOnSparseCore) {
  // 64 selectors, only one needed: Algorithm 1 should stay near log2(N)
  // calls, far below the naive N calls.
  Solver s;
  LitVec sel;
  for (int i = 0; i < 64; ++i) sel.push_back(mk_lit(s.new_var()));
  ASSERT_TRUE(s.add_unit(~sel[0]));
  ASSERT_TRUE(s.solve(sel).is_false());
  LitVec assumps = sel;
  LitVec ctx;
  MinimizeStats fast;
  const int kept = minimize_assumptions(s, assumps, ctx, &fast);
  EXPECT_EQ(kept, 1);
  EXPECT_LE(fast.sat_calls, 16);  // ~2*log2(64) with slack

  LitVec assumps2 = sel;
  LitVec ctx2;
  MinimizeStats slow;
  minimize_assumptions_naive(s, assumps2, ctx2, &slow);
  EXPECT_GE(slow.sat_calls, 64);
  EXPECT_LT(fast.sat_calls, slow.sat_calls);
}

// A QueryScreen that answers some satisfiable queries (each checked on a
// second solver) must leave Algorithm 1's result exactly as without it: the
// same kept prefix, the same order of the whole vector, with fewer solves.
TEST(Minimize, ScreenedQueriesKeepTheUnscreenedResult) {
  Rng rng(4242);
  int screened_total = 0;
  int on_sat_total = 0;
  int instances = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const int n = 6 + static_cast<int>(rng.below(24));
    std::vector<LitVec> clauses;
    const int groups = 1 + static_cast<int>(rng.below(6));
    for (int g = 0; g < groups; ++g) {
      LitVec clause;
      const int width = 1 + static_cast<int>(rng.below(4));
      for (int k = 0; k < width; ++k)
        clause.push_back(mk_lit(static_cast<Var>(rng.below(static_cast<uint64_t>(n))), true));
      clauses.push_back(clause);
    }
    // Three solvers over the same clauses: unscreened, screened, oracle.
    const auto make = [&](Solver& s) {
      for (int i = 0; i < n; ++i) s.new_var();
      for (const LitVec& c : clauses) ASSERT_TRUE(s.add_clause(c));
    };
    Solver plain, screened, oracle;
    make(plain);
    make(screened);
    make(oracle);
    LitVec sel;
    for (int i = 0; i < n; ++i) sel.push_back(mk_lit(static_cast<Var>(i)));
    if (!oracle.solve(sel).is_false()) continue;  // all selectors assumable: skip
    ++instances;

    LitVec a_plain = sel, ctx_plain;
    MinimizeStats st_plain;
    const uint64_t plain_solves0 = plain.stats().solves;
    const int k_plain = minimize_assumptions(plain, a_plain, ctx_plain, &st_plain);
    const uint64_t plain_solves = plain.stats().solves - plain_solves0;

    int on_sat_calls = 0;
    int screened_calls = 0;
    QueryScreen screen;
    screen.known_sat = [&](std::span<const Lit> q) {
      if (rng.below(2) == 0 || !oracle.solve(q).is_true()) return false;
      ++screened_calls;
      return true;
    };
    screen.on_sat = [&] { ++on_sat_calls; };
    LitVec a_screened = sel, ctx_screened;
    MinimizeStats st_screened;
    const uint64_t screened_solves0 = screened.stats().solves;
    const int k_screened =
        minimize_assumptions(screened, a_screened, ctx_screened, &st_screened, screen);
    const uint64_t screened_solves = screened.stats().solves - screened_solves0;

    ASSERT_EQ(k_screened, k_plain) << "iter " << iter;
    EXPECT_EQ(a_screened, a_plain) << "iter " << iter;
    EXPECT_EQ(st_screened.sat_calls, st_plain.sat_calls);
    EXPECT_EQ(screened_solves + static_cast<uint64_t>(screened_calls), plain_solves);
    EXPECT_LE(on_sat_calls, st_screened.sat_calls - screened_calls);
    screened_total += screened_calls;
    on_sat_total += on_sat_calls;
  }
  ASSERT_GT(instances, 10);
  EXPECT_GT(screened_total, 0);
  EXPECT_GT(on_sat_total, 0);
}

TEST(Minimize, ContextIsRestoredAfterCall) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_binary(mk_lit(a, true), mk_lit(b, true)));
  LitVec ctx = {mk_lit(a)};
  LitVec assumps = {mk_lit(b)};
  ASSERT_TRUE(s.solve({mk_lit(a), mk_lit(b)}).is_false());
  minimize_assumptions(s, assumps, ctx);
  ASSERT_EQ(ctx.size(), 1u);
  EXPECT_EQ(ctx[0], mk_lit(a));
}

}  // namespace
}  // namespace eco::sat
