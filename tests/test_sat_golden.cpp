// Golden digests of whole solver runs. Each case loads a CNF into one
// sat::Solver and runs a fixed script: solves under changing assumption
// vectors (so trail reuse keeps and drops prefixes), clauses added between
// solves, and conflict budgets that stop a search part way. After every
// solve the digest folds the verdict, the model (SAT) or the core (UNSAT),
// okay(), the variable count and every SolverStats counter. The expected
// values were recorded once and must never move without a deliberate change
// to the search: a faster clause store, watch list or loader has to leave
// the clause database, the watch order and therefore every counter as they
// were. Every case names its SolverOptions, so the ECO_SAT_* environment
// cannot move a digest.
//
// Cases:
//  - two-copy Tseitin encodings of suite ECO miters, built as
//    core::SupportInstance builds them (copy 1 asserts M(0, x1), copy 2
//    M(1, x2), one activation literal per divisor);
//  - seeded random 3-SAT near the threshold and random binary-heavy CNFs;
//  - pigeonhole under an aggressive learnt-clause schedule, so that
//    reduce_local removes clauses, maybe_garbage_collect relocates the arena
//    and every watch list is rewritten through the relocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "benchgen/suite.hpp"
#include "cnf/tseitin.hpp"
#include "eco/miter.hpp"
#include "eco/problem.hpp"
#include "golden.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace eco::sat {
namespace {

using golden::Digest;
using golden::hex;

/// Folds the outcome of the solve that just returned \p status.
void fold_solve(Digest& d, const Solver& s, LBool status) {
  d.u64(status.raw());
  d.u64(s.okay() ? 1 : 0);
  d.u64(static_cast<uint64_t>(s.num_vars()));
  if (status.is_true()) {
    uint64_t word = 0;
    for (Var v = 0; v < s.num_vars(); ++v) {
      word = (word << 1) | (s.model_value(v) ? 1u : 0u);
      if (v % 64 == 63) {
        d.u64(word);
        word = 0;
      }
    }
    d.u64(word);
  } else if (status.is_false()) {
    d.u64(s.core().size());
    for (const Lit l : s.core()) d.u64(static_cast<uint64_t>(l.raw()));
  }
#define ECO_X(name) d.u64(s.stats().name);
  ECO_SOLVER_STATS(ECO_X)
#undef ECO_X
}

/// The fixed script over assumption candidates \p acts: full and partial
/// assumption vectors, random subsets with flipped literals, a budgeted
/// solve, and clauses added between solves. \p rng drives the subsets, so the script is a pure
/// function of the case's seed.
uint64_t run_script(Solver& s, const LitVec& acts, Rng& rng, int64_t budget) {
  Digest d;
  auto solve = [&](const LitVec& a) { fold_solve(d, s, s.solve(a)); };
  solve({});
  solve(acts);
  // Growing prefixes of one order: consecutive calls share a prefix, which
  // trail reuse keeps.
  for (size_t n = acts.size() / 4; n <= acts.size(); n += (acts.size() + 3) / 4) {
    solve(LitVec(acts.begin(), acts.begin() + static_cast<std::ptrdiff_t>(n)));
  }
  // Random subsets with flipped polarities.
  for (int round = 0; round < 6; ++round) {
    LitVec a;
    for (const Lit l : acts)
      if (rng.chance(2, 3)) a.push_back(rng.chance(1, 8) ? ~l : l);
    solve(a);
  }
  // A clause between solves cancels the retained trail.
  if (acts.size() >= 3) {
    s.add_clause({~acts[0], acts[1], ~acts[acts.size() - 1]});
    solve(acts);
  }
  s.set_conflict_budget(budget);
  LitVec half;
  for (size_t i = 0; i < acts.size(); i += 2) half.push_back(acts[i]);
  solve(half);
  s.clear_budgets();
  solve(half);
  if (!acts.empty()) {
    s.add_clause({acts[acts.size() / 2]});
    solve({});
    solve(acts);
  }
  return d.value();
}

/// Two-copy encoding of suite unit \p index's miter (target 0, every
/// divisor a candidate), then the script over the activation literals.
uint64_t miter_digest(int index, int scale) {
  const benchgen::EcoUnit u = benchgen::make_unit(index, 20170912, scale);
  const core::EcoProblem p = core::make_problem(u.impl, u.spec, u.weights);
  const core::EcoMiter m = core::build_eco_miter(p.impl, p.spec, p.divisors);
  Solver s(SolverOptions{});
  cnf::Encoder copy1(m.aig, s);
  cnf::Encoder copy2(m.aig, s);
  const aig::Lit target = m.target_lit(0);
  s.add_unit(copy1.lit(m.out));
  s.add_unit(~copy1.lit(target));
  s.add_unit(copy2.lit(m.out));
  s.add_unit(copy2.lit(target));
  LitVec acts;
  for (const aig::Lit dl : m.divisor_lits) {
    const Lit d1 = copy1.lit(dl);
    const Lit d2 = copy2.lit(dl);
    const Lit a = mk_lit(s.new_var());
    s.add_ternary(~a, ~d1, d2);
    s.add_ternary(~a, d1, ~d2);
    acts.push_back(a);
  }
  Rng rng(static_cast<uint64_t>(index) * 7919 + static_cast<uint64_t>(scale));
  return run_script(s, acts, rng, 20);
}

/// Random clauses of \p width literals (width 0: binary-heavy mix).
void add_random_clauses(Solver& s, Rng& rng, int num_vars, int num_clauses, int width) {
  for (int i = 0; i < num_clauses; ++i) {
    int w = width;
    if (w == 0) {
      const uint64_t shape = rng.below(10);
      w = shape < 7 ? 2 : (shape < 9 ? 3 : 4);
    }
    LitVec c;
    for (int k = 0; k < w; ++k)
      c.push_back(mk_lit(static_cast<Var>(rng.below(static_cast<uint64_t>(num_vars))),
                         rng.chance(1, 2)));
    s.add_clause(c);
  }
}

uint64_t random_digest(uint64_t seed, int num_vars, int num_clauses, int width) {
  Rng rng(seed);
  Solver s(SolverOptions{});
  for (int v = 0; v < num_vars; ++v) s.new_var();
  add_random_clauses(s, rng, num_vars, num_clauses, width);
  LitVec acts;
  for (int i = 0; i < 24; ++i)
    acts.push_back(mk_lit(static_cast<Var>(rng.below(static_cast<uint64_t>(num_vars))),
                          rng.chance(1, 2)));
  Digest d;
  d.u64(run_script(s, acts, rng, 50));
  // More clauses after the script, then one unbudgeted solve.
  add_random_clauses(s, rng, num_vars, num_clauses / 8, width);
  fold_solve(d, s, s.solve(acts));
  return d.value();
}

/// Pigeonhole php(holes + 1, holes) with a small local-tier cap and short
/// maintenance intervals, under budgeted solves that let learnts pile up.
uint64_t pigeonhole_digest(int holes, const SolverOptions& opts) {
  Solver s(opts);
  const int pigeons = holes + 1;
  std::vector<Var> x;
  for (int i = 0; i < pigeons * holes; ++i) x.push_back(s.new_var());
  auto at = [&](int p, int h) { return x[static_cast<size_t>(p * holes + h)]; };
  for (int p = 0; p < pigeons; ++p) {
    LitVec c;
    for (int h = 0; h < holes; ++h) c.push_back(mk_lit(at(p, h)));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        s.add_binary(mk_lit(at(p1, h), true), mk_lit(at(p2, h), true));
  Digest d;
  // Assuming pigeon 0 out of its first hole, then out of the first two.
  const LitVec a1 = {mk_lit(at(0, 0), true)};
  const LitVec a2 = {mk_lit(at(0, 0), true), mk_lit(at(0, 1), true)};
  for (int round = 0; round < 4; ++round) {
    s.set_conflict_budget(2000);
    fold_solve(d, s, s.solve(round % 2 == 0 ? a1 : a2));
  }
  s.clear_budgets();
  fold_solve(d, s, s.solve(a2));
  fold_solve(d, s, s.solve());
  return d.value();
}

TEST(SatGolden, SolveTraceDigests) {
  struct MiterGolden {
    int index;
    int scale;
    uint64_t digest;
  };
  const MiterGolden miters[] = {
      {0, 1, 0xbf0bd975fa14e8feULL},  {1, 1, 0xb882339bb21677bdULL},
      {3, 1, 0xfa3954845844135cULL},  {5, 1, 0x9bed61c039b91989ULL},
      {9, 1, 0xde2b370467946ff6ULL},  {14, 1, 0xa7409409c8162b75ULL},
      {17, 1, 0x05906c32680b9232ULL}, {1, 4, 0x73b7b69f71beea66ULL},
      {14, 4, 0x98d38b3bca811b03ULL}, {1, 16, 0x5a0855e1046f4f45ULL},
  };
  for (const MiterGolden& g : miters)
    EXPECT_EQ(hex(miter_digest(g.index, g.scale)), hex(g.digest))
        << "miter of unit " << g.index << " at scale " << g.scale;

  struct RandomGolden {
    uint64_t seed;
    int vars;
    int clauses;
    int width;
    uint64_t digest;
  };
  const RandomGolden randoms[] = {
      {1, 150, 630, 3, 0x4ec25c5f94f4a449ULL}, {2, 200, 852, 3, 0xcebb3728df939fb3ULL},
      {3, 120, 480, 3, 0x0c94f288536fd09dULL}, {4, 300, 900, 0, 0xeb2edbd2ca5ee048ULL},
      {5, 400, 1300, 0, 0xd7ff29a071dbd9b0ULL},
  };
  for (const RandomGolden& g : randoms)
    EXPECT_EQ(hex(random_digest(g.seed, g.vars, g.clauses, g.width)), hex(g.digest))
        << "random CNF, seed " << g.seed;

  SolverOptions churn;
  churn.local_cap_base = 150;
  churn.local_reduce_interval = 500;
  churn.tier2_shrink_interval = 300;
  churn.tier2_unused_demote = 600;
  EXPECT_EQ(hex(pigeonhole_digest(8, churn)), hex(0x9be40b5fa69dff59ULL))
      << "pigeonhole, Luby restarts";
  churn.restart = RestartPolicy::kEma;
  churn.trail_reuse = false;
  EXPECT_EQ(hex(pigeonhole_digest(8, churn)), hex(0x2f85fa89b121fde7ULL))
      << "pigeonhole, EMA restarts, no trail reuse";
}

}  // namespace
}  // namespace eco::sat
