/// Tests for the SAT-sweeping equivalence engine (cec/sweep.hpp): a
/// randomized differential harness against the monolithic oracle, the
/// determinism contract across executor widths (the "Sweep" suite name also
/// routes these through the CI TSan job), the phase-seeding A/B, and
/// check_miter's rule for choosing the engine per check.
#include <gtest/gtest.h>

#include <vector>

#include "aig/aig.hpp"
#include "aig/sim.hpp"
#include "cec/cec.hpp"
#include "cec/sweep.hpp"
#include "sat/solver.hpp"
#include "util/executor.hpp"
#include "util/rng.hpp"

namespace eco::cec {
namespace {

using aig::Aig;
using aig::Lit;
using aig::lit_not;

/// One randomly generated miter: a pair of structurally different circuits
/// built from the same op tape (equivalent), optionally with one op flipped
/// in the second copy (usually inequivalent — the oracle decides).
struct RandomMiter {
  Aig g;
  Lit out = aig::kLitFalse;
};

/// Builds two circuits from one random op tape. Copy A elaborates each op
/// directly; copy B uses a different but equivalent decomposition per op —
/// one the strasher cannot collapse back onto copy A's nodes — so the two
/// sides carry genuinely distinct structure with many cross-copy equivalence
/// classes. With \p mutate, one op near the output is changed in copy B,
/// making the pair inequivalent unless the mutation is unobservable.
RandomMiter random_miter(Rng& rng, bool mutate) {
  const uint32_t num_pis = 3 + static_cast<uint32_t>(rng.below(6));
  const size_t num_ops = 5 + rng.below(36);
  struct Op {
    int kind;  // 0 and, 1 or, 2 xor, 3 mux
    size_t a, b, c;
    bool na, nb;
  };
  std::vector<Op> tape;
  for (size_t i = 0; i < num_ops; ++i) {
    const size_t pool = num_pis + i;
    tape.push_back({static_cast<int>(rng.below(4)), rng.below(pool), rng.below(pool),
                    rng.below(pool), rng.chance(3, 10), rng.chance(3, 10)});
  }
  // Mutate the final op: it is the one op guaranteed to be in the output
  // cone, so the mutation is almost always observable.
  const size_t mutated = mutate ? num_ops - 1 : num_ops;

  RandomMiter m;
  std::vector<Lit> va, vb;
  for (uint32_t i = 0; i < num_pis; ++i) {
    const Lit pi = m.g.add_pi();
    va.push_back(pi);
    vb.push_back(pi);
  }
  const auto emit = [](Aig& g, std::vector<Lit>& v, const Op& op, bool variant) {
    Lit a = op.na ? lit_not(v[op.a]) : v[op.a];
    Lit b = op.nb ? lit_not(v[op.b]) : v[op.b];
    const Lit e = v[op.c];
    switch (op.kind) {
      case 0:  // a & b  ==  (a | b) & (a xnor b)
        v.push_back(variant ? g.add_and(g.add_or(a, b), g.add_xnor(a, b))
                            : g.add_and(a, b));
        break;
      case 1:  // a | b  ==  a ^ (~a & b)
        v.push_back(variant ? g.add_xor(a, g.add_and(lit_not(a), b)) : g.add_or(a, b));
        break;
      case 2:  // a ^ b  ==  (a | b) & ~(a & b)
        v.push_back(variant ? g.add_and(g.add_or(a, b), g.add_nand(a, b))
                            : g.add_xor(a, b));
        break;
      default:  // mux(a, b, e)  ==  e ^ (a & (b ^ e))
        v.push_back(variant ? g.add_xor(e, g.add_and(a, g.add_xor(b, e)))
                            : g.add_mux(a, b, e));
        break;
    }
  };
  for (size_t i = 0; i < num_ops; ++i) {
    emit(m.g, va, tape[i], false);
    Op op = tape[i];
    if (i == mutated) {  // flip the op so copy B computes something else
      op.kind = (op.kind + 1) % 4;
      op.na = !op.na;
    }
    emit(m.g, vb, op, true);
  }
  m.out = m.g.add_xor(va.back(), vb.back());
  return m;
}

/// True when \p pattern (one value per PI) sets \p root to 1.
bool excites_root(const Aig& g, Lit root, const std::vector<bool>& pattern) {
  Aig probe = g;
  probe.add_po(root);
  return pattern.size() == g.num_pis() && aig::eval(probe, pattern).back();
}

/// True when no sweep ran: every sweep counter is zero (a sweep over a
/// non-constant root always records nodes_before) and no pair was proven.
bool no_sweep(const SweepResult& r) {
  bool zero = r.proven.empty();
#define ECO_X(name) zero = zero && r.stats.name == 0;
  ECO_SWEEP_STATS(ECO_X)
#undef ECO_X
  return zero;
}

// ---------------------------------------------------------------------------
// Randomized differential: sweeping, and check_miter with a zero cap (so
// nearly every check escalates to the sweep), must agree with the monolithic
// oracle on every verdict, and every inequivalence counterexample must
// actually excite the miter root.
TEST(Sweep, DifferentialAgainstMonolithicOracle) {
  Rng rng(0xD1FFE2);
  int equivalent = 0, inequivalent = 0, escalated = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    const RandomMiter m = random_miter(rng, iter % 2 == 1);
    const CecResult oracle = check_const0(m.g, m.out);
    ASSERT_NE(oracle.status, Status::kUnknown);
    const SweepResult swept = sweep_check(m.g, m.out);
    const SweepResult ruled = check_miter(m.g, m.out, /*conflict_budget=*/-1, {}, {}, {},
                                          nullptr, /*mono_conflict_cap=*/0);
    for (const SweepResult* r : {&swept, &ruled}) {
      ASSERT_EQ(r->cec.status, oracle.status) << "iter " << iter;
      if (r->cec.status == Status::kNotEquivalent) {
        EXPECT_TRUE(excites_root(m.g, m.out, r->cec.counterexample)) << "iter " << iter;
      }
    }
    if (oracle.status == Status::kNotEquivalent)
      ++inequivalent;
    else
      ++equivalent;
    if (!no_sweep(ruled)) ++escalated;
  }
  // The generator must exercise both verdicts heavily.
  EXPECT_GT(equivalent, 200);
  EXPECT_GT(inequivalent, 200);
  EXPECT_GT(escalated, 200);
}

// The determinism contract: verdict, proven pairs, and stats are identical
// for any executor width, including serial.
TEST(Sweep, DeterministicAcrossExecutorWidths) {
  Rng rng(0xDE7E12);
  util::Executor pool(4);
  for (int iter = 0; iter < 50; ++iter) {
    const RandomMiter m = random_miter(rng, iter % 2 == 1);
    const SweepResult serial = sweep_check(m.g, m.out);
    const SweepResult parallel =
        sweep_check(m.g, m.out, /*conflict_budget=*/-1, {}, {}, {}, &pool);
    ASSERT_EQ(parallel.cec.status, serial.cec.status) << "iter " << iter;
    ASSERT_EQ(parallel.proven.size(), serial.proven.size()) << "iter " << iter;
    for (size_t i = 0; i < serial.proven.size(); ++i) {
      EXPECT_EQ(parallel.proven[i].a, serial.proven[i].a);
      EXPECT_EQ(parallel.proven[i].b, serial.proven[i].b);
    }
    EXPECT_EQ(parallel.stats.proofs, serial.stats.proofs);
    EXPECT_EQ(parallel.stats.refutes, serial.stats.refutes);
    EXPECT_EQ(parallel.stats.merges, serial.stats.merges);
    EXPECT_EQ(parallel.stats.cex_splits, serial.stats.cex_splits);
    EXPECT_EQ(parallel.cec.counterexample, serial.cec.counterexample);
  }
}

// TSan hammer for the parallel class-proving path: many classes, wide pool.
// (The CI TSan job selects this by the "Sweep" suite name.)
TEST(Sweep, ParallelClassProvingHammer) {
  Rng rng(0x7Ea11);
  util::Executor pool(4);
  uint64_t total_merges = 0;
  for (int iter = 0; iter < 8; ++iter) {
    // Equivalent pair: every internal node of copy A has a twin in copy B,
    // so the class list is as wide as the circuit.
    const RandomMiter m = random_miter(rng, false);
    const SweepResult r = sweep_check(m.g, m.out, /*conflict_budget=*/-1, {}, {}, {}, &pool);
    EXPECT_EQ(r.cec.status, Status::kEquivalent);
    total_merges += r.stats.merges;
  }
  // A miter that strashes to constant 0 short-circuits with empty stats, so
  // assert the sweeping work happened in aggregate.
  EXPECT_GT(total_merges, 0u);
}

// Phase seeding is a heuristic start assignment: verdicts must be identical
// with it on and off (the PR-3-style A/B differential).
TEST(Sweep, PhaseSeedOnOffSameVerdicts) {
  const sat::SolverOptions saved = sat::SolverOptions::defaults();
  Rng rng(0x9A5EED);
  for (int iter = 0; iter < 100; ++iter) {
    const RandomMiter m = random_miter(rng, iter % 2 == 1);
    sat::SolverOptions on = saved;
    on.phase_seed = true;
    sat::SolverOptions::set_defaults(on);
    const SweepResult with_seed = sweep_check(m.g, m.out);
    sat::SolverOptions off = saved;
    off.phase_seed = false;
    sat::SolverOptions::set_defaults(off);
    const SweepResult without = sweep_check(m.g, m.out);
    sat::SolverOptions::set_defaults(saved);
    ASSERT_EQ(with_seed.cec.status, without.cec.status) << "iter " << iter;
  }
  sat::SolverOptions::set_defaults(saved);
}

TEST(Sweep, SeedPatternScreensToCounterexample) {
  // Root = AND of 24 PIs: random bank patterns essentially never excite it
  // (512 * 2^-24), so the all-ones caller seed must decide the check.
  constexpr int kPis = 24;
  Aig g;
  std::vector<Lit> pis;
  for (int i = 0; i < kPis; ++i) pis.push_back(g.add_pi());
  Lit conj = aig::kLitTrue;
  for (const Lit pi : pis) conj = g.add_and(conj, pi);
  const std::vector<std::vector<bool>> seeds = {std::vector<bool>(kPis, true)};
  const SweepResult r = sweep_check(g, conj, /*conflict_budget=*/-1, {}, seeds);
  ASSERT_EQ(r.cec.status, Status::kNotEquivalent);
  ASSERT_EQ(r.cec.counterexample.size(), static_cast<size_t>(kPis));
  // Whatever pattern came out must genuinely excite the root.
  Aig probe = g;
  probe.add_po(conj);
  EXPECT_TRUE(aig::eval(probe, r.cec.counterexample).back());
}

TEST(Sweep, ConstantRootsShortCircuit) {
  Aig g;
  g.add_pi();
  EXPECT_EQ(sweep_check(g, aig::kLitFalse).cec.status, Status::kEquivalent);
  const SweepResult r = sweep_check(g, aig::kLitTrue);
  ASSERT_EQ(r.cec.status, Status::kNotEquivalent);
  EXPECT_EQ(r.cec.counterexample.size(), g.num_pis());
}

// Every proven pair sweep_check reports is a genuine equivalence over the
// input AIG: the two structurally distinct XOR cones merge, and evaluation
// over all input patterns agrees on both sides of each pair.
TEST(Sweep, ProvenPairsAreGenuineEquivalences) {
  Aig g;
  const Lit a = g.add_pi("a");
  const Lit b = g.add_pi("b");
  const Lit x1 = g.add_xor(a, b);                              // or-of-ands
  const Lit x2 = g.add_and(g.add_or(a, b), g.add_nand(a, b));  // and-of-or/nand
  const SweepResult r = sweep_check(g, g.add_xor(x1, x2));
  ASSERT_EQ(r.cec.status, Status::kEquivalent);
  ASSERT_FALSE(r.proven.empty());
  Aig probe = g;
  for (const EquivPair& p : r.proven) {
    probe.add_po(p.a);
    probe.add_po(p.b);
  }
  for (int bits = 0; bits < 4; ++bits) {
    const std::vector<bool> pattern = {(bits & 1) != 0, (bits & 2) != 0};
    const auto values = aig::eval(probe, pattern);
    for (size_t i = 0; i < r.proven.size(); ++i)
      EXPECT_EQ(values[2 * i], values[2 * i + 1]) << "pattern " << bits;
  }
}

// ---------------------------------------------------------------------------
// check_miter: the monolithic query under a conflict cap, the sweep only for
// a check that query leaves undecided (the zero-cap escalation also runs in
// the differential above).

// check_equivalence hands the miter it builds to check_miter: escalating that
// same miter to the sweep (cap 0) gives check_equivalence's verdict.
TEST(Sweep, CheckEquivalenceEscalation) {
  Rng rng(0xE5CA1A);
  int escalated = 0;
  for (int iter = 0; iter < 20; ++iter) {
    const RandomMiter m = random_miter(rng, iter % 2 == 1);
    // Split the shared miter into two single-output circuits over the same
    // PIs so check_equivalence builds the miter itself.
    Aig probe = m.g;
    probe.add_po(m.out, "diff");
    Aig zero;
    for (uint32_t i = 0; i < m.g.num_pis(); ++i) zero.add_pi();
    zero.add_po(aig::kLitFalse, "diff");
    // No simulation rounds, so every check reaches check_miter.
    const CecResult direct = check_equivalence(probe, zero, /*conflict_budget=*/-1,
                                               /*sim_rounds=*/0);
    const Aig miter = build_miter(probe, zero);
    const SweepResult swept = check_miter(miter, miter.po_lit(0), /*conflict_budget=*/-1, {},
                                          {}, {}, nullptr, /*mono_conflict_cap=*/0);
    ASSERT_NE(direct.status, Status::kUnknown) << "iter " << iter;
    ASSERT_EQ(swept.cec.status, direct.status) << "iter " << iter;
    if (swept.cec.status == Status::kNotEquivalent) {
      EXPECT_TRUE(excites_root(miter, miter.po_lit(0), swept.cec.counterexample))
          << "iter " << iter;
    }
    if (!no_sweep(swept)) ++escalated;
  }
  EXPECT_GT(escalated, 5);
}

// A check the monolithic query decides under the cap is exactly
// check_const0's answer, and the sweep engine never starts.
TEST(Sweep, CheckMiterUnderCapIsCheckConst0) {
  Rng rng(0xCA9CA9);
  for (int iter = 0; iter < 200; ++iter) {
    const RandomMiter m = random_miter(rng, iter % 2 == 1);
    const CecResult mono = check_const0(m.g, m.out);
    ASSERT_NE(mono.status, Status::kUnknown);
    const SweepResult r = check_miter(m.g, m.out);
    ASSERT_EQ(r.cec.status, mono.status) << "iter " << iter;
    EXPECT_EQ(r.cec.counterexample, mono.counterexample) << "iter " << iter;
    EXPECT_TRUE(no_sweep(r)) << "iter " << iter;
  }
}

// A caller budget within the cap is the caller's limit: when the monolithic
// query spends it undecided, the answer is kUnknown and no sweep runs.
TEST(Sweep, CheckMiterCallerBudgetStopsWithoutSweep) {
  Rng rng(0xB0D6E7);
  int exhausted = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const RandomMiter m = random_miter(rng, false);
    if (check_const0(m.g, m.out, /*conflict_budget=*/1).status != Status::kUnknown) continue;
    ++exhausted;
    const SweepResult r = check_miter(m.g, m.out, /*conflict_budget=*/1);
    EXPECT_EQ(r.cec.status, Status::kUnknown) << "iter " << iter;
    EXPECT_TRUE(no_sweep(r)) << "iter " << iter;
  }
  EXPECT_GT(exhausted, 10);
}

}  // namespace
}  // namespace eco::cec
