// Tests of sat/parsolve.hpp: the intra-query parallel SAT layer.
//
// The heart is a randomized differential harness: thousands of random
// instances are solved twice, once by a serial oracle (escalation disabled)
// and once with the parallel layer forced to escalate at the first restart
// boundary (trigger 0). Verdicts must match exactly; SAT models must
// satisfy the instance; UNSAT cores must be sound subsets of the
// assumptions (re-solving the oracle under just the core stays UNSAT).
// The portfolio is additionally checked for run-to-run identical models,
// and for identical answers when every pool worker is busy (the coordinator
// then solves every rank itself). The hammer drives winner cancellation
// with 8 clones over many iterations and reads solver stats back after
// every solve — a use-after-free or publication race here is caught by the
// TSan CI job.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "sat/parsolve.hpp"
#include "sat/solver.hpp"
#include "util/executor.hpp"
#include "util/rng.hpp"

namespace eco::sat {
namespace {

/// Restores the process-wide parallel-SAT configuration and unregisters the
/// executor on scope exit, so tests cannot leak state into each other.
struct ParGuard {
  ParSolveOptions saved = ParSolveOptions::defaults();
  ~ParGuard() {
    ParSolveOptions::set_defaults(saved);
    set_par_executor(nullptr);
  }
};

/// Forced-escalation configuration: every solve fans out immediately.
ParSolveOptions forced(int clones = 4) {
  ParSolveOptions o;
  o.mode = ParMode::kDeterministic;
  o.clones = clones;
  o.trigger_conflicts = 0;  // escalate at the first restart boundary
  return o;
}

struct Instance {
  int num_vars = 0;
  std::vector<LitVec> clauses;
  LitVec assumptions;
};

/// Random 3-SAT-ish instance near the phase transition, so the harness sees
/// a healthy mix of SAT and UNSAT verdicts. Fully determined by the seed.
Instance make_instance(uint64_t seed) {
  Rng rng(SplitMix64::mix(seed));
  Instance ins;
  ins.num_vars = 12 + static_cast<int>(rng.below(18));
  const int num_clauses =
      static_cast<int>(static_cast<double>(ins.num_vars) * (3.0 + rng.uniform() * 2.5));
  for (int c = 0; c < num_clauses; ++c) {
    LitVec clause;
    const int width = rng.chance(1, 8) ? 2 : 3;
    while (static_cast<int>(clause.size()) < width) {
      const Var v = static_cast<Var>(rng.below(static_cast<uint64_t>(ins.num_vars)));
      const Lit l = mk_lit(v, rng.chance(1, 2));
      bool dup = false;
      for (const Lit e : clause) dup |= e.var() == l.var();
      if (!dup) clause.push_back(l);
    }
    ins.clauses.push_back(std::move(clause));
  }
  if (rng.chance(1, 2)) {
    const int k = 1 + static_cast<int>(rng.below(3));
    while (static_cast<int>(ins.assumptions.size()) < k) {
      const Var v = static_cast<Var>(rng.below(static_cast<uint64_t>(ins.num_vars)));
      const Lit l = mk_lit(v, rng.chance(1, 2));
      bool dup = false;
      for (const Lit e : ins.assumptions) dup |= e.var() == l.var();
      if (!dup) ins.assumptions.push_back(l);
    }
  }
  return ins;
}

void load(Solver& s, const Instance& ins) {
  for (int v = 0; v < ins.num_vars; ++v) s.new_var();
  for (const LitVec& c : ins.clauses)
    if (!s.add_clause(c)) return;  // UNSAT at level 0: solve() reports it
}

bool model_satisfies(const Solver& s, const Instance& ins) {
  for (const LitVec& c : ins.clauses) {
    bool sat = false;
    for (const Lit l : c) sat |= s.model_value(l);
    if (!sat) return false;
  }
  for (const Lit l : ins.assumptions)
    if (!s.model_value(l)) return false;
  return true;
}

/// Core soundness against the serial oracle: every core literal was
/// assumed, and the oracle refutes the instance under the core alone.
void check_core(const Solver& par, const Instance& ins) {
  for (const Lit l : par.core()) {
    const bool assumed = std::find(ins.assumptions.begin(), ins.assumptions.end(), l) !=
                         ins.assumptions.end();
    ASSERT_TRUE(assumed) << "core literal was never assumed";
    ASSERT_TRUE(par.in_core(l));
  }
  Solver oracle;
  oracle.set_par_escalation(false);
  load(oracle, ins);
  ASSERT_TRUE(oracle.solve(par.core()).is_false())
      << "parallel core does not refute the instance";
}

/// One differential query: serial oracle vs. forced escalation.
void differential_query(uint64_t seed) {
  const Instance ins = make_instance(seed);

  Solver oracle;
  oracle.set_par_escalation(false);
  load(oracle, ins);
  const LBool serial = oracle.solve(ins.assumptions);

  Solver par;
  load(par, ins);
  const LBool parallel = par.solve(ins.assumptions);

  ASSERT_EQ(serial.raw(), parallel.raw()) << "verdict drift at seed " << seed;
  if (parallel.is_true()) {
    ASSERT_TRUE(model_satisfies(par, ins)) << "bogus model at seed " << seed;
  }
  if (parallel.is_false() && !ins.assumptions.empty()) check_core(par, ins);
}

TEST(ParSolveOptionsTest, ParseParMode) {
  ParMode m = ParMode::kOff;
  EXPECT_TRUE(parse_par_mode("on", m));
  EXPECT_EQ(m, ParMode::kDeterministic);
  EXPECT_TRUE(parse_par_mode("off", m));
  EXPECT_EQ(m, ParMode::kOff);
  m = ParMode::kDeterministic;
  EXPECT_FALSE(parse_par_mode("sideways", m));
  EXPECT_EQ(m, ParMode::kDeterministic);  // untouched on failure
  EXPECT_FALSE(parse_par_mode("", m));
}

TEST(ParSolveTest, InertWithoutExecutor) {
  ParGuard guard;
  ParSolveOptions::set_defaults(forced());
  // No executor registered: the layer must stay out of the way entirely.
  set_par_executor(nullptr);
  Solver s;
  const Instance ins = make_instance(7);
  load(s, ins);
  (void)s.solve(ins.assumptions);
  EXPECT_EQ(s.stats().par_escalations, 0u);
}

TEST(ParSolveTest, PortfolioEscalatesAndWins) {
  ParGuard guard;
  ParSolveOptions::set_defaults(forced());
  util::Executor ex(4);
  set_par_executor(&ex);
  Solver s;
  const Instance ins = make_instance(42);
  load(s, ins);
  const LBool verdict = s.solve(ins.assumptions);
  EXPECT_FALSE(verdict.is_undef());
  EXPECT_EQ(s.stats().par_escalations, 1u);
  EXPECT_EQ(s.stats().par_portfolio, 1u);
  EXPECT_EQ(s.stats().par_wins, 1u);
}

TEST(ParSolveTest, PortfolioDifferentialMatchesSerialOracle) {
  ParGuard guard;
  ParSolveOptions::set_defaults(forced());
  util::Executor ex(4);
  set_par_executor(&ex);
  for (uint64_t q = 0; q < 2000 && !HasFatalFailure(); ++q)
    differential_query(0x9000 + q);
}

TEST(ParSolveTest, DeterministicModeIsRunToRunIdentical) {
  ParGuard guard;
  ParSolveOptions::set_defaults(forced());
  util::Executor ex(4);
  set_par_executor(&ex);
  for (uint64_t q = 0; q < 300; ++q) {
    const Instance ins = make_instance(0xDE7 + q);
    auto run = [&](std::vector<bool>& model) {
      Solver s;
      load(s, ins);
      const LBool verdict = s.solve(ins.assumptions);
      if (verdict.is_true())
        for (int v = 0; v < ins.num_vars; ++v)
          model.push_back(s.model_value(static_cast<Var>(v)));
      return verdict;
    };
    std::vector<bool> model_a, model_b;
    const LBool a = run(model_a);
    const LBool b = run(model_b);
    ASSERT_EQ(a.raw(), b.raw()) << "verdict drift across runs at query " << q;
    ASSERT_EQ(model_a, model_b) << "model drift across runs at query " << q;
  }
}

TEST(ParSolveTest, WinnerCancellationHammer) {
  // 8 clones x 1000 iterations of winner-cancels-siblings, with solver
  // stats read back after every solve. Any use-after-free on the clone
  // results or an unsynchronized publication shows up under the TSan CI
  // job.
  ParGuard guard;
  ParSolveOptions::set_defaults(forced(8));
  util::Executor ex(8);
  set_par_executor(&ex);
  uint64_t sat = 0, unsat = 0, escalations = 0, wins = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    const Instance ins = make_instance(0xA44E12 + i);
    Solver s;
    load(s, ins);
    const LBool verdict = s.solve(ins.assumptions);
    // Stats readback: every field must be coherent after the race retired.
    const SolverStats& st = s.stats();
    escalations += st.par_escalations;
    wins += st.par_wins;
    if (verdict.is_true()) {
      ++sat;
      ASSERT_TRUE(model_satisfies(s, ins));
    } else if (verdict.is_false()) {
      ++unsat;
      for (const Lit l : s.core()) ASSERT_TRUE(s.in_core(l));
    }
  }
  EXPECT_GT(sat, 0u);
  EXPECT_GT(unsat, 0u);
  EXPECT_GT(escalations, 0u);
  EXPECT_GT(wins, 0u);
}

TEST(ParSolveTest, SaturatedPoolMatchesIdlePool) {
  // The pool-occupancy half of the determinism contract: with every worker
  // parked, the race's helper tasks only queue and the coordinator claims
  // every rank itself — slower, never different.
  ParGuard guard;
  ParSolveOptions::set_defaults(forced());
  std::atomic<int> parked{0};
  util::Executor ex(4);
  set_par_executor(&ex);
  struct Answers {
    std::vector<uint8_t> verdicts;
    std::vector<std::vector<bool>> models;
    uint64_t escalations = 0;
  };
  auto solve_all = [] {
    Answers out;
    for (uint64_t q = 0; q < 50; ++q) {
      const Instance ins = make_instance(0x5A7 + q);
      Solver s;
      load(s, ins);
      const LBool verdict = s.solve(ins.assumptions);
      out.verdicts.push_back(verdict.raw());
      out.escalations += s.stats().par_escalations;
      std::vector<bool>& model = out.models.emplace_back();
      if (verdict.is_true())
        for (int v = 0; v < ins.num_vars; ++v)
          model.push_back(s.model_value(static_cast<Var>(v)));
    }
    return out;
  };
  const Answers idle = solve_all();

  // Declared after the executor, so an early test exit destroys the promise
  // first: the broken promise releases the parked workers before the
  // executor joins them.
  std::promise<void> release;
  const std::shared_future<void> gate = release.get_future().share();
  for (int w = 1; w < ex.jobs(); ++w)
    ex.submit([&parked, gate] {
      parked.fetch_add(1);
      gate.wait();
    });
  while (parked.load() < ex.jobs() - 1) std::this_thread::yield();
  const Answers busy = solve_all();
  release.set_value();

  EXPECT_EQ(idle.verdicts, busy.verdicts);
  EXPECT_EQ(idle.models, busy.models);
  EXPECT_EQ(idle.escalations, busy.escalations);
  EXPECT_GT(busy.escalations, 0u);
}

TEST(ParSolveTest, NearExhaustedBudgetStaysSerial) {
  ParGuard guard;
  ParSolveOptions::set_defaults(forced());
  util::Executor ex(4);
  set_par_executor(&ex);
  // With fewer than 4000 conflicts of budget left, clone setup would cost
  // more than the remainder buys: the solve must stay serial.
  const Instance ins = make_instance(1234);
  Solver s;
  load(s, ins);
  s.set_conflict_budget(3000);
  (void)s.solve(ins.assumptions);
  EXPECT_EQ(s.stats().par_escalations, 0u);
}

TEST(ParSolveTest, NegativeTriggerOverrideDisablesEscalation) {
  ParGuard guard;
  ParSolveOptions::set_defaults(forced());
  util::Executor ex(4);
  set_par_executor(&ex);
  const Instance ins = make_instance(4321);
  Solver s;
  load(s, ins);
  s.set_par_trigger(-1);
  (void)s.solve(ins.assumptions);
  EXPECT_EQ(s.stats().par_escalations, 0u);
}

}  // namespace
}  // namespace eco::sat
