#include "eco/resub.hpp"

#include <algorithm>

#include "cnf/tseitin.hpp"
#include "eco/simfilter.hpp"
#include "sat/minimize.hpp"
#include "sat/solver.hpp"
#include "util/ledger.hpp"
#include "util/log.hpp"

namespace eco::core {

namespace {

/// (pi index, solver var) of every impl PI the encoder has reached (var()
/// on an unencoded node would allocate and perturb the search).
std::vector<std::pair<uint32_t, sat::Var>> encoded_pi_vars(const aig::Aig& g,
                                                           cnf::Encoder& enc) {
  std::vector<std::pair<uint32_t, sat::Var>> out;
  for (uint32_t i = 0; i < g.num_pis(); ++i)
    if (enc.encoded(g.pi_node(i))) out.emplace_back(i, enc.var(g.pi_node(i)));
  return out;
}

void harvest(ResubFilter* sim, uint32_t num_pis, sat::Solver& s,
             const std::vector<std::pair<uint32_t, sat::Var>>& pis) {
  std::vector<bool> pattern(num_pis, false);
  for (const auto& [pi, v] : pis) pattern[pi] = s.model_value(v);
  sim->add_counterexample(pattern);
}

}  // namespace

ResubResult functional_resub(const aig::Aig& impl, aig::Lit func,
                             const std::vector<Divisor>& divisors,
                             std::span<const size_t> candidates,
                             const ResubOptions& options) {
  ledger::ScopedPurpose ledger_scope(ledger::Purpose::kResub);
  ResubResult result;

  // A bank pattern pair agreeing on every candidate but differing on `func`
  // refutes the dependency exactly — same !ok return, no solver built. (The
  // SAT path below treats kTrue and kUndef identically, so the answer is
  // verdict-equivalent even under conflict budgets.)
  if (options.sim != nullptr &&
      options.sim->refutes_dependency(func, divisors, candidates)) {
    ledger::append_sim_hit(ledger::Purpose::kResub, ledger::QueryResult::kSat);
    return result;
  }

  // --- Support selection on the two-copy dependency instance. ------------
  sat::Solver dep;
  dep.set_cancel(options.cancel);
  cnf::Encoder copy1(impl, dep), copy2(impl, dep);
  dep.add_unit(copy1.lit(func));    // p(x1) = 1
  dep.add_unit(~copy2.lit(func));   // p(x2) = 0
  sat::LitVec activations;
  for (const size_t g : candidates) {
    const sat::Lit d1 = copy1.lit(divisors[g].lit);
    const sat::Lit d2 = copy2.lit(divisors[g].lit);
    const sat::Lit a = sat::mk_lit(dep.new_var());
    dep.add_ternary(~a, ~d1, d2);
    dep.add_ternary(~a, d1, ~d2);
    activations.push_back(a);
  }
  std::vector<std::pair<uint32_t, sat::Var>> dep_pis1, dep_pis2;
  if (options.sim != nullptr) {
    dep_pis1 = encoded_pi_vars(impl, copy1);
    dep_pis2 = encoded_pi_vars(impl, copy2);
  }
  if (options.conflict_budget >= 0) dep.set_conflict_budget(options.conflict_budget);
  const sat::LBool verdict = dep.solve(activations);
  if (!verdict.is_false()) {
    if (verdict.is_true() && options.sim != nullptr) {
      // The model's two copies are exactly such a witness pair: remember
      // them so the next dependency check over a similar candidate set is
      // answered by simulation.
      harvest(options.sim, impl.num_pis(), dep, dep_pis1);
      harvest(options.sim, impl.num_pis(), dep, dep_pis2);
    }
    return result;  // not a function of the candidates / budget
  }

  // Keep the final-conflict core, then minimize (cost-ascending order is
  // inherited from the candidate list). The core keeps the activations in
  // their original relative order, so the minimize recursion's first query
  // shares its assumption prefix with the dependency solve above and the
  // solver's trail reuse retains the propagation work (see minimize.hpp).
  sat::LitVec core;
  std::vector<size_t> core_globals;
  for (size_t i = 0; i < activations.size(); ++i)
    if (dep.in_core(activations[i])) {
      core.push_back(activations[i]);
      core_globals.push_back(candidates[i]);
    }
  sat::LitVec ctx;
  const int kept = sat::minimize_assumptions(dep, core, ctx);
  std::vector<size_t> support;
  for (int i = 0; i < kept; ++i) {
    const auto it = std::find(activations.begin(), activations.end(),
                              core[static_cast<size_t>(i)]);
    support.push_back(candidates[static_cast<size_t>(it - activations.begin())]);
  }
  std::sort(support.begin(), support.end());

  // --- Cube enumeration of p over the chosen support. --------------------
  sat::Solver on_solver, off_solver;
  on_solver.set_cancel(options.cancel);
  off_solver.set_cancel(options.cancel);
  cnf::Encoder on_enc(impl, on_solver), off_enc(impl, off_solver);
  on_solver.add_unit(on_enc.lit(func));
  off_solver.add_unit(~off_enc.lit(func));
  std::vector<sat::Lit> d_on, d_off;
  for (const size_t g : support) {
    d_on.push_back(on_enc.lit(divisors[g].lit));
    d_off.push_back(off_enc.lit(divisors[g].lit));
  }

  std::vector<std::pair<uint32_t, sat::Var>> on_pis;
  if (options.sim != nullptr) on_pis = encoded_pi_vars(impl, on_enc);

  sop::Cover cover;
  cover.num_vars = static_cast<uint32_t>(support.size());
  for (uint64_t round = 0; round < options.max_cubes; ++round) {
    if (options.conflict_budget >= 0) on_solver.set_conflict_budget(options.conflict_budget);
    const sat::LBool on = on_solver.okay() ? on_solver.solve() : sat::kFalse;
    if (on.is_undef()) return result;
    if (on.is_false()) break;
    if (options.sim != nullptr) harvest(options.sim, impl.num_pis(), on_solver, on_pis);
    sat::LitVec cube_lits;
    for (size_t i = 0; i < support.size(); ++i) {
      const bool value = on_solver.model_value(d_on[i]);
      cube_lits.push_back(value ? d_off[i] : ~d_off[i]);
    }
    if (options.conflict_budget >= 0) off_solver.set_conflict_budget(options.conflict_budget);
    if (!off_solver.solve(cube_lits).is_false()) {
      log_warn("functional_resub: support does not separate on/off sets");
      return result;
    }
    // `cube_lits` is in fixed support order: the expansion solve above and
    // the minimize recursion's first query assume identical vectors, so
    // consecutive queries on off_solver share long prefixes for trail reuse.
    sat::LitVec work = cube_lits;
    sat::LitVec ctx2;
    const int cube_kept = sat::minimize_assumptions(off_solver, work, ctx2);
    std::vector<sop::Lit> sop_lits;
    sat::LitVec blocking;
    for (int i = 0; i < cube_kept; ++i) {
      const sat::Lit l = work[static_cast<size_t>(i)];
      const auto it = std::find(cube_lits.begin(), cube_lits.end(), l);
      const size_t var = static_cast<size_t>(it - cube_lits.begin());
      const bool positive = l.sign() == d_off[var].sign();
      sop_lits.push_back(positive ? sop::lit_pos(static_cast<uint32_t>(var))
                                  : sop::lit_neg(static_cast<uint32_t>(var)));
      blocking.push_back(~(d_on[var] ^ !positive));
    }
    cover.cubes.push_back(sop::Cube(std::move(sop_lits)));
    on_solver.add_clause(blocking);
    if (!on_solver.okay()) break;
  }
  cover.remove_contained_cubes();

  // Drop support entries unused by the cover.
  std::vector<uint8_t> used(support.size(), 0);
  for (const auto& cube : cover.cubes)
    for (const sop::Lit l : cube.lits()) used[sop::lit_var(l)] = 1;
  std::vector<uint32_t> remap(support.size(), 0);
  std::vector<size_t> final_support;
  for (size_t i = 0; i < support.size(); ++i)
    if (used[i]) {
      remap[i] = static_cast<uint32_t>(final_support.size());
      final_support.push_back(support[i]);
    }
  sop::Cover final_cover;
  final_cover.num_vars = static_cast<uint32_t>(final_support.size());
  for (const auto& cube : cover.cubes) {
    std::vector<sop::Lit> lits;
    for (const sop::Lit l : cube.lits())
      lits.push_back(sop::lit_negated(l) ? sop::lit_neg(remap[sop::lit_var(l)])
                                         : sop::lit_pos(remap[sop::lit_var(l)]));
    final_cover.cubes.push_back(sop::Cube(std::move(lits)));
  }

  result.ok = true;
  result.support = std::move(final_support);
  result.cover = std::move(final_cover);
  for (const size_t g : result.support) result.cost += divisors[g].cost;
  return result;
}

}  // namespace eco::core
