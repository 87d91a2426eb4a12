#include "eco/patchfunc.hpp"

#include <algorithm>

#include "cnf/tseitin.hpp"
#include "eco/simfilter.hpp"
#include "sat/minimize.hpp"
#include "sat/solver.hpp"
#include "util/ledger.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace eco::core {

namespace {

/// (pi index, solver var) of every miter PI the encoder has reached. Only
/// encoded PIs may be queried — var() on an unencoded node would allocate a
/// solver variable and perturb the search.
std::vector<std::pair<uint32_t, sat::Var>> encoded_pi_vars(const aig::Aig& g,
                                                           cnf::Encoder& enc) {
  std::vector<std::pair<uint32_t, sat::Var>> out;
  for (uint32_t i = 0; i < g.num_pis(); ++i)
    if (enc.encoded(g.pi_node(i))) out.emplace_back(i, enc.var(g.pi_node(i)));
  return out;
}

}  // namespace

PatchFuncResult compute_patch_cover(const EcoMiter& m, uint32_t target,
                                    const std::vector<Divisor>& divisors,
                                    const std::vector<size_t>& support,
                                    const PatchFuncOptions& options) {
  (void)divisors;
  ECO_TELEMETRY_PHASE("patch_func");
  ledger::ScopedPurpose ledger_scope(ledger::Purpose::kPatchFunc);
  PatchFuncResult result;
  result.cover.num_vars = static_cast<uint32_t>(support.size());
  const aig::Lit target_lit = m.target_lit(target);

  // On-set solver: M(0, x). Off-set solver: M(1, x).
  sat::Solver on_solver, off_solver;
  on_solver.set_cancel(options.cancel);
  off_solver.set_cancel(options.cancel);
  cnf::Encoder on_enc(m.aig, on_solver), off_enc(m.aig, off_solver);
  on_solver.add_unit(on_enc.lit(m.out));
  on_solver.add_unit(~on_enc.lit(target_lit));
  off_solver.add_unit(off_enc.lit(m.out));
  off_solver.add_unit(off_enc.lit(target_lit));

  std::vector<sat::Lit> d_on, d_off;
  d_on.reserve(support.size());
  d_off.reserve(support.size());
  for (const size_t g : support) {
    const aig::Lit dl = m.divisor_lits[g];
    d_on.push_back(on_enc.lit(dl));
    d_off.push_back(off_enc.lit(dl));
  }

  auto set_budget = [&](sat::Solver& s) {
    if (options.conflict_budget >= 0)
      s.set_conflict_budget(options.conflict_budget);
    else
      s.clear_budgets();
  };

  // Bank harvesting: every enumerated on-set model is a counterexample the
  // later phases (irredundancy here, CEC seeding downstream) can reuse.
  std::vector<std::pair<uint32_t, sat::Var>> on_pis;
  if (options.sim_filter != nullptr) on_pis = encoded_pi_vars(m.aig, on_enc);
  const auto harvest = [&](sat::Solver& s,
                           const std::vector<std::pair<uint32_t, sat::Var>>& pis) {
    std::vector<bool> pattern(m.aig.num_pis(), false);
    for (const auto& [pi, v] : pis) pattern[pi] = s.model_value(v);
    options.sim_filter->add_counterexample(pattern, /*off_set=*/false);
  };

  while (result.cubes_enumerated < options.max_cubes) {
    // Next uncovered on-set point.
    set_budget(on_solver);
    ++result.sat_calls;
    const sat::LBool verdict = on_solver.okay() ? on_solver.solve() : sat::kFalse;
    if (verdict.is_undef()) return result;  // budget: incomplete cover
    if (verdict.is_false()) break;          // on-set exhausted: done
    if (options.sim_filter != nullptr) harvest(on_solver, on_pis);

    // Cube literals in the off-copy, asserting d == model value. Ordered by
    // increasing divisor cost (support inherits the cost order from the
    // candidate list), so expansion drops expensive literals first.
    // cube_lits[i] belongs to SOP variable i.
    sat::LitVec cube_lits;
    for (size_t i = 0; i < support.size(); ++i) {
      const bool value = on_solver.model_value(d_on[i]);
      cube_lits.push_back(value ? d_off[i] : ~d_off[i]);
    }

    // Expand to a prime cube against the off-set.
    set_budget(off_solver);
    ++result.sat_calls;
    const sat::LBool off_verdict = off_solver.solve(cube_lits);
    if (off_verdict.is_true()) {
      // The support does not separate on-set from off-set: invalid support.
      log_warn("patchfunc: support does not separate on/off sets");
      return result;
    }
    if (off_verdict.is_undef()) return result;

    sat::LitVec kept_lits;
    // `cube_lits` is in fixed support order, so the expansion solve above and
    // the first minimize query assume the identical vector — the recursion
    // then only shrinks/permutes the tail (see minimize.hpp's
    // assumption-ordering invariant), keeping prefixes shared for trail reuse.
    if (options.use_minimize) {
      sat::MinimizeStats stats;
      sat::LitVec work = cube_lits;
      sat::LitVec ctx;
      const int kept = sat::minimize_assumptions(off_solver, work, ctx, &stats);
      result.sat_calls += stats.sat_calls;
      kept_lits.assign(work.begin(), work.begin() + kept);
    } else {
      // Baseline: the final-conflict core is the (non-minimal) cube.
      for (const sat::Lit l : cube_lits)
        if (off_solver.in_core(l)) kept_lits.push_back(l);
    }

    // Convert kept off-copy literals into an SOP cube and block it in the
    // on-copy.
    std::vector<sop::Lit> sop_lits;
    sat::LitVec blocking;
    for (const sat::Lit l : kept_lits) {
      const auto it = std::find_if(cube_lits.begin(), cube_lits.end(),
                                   [&](sat::Lit cl) { return cl == l; });
      const auto var = static_cast<size_t>(it - cube_lits.begin());
      const bool positive = !l.sign() == !d_off[var].sign();  // value asserted
      sop_lits.push_back(positive ? sop::lit_pos(static_cast<uint32_t>(var))
                                  : sop::lit_neg(static_cast<uint32_t>(var)));
      // Blocking literal in the on-copy: the complement of the cube literal.
      const sat::Lit on_lit = sat::mk_lit(d_on[var].var(), positive == d_on[var].sign());
      blocking.push_back(~on_lit);
    }
    result.cover.cubes.push_back(sop::Cube(std::move(sop_lits)));
    ++result.cubes_enumerated;
    ECO_TELEMETRY_COUNT("patchfunc.cubes");
    on_solver.add_clause(blocking);  // empty cube -> empty clause -> done
    if (!on_solver.okay()) break;
  }

  result.cover.remove_contained_cubes();

  if (options.make_irredundant && result.cover.cubes.size() > 1) {
    // Exact irredundancy: cube i is redundant iff no on-set point lies in
    // cube i and outside every other kept cube. One fresh solver holds the
    // on-set copy plus, per cube j, an activation variable out_j with
    // out_j -> (some literal of cube j is false).
    ledger::ScopedPurpose ir_ledger_scope(ledger::Purpose::kIrredundancy);
    sat::Solver ir_solver;
    ir_solver.set_cancel(options.cancel);
    cnf::Encoder ir_enc(m.aig, ir_solver);
    ir_solver.add_unit(ir_enc.lit(m.out));
    ir_solver.add_unit(~ir_enc.lit(target_lit));
    std::vector<sat::Lit> d_ir;
    d_ir.reserve(support.size());
    for (const size_t g : support) d_ir.push_back(ir_enc.lit(m.divisor_lits[g]));
    auto lit_of = [&](sop::Lit l) {
      return d_ir[sop::lit_var(l)] ^ sop::lit_negated(l);
    };
    std::vector<sat::Lit> outside;  // activation: "point not in cube j"
    for (const auto& cube : result.cover.cubes) {
      const sat::Lit a = sat::mk_lit(ir_solver.new_var());
      sat::LitVec clause{~a};
      for (const sop::Lit l : cube.lits()) clause.push_back(~lit_of(l));
      ir_solver.add_clause(clause);
      outside.push_back(a);
    }
    std::vector<std::pair<uint32_t, sat::Var>> ir_pis;
    if (options.sim_filter != nullptr) {
      ir_pis = encoded_pi_vars(m.aig, ir_enc);
      options.sim_filter->begin_irredundancy(result.cover, support);
    }
    std::vector<uint8_t> kept(result.cover.cubes.size(), 1);
    for (size_t i = 0; i < result.cover.cubes.size(); ++i) {
      // A bank pattern inside cube i and outside every other kept cube is a
      // model of the query below: the cube is necessary, skip the solve.
      if (options.sim_filter != nullptr &&
          options.sim_filter->witnesses_cube_necessity(i, kept)) {
        // A necessity witness is a model of the query: a SAT answer.
        ledger::append_sim_hit(ledger::Purpose::kIrredundancy, ledger::QueryResult::kSat);
        continue;
      }
      // Assumption order: shared "outside cube j" activations first (in cube
      // index order), this cube's literals last. Iterations i and i+1 then
      // agree on the activations out_0..out_{i-1}, so the common prefix grows
      // as the loop advances and the solver's trail reuse keeps the
      // corresponding propagations. The verdict is order-independent.
      sat::LitVec assumps;
      for (size_t j = 0; j < result.cover.cubes.size(); ++j)
        if (j != i && kept[j]) assumps.push_back(outside[j]);
      for (const sop::Lit l : result.cover.cubes[i].lits()) assumps.push_back(lit_of(l));
      if (options.conflict_budget >= 0) ir_solver.set_conflict_budget(options.conflict_budget);
      ++result.sat_calls;
      const sat::LBool verdict = ir_solver.solve(assumps);
      if (verdict.is_false()) kept[i] = 0;  // covered by the others: drop
      // kTrue or kUndef: keep the cube (keeping is always sound).
      if (verdict.is_true() && options.sim_filter != nullptr) harvest(ir_solver, ir_pis);
    }
    std::vector<sop::Cube> pruned;
    for (size_t i = 0; i < result.cover.cubes.size(); ++i)
      if (kept[i]) pruned.push_back(std::move(result.cover.cubes[i]));
    result.cover.cubes = std::move(pruned);
  }

  result.ok = true;
  on_solver.clear_budgets();
  off_solver.clear_budgets();
  ECO_TELEMETRY_COUNT("patchfunc.sat_calls", static_cast<uint64_t>(result.sat_calls));
  return result;
}

}  // namespace eco::core
