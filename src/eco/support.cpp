#include "eco/support.hpp"

#include <algorithm>
#include <cassert>

#include "cnf/tseitin.hpp"
#include "eco/simfilter.hpp"
#include "sat/minimize.hpp"
#include "util/ledger.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"

namespace eco::core {

SupportInstance::SupportInstance(const EcoMiter& m, uint32_t target,
                                 const std::vector<Divisor>& divisors,
                                 std::span<const size_t> candidates)
    : candidates_(candidates.begin(), candidates.end()) {
  // Two independent encoders over the same miter AIG create the two copies
  // (fresh solver variables each).
  cnf::Encoder copy1(m.aig, solver_);
  cnf::Encoder copy2(m.aig, solver_);
  const aig::Lit target_lit = m.target_lit(target);

  // Copy 1: M(0, x1) — miter asserted, target at 0.
  solver_.add_unit(copy1.lit(m.out));
  solver_.add_unit(~copy1.lit(target_lit));
  // Copy 2: M(1, x2).
  solver_.add_unit(copy2.lit(m.out));
  solver_.add_unit(copy2.lit(target_lit));

  act_index_of_global_.assign(divisors.size(), -1);
  for (size_t i = 0; i < candidates_.size(); ++i) {
    const aig::Lit dl = m.divisor_lits[candidates_[i]];
    const sat::Lit d1 = copy1.lit(dl);
    const sat::Lit d2 = copy2.lit(dl);
    const sat::Lit a = sat::mk_lit(solver_.new_var());
    // a -> (d1 == d2)
    solver_.add_ternary(~a, ~d1, d2);
    solver_.add_ternary(~a, d1, ~d2);
    activation_.push_back(a);
    d1_.push_back(d1);
    d2_.push_back(d2);
    act_index_of_global_[candidates_[i]] = static_cast<int32_t>(i);
  }

  // For model harvesting into a SimFilter: remember the solver variable of
  // every miter PI that the encoding above reached, per copy. Only the
  // already-encoded PIs may be queried — var() on an unencoded node would
  // allocate fresh solver variables and perturb the search. PIs outside the
  // encoded cones cannot influence it, so patterns complete them with 0.
  num_pis_ = m.aig.num_pis();
  for (uint32_t i = 0; i < num_pis_; ++i) {
    const aig::Node n = m.aig.pi_node(i);
    if (copy1.encoded(n)) pi_vars1_.emplace_back(i, copy1.var(n));
    if (copy2.encoded(n)) pi_vars2_.emplace_back(i, copy2.var(n));
  }
}

void SupportInstance::harvest_model() {
  if (sim_ == nullptr) return;
  std::vector<bool> pattern(num_pis_, false);
  for (const auto& [pi, v] : pi_vars1_) pattern[pi] = solver_.model_value(v);
  sim_->add_counterexample(pattern, /*off_set=*/false);
  std::fill(pattern.begin(), pattern.end(), false);
  for (const auto& [pi, v] : pi_vars2_) pattern[pi] = solver_.model_value(v);
  sim_->add_counterexample(pattern, /*off_set=*/true);
}

sat::Lit SupportInstance::activation(size_t global_index) const {
  const int32_t i = act_index_of_global_[global_index];
  assert(i >= 0 && "divisor is not a candidate of this instance");
  return activation_[static_cast<size_t>(i)];
}

bool SupportInstance::sim_refutes(std::span<const sat::Lit> activations) {
  if (sim_ == nullptr) return false;
  // Activation variables were created in candidate order, so activation_ is
  // sorted by variable and a binary search maps a literal to its candidate.
  std::vector<size_t> subset;
  subset.reserve(activations.size());
  for (const sat::Lit a : activations) {
    const auto it = std::lower_bound(activation_.begin(), activation_.end(), a);
    assert(it != activation_.end() && *it == a && "not an activation literal");
    subset.push_back(candidates_[static_cast<size_t>(it - activation_.begin())]);
  }
  return sim_->refutes_subset(subset);
}

sat::LBool SupportInstance::check_subset(std::span<const size_t> subset,
                                         int64_t conflict_budget, bool use_sim_filter) {
  if (use_sim_filter && sim_ != nullptr && sim_->refutes_subset(subset)) {
    last_sim_refuted_ = true;
    // A refuted subset is a SAT answer (a separating witness exists).
    ledger::append_sim_hit(ledger::current_purpose(), ledger::QueryResult::kSat);
    return sat::LBool(true);
  }
  last_sim_refuted_ = false;
  sat::LitVec assumps;
  assumps.reserve(subset.size());
  for (const size_t g : subset) assumps.push_back(activation(g));
  // Canonical (candidate-index) order: activation variables were created in
  // candidate order, so sorting by literal puts every query's assumptions in
  // one global order. Consecutive subset checks (hitting-set loops,
  // last-gasp swaps) then share long assumption prefixes, which the solver's
  // trail reuse turns into retained propagation work. Verdicts and cores do
  // not depend on assumption order.
  std::sort(assumps.begin(), assumps.end());
  if (conflict_budget >= 0)
    solver_.set_conflict_budget(conflict_budget);
  else
    solver_.clear_budgets();
  const sat::LBool verdict = solver_.solve(assumps);
  solver_.clear_budgets();
  if (verdict.is_true()) harvest_model();
  return verdict;
}

std::vector<size_t> SupportInstance::separator() const {
  if (last_sim_refuted_) return sim_->separator(candidates_);
  std::vector<size_t> out;
  for (size_t i = 0; i < candidates_.size(); ++i) {
    const bool v1 = solver_.model_value(d1_[i]);
    const bool v2 = solver_.model_value(d2_[i]);
    if (v1 != v2) out.push_back(candidates_[i]);
  }
  return out;
}

SupportResult compute_support(SupportInstance& inst, const std::vector<Divisor>& divisors,
                              const SupportOptions& options) {
  ECO_TELEMETRY_PHASE("support");
  ledger::ScopedPurpose ledger_scope(ledger::Purpose::kSupport);
  SupportResult result;
  sat::Solver& solver = inst.solver();
  const std::vector<size_t>& candidates = inst.candidates();

  // A bank witness for the full candidate set proves infeasibility without
  // any solver work; the instance is abandoned either way, so skipping the
  // solve cannot change anything downstream.
  if (inst.sim_filter() != nullptr && inst.sim_filter()->refutes_subset(candidates)) {
    ledger::append_sim_hit(ledger::Purpose::kSupport, ledger::QueryResult::kSat);
    return result;  // divisors insufficient
  }

  // Assumptions in increasing cost order (candidates come from the problem's
  // cost-sorted divisor list; keep that order).
  sat::LitVec assumps;
  assumps.reserve(candidates.size());
  for (const size_t g : candidates) assumps.push_back(inst.activation(g));

  if (options.conflict_budget >= 0) solver.set_conflict_budget(options.conflict_budget);
  const sat::LBool verdict = solver.solve(assumps);
  ++result.sat_calls;
  if (verdict.is_true()) {
    inst.harvest_model();
    solver.clear_budgets();
    return result;  // divisors insufficient
  }
  if (verdict.is_undef()) {
    solver.clear_budgets();
    result.budget_expired = true;
    return result;
  }

  // Start from the final-conflict core (this *is* the result in the
  // baseline mode, and a sound starting point for minimization).
  sat::LitVec core_lits;
  std::vector<size_t> core_globals;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (solver.in_core(assumps[i])) {
      core_lits.push_back(assumps[i]);
      core_globals.push_back(candidates[i]);
    }
  }

  std::vector<size_t> chosen;
  if (options.mode == SupportMode::kAnalyzeFinal) {
    chosen = core_globals;
  } else {
    sat::MinimizeStats stats;
    sat::LitVec ctx;
    // Bank screen: a query whose divisors the bank already shows
    // insufficient is answered SAT from the witness, and every model the
    // solver finds joins the bank for later screens, last gasp and the
    // verification seeds. Algorithm 1 branches only on UNSAT-or-not, so the
    // kept subset is exactly the unscreened one.
    sat::QueryScreen screen;
    if (options.sim_screen && inst.sim_filter() != nullptr) {
      screen.known_sat = [&inst](std::span<const sat::Lit> query) {
        if (!inst.sim_refutes(query)) return false;
        ledger::append_sim_hit(ledger::Purpose::kSupport, ledger::QueryResult::kSat);
        return true;
      };
      screen.on_sat = [&inst] { inst.harvest_model(); };
    }
    const int kept = sat::minimize_assumptions(solver, core_lits, ctx, &stats, screen);
    result.sat_calls += stats.sat_calls;
    // Map kept literals back to divisor indices.
    for (int i = 0; i < kept; ++i) {
      const auto it = std::find(assumps.begin(), assumps.end(), core_lits[static_cast<size_t>(i)]);
      chosen.push_back(candidates[static_cast<size_t>(it - assumps.begin())]);
    }
    // Last-gasp improvement: try replacing expensive chosen divisors with
    // cheaper unchosen ones (paper §3.4.1).
    if (options.last_gasp && !chosen.empty()) {
      int budget = options.max_last_gasp_queries;
      std::sort(chosen.begin(), chosen.end(), [&](size_t a, size_t b) {
        return divisors[a].cost > divisors[b].cost;  // most expensive first
      });
      for (size_t pos = 0; pos < chosen.size() && budget > 0; ++pos) {
        const size_t current = chosen[pos];
        for (const size_t candidate : candidates) {
          if (budget <= 0) break;
          if (divisors[candidate].cost >= divisors[current].cost) break;  // cost-sorted
          if (std::find(chosen.begin(), chosen.end(), candidate) != chosen.end()) continue;
          std::vector<size_t> trial = chosen;
          trial[pos] = candidate;
          --budget;
          ++result.sat_calls;
          ECO_TELEMETRY_COUNT("support.last_gasp_queries");
          if (inst.check_subset(trial, options.conflict_budget,
                                options.sim_screen).is_false()) {
            ECO_TELEMETRY_COUNT("support.last_gasp_improvements");
            chosen = std::move(trial);
            break;
          }
        }
      }
    }
  }

  solver.clear_budgets();
  result.feasible = true;
  result.chosen = std::move(chosen);
  for (const size_t g : result.chosen) result.cost += divisors[g].cost;
  ECO_TELEMETRY_COUNT("support.sat_calls", static_cast<uint64_t>(result.sat_calls));
  return result;
}

}  // namespace eco::core
