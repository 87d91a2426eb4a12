/// \file support.hpp
/// \brief Cost-aware patch support computation (paper §3.4.1).
///
/// The two-copy instance of expression (2)/(3) is built in one incremental
/// solver: copy 1 asserts M(0, x1), copy 2 asserts M(1, x2), and each
/// candidate divisor j contributes an auxiliary activation variable a_j with
/// the constraint a_j -> (d1_j == d2_j). Assuming every a_j makes the
/// instance UNSAT exactly when the divisor set suffices to express a patch;
/// a minimal low-cost subset of the a_j is then found with
/// ``minimize_assumptions`` (assumptions ordered by increasing cost), or —
/// in the paper's baseline configuration — read off the solver's final
/// conflict (``analyze_final``) without minimization.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "eco/miter.hpp"
#include "sat/solver.hpp"

namespace eco::core {

class SimFilter;

/// How the support subset is extracted from the UNSAT two-copy instance.
enum class SupportMode {
  kAnalyzeFinal,          ///< paper Table 1 "w/o minimize_assumptions"
  kMinimizeAssumptions,   ///< paper Table 1 "w/ minimize_assumptions"
};

struct SupportOptions {
  SupportMode mode = SupportMode::kMinimizeAssumptions;
  /// Enable the last-gasp pairwise replacement improvement (paper §3.4.1).
  bool last_gasp = true;
  /// Cap on last-gasp replacement SAT queries.
  int max_last_gasp_queries = 256;
  /// Conflict budget per SAT query (< 0 unlimited).
  int64_t conflict_budget = -1;
  /// Let an attached SimFilter answer Algorithm 1's queries and the
  /// last-gasp trial checks without the solver, and harvest the models of
  /// the Algorithm 1 queries the solver answers SAT. Must be false when a
  /// model-consuming pass (sat_prune) will run on the same instance
  /// afterwards: skipping solves changes the solver's learnt state and
  /// therefore the models that pass would read.
  bool sim_screen = true;
};

struct SupportResult {
  /// False when the candidate divisors cannot express any patch (the
  /// two-copy instance is satisfiable) or a budget expired.
  bool feasible = false;
  bool budget_expired = false;
  /// Chosen divisors, as indices into the problem's divisor list.
  std::vector<size_t> chosen;
  int64_t cost = 0;
  int sat_calls = 0;
};

/// A reusable encoding of the two-copy instance for one target.
class SupportInstance {
 public:
  /// \p m must have every target other than \p target already quantified or
  /// substituted away. \p candidates are indices into \p divisors.
  SupportInstance(const EcoMiter& m, uint32_t target, const std::vector<Divisor>& divisors,
                  std::span<const size_t> candidates);

  /// Attaches a simulation filter (may be null to detach). Every kTrue
  /// solve's model is harvested into the filter's bank; queries are answered
  /// by the bank only when check_subset is called with use_sim_filter.
  void attach_sim_filter(SimFilter* filter) noexcept { sim_ = filter; }
  SimFilter* sim_filter() const noexcept { return sim_; }

  /// Checks whether the subset \p subset (indices into the global divisor
  /// list; must be among the candidates) suffices.
  /// Returns kFalse = sufficient (UNSAT), kTrue = insufficient, kUndef = budget.
  /// With \p use_sim_filter and an attached filter, an insufficiency witness
  /// in the simulation bank answers kTrue without touching the solver (the
  /// witness is a concrete model, so the verdict is exact).
  sat::LBool check_subset(std::span<const size_t> subset, int64_t conflict_budget = -1,
                          bool use_sim_filter = false);

  /// After an insufficient (kTrue) check: the divisors whose two copies
  /// differ in the found model — at least one of them must join any valid
  /// support (the separator clause of SAT_prune, paper §3.4.2). Reads the
  /// simulation witness pair instead when the last check was sim-refuted.
  std::vector<size_t> separator() const;

  /// Assumption literal of candidate divisor \p global_index.
  sat::Lit activation(size_t global_index) const;

  /// True when the attached filter's bank holds a witness that the query
  /// assuming \p activations (activation literals of candidates) is
  /// satisfiable, i.e. that their divisors are insufficient.
  bool sim_refutes(std::span<const sat::Lit> activations);

  /// Records the solver's current model (one pattern per copy) into the
  /// attached filter's bank; no-op without a filter. check_subset calls this
  /// on every kTrue verdict; it is public for callers that solve directly.
  void harvest_model();

  sat::Solver& solver() noexcept { return solver_; }
  const std::vector<size_t>& candidates() const noexcept { return candidates_; }

 private:
  sat::Solver solver_;
  std::vector<size_t> candidates_;
  std::vector<sat::Lit> activation_;  // parallel to candidates_
  std::vector<sat::Lit> d1_, d2_;     // divisor literals in the two copies
  std::vector<int32_t> act_index_of_global_;
  // Simulation-filter attachment: per-copy (pi index, solver var) pairs of
  // the miter PIs that ended up encoded, for turning models into patterns.
  SimFilter* sim_ = nullptr;
  bool last_sim_refuted_ = false;
  uint32_t num_pis_ = 0;
  std::vector<std::pair<uint32_t, sat::Var>> pi_vars1_, pi_vars2_;
};

/// Computes a patch support for \p target (paper §3.4.1).
SupportResult compute_support(SupportInstance& inst, const std::vector<Divisor>& divisors,
                              const SupportOptions& options);

}  // namespace eco::core
