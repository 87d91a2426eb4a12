/// \file tseitin.hpp
/// \brief Tseitin encoding of AIG cones into a live SAT solver (paper §2.4).
///
/// The encoder loads clauses lazily: only the cones of the literals actually
/// requested are translated, and each AIG node is translated at most once
/// per solver. This is what lets the ECO engine keep one incremental solver
/// per miter copy and keep adding blocking clauses and divisor constraints.
#pragma once

#include <vector>

#include "aig/aig.hpp"
#include "sat/solver.hpp"

namespace eco::cnf {

/// Incrementally encodes cones of one AIG into one solver.
class Encoder {
 public:
  /// The encoder keeps references to both; they must outlive it.
  Encoder(const aig::Aig& g, sat::Solver& solver) : g_(&g), solver_(&solver) {}

  /// Returns the solver literal equivalent to AIG literal \p l, loading the
  /// clauses of its cone on first use.
  sat::Lit lit(aig::Lit l);

  /// Returns the solver variable of AIG node \p n (loading its cone).
  sat::Var var(aig::Node n);

  /// True if node \p n has already been encoded.
  bool encoded(aig::Node n) const {
    return n < vars_.size() && vars_[n] != sat::kVarUndef;
  }

  const aig::Aig& aig() const noexcept { return *g_; }
  sat::Solver& solver() noexcept { return *solver_; }

 private:
  const aig::Aig* g_;
  sat::Solver* solver_;
  std::vector<sat::Var> vars_;
  std::vector<aig::Node> stack_;  ///< var()'s DFS stack, kept for its capacity
};

}  // namespace eco::cnf
