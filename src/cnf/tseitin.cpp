#include "cnf/tseitin.hpp"

#include <new>
#include <vector>

#include "util/faultpoint.hpp"

namespace eco::cnf {

sat::Var Encoder::var(aig::Node n) {
  // Fault site: clause loading runs out of memory mid-cone.
  if (ECO_FAULT_POINT(fault::Site::kCnfLoad)) throw std::bad_alloc();
  if (vars_.size() < g_->num_nodes()) vars_.resize(g_->num_nodes(), sat::kVarUndef);
  if (vars_[n] != sat::kVarUndef) return vars_[n];

  // Iterative DFS so deep cones do not overflow the call stack.
  std::vector<aig::Node>& stack = stack_;
  stack.assign(1, n);
  while (!stack.empty()) {
    const aig::Node cur = stack.back();
    if (vars_[cur] != sat::kVarUndef) {
      stack.pop_back();
      continue;
    }
    if (g_->is_const0(cur)) {
      vars_[cur] = solver_->new_var();
      solver_->add_unit(sat::mk_lit(vars_[cur], true));
      stack.pop_back();
      continue;
    }
    if (g_->is_pi(cur)) {
      vars_[cur] = solver_->new_var();
      stack.pop_back();
      continue;
    }
    const aig::Node n0 = aig::lit_node(g_->fanin0(cur));
    const aig::Node n1 = aig::lit_node(g_->fanin1(cur));
    const bool ready0 = vars_[n0] != sat::kVarUndef;
    const bool ready1 = vars_[n1] != sat::kVarUndef;
    if (!ready0) stack.push_back(n0);
    if (!ready1) stack.push_back(n1);
    if (!ready0 || !ready1) continue;

    const sat::Var v = solver_->new_var();
    vars_[cur] = v;
    const sat::Lit o = sat::mk_lit(v);
    const sat::Lit a = sat::mk_lit(vars_[n0], aig::lit_compl(g_->fanin0(cur)));
    const sat::Lit b = sat::mk_lit(vars_[n1], aig::lit_compl(g_->fanin1(cur)));
    // o <-> a & b
    solver_->add_binary(~o, a);
    solver_->add_binary(~o, b);
    solver_->add_ternary(o, ~a, ~b);
    stack.pop_back();
  }
  return vars_[n];
}

sat::Lit Encoder::lit(aig::Lit l) {
  return sat::mk_lit(var(aig::lit_node(l)), aig::lit_compl(l));
}

}  // namespace eco::cnf
