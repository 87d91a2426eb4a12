// bench_substrates: microbenchmarks of the library substrates — CDCL SAT
// solving and clause loading, AIG construction/strashing/copying,
// elaboration, cone transfer, structural pruning, simulation-bank seeding,
// Tseitin encoding + equivalence checking, max-flow, SOP factoring, and the
// service's content hash.
// These calibrate the absolute runtimes reported by bench_table1 on this
// machine.

#include <benchmark/benchmark.h>

#include <map>
#include <sstream>
#include <string>

#include "aig/aig.hpp"
#include "aig/ops.hpp"
#include "aig/simbank.hpp"
#include "benchgen/suite.hpp"
#include "cec/cec.hpp"
#include "cnf/tseitin.hpp"
#include "eco/miter.hpp"
#include "eco/problem.hpp"
#include "eco/window.hpp"
#include "flow/maxflow.hpp"
#include "net/elaborate.hpp"
#include "net/verilog.hpp"
#include "net/weights.hpp"
#include "sat/solver.hpp"
#include "service/artifacts.hpp"
#include "sop/factor.hpp"
#include "util/executor.hpp"
#include "util/rng.hpp"

namespace {

void BM_SatPigeonhole(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    eco::sat::Solver solver;
    const int pigeons = holes + 1;
    std::vector<eco::sat::Var> vars;
    for (int i = 0; i < pigeons * holes; ++i) vars.push_back(solver.new_var());
    auto var_of = [&](int p, int h) { return vars[static_cast<size_t>(p * holes + h)]; };
    for (int p = 0; p < pigeons; ++p) {
      eco::sat::LitVec clause;
      for (int h = 0; h < holes; ++h) clause.push_back(eco::sat::mk_lit(var_of(p, h)));
      solver.add_clause(clause);
    }
    for (int h = 0; h < holes; ++h)
      for (int p1 = 0; p1 < pigeons; ++p1)
        for (int p2 = p1 + 1; p2 < pigeons; ++p2)
          solver.add_binary(eco::sat::mk_lit(var_of(p1, h), true),
                            eco::sat::mk_lit(var_of(p2, h), true));
    const auto verdict = solver.solve();
    benchmark::DoNotOptimize(verdict);
  }
}
BENCHMARK(BM_SatPigeonhole)->Arg(6)->Arg(7)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_SatRandom3Sat(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  eco::Rng rng(5);
  for (auto _ : state) {
    eco::sat::Solver solver;
    for (int i = 0; i < n; ++i) solver.new_var();
    for (int c = 0; c < static_cast<int>(4.1 * n); ++c) {
      eco::sat::LitVec clause;
      for (int k = 0; k < 3; ++k)
        clause.push_back(eco::sat::mk_lit(
            static_cast<eco::sat::Var>(rng.below(static_cast<uint64_t>(n))), rng.chance(1, 2)));
      solver.add_clause(clause);
    }
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_SatRandom3Sat)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);

// A sweep of independent random-3SAT instances over a util::Executor pool:
// the job-level parallelism pattern of bench_table1 in microbenchmark form.
// Arg is the job count (1 = the executor's exact serial mode), so comparing
// rows isolates the pool's scheduling overhead and the machine's scaling.
void BM_SatSweepJobs(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  constexpr int kInstances = 16;
  constexpr int kVars = 120;
  eco::util::Executor executor(jobs);
  for (auto _ : state) {
    executor.parallel_for(kInstances, [&](size_t inst) {
      eco::Rng rng(0xabcdULL + inst);  // per-instance stream, schedule-free
      eco::sat::Solver solver;
      for (int i = 0; i < kVars; ++i) solver.new_var();
      for (int c = 0; c < static_cast<int>(4.1 * kVars); ++c) {
        eco::sat::LitVec clause;
        for (int k = 0; k < 3; ++k)
          clause.push_back(eco::sat::mk_lit(
              static_cast<eco::sat::Var>(rng.below(static_cast<uint64_t>(kVars))),
              rng.chance(1, 2)));
        solver.add_clause(clause);
      }
      benchmark::DoNotOptimize(solver.solve());
    });
  }
  state.SetItemsProcessed(state.iterations() * kInstances);
}
BENCHMARK(BM_SatSweepJobs)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_AigStrash(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  eco::Rng rng(11);
  for (auto _ : state) {
    eco::aig::Aig g;
    std::vector<eco::aig::Lit> pool;
    for (int i = 0; i < 32; ++i) pool.push_back(g.add_pi());
    for (int i = 0; i < n; ++i) {
      const eco::aig::Lit a = pool[rng.below(pool.size())];
      const eco::aig::Lit b = pool[rng.below(pool.size())];
      pool.push_back(g.add_and(eco::aig::lit_notif(a, rng.chance(1, 2)),
                               eco::aig::lit_notif(b, rng.chance(1, 2))));
    }
    benchmark::DoNotOptimize(g.num_ands());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AigStrash)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

// Suite units at scale 16 (the fresh_sessions size); Arg is the make_unit
// index. Units and problems are built once per process and shared by the
// benchmarks below.
const eco::benchgen::EcoUnit& scale16_unit(int index) {
  static std::map<int, eco::benchgen::EcoUnit> cache;
  auto it = cache.find(index);
  if (it == cache.end())
    it = cache.emplace(index, eco::benchgen::make_unit(index, 20170912, 16)).first;
  return it->second;
}

const eco::core::EcoProblem& scale16_problem(int index) {
  static std::map<int, eco::core::EcoProblem> cache;
  auto it = cache.find(index);
  if (it == cache.end()) {
    const eco::benchgen::EcoUnit& u = scale16_unit(index);
    it = cache.emplace(index, eco::core::make_problem(u.impl, u.spec, u.weights)).first;
  }
  return it->second;
}

// Copy and destruction of an implementation AIG, as in `work = problem.impl`.
void BM_AigCopy(benchmark::State& state) {
  const eco::aig::Aig& impl = scale16_problem(static_cast<int>(state.range(0))).impl;
  for (auto _ : state) {
    eco::aig::Aig copy = impl;
    benchmark::DoNotOptimize(copy.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * impl.num_ands());
}
BENCHMARK(BM_AigCopy)->Arg(1)->Arg(14)->Unit(benchmark::kMicrosecond);

// Elaboration of the implementation and specification netlists into AIGs.
void BM_Elaborate(benchmark::State& state) {
  const eco::benchgen::EcoUnit& u = scale16_unit(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eco::net::elaborate(u.impl).aig.num_nodes());
    benchmark::DoNotOptimize(eco::net::elaborate(u.spec).aig.num_nodes());
  }
}
BENCHMARK(BM_Elaborate)->Arg(1)->Arg(14)->Unit(benchmark::kMillisecond);

const eco::core::EcoMiter& scale16_miter(int index) {
  static std::map<int, eco::core::EcoMiter> cache;
  auto it = cache.find(index);
  if (it == cache.end()) {
    const eco::core::EcoProblem& p = scale16_problem(index);
    it = cache.emplace(index, eco::core::build_eco_miter(p.impl, p.spec, p.divisors)).first;
  }
  return it->second;
}

// Loading the SAT path's two-copy instance, then destroying the solver: two
// encoders over the ECO miter map its output, target 0 and every divisor, as
// core::SupportInstance maps its candidates. Nothing is asserted, so every
// clause loads (with unit 1's units asserted, the instance is UNSAT at level
// 0 before its divisors load).
void BM_SolverLoadMiter(benchmark::State& state) {
  const eco::core::EcoMiter& m = scale16_miter(static_cast<int>(state.range(0)));
  int vars = 0;
  for (auto _ : state) {
    eco::sat::Solver solver;
    eco::cnf::Encoder copy1(m.aig, solver);
    eco::cnf::Encoder copy2(m.aig, solver);
    copy1.lit(m.out);
    copy1.lit(m.target_lit(0));
    copy2.lit(m.out);
    copy2.lit(m.target_lit(0));
    for (const eco::aig::Lit dl : m.divisor_lits) {
      copy1.lit(dl);
      copy2.lit(dl);
    }
    vars = solver.num_vars();
  }
  state.SetItemsProcessed(state.iterations() * vars);
}
BENCHMARK(BM_SolverLoadMiter)->Arg(1)->Arg(14)->Unit(benchmark::kMillisecond);

// The per-target simulation bank of the SAT path: built over the quantified
// miter of target 0 (the window's POs, every other target quantified), then
// its first row() simulates every AND row over the seed words.
void BM_SimBankSeed(benchmark::State& state) {
  const eco::core::EcoProblem& p = scale16_problem(static_cast<int>(state.range(0)));
  const eco::core::Window w = eco::core::compute_window(p);
  std::vector<uint32_t> rest;
  for (uint32_t t = 1; t < p.num_targets(); ++t) rest.push_back(t);
  const eco::core::EcoMiter mq = eco::core::quantify_targets(
      eco::core::build_eco_miter(p.impl, p.spec, p.divisors, w.affected_pos), rest,
      UINT32_MAX);
  for (auto _ : state) {
    eco::aig::SimBank bank(mq.aig, eco::aig::SimBankOptions{});
    benchmark::DoNotOptimize(bank.row(eco::aig::lit_node(mq.out)).data());
  }
  state.SetItemsProcessed(state.iterations() * mq.aig.num_nodes());
}
BENCHMARK(BM_SimBankSeed)->Arg(1)->Arg(14)->Unit(benchmark::kMicrosecond);

void BM_ComputeWindow(benchmark::State& state) {
  const eco::core::EcoProblem& p = scale16_problem(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(eco::core::compute_window(p));
}
BENCHMARK(BM_ComputeWindow)->Arg(1)->Arg(14)->Unit(benchmark::kMillisecond);

// One transfer over every PO: the dense-cone case (miter construction,
// cofactoring, substitution).
void BM_TransferWholeGraph(benchmark::State& state) {
  const eco::aig::Aig& impl = scale16_problem(static_cast<int>(state.range(0))).impl;
  for (auto _ : state) {
    eco::aig::Aig dst;
    std::vector<eco::aig::Lit> pi_map;
    for (uint32_t i = 0; i < impl.num_pis(); ++i) pi_map.push_back(dst.add_pi());
    benchmark::DoNotOptimize(eco::aig::append(impl, dst, pi_map));
  }
  state.SetItemsProcessed(state.iterations() * impl.num_ands());
}
BENCHMARK(BM_TransferWholeGraph)->Arg(1)->Arg(14)->Unit(benchmark::kMillisecond);

// Window step 4's pattern: two transfers per PO (implementation and
// specification) into one check AIG through one shared map per netlist, so
// each call adds only the part of its cone not yet mapped (sparse cones).
void BM_TransferPerPo(benchmark::State& state) {
  const eco::core::EcoProblem& p = scale16_problem(static_cast<int>(state.range(0)));
  const eco::aig::Aig& impl = p.impl;
  const eco::aig::Aig& spec = p.spec;
  for (auto _ : state) {
    eco::aig::Aig check;
    std::vector<eco::aig::Lit> impl_map(impl.num_nodes(), eco::aig::kLitInvalid);
    std::vector<eco::aig::Lit> spec_map(spec.num_nodes(), eco::aig::kLitInvalid);
    impl_map[0] = spec_map[0] = eco::aig::kLitFalse;
    for (uint32_t i = 0; i < impl.num_pis(); ++i) {
      const eco::aig::Lit pi = check.add_pi();
      impl_map[impl.pi_node(i)] = pi;
      if (i < spec.num_pis()) spec_map[spec.pi_node(i)] = pi;
    }
    for (uint32_t po = 0; po < impl.num_pos(); ++po) {
      const eco::aig::Lit impl_roots[] = {impl.po_lit(po)};
      const eco::aig::Lit spec_roots[] = {spec.po_lit(po)};
      const eco::aig::Lit a = eco::aig::transfer(impl, check, impl_roots, impl_map)[0];
      const eco::aig::Lit b = eco::aig::transfer(spec, check, spec_roots, spec_map)[0];
      benchmark::DoNotOptimize(check.add_xor(a, b));
    }
  }
  state.SetItemsProcessed(state.iterations() * impl.num_pos());
}
BENCHMARK(BM_TransferPerPo)->Arg(1)->Arg(14)->Unit(benchmark::kMillisecond);

// The service hashes all three input files of every job, hit or miss. Arg
// is the scale: 4 is one warm_sessions session, 16 one fresh_sessions
// session (suite unit 1 as written to disk).
void BM_ContentHash(benchmark::State& state) {
  const eco::benchgen::EcoUnit u =
      eco::benchgen::make_unit(1, 20170912, static_cast<int>(state.range(0)));
  std::ostringstream impl, spec, weights;
  eco::net::write_verilog(impl, u.impl);
  eco::net::write_verilog(spec, u.spec);
  eco::net::write_weights(weights, u.weights);
  const std::string files[] = {impl.str(), spec.str(), weights.str()};
  for (auto _ : state)
    for (const std::string& f : files) benchmark::DoNotOptimize(eco::service::content_hash(f));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(files[0].size() + files[1].size() + files[2].size()));
}
BENCHMARK(BM_ContentHash)->Arg(4)->Arg(16)->Unit(benchmark::kMicrosecond);

void BM_CecEquivalentAdders(benchmark::State& state) {
  // Two structurally different but equivalent mux trees.
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    eco::aig::Aig a, b;
    std::vector<eco::aig::Lit> pa, pb;
    for (int i = 0; i < depth + 2; ++i) {
      pa.push_back(a.add_pi());
      pb.push_back(b.add_pi());
    }
    eco::aig::Lit ra = pa[0], rb = pb[0];
    for (int i = 0; i < depth; ++i) {
      ra = a.add_mux(pa[static_cast<size_t>(i + 1)], ra, pa[static_cast<size_t>(i + 2) % pa.size()]);
      rb = b.add_or(b.add_and(pb[static_cast<size_t>(i + 1)], rb),
                    b.add_and(eco::aig::lit_not(pb[static_cast<size_t>(i + 1)]),
                              pb[static_cast<size_t>(i + 2) % pb.size()]));
    }
    a.add_po(ra);
    b.add_po(rb);
    benchmark::DoNotOptimize(eco::cec::check_equivalence(a, b).status);
  }
}
BENCHMARK(BM_CecEquivalentAdders)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_MaxFlowGrid(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  eco::Rng rng(13);
  for (auto _ : state) {
    const int n = side * side;
    eco::flow::MaxFlow mf(n);
    for (int r = 0; r < side; ++r)
      for (int c = 0; c < side; ++c) {
        const int v = r * side + c;
        if (c + 1 < side) mf.add_edge(v, v + 1, static_cast<int64_t>(1 + rng.below(9)));
        if (r + 1 < side) mf.add_edge(v, v + side, static_cast<int64_t>(1 + rng.below(9)));
      }
    benchmark::DoNotOptimize(mf.run(0, n - 1));
  }
}
BENCHMARK(BM_MaxFlowGrid)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_SopFactor(benchmark::State& state) {
  const int cubes = static_cast<int>(state.range(0));
  eco::Rng rng(17);
  eco::sop::Cover cover;
  cover.num_vars = 24;
  for (int c = 0; c < cubes; ++c) {
    std::vector<eco::sop::Lit> lits;
    for (uint32_t v = 0; v < cover.num_vars; ++v) {
      const uint64_t r = rng.below(4);
      if (r == 0) lits.push_back(eco::sop::lit_pos(v));
      if (r == 1) lits.push_back(eco::sop::lit_neg(v));
    }
    cover.cubes.push_back(eco::sop::Cube(std::move(lits)));
  }
  for (auto _ : state) {
    const auto tree = eco::sop::factor(cover);
    benchmark::DoNotOptimize(tree->num_leaves());
  }
}
BENCHMARK(BM_SopFactor)->Arg(32)->Arg(256)->Unit(benchmark::kMicrosecond);

}  // namespace
