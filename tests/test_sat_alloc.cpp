// Allocation guard for the SAT layer. This executable replaces the global
// operator new with a counting one, loads a large two-copy miter into one
// sat::Solver through two cnf::Encoders and checks that neither loading nor
// the first solve allocates per clause or per variable: the solver keeps its
// watch lists in flat arrays and filters clauses in a member buffer, and the
// encoder keeps its DFS stack.
//
// The instance is suite unit 1 at scale 16 (the fresh_sessions size): both
// encoders map the miter output, target 0 and every divisor, as
// core::SupportInstance does, but nothing is asserted, so every clause loads
// (with the units asserted, this instance is UNSAT at level 0 before its
// divisors load) and the solve propagates all 20,306 variables. With one
// std::vector per literal and watcher kind and two fresh clause buffers per
// add_clause, loading made 246,362 allocations and the solve 8,201, most of
// them watch lists growing as propagation moved watches. The bounds leave
// headroom over the amortized growth of the per-variable arrays, which is
// logarithmic in the instance size.
//
// Two guards bound the bytes requested, not the calls: an empty Solver
// (no clause-arena reserve), and a simulation bank whose rows span only the
// word columns its patterns occupy, not the whole capacity.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "aig/simbank.hpp"
#include "benchgen/suite.hpp"
#include "cnf/tseitin.hpp"
#include "eco/miter.hpp"
#include "eco/problem.hpp"
#include "sat/solver.hpp"

namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_bytes{0};

uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }
uint64_t bytes_requested() { return g_bytes.load(std::memory_order_relaxed); }

}  // namespace

// The replacements stay out of line: inlined into a delete-expression, the
// free() inside would look like a mismatched deallocation to GCC's
// -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eco::sat {
namespace {

struct Counts {
  int vars = 0;
  uint64_t load = 0;
  uint64_t solve = 0;
  LBool status;
};

/// Loads unit 1's scale-16 two-copy miter and solves it once, counting
/// allocations in each step.
Counts load_and_solve() {
  const benchgen::EcoUnit u = benchgen::make_unit(1, 20170912, 16);
  const core::EcoProblem p = core::make_problem(u.impl, u.spec, u.weights);
  const core::EcoMiter m = core::build_eco_miter(p.impl, p.spec, p.divisors);
  Counts c;

  const uint64_t before_load = allocations();
  Solver s(SolverOptions{});
  cnf::Encoder copy1(m.aig, s);
  cnf::Encoder copy2(m.aig, s);
  copy1.lit(m.out);
  copy1.lit(m.target_lit(0));
  copy2.lit(m.out);
  copy2.lit(m.target_lit(0));
  for (const aig::Lit dl : m.divisor_lits) {
    copy1.lit(dl);
    copy2.lit(dl);
  }
  c.load = allocations() - before_load;
  c.vars = s.num_vars();

  const uint64_t before_solve = allocations();
  c.status = s.solve();
  c.solve = allocations() - before_solve;
  return c;
}

TEST(SolverAlloc, CountingOperatorNewIsInstalled) {
  const uint64_t before = allocations();
  std::vector<int> v;
  v.reserve(100);
  EXPECT_NE(v.data(), nullptr);
  EXPECT_EQ(allocations() - before, 1u);
}

TEST(SolverAlloc, LoadingAndSolvingScale16MiterAllocatesLittle) {
  const Counts c = load_and_solve();
  EXPECT_EQ(c.vars, 20306);
  EXPECT_TRUE(c.status.is_true());
  EXPECT_LT(c.load, 2000u) << "allocations while loading " << c.vars << " variables";
  EXPECT_LT(c.solve, 100u) << "allocations in the first solve";
  std::printf("load: %llu allocations, solve: %llu allocations\n",
              static_cast<unsigned long long>(c.load), static_cast<unsigned long long>(c.solve));
}

TEST(SolverAlloc, EmptySolverRequestsUnderFourKilobytes) {
  const uint64_t before = bytes_requested();
  { const Solver s(SolverOptions{}); }
  EXPECT_LT(bytes_requested() - before, 4096u);
}

TEST(SolverAlloc, SimBankRowsSpanTheWordsInUse) {
  // Unit 1's scale-4 miter (the warm_sessions size), default bank shape: 4
  // seed words of 16. Up to 256 patterns a row spans 4 words; the bound
  // allows 8 per node.
  const benchgen::EcoUnit u = benchgen::make_unit(1, 20170912, 4);
  const core::EcoProblem p = core::make_problem(u.impl, u.spec, u.weights);
  const core::EcoMiter m = core::build_eco_miter(p.impl, p.spec, p.divisors);
  const uint64_t before = bytes_requested();
  aig::SimBank bank(m.aig, aig::SimBankOptions{});
  EXPECT_FALSE(bank.row(aig::lit_node(m.out)).empty());
  EXPECT_EQ(bank.num_patterns(), 256u);
  const uint64_t requested = bytes_requested() - before;
  EXPECT_LE(requested, uint64_t{m.aig.num_nodes()} * 8 * sizeof(uint64_t));
  std::printf("bank over %u nodes: %llu bytes\n", m.aig.num_nodes(),
              static_cast<unsigned long long>(requested));
}

}  // namespace
}  // namespace eco::sat
