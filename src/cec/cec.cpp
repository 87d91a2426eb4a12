#include "cec/cec.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <mutex>
#include <stdexcept>

#include "aig/ops.hpp"
#include "aig/sim.hpp"
#include "cec/sweep.hpp"
#include "cnf/tseitin.hpp"
#include "sat/solver.hpp"
#include "util/executor.hpp"
#include "util/ledger.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace eco::cec {

aig::Aig build_miter(const aig::Aig& a, const aig::Aig& b) {
  if (!aig::interfaces_match(a, b))
    throw std::invalid_argument("build_miter: PI/PO interfaces differ");
  aig::Aig m;
  std::vector<aig::Lit> pis;
  pis.reserve(a.num_pis());
  for (uint32_t i = 0; i < a.num_pis(); ++i) pis.push_back(m.add_pi(a.pi_name(i)));
  const std::vector<aig::Lit> outs_a = aig::append(a, m, pis);
  const std::vector<aig::Lit> outs_b = aig::append(b, m, pis);
  std::vector<aig::Lit> diffs;
  diffs.reserve(outs_a.size());
  for (size_t i = 0; i < outs_a.size(); ++i)
    diffs.push_back(m.add_xor(outs_a[i], outs_b[i]));
  m.add_po(m.add_or_multi(diffs), "miter");
  return m;
}

namespace {

std::vector<bool> extract_pattern(const aig::Aig& g, cnf::Encoder& enc,
                                  const sat::Solver& solver) {
  std::vector<bool> pattern(g.num_pis(), false);
  for (uint32_t i = 0; i < g.num_pis(); ++i) {
    const aig::Node n = g.pi_node(i);
    if (enc.encoded(n)) pattern[i] = solver.model_value(sat::mk_lit(enc.var(n)));
  }
  return pattern;
}

/// Seed for simulation round \p round: each round owns an independent
/// SplitMix64-expanded stream, so rounds can run in any order (or on any
/// thread) and still produce the exact patterns of the serial sweep.
uint64_t round_seed(uint64_t round) noexcept {
  return 0x5eedULL + (round + 1) * 0x9e3779b97f4a7c15ULL;
}

/// Simulates one round of the miter. Returns true (with the failing pattern
/// in \p out_pattern) when a counterexample was found.
bool simulate_round(const aig::Aig& miter, aig::Lit out, uint64_t round,
                    std::vector<bool>& out_pattern) {
  ECO_TELEMETRY_COUNT("cec.sim_rounds");
  // One SplitMix64 stream per round fills every PI word (see
  // aig::random_pi_words): no per-PI reseeding, and the seed is mixed so the
  // golden-ratio-spaced round seeds cannot alias the stream's own increment.
  const std::vector<uint64_t> pi_words = aig::random_pi_words(miter, round_seed(round));
  const std::vector<uint64_t> words = aig::simulate(miter, pi_words);
  const uint64_t diff = aig::sim_value(words, out);
  if (diff == 0) return false;
  ECO_TELEMETRY_COUNT("cec.sim_counterexamples");
  const int bit = __builtin_ctzll(diff);
  out_pattern.resize(miter.num_pis());
  for (uint32_t i = 0; i < miter.num_pis(); ++i)
    out_pattern[i] = ((pi_words[i] >> bit) & 1ULL) != 0;
  return true;
}

/// Simulates \p seed_patterns (64 per word) against \p root. Returns true
/// and fills \p result when some pattern sets the root to 1.
bool screen_seed_patterns(const aig::Aig& g, aig::Lit root,
                          std::span<const std::vector<bool>> seeds, CecResult& result) {
  if (seeds.empty()) return false;
  ECO_TELEMETRY_COUNT("cec.seed_patterns", seeds.size());
  const size_t words = (seeds.size() + 63) / 64;
  std::vector<uint64_t> pi_words(static_cast<size_t>(g.num_pis()) * words, 0);
  for (size_t p = 0; p < seeds.size(); ++p) {
    const size_t n = std::min<size_t>(seeds[p].size(), g.num_pis());
    for (uint32_t i = 0; i < n; ++i)
      if (seeds[p][i]) pi_words[i * words + p / 64] |= 1ULL << (p % 64);
  }
  const aig::SimWords sim = aig::simulate_words(g, pi_words, words);
  const auto row = sim.row(aig::lit_node(root));
  const uint64_t cm = aig::lit_compl(root) ? ~0ULL : 0ULL;
  for (size_t w = 0; w < words; ++w) {
    uint64_t valid = ~0ULL;
    if (w == words - 1 && seeds.size() % 64 != 0) valid = (1ULL << (seeds.size() % 64)) - 1;
    const uint64_t hit = (row[w] ^ cm) & valid;
    if (hit == 0) continue;
    ECO_TELEMETRY_COUNT("cec.seed_counterexamples");
    const std::vector<bool>& seed = seeds[w * 64 + __builtin_ctzll(hit)];
    result.status = Status::kNotEquivalent;
    result.counterexample.assign(g.num_pis(), false);
    for (uint32_t i = 0; i < std::min<size_t>(seed.size(), g.num_pis()); ++i)
      result.counterexample[i] = seed[i];
    return true;
  }
  return false;
}

}  // namespace

CecResult check_const0(const aig::Aig& g, aig::Lit root, int64_t conflict_budget,
                       const eco::Deadline& deadline,
                       std::span<const std::vector<bool>> seed_patterns,
                       const eco::CancelToken& cancel) {
  ECO_TELEMETRY_PHASE("cec");
  ECO_TELEMETRY_COUNT("cec.checks");
  // Weak: the engine's verification opens kVerify above this entry point.
  auto ledger_scope = ledger::ScopedPurpose::weak(ledger::Purpose::kCec);
  const bool ledger_on = ledger::enabled();
  const Timer check_wall;
  const double check_cpu0 = ledger_on ? ledger::thread_cpu_seconds() : 0;
  // Search work of the check's solve, i.e. the counters of the `solve`
  // record it appends; zero when a constant root or a seed decides.
  sat::SolverStats work;
  auto append_check = [&](const CecResult& res, bool sim_hit) {
    if (!ledger_on) return;
    ledger::Record r;
    r.kind = ledger::Kind::kCecCheck;
    r.wall_seconds = check_wall.seconds();
    r.cpu_seconds = ledger::thread_cpu_seconds() - check_cpu0;
    r.conflicts = work.conflicts;
    r.decisions = work.decisions;
    r.propagations = work.propagations;
    r.vars = g.num_pis();
    r.sim_hit = sim_hit ? 1 : 0;
    r.result = res.status == Status::kEquivalent      ? ledger::QueryResult::kUnsat
               : res.status == Status::kNotEquivalent ? ledger::QueryResult::kSat
                                                      : ledger::QueryResult::kUndef;
    ledger::append(r);
  };
  CecResult result;
  if (root == aig::kLitFalse) {
    result.status = Status::kEquivalent;
    append_check(result, false);
    return result;
  }
  if (root == aig::kLitTrue) {
    result.status = Status::kNotEquivalent;
    result.counterexample.assign(g.num_pis(), false);
    append_check(result, false);
    return result;
  }
  // Directed screening: a seed that excites the root decides the check with
  // zero solver work; when none fires, the SAT path below is untouched.
  if (screen_seed_patterns(g, root, seed_patterns, result)) {
    append_check(result, true);
    return result;
  }
  sat::Solver solver;
  solver.set_deadline(deadline);
  solver.set_cancel(cancel);
  cnf::Encoder enc(g, solver);
  const sat::Lit out = enc.lit(root);
  solver.add_unit(out);
  if (conflict_budget >= 0) solver.set_conflict_budget(conflict_budget);
  const sat::SolverStats before = solver.stats();
  const sat::LBool verdict = solver.solve();
  work.conflicts = solver.stats().conflicts - before.conflicts;
  work.decisions = solver.stats().decisions - before.decisions;
  work.propagations = solver.stats().propagations - before.propagations;
  if (verdict.is_false()) {
    result.status = Status::kEquivalent;
  } else if (verdict.is_true()) {
    result.status = Status::kNotEquivalent;
    result.counterexample = extract_pattern(g, enc, solver);
  }
  append_check(result, false);
  return result;
}

CecResult check_equivalence(const aig::Aig& a, const aig::Aig& b,
                            int64_t conflict_budget, uint64_t sim_rounds,
                            const eco::Deadline& deadline, eco::util::Executor* executor,
                            std::span<const std::vector<bool>> seed_patterns,
                            const eco::CancelToken& cancel) {
  const aig::Aig miter = build_miter(a, b);
  const aig::Lit out = miter.po_lit(0);

  {
    CecResult seeded;
    if (screen_seed_patterns(miter, out, seed_patterns, seeded)) return seeded;
  }

  // Cheap screening by random simulation. Rounds are independent (each has
  // its own seed), so they sweep across the executor's threads when one is
  // available. To keep the answer identical to the serial sweep, the
  // counterexample of the lowest-numbered failing round wins.
  if (executor != nullptr && executor->jobs() > 1 && sim_rounds > 1) {
    ECO_TELEMETRY_PHASE("cec_sim");
    std::mutex mu;
    uint64_t best_round = sim_rounds;
    std::vector<bool> best_pattern;
    std::atomic<uint64_t> found_floor{sim_rounds};
    executor->parallel_for(sim_rounds, [&](size_t round) {
      // A counterexample in an earlier round makes this one irrelevant.
      if (round >= found_floor.load(std::memory_order_relaxed)) return;
      std::vector<bool> pattern;
      if (!simulate_round(miter, out, round, pattern)) return;
      std::lock_guard<std::mutex> lock(mu);
      if (round < best_round) {
        best_round = round;
        best_pattern = std::move(pattern);
        found_floor.store(round, std::memory_order_relaxed);
      }
    });
    if (best_round < sim_rounds) {
      CecResult result;
      result.status = Status::kNotEquivalent;
      result.counterexample = std::move(best_pattern);
      return result;
    }
  } else {
    ECO_TELEMETRY_PHASE("cec_sim");
    for (uint64_t round = 0; round < sim_rounds; ++round) {
      std::vector<bool> pattern;
      if (simulate_round(miter, out, round, pattern)) {
        CecResult result;
        result.status = Status::kNotEquivalent;
        result.counterexample = std::move(pattern);
        return result;
      }
    }
  }
  return check_miter(miter, out, conflict_budget, deadline, {}, cancel, executor).cec;
}

SweepResult check_miter(const aig::Aig& g, aig::Lit root, int64_t conflict_budget,
                        const eco::Deadline& deadline,
                        std::span<const std::vector<bool>> seed_patterns,
                        const eco::CancelToken& cancel, eco::util::Executor* executor,
                        int64_t mono_conflict_cap) {
  // A caller budget within the cap is the caller's limit, not a reason to
  // switch engines.
  const bool capped = conflict_budget < 0 || conflict_budget > mono_conflict_cap;
  SweepResult result;
  result.cec = check_const0(g, root, capped ? mono_conflict_cap : conflict_budget, deadline,
                            seed_patterns, cancel);
  if (result.cec.status != Status::kUnknown || !capped || deadline.expired() ||
      cancel.cancelled())
    return result;
  return sweep_check(g, root, conflict_budget, deadline, seed_patterns, cancel, executor);
}

}  // namespace eco::cec
