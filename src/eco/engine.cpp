#include "eco/engine.hpp"

#include <algorithm>
#include <future>
#include <new>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "aig/ops.hpp"
#include "aig/window.hpp"
#include "cec/cec.hpp"
#include "eco/miter.hpp"
#include "eco/patchfunc.hpp"
#include "eco/resub.hpp"
#include "eco/structural.hpp"
#include "eco/window.hpp"
#include "sat/parsolve.hpp"
#include "sop/synth.hpp"
#include "util/buildinfo.hpp"
#include "util/cancel.hpp"
#include "util/executor.hpp"
#include "util/faultpoint.hpp"
#include "util/jsonw.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace eco::core {

namespace {

/// One run's counters as their lists' structs. EngineStats keeps them flat,
/// as `sat_<name>`, `sweep_<name>` and `sim_<name>` members.
struct Counters {
  telemetry::SolverTotals sat{};
  cec::SweepStats sweep{};
  SimFilterStats sim{};
};

/// Calls f(flat member, list member) for every counter of the three lists.
template <class Stats, class C, class F>
void zip_counters(Stats& s, C& c, F f) {
#define ECO_X(name) f(s.sat_##name, c.sat.name);
  ECO_SOLVER_TOTALS(ECO_X)
#undef ECO_X
#define ECO_X(name) f(s.sweep_##name, c.sweep.name);
  ECO_SWEEP_STATS(ECO_X)
#undef ECO_X
#define ECO_X(name) f(s.sim_##name, c.sim.name);
  ECO_SIM_STATS(ECO_X)
#undef ECO_X
}

void add_counters(EngineStats& stats, const Counters& c) {
  zip_counters(stats, c, [](uint64_t& flat, uint64_t list) { flat += list; });
}

/// One computed patch, expressed inside an implementation-space AIG.
struct BuiltPatch {
  aig::Lit lit = aig::kLitFalse;   ///< in the work AIG (kept up to date)
  std::vector<size_t> support;     ///< global divisor indices
  bool structural = false;
  std::string sop;
  double support_seconds = 0;
  int support_sat_calls = 0;
};

/// Replaces PI \p pi_index of \p impl by \p patch_lit (a literal of \p impl
/// whose cone must not contain that PI) and remaps every literal in
/// \p tracked into the new AIG.
aig::Aig substitute_target(const aig::Aig& impl, uint32_t pi_index, aig::Lit patch_lit,
                           std::vector<aig::Lit>& tracked) {
  aig::Aig out;
  std::vector<aig::Lit> pi_map;
  pi_map.reserve(impl.num_pis());
  for (uint32_t i = 0; i < impl.num_pis(); ++i) pi_map.push_back(out.add_pi(impl.pi_name(i)));

  std::vector<aig::Lit> map(impl.num_nodes(), aig::kLitInvalid);
  map[0] = aig::kLitFalse;
  for (uint32_t i = 0; i < impl.num_pis(); ++i)
    if (i != pi_index) map[impl.pi_node(i)] = pi_map[i];
  const aig::Lit patch_roots[] = {patch_lit};
  const aig::Lit replacement = aig::transfer(impl, out, patch_roots, map)[0];
  map[impl.pi_node(pi_index)] = replacement;

  std::vector<aig::Lit> roots;
  roots.reserve(impl.num_pos() + tracked.size());
  for (uint32_t i = 0; i < impl.num_pos(); ++i) roots.push_back(impl.po_lit(i));
  for (const aig::Lit l : tracked) roots.push_back(l);
  const std::vector<aig::Lit> images = aig::transfer(impl, out, roots, map);
  for (uint32_t i = 0; i < impl.num_pos(); ++i) out.add_po(images[i], impl.po_name(i));
  for (size_t i = 0; i < tracked.size(); ++i) tracked[i] = images[impl.num_pos() + i];
  return out;
}

/// Extracts the standalone patch module: PIs = the union of the supports,
/// PO t = patch t. Patch cones are cut at the support divisor nodes.
aig::Aig build_patch_module(const aig::Aig& work, const std::vector<aig::Lit>& div_lits,
                            const EcoProblem& problem, const std::vector<BuiltPatch>& built) {
  aig::Aig module;
  std::vector<size_t> input_divisors;  // union, in first-use order
  std::unordered_map<size_t, aig::Lit> module_pi_of_divisor;
  for (const auto& bp : built) {
    for (const size_t g : bp.support) {
      if (module_pi_of_divisor.count(g)) continue;
      module_pi_of_divisor.emplace(g, module.add_pi(problem.divisors[g].name));
      input_divisors.push_back(g);
    }
  }
  std::vector<aig::Lit> map(work.num_nodes(), aig::kLitInvalid);
  map[0] = aig::kLitFalse;
  for (const size_t g : input_divisors) {
    const aig::Lit dl = div_lits[g];
    map[aig::lit_node(dl)] = aig::lit_notif(module_pi_of_divisor.at(g), aig::lit_compl(dl));
  }
  for (size_t t = 0; t < built.size(); ++t) {
    const aig::Lit roots[] = {built[t].lit};
    const aig::Lit image = aig::transfer(work, module, roots, map)[0];
    module.add_po(image, "t_" + std::to_string(t));
  }
  return module.cleanup();
}

/// Cap on bank counterexamples carried into the final verification.
constexpr size_t kMaxCecSeeds = 256;

/// Verifies the patched implementation against the spec over the shared PIs
/// (cec::check_miter picks the engine). \p cec_seeds are bank counterexample
/// prefixes used as directed stimuli; \p sweep_stats accumulates the sweep
/// counters of an escalated check.
cec::Status verify_patched(const EcoProblem& problem, const aig::Aig& patched,
                           const Deadline& deadline,
                           std::span<const std::vector<bool>> cec_seeds,
                           const CancelToken& cancel, util::Executor* executor,
                           cec::SweepStats& sweep_stats) {
  aig::Aig check;
  std::vector<aig::Lit> x;
  for (uint32_t i = 0; i < problem.num_shared_pis(); ++i)
    x.push_back(check.add_pi(problem.spec.pi_name(i)));

  std::vector<aig::Lit> impl_map(patched.num_nodes(), aig::kLitInvalid);
  impl_map[0] = aig::kLitFalse;
  for (uint32_t i = 0; i < problem.num_shared_pis(); ++i)
    impl_map[patched.pi_node(i)] = x[i];
  for (uint32_t t = 0; t < problem.num_targets(); ++t)
    impl_map[patched.pi_node(problem.target_pi(t))] = aig::kLitFalse;  // unused
  std::vector<aig::Lit> impl_roots;
  for (uint32_t i = 0; i < patched.num_pos(); ++i) impl_roots.push_back(patched.po_lit(i));
  const auto impl_pos = aig::transfer(patched, check, impl_roots, impl_map);

  std::vector<aig::Lit> spec_map(problem.spec.num_nodes(), aig::kLitInvalid);
  spec_map[0] = aig::kLitFalse;
  for (uint32_t i = 0; i < problem.num_shared_pis(); ++i)
    spec_map[problem.spec.pi_node(i)] = x[i];
  std::vector<aig::Lit> spec_roots;
  for (uint32_t i = 0; i < problem.spec.num_pos(); ++i)
    spec_roots.push_back(problem.spec.po_lit(i));
  const auto spec_pos = aig::transfer(problem.spec, check, spec_roots, spec_map);

  std::vector<aig::Lit> diffs;
  for (size_t i = 0; i < impl_pos.size(); ++i)
    diffs.push_back(check.add_xor(impl_pos[i], spec_pos[i]));
  const aig::Lit out = check.add_or_multi(diffs);
  const cec::SweepResult r =
      cec::check_miter(check, out, /*conflict_budget=*/-1, deadline, cec_seeds, cancel, executor);
  sweep_stats.accumulate(r.stats);
  return r.cec.status;
}

std::string cover_to_named_sop(const sop::Cover& cover, const std::vector<size_t>& support,
                               const EcoProblem& problem) {
  if (cover.cubes.empty()) return "0";
  std::string out;
  for (const auto& cube : cover.cubes) {
    if (!out.empty()) out += " + ";
    if (cube.empty()) {
      out += "1";
      continue;
    }
    bool first = true;
    for (const sop::Lit l : cube.lits()) {
      if (!first) out += " & ";
      first = false;
      if (sop::lit_negated(l)) out += '!';
      out += problem.divisors[support[sop::lit_var(l)]].name;
    }
  }
  return out;
}

int64_t union_cost(const std::vector<BuiltPatch>& built, const EcoProblem& problem) {
  std::vector<uint8_t> seen(problem.divisors.size(), 0);
  int64_t total = 0;
  for (const auto& bp : built)
    for (const size_t g : bp.support)
      if (!seen[g]) {
        seen[g] = 1;
        total += problem.divisors[g].cost;
      }
  return total;
}

void fill_target_info(EcoOutcome& outcome, const std::vector<BuiltPatch>& built,
                      const EcoProblem& problem) {
  for (size_t t = 0; t < built.size(); ++t) {
    TargetPatchInfo info;
    info.target_name = problem.target_names[t];
    info.structural = built[t].structural;
    info.sop = built[t].sop;
    info.support_seconds = built[t].support_seconds;
    info.support_sat_calls = built[t].support_sat_calls;
    for (const size_t g : built[t].support) {
      info.support.push_back(problem.divisors[g].name);
      info.support_cost += problem.divisors[g].cost;
    }
    outcome.targets.push_back(std::move(info));
  }
}

/// The SAT-based per-target loop (paper §3.1, §3.4, §3.5). Returns true on
/// success; false means "fall back to the structural path".
bool run_sat_path(const EcoProblem& problem, const Window& window,
                  const EngineOptions& options, const CancelToken& cancel,
                  std::vector<BuiltPatch>& built, aig::Aig& work,
                  std::vector<aig::Lit>& div_lits, bool& proven_infeasible,
                  EngineStats& stats, std::vector<std::vector<bool>>& cec_seeds) {
  const uint32_t k = problem.num_targets();
  std::vector<aig::Lit> patch_lits;

  for (uint32_t t = 0; t < k; ++t) {
    if (cancel.cancelled()) return false;
    ECO_TELEMETRY_PHASE("target");
    ECO_TELEMETRY_COUNT("engine.targets_attempted");
    ++stats.targets_attempted;

    EcoMiter m = build_eco_miter(work, problem.spec, div_lits, window.affected_pos);

    std::vector<uint32_t> remaining;
    for (uint32_t u = t + 1; u < k; ++u) remaining.push_back(u);
    EcoMiter mq;
    try {
      ECO_TELEMETRY_PHASE("quantify");
      // Fault site: the expansion's allocation guard trips.
      if (ECO_FAULT_POINT(fault::Site::kAllocGuard)) throw std::bad_alloc();
      mq = quantify_targets(std::move(m), remaining, options.max_expansion_nodes);
    } catch (const std::runtime_error&) {
      log_info("engine: quantification expansion too large; structural fallback");
      ECO_TELEMETRY_COUNT("engine.quantify_overflows");
      return false;
    }
    // Cooperative memory accounting: the quantified miter dominates the SAT
    // path's footprint; charge its node count (~16 bytes each) against the
    // token so a memory budget can stop the run before the allocator does.
    cancel.charge_memory(static_cast<uint64_t>(mq.aig.num_nodes()) * 16);

    SupportInstance inst(mq, t, problem.divisors, window.divisor_indices);
    inst.solver().set_cancel(cancel);

    // Per-target simulation bank over the quantified miter: refutes support
    // checks, skips irredundancy queries, and collects every SAT model this
    // target produces. A warm session's patterns seed it first (they are
    // bank patterns, so the harvest below still lists this run's own
    // counterexamples before them). Accumulated into the run's stats on
    // every exit.
    std::optional<SimFilter> simf;
    if (options.simfilter.enabled) {
      simf.emplace(mq, t, options.simfilter);
      if (options.warm_patterns != nullptr) simf->seed_prefixes(*options.warm_patterns);
      inst.attach_sim_filter(&*simf);
    }
    const auto accumulate_sim = [&]() {
      if (!simf.has_value()) return;
      add_counters(stats, {.sim = simf->stats()});
      if (cec_seeds.size() < kMaxCecSeeds)
        for (auto& p : simf->counterexample_prefixes(problem.num_shared_pis(),
                                                     kMaxCecSeeds - cec_seeds.size()))
          cec_seeds.push_back(std::move(p));
    };

    SupportOptions sopt;
    sopt.mode = options.algorithm == Algorithm::kBaseline ? SupportMode::kAnalyzeFinal
                                                          : SupportMode::kMinimizeAssumptions;
    sopt.last_gasp = options.last_gasp && options.algorithm != Algorithm::kBaseline;
    sopt.conflict_budget = options.conflict_budget;
    // Not when sat_prune follows: it reads models off the same solver, and
    // sim-skipped solves would change the learnt state those models come
    // from (see SupportOptions::sim_screen).
    sopt.sim_screen = options.algorithm != Algorithm::kSatPruneCegarMin;
    Timer support_timer;
    SupportResult support = compute_support(inst, problem.divisors, sopt);
    const double support_seconds = support_timer.seconds();
    int target_sat_calls = support.sat_calls;
    stats.support_sat_calls += support.sat_calls;
    log_info("engine: target %u support: feasible=%d |S|=%zu cost=%lld in %.2fs (%d calls)",
             t, support.feasible, support.chosen.size(),
             static_cast<long long>(support.cost), support_seconds,
             support.sat_calls);
    if (support.budget_expired) {
      accumulate_sim();
      return false;
    }
    if (!support.feasible) {
      accumulate_sim();
      proven_infeasible = true;
      return false;
    }

    if (options.algorithm == Algorithm::kSatPruneCegarMin) {
      SatPruneOptions po = options.satprune;
      if (po.conflict_budget < 0) po.conflict_budget = options.conflict_budget;
      if (po.time_budget <= 0 && cancel.remaining() < 1e17)
        po.time_budget = std::max(0.1, cancel.remaining() * 0.5);
      po.cancel = cancel;
      const SatPruneResult pruned = sat_prune(inst, problem.divisors, po, &support.chosen);
      stats.satprune_sat_calls += pruned.sat_calls;
      stats.satprune_iterations += pruned.iterations;
      target_sat_calls += pruned.sat_calls;
      if (pruned.feasible && pruned.cost <= support.cost) {
        support.chosen = pruned.chosen;
        support.cost = pruned.cost;
      }
    }

    // Cost-ascending order makes cube expansion drop expensive literals.
    std::sort(support.chosen.begin(), support.chosen.end(), [&](size_t a, size_t b) {
      if (problem.divisors[a].cost != problem.divisors[b].cost)
        return problem.divisors[a].cost < problem.divisors[b].cost;
      return a < b;
    });

    PatchFuncOptions pf_opt;
    pf_opt.use_minimize = options.algorithm != Algorithm::kBaseline;
    pf_opt.max_cubes = options.max_cubes;
    pf_opt.conflict_budget = options.conflict_budget;
    pf_opt.cancel = cancel;
    pf_opt.sim_filter = simf.has_value() ? &*simf : nullptr;
    const PatchFuncResult pf = compute_patch_cover(mq, t, problem.divisors,
                                                   support.chosen, pf_opt);
    target_sat_calls += pf.sat_calls;
    accumulate_sim();
    if (!pf.ok) return false;

    // Keep only the divisors the SOP actually uses.
    std::vector<uint8_t> used(support.chosen.size(), 0);
    for (const auto& cube : pf.cover.cubes)
      for (const sop::Lit l : cube.lits()) used[sop::lit_var(l)] = 1;
    std::vector<size_t> final_support;
    std::vector<uint32_t> var_remap(support.chosen.size(), 0);
    for (size_t i = 0; i < support.chosen.size(); ++i)
      if (used[i]) {
        var_remap[i] = static_cast<uint32_t>(final_support.size());
        final_support.push_back(support.chosen[i]);
      }
    sop::Cover cover;
    cover.num_vars = static_cast<uint32_t>(final_support.size());
    for (const auto& cube : pf.cover.cubes) {
      std::vector<sop::Lit> lits;
      for (const sop::Lit l : cube.lits())
        lits.push_back(sop::lit_negated(l) ? sop::lit_neg(var_remap[sop::lit_var(l)])
                                           : sop::lit_pos(var_remap[sop::lit_var(l)]));
      cover.cubes.push_back(sop::Cube(std::move(lits)));
    }

    // Realize the patch inside the work AIG over the current divisor lits.
    std::vector<aig::Lit> var_lits;
    var_lits.reserve(final_support.size());
    for (const size_t g : final_support) var_lits.push_back(div_lits[g]);
    const aig::Lit patch_lit = sop::synthesize_cover(work, cover, var_lits);

    BuiltPatch bp;
    bp.support = final_support;
    bp.sop = cover_to_named_sop(cover, final_support, problem);
    bp.support_seconds = support_seconds;
    bp.support_sat_calls = target_sat_calls;
    built.push_back(bp);

    // Substitute and remap every tracked literal.
    ECO_TELEMETRY_PHASE("substitute");
    std::vector<aig::Lit> tracked = div_lits;
    tracked.insert(tracked.end(), patch_lits.begin(), patch_lits.end());
    tracked.push_back(patch_lit);
    work = substitute_target(work, problem.target_pi(t), patch_lit, tracked);
    std::copy(tracked.begin(), tracked.begin() + static_cast<long>(div_lits.size()),
              div_lits.begin());
    patch_lits.assign(tracked.begin() + static_cast<long>(div_lits.size()), tracked.end());
  }

  for (size_t t = 0; t < built.size(); ++t) built[t].lit = patch_lits[t];
  return true;
}

/// Structural path (paper §3.6): PI-based patches, optionally CEGAR_min.
bool run_structural_path(const EcoProblem& problem, const Window& window,
                         const qbf::Qbf2Result& qbf_result, const EngineOptions& options,
                         const CancelToken& cancel, std::vector<BuiltPatch>& built,
                         aig::Aig& work, std::vector<aig::Lit>& div_lits,
                         std::string& method, EngineStats& stats) {
  const uint32_t k = problem.num_targets();
  const EcoMiter m =
      build_eco_miter(problem.impl, problem.spec, problem.divisors, window.affected_pos);

  StructuralPatches patches;
  if (k == 1) {
    patches = structural_patch_single(m, 0);
  } else {
    patches = structural_patch_multi(m, qbf_result);
    if (!patches.ok) {
      // No usable QBF certificate: fall back to the naive 2^k - 1 cofactor
      // expansion the paper contrasts the certificate route against.
      patches = structural_patch_multi_expansion(
          m, std::max<uint32_t>(4 * options.max_expansion_nodes, 1u));
    }
  }
  if (!patches.ok) return false;
  method = "structural";

  // The structural path often runs after the main deadline: grant a bounded
  // grace window instead of unbounded work. grace() keeps the external stop
  // flag live while detaching from the (likely expired) main deadline.
  const double grace_seconds =
      options.time_budget > 0 ? std::max(options.time_budget, 20.0) : 120.0;

  std::vector<TargetRewrite> rewrites(k);
  if (options.algorithm == Algorithm::kSatPruneCegarMin) {
    CegarMinOptions copt = options.cegarmin;
    copt.cancel = cancel.grace(grace_seconds);
    rewrites = cegar_min(problem, patches.patch, copt);
    method = "structural+cegar_min";
  }

  // Impl node -> divisor index, for the PI-based supports. (Lookup is by
  // node, not by name: a PI can share its node with a buffered alias, and
  // the divisor list keeps only the cheapest name per node.)
  std::unordered_map<aig::Node, size_t> divisor_of_node;
  for (size_t i = 0; i < problem.divisors.size(); ++i)
    divisor_of_node.emplace(aig::lit_node(problem.divisors[i].lit), i);

  work = problem.impl;
  div_lits.clear();
  for (const auto& d : problem.divisors) div_lits.push_back(d.lit);

  // One resubstitution bank over `work`, shared by every target: dependency
  // models from target t routinely refute candidate sets of target t+1.
  // `work` only grows (transfer appends AND nodes), which the bank tracks.
  std::optional<ResubFilter> rfilter;
  if (options.simfilter.enabled && options.algorithm == Algorithm::kSatPruneCegarMin)
    rfilter.emplace(work, options.simfilter);

  std::vector<aig::Lit> patch_lits(k);
  for (uint32_t t = 0; t < k; ++t) {
    BuiltPatch bp;
    bp.structural = true;

    // Variant 1 (always available): the PI-based patch as-is.
    aig::Lit pi_lit;
    std::vector<size_t> pi_support;
    int64_t best_cost = 0;
    {
      std::vector<aig::Lit> map(patches.patch.num_nodes(), aig::kLitInvalid);
      map[0] = aig::kLitFalse;
      for (uint32_t i = 0; i < patches.patch.num_pis(); ++i)
        map[patches.patch.pi_node(i)] = work.pi_lit(i);
      const aig::Lit roots[] = {patches.patch.po_lit(t)};
      pi_lit = aig::transfer(patches.patch, work, roots, map)[0];
      for (const uint32_t pi : aig::support_pis(patches.patch, roots)) {
        const auto it = divisor_of_node.find(problem.impl.pi_node(pi));
        if (it == divisor_of_node.end())
          throw std::logic_error("structural patch uses a PI with no divisor entry");
        pi_support.push_back(it->second);
        best_cost += problem.divisors[it->second].cost;
      }
    }
    patch_lits[t] = pi_lit;
    bp.support = pi_support;

    // Variant 2: the CEGAR_min max-flow cut (paper §3.6.3, structural).
    if (rewrites[t].used_cut && rewrites[t].cut_cost <= best_cost) {
      patch_lits[t] = rebuild_patch_on_cut(work, problem.divisors, patches.patch, t,
                                           rewrites[t]);
      bp.support = rewrites[t].support();
      std::sort(bp.support.begin(), bp.support.end());
      bp.support.erase(std::unique(bp.support.begin(), bp.support.end()), bp.support.end());
      best_cost = rewrites[t].cut_cost;
    }

    // Variant 3: functional resubstitution (paper §3.6.3, SAT-based),
    // attempted in the SAT_prune+CEGAR_min configuration only.
    if (options.algorithm == Algorithm::kSatPruneCegarMin) {
      ResubOptions ropt;
      ropt.conflict_budget = options.conflict_budget < 0
                                 ? 50000
                                 : std::min<int64_t>(options.conflict_budget, 50000);
      ropt.cancel = cancel.grace(grace_seconds);
      ropt.sim = rfilter.has_value() ? &*rfilter : nullptr;
      const ResubResult resub =
          functional_resub(work, pi_lit, problem.divisors, window.divisor_indices, ropt);
      if (resub.ok && resub.cost < best_cost) {
        std::vector<aig::Lit> var_lits;
        var_lits.reserve(resub.support.size());
        for (const size_t g : resub.support) var_lits.push_back(problem.divisors[g].lit);
        patch_lits[t] = sop::synthesize_cover(work, resub.cover, var_lits);
        bp.support = resub.support;
        bp.sop = cover_to_named_sop(resub.cover, resub.support, problem);
        best_cost = resub.cost;
      }
    }

    bp.lit = patch_lits[t];
    built.push_back(std::move(bp));
  }
  if (rfilter.has_value()) add_counters(stats, {.sim = rfilter->stats()});
  return true;
}

const char* status_name(EcoOutcome::Status s) noexcept {
  switch (s) {
    case EcoOutcome::Status::kPatched: return "patched";
    case EcoOutcome::Status::kInfeasible: return "infeasible";
    case EcoOutcome::Status::kUnknown: return "unknown";
    case EcoOutcome::Status::kError: return "error";
  }
  return "unknown";
}

/// One full pipeline pass under \p cancel. May throw — the run_eco driver
/// below owns the catch boundary, error taxonomy, and strategy ladder.
EcoOutcome run_eco_attempt(const EcoProblem& problem, const EngineOptions& options,
                           const CancelToken& cancel) {
  Timer timer;
  EcoOutcome outcome;
  const uint32_t k = problem.num_targets();
  ECO_TELEMETRY_PHASE("engine");
  // Per-run SAT accounting: a run-local accumulator captured on this thread
  // (and on any worker thread doing solver work for this run) instead of
  // differencing the process-wide totals, which would silently blend in the
  // solver work of concurrently executing runs.
  telemetry::SolverTotalsAccumulator sat_acc;
  telemetry::ScopedSolverCapture sat_capture(sat_acc);
  // SAT-sweeping counters of an escalated final verification (zero
  // otherwise), copied into the outcome by finish().
  cec::SweepStats sweep_stats;
  const auto finish = [&](EcoOutcome& out) {
    out.seconds = timer.seconds();
    add_counters(out.stats, {.sat = sat_acc.totals(), .sweep = sweep_stats});
  };

  // 1. Structural pruning (paper §3.3).
  Timer phase_timer;
  Window window;
  {
    ECO_TELEMETRY_PHASE("window");
    window = compute_window(problem, options.conflict_budget);
  }
  outcome.stats.window_seconds = phase_timer.seconds();
  log_info("engine: window computed in %.2fs (%zu affected POs, %zu divisors)",
           outcome.stats.window_seconds, window.affected_pos.size(),
           window.divisor_indices.size());
  ECO_TELEMETRY_GAUGE_MAX("engine.window.affected_pos",
                          static_cast<int64_t>(window.affected_pos.size()));
  ECO_TELEMETRY_GAUGE_MAX("engine.window.divisors",
                          static_cast<int64_t>(window.divisor_indices.size()));
  phase_timer.reset();
  if (!window.outside_equal) {
    outcome.status = EcoOutcome::Status::kInfeasible;
    outcome.method = "window";
    finish(outcome);
    log_info("engine: infeasible — PO %u outside the target cone differs", window.mismatch_po);
    return outcome;
  }

  // 2. Target-sufficiency check via 2QBF CEGAR (paper §3.2). A verified
  // patch from the SAT path proves sufficiency by itself, so the check runs
  // only when that path returns no patch (to tell infeasibility apart and to
  // hand the structural path its certificate), or up front when the
  // structural path is forced. It gets a bounded slice of the effort: if it
  // cannot decide quickly, the SAT path's own verdict stands (an
  // insufficient full divisor set is exactly step infeasibility).
  qbf::Qbf2Options qopt = options.qbf;
  if (qopt.conflict_budget < 0)
    qopt.conflict_budget =
        options.conflict_budget < 0 ? 20000 : std::min<int64_t>(options.conflict_budget, 20000);
  if (qopt.time_budget <= 0)
    qopt.time_budget = options.time_budget > 0 ? options.time_budget * 0.25 : 30.0;
  qbf::Qbf2Result qbf_result;
  const auto check_sufficiency = [&](const CancelToken& token) {
    ECO_TELEMETRY_PHASE("qbf_feasibility");
    Timer qbf_timer;
    const EcoMiter feas_miter = build_eco_miter(
        problem.impl, problem.spec, std::span<const aig::Lit>{}, window.affected_pos);
    qopt.cancel = token;
    qbf_result = qbf::solve_exists_forall(feas_miter.aig, feas_miter.out, feas_miter.num_x, qopt);
    outcome.stats.qbf_seconds = qbf_timer.seconds();
    outcome.stats.qbf_iterations = qbf_result.iterations;
    log_info("engine: qbf feasibility finished in %.2fs (status %d, %d iterations)",
             outcome.stats.qbf_seconds, static_cast<int>(qbf_result.status),
             qbf_result.iterations);
    if (qbf_result.status != qbf::Qbf2Status::kTrue) return false;
    outcome.status = EcoOutcome::Status::kInfeasible;
    outcome.method = "qbf";
    finish(outcome);
    return true;
  };

  // 3. SAT-based per-target loop, falling back to the structural path.
  std::vector<BuiltPatch> built;
  aig::Aig work = problem.impl;
  std::vector<aig::Lit> div_lits;
  for (const auto& d : problem.divisors) div_lits.push_back(d.lit);
  bool ok = false;
  bool proven_infeasible = false;
  std::vector<std::vector<bool>> cec_seeds;
  outcome.method = "sat";
  if (options.force_structural) {
    if (check_sufficiency(cancel)) return outcome;
    phase_timer.reset();
  } else {
    {
      ECO_TELEMETRY_PHASE("sat_path");
      ok = run_sat_path(problem, window, options, cancel, built, work, div_lits,
                        proven_infeasible, outcome.stats, cec_seeds);
      outcome.stats.sat_path_seconds = phase_timer.seconds();
      log_info("engine: sat path %s in %.2fs", ok ? "succeeded" : "failed",
               outcome.stats.sat_path_seconds);
    }
    // The SAT path may have used up the run's budget: the late check gets
    // its slice as a grace window, as the structural path's CEGAR_min does.
    if (!ok && check_sufficiency(cancel.grace(qopt.time_budget))) return outcome;
    phase_timer.reset();
  }
  if (proven_infeasible) {
    outcome.status = EcoOutcome::Status::kInfeasible;
    finish(outcome);
    return outcome;
  }
  if (!ok) {
    ECO_TELEMETRY_PHASE("structural");
    ECO_TELEMETRY_COUNT("engine.structural_fallbacks");
    built.clear();
    work = problem.impl;
    const bool structural_ok = run_structural_path(problem, window, qbf_result, options,
                                                   cancel, built, work, div_lits,
                                                   outcome.method, outcome.stats);
    outcome.stats.structural_seconds = phase_timer.seconds();
    phase_timer.reset();
    if (!structural_ok) {
      outcome.status = EcoOutcome::Status::kUnknown;
      finish(outcome);
      return outcome;
    }
  }

  // 4. Assemble. The patched implementation is produced first so that the
  // final verification — usually the dominant phase — can overlap the
  // remaining patch-module/stats assembly on an executor thread.
  {
    ECO_TELEMETRY_PHASE("assemble");
    // Substitute all targets at once (patches never depend on target PIs).
    std::vector<aig::Lit> plits(k);
    for (uint32_t t = 0; t < k; ++t) plits[t] = built[t].lit;
    std::vector<aig::Lit> tracked;
    aig::Aig patched = work;
    for (uint32_t t = 0; t < k; ++t) {
      tracked.assign(plits.begin() + t + 1, plits.end());
      patched = substitute_target(patched, problem.target_pi(t), plits[t], tracked);
      std::copy(tracked.begin(), tracked.end(), plits.begin() + t + 1);
    }
    outcome.patched_impl = patched.cleanup();
  }

  // Warm seeds (service mode) join the run's own harvest after it, so fresh
  // counterexamples keep priority under the seed cap; the union is both the
  // verification stimulus set and, moved out once verification is done, the
  // harvest handed back to the caller.
  if (options.warm_patterns != nullptr) {
    for (const auto& p : *options.warm_patterns) {
      if (cec_seeds.size() >= kMaxCecSeeds) break;
      if (!p.empty()) cec_seeds.push_back(p);
    }
  }

  // 5. Verification (paper Fig. 2 final check).
  // Verification gets its own grace window so a hard CEC cannot hang the
  // engine. An inconclusive check ships the patch but flags it, matching
  // the paper's behaviour when the prover times out (§3.2); a refutation is
  // reported as failure.
  double verify_budget = options.verify_time_budget;
  if (verify_budget <= 0)
    verify_budget = options.time_budget > 0 ? std::max(options.time_budget, 30.0) : 0;
  double verify_seconds = 0;
  const auto verify_job = [&](bool capture_totals) {
    // The solver-capture stack is per thread: when verification runs on an
    // executor thread, this run's accumulator must be re-attached there so
    // the verification solvers are credited to the right run.
    std::optional<telemetry::ScopedSolverCapture> capture;
    if (capture_totals) capture.emplace(sat_acc);
    ECO_TELEMETRY_PHASE("verify");
    // Strong scope: the final verification keeps its tag even through the
    // cec library's own (weak) kCec scope.
    ledger::ScopedPurpose ledger_scope(ledger::Purpose::kVerify);
    Timer verify_timer;
    // Fault site: the verification prover gives up (times out).
    if (ECO_FAULT_POINT(fault::Site::kVerifyTimeout)) {
      verify_seconds = verify_timer.seconds();
      return cec::Status::kUnknown;
    }
    // Verification runs under a grace token: its own window, detached from
    // the (often already expired) main deadline, but still abortable.
    const cec::Status s =
        verify_patched(problem, outcome.patched_impl, Deadline(verify_budget), cec_seeds,
                       cancel.grace(verify_budget), options.executor, sweep_stats);
    verify_seconds = verify_timer.seconds();
    return s;
  };
  std::future<cec::Status> verify_future;
  if (options.executor != nullptr && options.executor->jobs() > 1)
    verify_future = options.executor->submit([&verify_job] { return verify_job(true); });

  {
    // Independent of verification: runs concurrently with it when possible.
    ECO_TELEMETRY_PHASE("assemble");
    outcome.patch_module = build_patch_module(work, div_lits, problem, built);
    outcome.patch_gates = outcome.patch_module.num_ands();
    outcome.total_cost = union_cost(built, problem);
    fill_target_info(outcome, built, problem);
  }
  outcome.stats.assemble_seconds = phase_timer.seconds();

  // wait_helping, not get(): if this run itself executes on a pool task and
  // every worker is busy, the wait drains queued work (possibly the verify
  // job itself) instead of deadlocking.
  const cec::Status check = verify_future.valid()
                                ? options.executor->wait_helping(verify_future)
                                : verify_job(false);
  outcome.stats.verify_seconds = verify_seconds;
  outcome.harvested_patterns = std::move(cec_seeds);
  switch (check) {
    case cec::Status::kEquivalent:
      outcome.verification = EcoOutcome::Verification::kVerified;
      outcome.verified = true;
      outcome.status = EcoOutcome::Status::kPatched;
      break;
    case cec::Status::kUnknown:
      outcome.verification = EcoOutcome::Verification::kInconclusive;
      outcome.status = EcoOutcome::Status::kPatched;
      break;
    case cec::Status::kNotEquivalent:
      outcome.verification = EcoOutcome::Verification::kRefuted;
      outcome.status = EcoOutcome::Status::kUnknown;
      // A refuted patch is an engine bug, not a resource problem.
      outcome.fail_reason = FailReason::kInternal;
      outcome.fail_detail = "verification refuted the computed patch";
      break;
  }
  log_info("engine: verification finished in %.2fs (%s)", outcome.stats.verify_seconds,
           outcome.verified ? "equivalent"
                            : (check == cec::Status::kUnknown ? "inconclusive" : "REFUTED"));
  finish(outcome);
  return outcome;
}

/// Flight-recorder depth: the last N ledger records dumped into a failing
/// outcome. Enough to cover the queries leading up to the failure without
/// bloating the JSON.
constexpr size_t kFlightRecorderTail = 32;

/// An EcoOutcome carrying only an error classification.
EcoOutcome error_outcome(FailReason reason, std::string detail) {
  EcoOutcome out;
  out.status = EcoOutcome::Status::kError;
  out.fail_reason = reason;
  out.fail_detail = std::move(detail);
  return out;
}

/// One strategy-ladder rung: a name plus the option tweaks it applies on
/// top of the caller's options (docs/ROBUSTNESS.md, "The strategy ladder").
struct LadderRung {
  const char* name;
  void (*tweak)(EngineOptions&);
};

constexpr LadderRung kLadderRungs[] = {
    // Cheapest first: the structural/resubstitution path skips the
    // quantification that most commonly blew the primary attempt up.
    {"resub",
     [](EngineOptions& o) {
       o.force_structural = true;
       o.algorithm = Algorithm::kSatPruneCegarMin;
     }},
    // Retry the SAT path with a bigger conflict budget.
    {"sat_patchfunc",
     [](EngineOptions& o) {
       o.force_structural = false;
       o.algorithm = Algorithm::kMinimize;
       if (o.conflict_budget > 0) o.conflict_budget *= 4;
     }},
    // Allow a much larger quantification expansion before falling back.
    {"wider_window",
     [](EngineOptions& o) {
       o.force_structural = false;
       o.max_expansion_nodes *= 4;
       if (o.conflict_budget > 0) o.conflict_budget *= 4;
     }},
    // Last resort: drop cost minimization, accept any correct patch.
    {"relaxed_cost",
     [](EngineOptions& o) {
       o.force_structural = false;
       o.algorithm = Algorithm::kBaseline;
       o.last_gasp = false;
       o.max_cubes *= 2;
     }},
};

/// Definitive results beat inconclusive ones beat errors; ties keep the
/// earlier (cheaper) attempt.
int outcome_rank(const EcoOutcome& o) noexcept {
  switch (o.status) {
    case EcoOutcome::Status::kPatched:
    case EcoOutcome::Status::kInfeasible: return 2;
    case EcoOutcome::Status::kUnknown: return 1;
    case EcoOutcome::Status::kError: return 0;
  }
  return 0;
}

}  // namespace

const char* fail_reason_name(FailReason r) noexcept {
  switch (r) {
    case FailReason::kNone: return "none";
    case FailReason::kParse: return "parse";
    case FailReason::kInconsistentInput: return "inconsistent_input";
    case FailReason::kBudget: return "budget";
    case FailReason::kMemory: return "memory";
    case FailReason::kCancelled: return "cancelled";
    case FailReason::kInternal: return "internal";
  }
  return "none";
}

EcoOutcome run_eco(const EcoProblem& problem, const EngineOptions& options) {
  Timer total_timer;

  // Register the run's pool for intra-query parallel SAT (sat/parsolve.hpp)
  // so a stuck solve anywhere in the pipeline can fan out. Harmless when the
  // layer is off; front ends running sweeps register their pool up front.
  if (options.executor != nullptr) sat::set_par_executor(options.executor);

  // The run token: the caller's token capped to time_budget, a fresh
  // deadline token, or the unlimited token when neither limit is set.
  CancelToken run_token = options.cancel;
  if (options.cancel.valid()) {
    if (options.time_budget > 0) run_token = options.cancel.child(options.time_budget);
  } else if (options.time_budget > 0) {
    run_token = CancelToken(options.time_budget);
  }

  // Crash-proof boundary: every exception an attempt raises becomes a
  // kError outcome; an unexplained kUnknown is classified from the token.
  std::vector<LadderAttempt> ladder_log;
  const auto attempt_guarded = [&](const EngineOptions& opts, const CancelToken& token,
                                   const char* rung) {
    Timer attempt_timer;
    const bool ledger_on = ledger::enabled();
    const double attempt_cpu0 = ledger_on ? ledger::thread_cpu_seconds() : 0;
    const uint64_t faults_fired0 = ledger_on ? fault::total_fired() : 0;
    EcoOutcome out;
    try {
      out = run_eco_attempt(problem, opts, token);
    } catch (const net::ParseError& e) {
      out = error_outcome(FailReason::kParse, e.what());
    } catch (const net::InputError& e) {
      out = error_outcome(FailReason::kInconsistentInput, e.what());
    } catch (const std::bad_alloc&) {
      out = error_outcome(FailReason::kMemory, "allocation failed");
    } catch (const std::exception& e) {
      out = error_outcome(FailReason::kInternal, e.what());
    } catch (...) {
      out = error_outcome(FailReason::kInternal, "unknown exception");
    }
    if (out.status == EcoOutcome::Status::kUnknown &&
        out.fail_reason == FailReason::kNone) {
      switch (token.reason()) {
        case CancelReason::kStopped: out.fail_reason = FailReason::kCancelled; break;
        case CancelReason::kMemory: out.fail_reason = FailReason::kMemory; break;
        // Deadline expiry, or a conflict/iteration budget inside a phase.
        default: out.fail_reason = FailReason::kBudget; break;
      }
    }
    LadderAttempt rec;
    rec.rung = rung;
    rec.result = status_name(out.status);
    rec.fail_reason = fail_reason_name(out.fail_reason);
    rec.seconds = attempt_timer.seconds();
    ladder_log.push_back(std::move(rec));
    ECO_TELEMETRY_COUNT("ladder.attempts");
    if (ledger_on) {
      ledger::Record lr;
      lr.kind = ledger::Kind::kLadderAttempt;
      lr.purpose = ledger::Purpose::kLadder;
      lr.wall_seconds = rec.seconds;
      lr.cpu_seconds = ledger::thread_cpu_seconds() - attempt_cpu0;
      lr.result = out.status == EcoOutcome::Status::kPatched ||
                          out.status == EcoOutcome::Status::kInfeasible
                      ? ledger::QueryResult::kSat
                  : out.status == EcoOutcome::Status::kUnknown
                      ? ledger::QueryResult::kUndef
                      : ledger::QueryResult::kUnsat;
      if (out.status == EcoOutcome::Status::kUnknown) {
        switch (out.fail_reason) {
          case FailReason::kCancelled: lr.cancel = ledger::CancelCause::kStopped; break;
          case FailReason::kMemory: lr.cancel = ledger::CancelCause::kMemory; break;
          default: lr.cancel = ledger::CancelCause::kBudget; break;
        }
      }
      ledger::append(lr);
      // Flight recorder: a kError outcome or a fault that fired inside this
      // attempt freezes the ledger tail into the outcome, so the crash is
      // diagnosable from the JSON alone. The attempt record just appended is
      // part of the dump — an attempt that dies before its first query still
      // leaves evidence.
      if (out.status == EcoOutcome::Status::kError ||
          fault::total_fired() > faults_fired0)
        out.flight_recorder = ledger::tail(kFlightRecorderTail);
    }
    return out;
  };

  // Escalation policy: retry on budget expiry or internal failure (a
  // different strategy may succeed where this one broke), never on an
  // external stop, bad input, or a tripped memory account (the account is
  // shared — a retry would cancel instantly).
  const auto should_escalate = [&](const EcoOutcome& out) {
    if (run_token.stop_requested()) return false;
    if (out.status == EcoOutcome::Status::kUnknown)
      return out.fail_reason == FailReason::kBudget ||
             out.fail_reason == FailReason::kInternal;
    if (out.status == EcoOutcome::Status::kError)
      return out.fail_reason == FailReason::kInternal;
    return false;
  };

  EcoOutcome best = attempt_guarded(options, run_token, "primary");
  if (options.ladder && should_escalate(best)) {
    // Per-rung budget slices with exponential backoff, never exceeding the
    // run's remaining wall clock.
    constexpr double kBaseSlice = 15.0;
    double slice = kBaseSlice;
    for (const LadderRung& rung : kLadderRungs) {
      if (!should_escalate(best)) break;
      double rung_budget = slice;
      slice *= 2;
      const double rem = run_token.valid() ? run_token.remaining() : 0;
      if (run_token.valid() && rem < 1e17) {
        if (rem < 1.0) break;  // out of wall clock: not worth another attempt
        rung_budget = std::min(rung_budget, rem);
      }
      EngineOptions ropts = options;
      ropts.time_budget = rung_budget;
      rung.tweak(ropts);
      const CancelToken token =
          run_token.valid() ? run_token.child(rung_budget) : CancelToken(rung_budget);
      ECO_TELEMETRY_COUNT("ladder.escalations");
      log_info("engine: ladder escalates to rung '%s' (%.0fs slice)", rung.name,
               rung_budget);
      EcoOutcome attempt = attempt_guarded(ropts, token, rung.name);
      if (outcome_rank(attempt) > outcome_rank(best)) best = std::move(attempt);
    }
  }
  best.stats.ladder = std::move(ladder_log);
  best.seconds = total_timer.seconds();
  return best;
}

EcoOutcome run_eco(const net::Network& impl, const net::Network& spec,
                   const net::WeightMap& weights, const EngineOptions& options) {
  // The same crash-proof contract covers problem construction: malformed or
  // inconsistent networks become kError outcomes, not exceptions.
  EcoProblem problem;
  try {
    problem = make_problem(impl, spec, weights);
  } catch (const net::ParseError& e) {
    return error_outcome(FailReason::kParse, e.what());
  } catch (const net::InputError& e) {
    return error_outcome(FailReason::kInconsistentInput, e.what());
  } catch (const std::bad_alloc&) {
    return error_outcome(FailReason::kMemory, "allocation failed");
  } catch (const std::exception& e) {
    return error_outcome(FailReason::kInternal, e.what());
  }
  return run_eco(problem, options);
}

void write_json(JsonWriter& w, const EngineStats& s) {
  Counters c;
  zip_counters(s, c, [](uint64_t flat, uint64_t& list) { list = flat; });
  w.key("phases");
  w.begin_object();
  w.kv("window", s.window_seconds);
  w.kv("qbf_feasibility", s.qbf_seconds);
  w.kv("sat_path", s.sat_path_seconds);
  w.kv("structural", s.structural_seconds);
  w.kv("assemble", s.assemble_seconds);
  w.kv("verify", s.verify_seconds);
  w.end_object();
  w.key("sat");
  w.begin_object();
  write_json(w, c.sat);
  w.end_object();
  w.key("sweep");
  w.begin_object();
  write_json(w, c.sweep);
  w.end_object();
  w.key("sim");
  w.begin_object();
  write_json(w, c.sim);
  w.end_object();
}

std::string outcome_to_json(const EcoOutcome& outcome) {
  const auto verification_name = [](EcoOutcome::Verification v) {
    switch (v) {
      case EcoOutcome::Verification::kVerified: return "verified";
      case EcoOutcome::Verification::kInconclusive: return "inconclusive";
      case EcoOutcome::Verification::kRefuted: return "refuted";
    }
    return "inconclusive";
  };

  JsonWriter w;
  w.begin_object();
  w.kv("schema", "ecopatch-outcome-v1");
  w.kv("git_commit", build::git_commit());
  w.kv("git_dirty", build::git_dirty());
  w.kv("status", status_name(outcome.status));
  w.kv("fail_reason", fail_reason_name(outcome.fail_reason));
  if (!outcome.fail_detail.empty()) w.kv("fail_detail", outcome.fail_detail);
  w.kv("verification", verification_name(outcome.verification));
  w.kv("method", outcome.method);
  w.kv("total_cost", outcome.total_cost);
  w.kv("patch_gates", outcome.patch_gates);
  w.kv("seconds", outcome.seconds);

  write_json(w, outcome.stats);
  w.key("counts");
  w.begin_object();
  w.kv("qbf_iterations", outcome.stats.qbf_iterations);
  w.kv("support_sat_calls", outcome.stats.support_sat_calls);
  w.kv("satprune_sat_calls", outcome.stats.satprune_sat_calls);
  w.kv("satprune_iterations", outcome.stats.satprune_iterations);
  w.kv("targets_attempted", outcome.stats.targets_attempted);
  w.end_object();

  w.key("ladder");
  w.begin_array();
  for (const auto& a : outcome.stats.ladder) {
    w.begin_object();
    w.kv("rung", a.rung);
    w.kv("result", a.result);
    w.kv("fail_reason", a.fail_reason);
    w.kv("seconds", a.seconds);
    w.end_object();
  }
  w.end_array();

  if (!outcome.flight_recorder.empty()) {
    w.key("flight_recorder");
    w.begin_array();
    for (const auto& r : outcome.flight_recorder) ledger::write_record(w, r);
    w.end_array();
  }

  w.key("targets");
  w.begin_array();
  for (const auto& t : outcome.targets) {
    w.begin_object();
    w.kv("name", t.target_name);
    w.kv("structural", t.structural);
    w.kv("support_cost", t.support_cost);
    w.kv("support_seconds", t.support_seconds);
    w.kv("support_sat_calls", t.support_sat_calls);
    if (!t.sop.empty()) w.kv("sop", t.sop);
    w.key("support");
    w.begin_array();
    for (const auto& name : t.support) w.value(name);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace eco::core
