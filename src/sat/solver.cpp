#include "sat/solver.hpp"

#include <algorithm>

#include "sat/parsolve.hpp"
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "util/faultpoint.hpp"
#include "util/ledger.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace eco::sat {

// ---------------------------------------------------------------------------
// SolverOptions: process-wide, env-seeded defaults
// ---------------------------------------------------------------------------

namespace {

SolverOptions env_seeded_defaults() {
  SolverOptions o;
  if (const char* v = std::getenv("ECO_SAT_TRAIL_REUSE"))
    o.trail_reuse = !(v[0] == '0' && v[1] == '\0');
  if (const char* v = std::getenv("ECO_SAT_PHASE_SEED"))
    o.phase_seed = !(v[0] == '0' && v[1] == '\0');
  if (const char* v = std::getenv("ECO_SAT_RESTART")) {
    const std::string_view s(v);
    if (s == "ema")
      o.restart = RestartPolicy::kEma;
    else if (s == "luby")
      o.restart = RestartPolicy::kLuby;
  }
  return o;
}

SolverOptions& mutable_defaults() {
  static SolverOptions o = env_seeded_defaults();
  return o;
}

}  // namespace

const SolverOptions& SolverOptions::defaults() noexcept { return mutable_defaults(); }

void SolverOptions::set_defaults(const SolverOptions& opts) noexcept {
  mutable_defaults() = opts;
}

// ---------------------------------------------------------------------------
// VarHeap: indexed binary max-heap ordered by activity.
// ---------------------------------------------------------------------------

void Solver::VarHeap::insert(Var v, const std::vector<double>& act) {
  if (contains(v)) return;
  index_[static_cast<size_t>(v)] = static_cast<int32_t>(heap_.size());
  heap_.push_back(v);
  sift_up(heap_.size() - 1, act);
}

void Solver::VarHeap::update(Var v, const std::vector<double>& act) {
  if (!contains(v)) return;
  const auto i = static_cast<size_t>(index_[static_cast<size_t>(v)]);
  sift_up(i, act);
  sift_down(static_cast<size_t>(index_[static_cast<size_t>(v)]), act);
}

Var Solver::VarHeap::pop(const std::vector<double>& act) {
  const Var top = heap_[0];
  index_[static_cast<size_t>(top)] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    index_[static_cast<size_t>(heap_[0])] = 0;
    sift_down(0, act);
  }
  return top;
}

void Solver::VarHeap::sift_up(size_t i, const std::vector<double>& act) {
  const Var v = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (act[static_cast<size_t>(heap_[parent])] >= act[static_cast<size_t>(v)]) break;
    heap_[i] = heap_[parent];
    index_[static_cast<size_t>(heap_[i])] = static_cast<int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  index_[static_cast<size_t>(v)] = static_cast<int32_t>(i);
}

void Solver::VarHeap::sift_down(size_t i, const std::vector<double>& act) {
  const Var v = heap_[i];
  const size_t n = heap_.size();
  for (;;) {
    const size_t left = 2 * i + 1;
    if (left >= n) break;
    const size_t right = left + 1;
    size_t best = left;
    if (right < n &&
        act[static_cast<size_t>(heap_[right])] > act[static_cast<size_t>(heap_[left])])
      best = right;
    if (act[static_cast<size_t>(heap_[best])] <= act[static_cast<size_t>(v)]) break;
    heap_[i] = heap_[best];
    index_[static_cast<size_t>(heap_[i])] = static_cast<int32_t>(i);
    i = best;
  }
  heap_[i] = v;
  index_[static_cast<size_t>(v)] = static_cast<int32_t>(i);
}

// ---------------------------------------------------------------------------
// Construction / problem building
// ---------------------------------------------------------------------------

Solver::Solver(const SolverOptions& options) : opts_(options) {
  next_tier2_shrink_ = opts_.tier2_shrink_interval;
  next_local_reduce_ = opts_.local_reduce_interval;
  local_cap_ = opts_.local_cap_base;
}

Solver::~Solver() {
  telemetry::SolverTotals t;
  t.solvers = 1;
#define ECO_X(name) t.name = stats_.name;
  ECO_SOLVER_STATS(ECO_X)
#undef ECO_X
  telemetry::add_solver_totals(t);
}

Var Solver::new_var(bool decision, bool default_polarity) {
  const Var v = num_vars();
  watches_.add_list();
  watches_.add_list();
  watches_bin_.add_list();
  watches_bin_.add_list();
  assigns_.push_back(kUndef);
  polarity_.push_back(default_polarity ? 1 : 0);
  decision_.push_back(decision ? 1 : 0);
  vardata_.push_back(VarData{});
  activity_.push_back(0.0);
  seen_.push_back(0);
  lbd_seen_.push_back(0);
  in_core_mark_.push_back(0);
  order_heap_.grow(v + 1);
  if (decision) order_heap_.insert(v, activity_);
  return v;
}

CRef Solver::alloc_clause(std::span<const Lit> lits, bool learnt) {
  const CRef ref = static_cast<CRef>(arena_.size());
  Header h{};
  h.learnt = learnt ? 1u : 0u;
  h.reloced = 0;
  h.tier = kTierCore;
  h.size = static_cast<uint32_t>(lits.size());
  arena_.push_back(std::bit_cast<uint32_t>(h));
  for (const Lit l : lits) arena_.push_back(static_cast<uint32_t>(l.raw()));
  if (learnt) {
    arena_.push_back(std::bit_cast<uint32_t>(0.0f));
    arena_.push_back(0);  // LBD
    arena_.push_back(0);  // touched (conflict count of last use)
  }
  return ref;
}

bool Solver::add_clause(std::span<const Lit> lits) {
  // Growing the clause database invalidates the trail retained for
  // assumption-prefix reuse: literals implied so far were derived without
  // this clause, and unit enqueues must land at level 0 anyway.
  if (decision_level() > 0) cancel_until(0);
  if (!ok_) return false;

  // Sort, then remove duplicates, satisfied clauses, and false literals in
  // place; the buffer keeps its capacity for the next clause.
  LitVec& out = add_buf_;
  out.assign(lits.begin(), lits.end());
  std::sort(out.begin(), out.end());
  size_t kept = 0;
  Lit prev = kLitUndef;
  for (const Lit l : out) {
    assert(l.var() >= 0 && l.var() < num_vars());
    if (value(l).is_true() || l == ~prev) return true;  // clause satisfied / tautology
    if (!value(l).is_false() && l != prev) {
      out[kept++] = l;
      prev = l;
    }
  }
  out.resize(kept);

  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    unchecked_enqueue(out[0]);
    ok_ = (propagate() == kCRefUndef);
    return ok_;
  }
  const CRef ref = alloc_clause(out, /*learnt=*/false);
  clauses_.push_back(ref);
  attach_clause(ref);
  return true;
}

void Solver::attach_clause(CRef ref) {
  auto c = clause(ref);
  assert(c.size() > 1);
  if (c.size() == 2) {
    watches_bin_.push(static_cast<size_t>((~c[0]).raw()), BinWatcher{c[1], ref});
    watches_bin_.push(static_cast<size_t>((~c[1]).raw()), BinWatcher{c[0], ref});
    return;
  }
  watches_.push(static_cast<size_t>((~c[0]).raw()), Watcher{ref, c[1]});
  watches_.push(static_cast<size_t>((~c[1]).raw()), Watcher{ref, c[0]});
}

void Solver::detach_clause(CRef ref) {
  auto c = clause(ref);
  const auto unwatch = [ref](auto& lists, Lit w) {
    const auto l = static_cast<size_t>(w.raw());
    const auto ws = lists[l];
    for (uint32_t i = 0; i < ws.size(); ++i) {
      if (ws[i].cref == ref) {
        lists.swap_remove(l, i);
        break;
      }
    }
  };
  for (const Lit w : {~c[0], ~c[1]}) {
    if (c.size() == 2)
      unwatch(watches_bin_, w);
    else
      unwatch(watches_, w);
  }
}

void Solver::remove_clause(CRef ref) {
  detach_clause(ref);
  auto c = clause(ref);
  // Unlock if the clause is the reason of its first literal.
  const Var v0 = c[0].var();
  if (reason(v0) == ref) vardata_[static_cast<size_t>(v0)].reason = kCRefUndef;
  c.header().reloced = 1;  // mark dead; storage reclaimed on next rebuild
  wasted_ += c.size() + 1 + (c.learnt() ? 3 : 0);
}

// ---------------------------------------------------------------------------
// Assignment / propagation
// ---------------------------------------------------------------------------

void Solver::unchecked_enqueue(Lit l, CRef from) {
  assert(value(l).is_undef());
  assigns_[static_cast<size_t>(l.var())] = LBool(!l.sign());
  vardata_[static_cast<size_t>(l.var())] = VarData{from, decision_level()};
  trail_.push_back(l);
}

Solver::ClauseRefView Solver::reason_view(Var v) noexcept {
  auto c = clause(reason(v));
  // Binary propagation leaves the arena untouched, so the implied literal
  // may sit at index 1; analysis expects it first.
  if (c.size() == 2 && c[0].var() != v) {
    const Lit tmp = c[0];
    c[0] = c[1];
    c[1] = tmp;
  }
  return c;
}

CRef Solver::propagate() {
  CRef confl = kCRefUndef;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    const auto pl = static_cast<size_t>(p.raw());
    ++stats_.propagations;

    // Tier 1: binary clauses — the implied literal is inline in the
    // watcher, so this loop runs on one contiguous array with no arena
    // dereference and never needs to move a watch.
    for (const BinWatcher bw : watches_bin_[pl]) {
      const LBool v = value(bw.other);
      if (v.is_true()) continue;
      if (v.is_false()) {
        qhead_ = trail_.size();
        return bw.cref;
      }
      unchecked_enqueue(bw.other, bw.cref);
    }

    // Tier 2: longer clauses with blocker-checked watcher pairs. The list
    // is walked by index: a push onto another literal's list may move every
    // list, so the base is re-read after each push (a push never targets
    // p's own list: the new watch is on a literal that is not false).
    Watcher* ws = watches_.data(pl);
    uint32_t i = 0, j = 0;
    const uint32_t n = watches_.size(pl);
    while (i < n) {
      const Watcher w = ws[i];
      if (value(w.blocker).is_true()) {
        ws[j++] = ws[i++];
        continue;
      }
      auto c = clause(w.cref);
      // Ensure the false literal is at position 1.
      const Lit false_lit = ~p;
      if (c[0] == false_lit) {
        c[0] = c[1];
        c[1] = false_lit;
      }
      ++i;
      const Lit first = c[0];
      if (first != w.blocker && value(first).is_true()) {
        ws[j++] = Watcher{w.cref, first};
        continue;
      }
      // Look for a new literal to watch.
      bool found = false;
      for (uint32_t k = 2; k < c.size(); ++k) {
        if (!value(c[k]).is_false()) {
          c[1] = c[k];
          c[k] = false_lit;
          watches_.push(static_cast<size_t>((~c[1]).raw()), Watcher{w.cref, first});
          ws = watches_.data(pl);
          found = true;
          break;
        }
      }
      if (found) continue;
      // Clause is unit or conflicting.
      ws[j++] = Watcher{w.cref, first};
      if (value(first).is_false()) {
        confl = w.cref;
        qhead_ = trail_.size();
        while (i < n) ws[j++] = ws[i++];
      } else {
        unchecked_enqueue(first, w.cref);
      }
    }
    watches_.truncate(pl, j);
    if (confl != kCRefUndef) break;
  }
  return confl;
}

void Solver::cancel_until(int target_level) {
  if (decision_level() <= target_level) return;
  const int bound = trail_lim_[static_cast<size_t>(target_level)];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= bound; --i) {
    const Var v = trail_[static_cast<size_t>(i)].var();
    polarity_[static_cast<size_t>(v)] = trail_[static_cast<size_t>(i)].sign() ? 1 : 0;
    assigns_[static_cast<size_t>(v)] = kUndef;
    if (decision_[static_cast<size_t>(v)] && !order_heap_.contains(v))
      order_heap_.insert(v, activity_);
  }
  qhead_ = static_cast<size_t>(bound);
  trail_.resize(static_cast<size_t>(bound));
  trail_lim_.resize(static_cast<size_t>(target_level));
}

Lit Solver::pick_branch_lit() {
  while (!order_heap_.empty()) {
    const Var v = order_heap_.pop(activity_);
    if (value(v).is_undef() && decision_[static_cast<size_t>(v)])
      return mk_lit(v, polarity_[static_cast<size_t>(v)] != 0);
  }
  return kLitUndef;
}

// ---------------------------------------------------------------------------
// Conflict analysis
// ---------------------------------------------------------------------------

void Solver::var_bump_activity(Var v) {
  auto& a = activity_[static_cast<size_t>(v)];
  a += var_inc_;
  if (a > 1e100) {
    for (auto& act : activity_) act *= 1e-100;
    var_inc_ *= 1e-100;
  }
  order_heap_.update(v, activity_);
}

void Solver::cla_bump_activity(ClauseRefView c) {
  float& a = c.activity();
  a += static_cast<float>(cla_inc_);
  if (a > 1e20f) {
    // Scale each clause exactly once: an entry is authoritative only when
    // the clause's tier matches the list it sits in (promotions leave stale
    // entries behind). A rare duplicate local entry may scale twice, which
    // only lowers that clause's heuristic standing — harmless.
    const auto rescale = [this](std::vector<CRef>& list, uint32_t tag) {
      for (const CRef ref : list) {
        auto cl = clause(ref);
        if (cl.header().tier == tag) cl.activity() *= 1e-20f;
      }
    };
    rescale(learnts_core_, kTierCore);
    rescale(learnts_tier2_, kTierTier2);
    rescale(learnts_local_, kTierLocal);
    cla_inc_ *= 1e-20;
  }
}

uint32_t Solver::compute_lbd(std::span<const Lit> lits) {
  ++lbd_stamp_;
  uint32_t count = 0;
  for (const Lit l : lits) {
    const int lv = level(l.var());
    if (lv > 0 && lbd_seen_[static_cast<size_t>(lv % lbd_seen_.size())] != lbd_stamp_) {
      lbd_seen_[static_cast<size_t>(lv % lbd_seen_.size())] = lbd_stamp_;
      ++count;
    }
  }
  return count;
}

void Solver::analyze(CRef confl, LitVec& out_learnt, int& out_btlevel, uint32_t& out_lbd) {
  int path_count = 0;
  Lit p = kLitUndef;
  out_learnt.clear();
  out_learnt.push_back(kLitUndef);  // placeholder for the asserting literal
  int index = static_cast<int>(trail_.size()) - 1;

  do {
    assert(confl != kCRefUndef);
    // For reasons (p != undef) the implied literal must be first; binary
    // reasons restore that invariant lazily.
    auto c = p == kLitUndef ? clause(confl) : reason_view(p.var());
    if (c.learnt()) {
      cla_bump_activity(c);
      c.touched() = static_cast<uint32_t>(stats_.conflicts);
      // Glucose-style LBD-update-on-use with tier promotion: a clause whose
      // glue improved since it was learnt earns a longer-lived tier.
      if (c.header().tier != kTierCore) {
        const uint32_t new_lbd = compute_lbd(c.lits());
        if (new_lbd < c.lbd()) {
          c.lbd() = new_lbd;
          maybe_promote(confl, c, new_lbd);
        }
      }
    }
    for (uint32_t k = (p == kLitUndef) ? 0 : 1; k < c.size(); ++k) {
      const Lit q = c[k];
      const Var v = q.var();
      if (!seen_[static_cast<size_t>(v)] && level(v) > 0) {
        var_bump_activity(v);
        seen_[static_cast<size_t>(v)] = 1;
        if (level(v) >= decision_level())
          ++path_count;
        else
          out_learnt.push_back(q);
      }
    }
    // Select the next literal on the trail to expand.
    while (!seen_[static_cast<size_t>(trail_[static_cast<size_t>(index)].var())]) --index;
    p = trail_[static_cast<size_t>(index--)];
    confl = reason(p.var());
    seen_[static_cast<size_t>(p.var())] = 0;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Minimize with self-subsumption over reason clauses (recursive check).
  analyze_toclear_ = out_learnt;
  uint32_t abstract_level = 0;
  for (size_t i = 1; i < out_learnt.size(); ++i)
    abstract_level |= 1u << (static_cast<uint32_t>(level(out_learnt[i].var())) & 31u);
  size_t keep = 1;
  for (size_t i = 1; i < out_learnt.size(); ++i) {
    if (reason(out_learnt[i].var()) == kCRefUndef || !lit_redundant(out_learnt[i], abstract_level))
      out_learnt[keep++] = out_learnt[i];
  }
  stats_.learnt_literals += out_learnt.size();
  out_learnt.resize(keep);

  // Find the backtrack level: the second-highest level in the clause.
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    size_t max_i = 1;
    for (size_t i = 2; i < out_learnt.size(); ++i)
      if (level(out_learnt[i].var()) > level(out_learnt[max_i].var())) max_i = i;
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level(out_learnt[1].var());
  }
  out_lbd = compute_lbd(out_learnt);

  for (const Lit l : analyze_toclear_) seen_[static_cast<size_t>(l.var())] = 0;
}

bool Solver::lit_redundant(Lit l, uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  const size_t top = analyze_toclear_.size();
  while (!analyze_stack_.empty()) {
    const Lit cur = analyze_stack_.back();
    analyze_stack_.pop_back();
    assert(reason(cur.var()) != kCRefUndef);
    auto c = reason_view(cur.var());
    for (uint32_t i = 1; i < c.size(); ++i) {
      const Lit q = c[i];
      const Var v = q.var();
      if (seen_[static_cast<size_t>(v)] || level(v) == 0) continue;
      if (reason(v) != kCRefUndef &&
          ((1u << (static_cast<uint32_t>(level(v)) & 31u)) & abstract_levels) != 0) {
        seen_[static_cast<size_t>(v)] = 1;
        analyze_stack_.push_back(q);
        analyze_toclear_.push_back(q);
      } else {
        // Not removable: undo the marks added during this check.
        for (size_t j = top; j < analyze_toclear_.size(); ++j)
          seen_[static_cast<size_t>(analyze_toclear_[j].var())] = 0;
        analyze_toclear_.resize(top);
        return false;
      }
    }
  }
  return true;
}

void Solver::analyze_final(Lit p, LitVec& out_core) {
  // Computes the subset of assumptions sufficient for the conflict, as the
  // set of *negations* of trail decisions reachable from ~p's implication.
  out_core.clear();
  out_core.push_back(p);
  if (decision_level() == 0) return;
  seen_[static_cast<size_t>(p.var())] = 1;
  for (int i = static_cast<int>(trail_.size()) - 1; i >= trail_lim_[0]; --i) {
    const Var x = trail_[static_cast<size_t>(i)].var();
    if (!seen_[static_cast<size_t>(x)]) continue;
    if (reason(x) == kCRefUndef) {
      assert(level(x) > 0);
      out_core.push_back(~trail_[static_cast<size_t>(i)]);
    } else {
      auto c = reason_view(x);
      for (uint32_t j = 1; j < c.size(); ++j)
        if (level(c[j].var()) > 0) seen_[static_cast<size_t>(c[j].var())] = 1;
    }
    seen_[static_cast<size_t>(x)] = 0;
  }
  seen_[static_cast<size_t>(p.var())] = 0;
}

// ---------------------------------------------------------------------------
// Learnt database: three-tier maintenance & garbage collection
// ---------------------------------------------------------------------------

void Solver::admit_learnt(CRef ref, uint32_t lbd) {
  auto c = clause(ref);
  c.lbd() = lbd;
  c.touched() = static_cast<uint32_t>(stats_.conflicts);
  uint32_t tier;
  // Size-2 learnts always join core: a binary reason may have its implied
  // literal at index 1 (lazy normalization), so the locked-clause check in
  // reduce_local would not protect it — core clauses are never removed.
  if (lbd <= opts_.core_lbd_cut || c.size() <= 2) {
    tier = kTierCore;
    learnts_core_.push_back(ref);
    ++stats_.learnts_core;
  } else if (lbd <= opts_.tier2_lbd_cut) {
    tier = kTierTier2;
    learnts_tier2_.push_back(ref);
    ++stats_.learnts_tier2;
  } else {
    tier = kTierLocal;
    learnts_local_.push_back(ref);
    ++stats_.learnts_local;
    ++locals_live_;
  }
  c.header().tier = tier;
}

void Solver::maybe_promote(CRef ref, ClauseRefView c, uint32_t new_lbd) {
  const uint32_t tier = c.header().tier;
  if (new_lbd <= opts_.core_lbd_cut) {
    if (tier == kTierCore) return;
    if (tier == kTierLocal) --locals_live_;
    c.header().tier = kTierCore;
    learnts_core_.push_back(ref);
    ++stats_.learnts_core;
  } else if (new_lbd <= opts_.tier2_lbd_cut && tier == kTierLocal) {
    --locals_live_;
    c.header().tier = kTierTier2;
    learnts_tier2_.push_back(ref);
    ++stats_.learnts_tier2;
  }
}

void Solver::shrink_tier2() {
  const auto now = static_cast<uint32_t>(stats_.conflicts);
  const auto demote_age = static_cast<uint32_t>(opts_.tier2_unused_demote);
  size_t keep = 0;
  for (const CRef ref : learnts_tier2_) {
    auto c = clause(ref);
    if (c.header().tier != kTierTier2) continue;  // promoted away: drop stale entry
    if (now - c.touched() >= demote_age) {
      c.header().tier = kTierLocal;
      learnts_local_.push_back(ref);
      ++stats_.learnts_local;
      ++locals_live_;
    } else {
      learnts_tier2_[keep++] = ref;
    }
  }
  learnts_tier2_.resize(keep);
}

void Solver::reduce_local() {
  ++stats_.db_reductions;
  auto& local = learnts_local_;
  // Promotions leave stale entries behind, and a demote/re-promote cycle can
  // leave duplicates: dedupe, then keep only entries whose tier is still
  // local. Everything surviving this pass is live, unique, and local.
  std::sort(local.begin(), local.end());
  local.erase(std::unique(local.begin(), local.end()), local.end());
  size_t cur = 0;
  for (const CRef ref : local)
    if (clause(ref).header().tier == kTierLocal) local[cur++] = ref;
  local.resize(cur);
  // Lowest activity first: those are removed.
  std::sort(local.begin(), local.end(),
            [this](CRef a, CRef b) { return clause(a).activity() < clause(b).activity(); });
  const size_t target_remove = local.size() / 2;
  size_t removed = 0;
  size_t keep = 0;
  for (size_t i = 0; i < local.size(); ++i) {
    auto c = clause(local[i]);
    const bool locked = reason(c[0].var()) == local[i] && value(c[0]).is_true();
    if (removed < target_remove && !locked) {
      remove_clause(local[i]);
      ++removed;
    } else {
      local[keep++] = local[i];
    }
  }
  local.resize(keep);
  locals_live_ = keep;  // exact resync: the list is now live, unique, local
  maybe_garbage_collect();
}

void Solver::maybe_garbage_collect() {
  if (wasted_ * 2 < arena_.size() || arena_.size() < (1u << 16)) return;
  std::vector<uint32_t> fresh;
  fresh.reserve(arena_.size() - wasted_);
  auto reloc = [&](CRef& ref) {
    auto c = clause(ref);
    if (c.header().reloced) {
      ref = static_cast<CRef>(static_cast<uint32_t>(c[0].raw()));
      return;
    }
    const CRef nref = static_cast<CRef>(fresh.size());
    const uint32_t total = 1 + c.size() + (c.learnt() ? 3u : 0u);
    for (uint32_t i = 0; i < total; ++i) fresh.push_back(arena_[ref + i]);
    c.header().reloced = 1;
    c[0] = Lit::from_raw(static_cast<int32_t>(nref));
    ref = nref;
  };
  for (size_t l = 0; l < watches_.num_lists(); ++l)
    for (Watcher& w : watches_[l]) reloc(w.cref);
  for (size_t l = 0; l < watches_bin_.num_lists(); ++l)
    for (BinWatcher& w : watches_bin_[l]) reloc(w.cref);
  for (const Lit l : trail_) {
    auto& r = vardata_[static_cast<size_t>(l.var())].reason;
    if (r != kCRefUndef) {
      // Only relocate reasons that are still live (watched clauses are live;
      // a locked reason is never removed, so it is watched and already moved
      // or will be moved here).
      reloc(r);
    }
  }
  for (auto& ref : clauses_) reloc(ref);
  // Stale/duplicate learnt-list entries reference live clauses only
  // (reduce_local drops every entry for a clause it kills), and reloc is
  // idempotent via the forwarding pointer, so relocating them is safe.
  for (auto& ref : learnts_core_) reloc(ref);
  for (auto& ref : learnts_tier2_) reloc(ref);
  for (auto& ref : learnts_local_) reloc(ref);
  arena_.swap(fresh);
  wasted_ = 0;
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

bool Solver::within_budget() const noexcept {
  // Throttle the clock read: once every 64 checks is ~ once per 64 decisions.
  // Expiration latches so callers polling after kUndef see a stable verdict.
  if (deadline_check_countdown_ == 0) {
    deadline_check_countdown_ = 64;
    if (deadline_.expired()) deadline_expired_ = true;
    if (cancel_.valid() && cancel_.cancelled()) cancel_hit_ = true;
  }
  --deadline_check_countdown_;
  if (deadline_expired_ || cancel_hit_) return false;
  if (conflict_budget_ >= 0 &&
      stats_.conflicts - conflicts_at_solve_start_ >= static_cast<uint64_t>(conflict_budget_))
    return false;
  if (propagation_budget_ >= 0 &&
      stats_.propagations - propagations_at_solve_start_ >=
          static_cast<uint64_t>(propagation_budget_))
    return false;
  return true;
}

/// One restart segment. \p conflicts_before_restart >= 0 caps the segment
/// (Luby policy); a negative value means the EMA policy decides internally.
LBool Solver::search(int64_t conflicts_before_restart) {
  int64_t conflict_count = 0;
  LitVec& learnt = learnt_;
  for (;;) {
    const CRef confl = propagate();
    if (confl != kCRefUndef) {
      ++stats_.conflicts;
      ++conflict_count;
      if (decision_level() == 0) {
        // Contradiction independent of assumptions: F itself is UNSAT.
        // Latch it — the falsified clause is behind the propagation queue by
        // now, so a later search would not rediscover it through watchers.
        core_.clear();
        ok_ = false;
        return kFalse;
      }
      int bt_level = 0;
      uint32_t lbd = 0;
      analyze(confl, learnt, bt_level, lbd);
      ema_lbd_fast_.update(lbd, opts_.ema_lbd_fast_alpha);
      ema_lbd_slow_.update(lbd, opts_.ema_lbd_slow_alpha);
      ema_trail_.update(static_cast<double>(trail_.size()), opts_.ema_trail_alpha);
      cancel_until(bt_level);
      if (learnt.size() == 1) {
        unchecked_enqueue(learnt[0]);
      } else {
        const CRef ref = alloc_clause(learnt, /*learnt=*/true);
        admit_learnt(ref, lbd);
        attach_clause(ref);
        cla_bump_activity(clause(ref));
        unchecked_enqueue(learnt[0], ref);
      }
      var_decay_activity();
      cla_decay_activity();
      continue;
    }

    // No conflict.
    const bool budget_ok = within_budget();
    bool restart_now = false;
    if (budget_ok) {
      if (conflicts_before_restart >= 0) {
        restart_now = conflict_count >= conflicts_before_restart;
      } else if (conflict_count >= opts_.restart_min_conflicts &&
                 ema_lbd_fast_.value > opts_.restart_margin * ema_lbd_slow_.value) {
        // Glucose-style block: an unusually deep trail suggests the search
        // is closing in on a model — postpone and let the pressure rebuild.
        if (ema_trail_.primed &&
            static_cast<double>(trail_.size()) > opts_.blocking_margin * ema_trail_.value) {
          ++stats_.restarts_blocked;
          conflict_count = 0;
        } else {
          restart_now = true;
        }
      }
    }
    if (restart_now || !budget_ok) {
      // Back off only to the assumption boundary: the assumption levels stay
      // valid across restarts (and across solve() calls — trail reuse).
      cancel_until(std::min(static_cast<int>(assumptions_.size()), decision_level()));
      return kUndef;
    }

    if (locals_live_ >= local_cap_ || stats_.conflicts >= next_local_reduce_) {
      if (locals_live_ >= local_cap_) local_cap_ += opts_.local_cap_increment;
      next_local_reduce_ = stats_.conflicts + opts_.local_reduce_interval;
      reduce_local();
      // Locked clauses survive reduction; if they alone exceed the cap,
      // raise it past them so the size trigger cannot fire every conflict.
      if (locals_live_ >= local_cap_) local_cap_ = locals_live_ + 64;
    }
    if (stats_.conflicts >= next_tier2_shrink_) {
      next_tier2_shrink_ = stats_.conflicts + opts_.tier2_shrink_interval;
      shrink_tier2();
    }

    Lit next = kLitUndef;
    while (decision_level() < static_cast<int>(assumptions_.size())) {
      const Lit p = assumptions_[static_cast<size_t>(decision_level())];
      if (value(p).is_true()) {
        new_decision_level();  // dummy level: assumption already implied
      } else if (value(p).is_false()) {
        analyze_final(~p, core_);
        return kFalse;
      } else {
        next = p;
        break;
      }
    }
    if (next == kLitUndef) {
      ++stats_.decisions;
      next = pick_branch_lit();
      if (next == kLitUndef) return kTrue;  // all variables assigned: model
    }
    new_decision_level();
    unchecked_enqueue(next);
  }
}

double Solver::luby(double y, int i) {
  int size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return std::pow(y, seq);
}

LBool Solver::solve(std::span<const Lit> assumptions) {
  if (!ledger::enabled()) return solve_impl(assumptions);
  // Ledger path: time the solve and append one record with the stat deltas.
  const Timer wall;
  const double cpu0 = ledger::thread_cpu_seconds();
  const uint64_t conflicts0 = stats_.conflicts;
  const uint64_t decisions0 = stats_.decisions;
  const uint64_t propagations0 = stats_.propagations;
  const LBool status = solve_impl(assumptions);
  ledger::Record r;
  r.kind = ledger::Kind::kSolve;
  r.wall_seconds = wall.seconds();
  r.cpu_seconds = ledger::thread_cpu_seconds() - cpu0;
  r.conflicts = stats_.conflicts - conflicts0;
  r.decisions = stats_.decisions - decisions0;
  r.propagations = stats_.propagations - propagations0;
  r.vars = static_cast<uint32_t>(num_vars());
  r.clauses = static_cast<uint32_t>(clauses_.size());
  r.result = status.is_true()    ? ledger::QueryResult::kSat
             : status.is_false() ? ledger::QueryResult::kUnsat
                                 : ledger::QueryResult::kUndef;
  if (status.is_undef()) {
    if (cancel_hit_) {
      switch (cancel_.reason()) {
        case CancelReason::kStopped: r.cancel = ledger::CancelCause::kStopped; break;
        case CancelReason::kMemory: r.cancel = ledger::CancelCause::kMemory; break;
        default: r.cancel = ledger::CancelCause::kDeadline; break;
      }
    } else if (deadline_expired_) {
      r.cancel = ledger::CancelCause::kDeadline;
    } else {
      r.cancel = ledger::CancelCause::kBudget;
    }
  }
  ledger::append(r);
  return status;
}

LBool Solver::solve_impl(std::span<const Lit> assumptions) {
  ++stats_.solves;
  model_.clear();
  core_.clear();
  std::fill(in_core_mark_.begin(), in_core_mark_.end(), 0);
  par_attempted_ = false;
  par_failed_rounds_ = 0;
  par_retry_at_ = 0;
  if (!ok_) return kFalse;
  // Fault site: pretend the budget was exhausted before any search ran.
  if (ECO_FAULT_POINT(fault::Site::kSatBudget)) return kUndef;

  // Assumption-prefix trail reuse: decision level i (1-based) was opened for
  // assumption i-1 (as a real decision or a dummy level), so the trail below
  // the longest common prefix of the previous and current assumption vectors
  // — those decisions plus everything propagation derived from them — is
  // still exactly what this call would recompute. Keep it. add_clause
  // cancels to level 0, so a retained level is never stale w.r.t. the
  // clause database.
  int keep = 0;
  if (opts_.trail_reuse) {
    const size_t max_keep = std::min({static_cast<size_t>(decision_level()),
                                      assumptions_.size(), assumptions.size()});
    while (static_cast<size_t>(keep) < max_keep &&
           assumptions_[static_cast<size_t>(keep)] == assumptions[static_cast<size_t>(keep)])
      ++keep;
  }
  cancel_until(keep);
  if (keep > 0) {
    stats_.prefix_reused_levels += static_cast<uint64_t>(keep);
    stats_.propagations_saved +=
        trail_.size() - static_cast<size_t>(trail_lim_[0]);
  }

  assumptions_.assign(assumptions.begin(), assumptions.end());
  conflicts_at_solve_start_ = stats_.conflicts;
  propagations_at_solve_start_ = stats_.propagations;

  LBool status = kUndef;
  for (int restarts = 0; status.is_undef(); ++restarts) {
    if (par_allowed_ && !par_attempted_) {
      // Hand a long-running solve to the parallel layer (no-op unless it is
      // enabled, an executor is registered, and the trigger was crossed).
      // On escalation the layer installs model_/core_ itself, so the normal
      // conversion tail below must be skipped.
      if (auto par = maybe_escalate_par(*this)) {
        if (!opts_.trail_reuse) {
          cancel_until(0);
          assumptions_.clear();
        }
        return *par;
      }
    }
    int64_t segment = -1;  // EMA: search() decides internally
    if (opts_.restart == RestartPolicy::kLuby)
      segment = static_cast<int64_t>(luby(2.0, restarts) * 100.0);
    status = search(segment);
    if (status.is_undef() && !within_budget()) break;
    if (status.is_undef()) ++stats_.restarts;
  }

  if (status.is_true()) {
    model_.assign(assigns_.begin(), assigns_.end());
  } else if (status.is_false()) {
    // Convert the final conflict (negated assumptions) into core literals in
    // their assumed polarity.
    for (Lit& l : core_) {
      in_core_mark_[static_cast<size_t>(l.var())] = 1;
      l = ~l;
    }
  }
  if (!opts_.trail_reuse) {
    cancel_until(0);
    assumptions_.clear();
  }
  // With trail reuse the trail and assumptions_ are retained: the next
  // solve() computes its reusable prefix from them.
  return status;
}

bool Solver::model_value(Lit l) const {
  const auto v = static_cast<size_t>(l.var());
  if (v >= model_.size() || model_[v].is_undef()) return l.sign();
  return model_[v].is_true() != l.sign();
}

bool Solver::in_core(Lit l) const {
  const auto v = static_cast<size_t>(l.var());
  if (v >= in_core_mark_.size() || !in_core_mark_[v]) return false;
  for (const Lit c : core_)
    if (c == l) return true;
  return false;
}

void Solver::set_polarity(Var v, bool negated_first) {
  polarity_[static_cast<size_t>(v)] = negated_first ? 1 : 0;
}

LBool Solver::fixed_value(Var v) const {
  if (value(v).is_undef()) return kUndef;
  if (level(v) != 0) return kUndef;
  return value(v);
}

}  // namespace eco::sat
