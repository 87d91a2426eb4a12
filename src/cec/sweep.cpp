#include "cec/sweep.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "aig/simbank.hpp"
#include "cnf/tseitin.hpp"
#include "sat/solver.hpp"
#include "util/executor.hpp"
#include "util/ledger.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace eco::cec {

void SweepStats::accumulate(const SweepStats& other) noexcept {
#define ECO_X(name) name += other.name;
  ECO_SWEEP_STATS(ECO_X)
#undef ECO_X
}

// ---------------------------------------------------------------------------
// The sweeper
// ---------------------------------------------------------------------------

namespace {

constexpr aig::Node kNoOwner = UINT32_MAX;

/// Outcome of one class-member proof attempt (filled by a chunk task, read
/// by the serial apply step).
struct PairOutcome {
  int8_t verdict = 0;  ///< 1 proven, -1 refuted, 0 undef/skipped
  std::vector<bool> pattern;
  /// For verdict 1: global pair ids of the (possibly speculated) equalities
  /// the UNSAT proof used (the assumption core). The proof is genuine iff
  /// every dependency is itself accepted.
  std::vector<uint32_t> deps;
};

/// One candidate class: union roots with identical canonical signatures.
/// Members are in ascending node order; members[0] is the representative.
/// phases[i] is the complement of member i relative to the canonical
/// signature, so member i matches the representative up to
/// `phases[i] ^ phases[0]`.
struct ClassTask {
  std::vector<aig::Node> members;
  std::vector<uint8_t> phases;
  /// Canonical signature is all-zero: the members looked constant under
  /// every pattern so far. Such classes are the usual home of false
  /// candidates (rarely-exercised comparison chains), so their equalities
  /// are never speculated into other chunks — proofs leaning on them would
  /// mostly be downgraded anyway.
  bool near_const = false;
};

/// Adds the search work \p s did since \p before (the counters its `solve`
/// ledger records carry) to \p acc.
void add_search_work(sat::SolverStats& acc, const sat::SolverStats& s,
                     const sat::SolverStats& before) {
  acc.conflicts += s.conflicts - before.conflicts;
  acc.decisions += s.decisions - before.decisions;
  acc.propagations += s.propagations - before.propagations;
}

struct TaskResult {
  std::vector<PairOutcome> outcomes;  ///< one per member beyond the first
  uint64_t phase_seeded = 0;
  sat::SolverStats work;  ///< the chunk's search work (on its first class)
};

class Sweeper {
 public:
  Sweeper(const aig::Aig& g, aig::Lit root, const SweepOptions& opts,
          const eco::Deadline& deadline, const eco::CancelToken& cancel,
          util::Executor* executor)
      : g_(g),
        opts_(opts),
        deadline_(deadline),
        cancel_(cancel),
        executor_(executor),
        bank_(g, bank_options(g, opts)) {
    mark_cone(root);
    parent_.resize(g_.num_nodes());
    pphase_.assign(g_.num_nodes(), 0);
    for (aig::Node n = 0; n < g_.num_nodes(); ++n) parent_[n] = n;
    stats_.nodes_before = g_.num_ands();
  }

  /// Folds caller seed patterns (prior counterexamples) into the bank.
  void add_seed_patterns(std::span<const std::vector<bool>> seeds) {
    for (const auto& seed : seeds) {
      if (bank_.full()) break;
      std::vector<bool> pattern(seed);
      pattern.resize(g_.num_pis(), false);
      bank_.add_pattern(pattern);
    }
  }

  /// True (with the witness in \p out) when some bank pattern sets \p root
  /// to 1 — a concrete counterexample, no solver work needed.
  bool bank_hit(aig::Lit root, std::vector<bool>& out) {
    if (root == aig::kLitTrue) {
      out.assign(g_.num_pis(), false);
      return true;
    }
    if (root == aig::kLitFalse) return false;
    const auto row = bank_.row(aig::lit_node(root));
    const uint64_t cm = aig::lit_compl(root) ? ~0ULL : 0ULL;
    uint32_t index = UINT32_MAX;
    for (size_t w = 0; w < row.size(); ++w) {
      const uint64_t hit = (row[w] ^ cm) & bank_.valid_mask(w);
      if (hit == 0) continue;
      index = static_cast<uint32_t>(w * 64 + __builtin_ctzll(hit));
      break;
    }
    if (index == UINT32_MAX) return false;
    out = bank_.pattern(index);
    return true;
  }

  /// Runs the refine/prove/merge rounds. Returns early (without error) on
  /// deadline/cancellation; the reduced AIG is valid either way.
  void run() {
    const size_t chunk =
        opts_.chunk_classes > 0 ? static_cast<size_t>(opts_.chunk_classes) : 32;
    for (uint32_t round = 0; round < opts_.max_rounds; ++round) {
      if (interrupted()) break;
      build_reduced();
      std::vector<ClassTask> tasks = build_classes();
      if (tasks.empty()) break;
      stats_.rounds += 1;
      stats_.classes += tasks.size();
      // Global pair ids: class ci's pairs are [off[ci], off[ci + 1]). Chunks
      // name their proof dependencies by these ids; apply resolves them.
      std::vector<uint32_t> off(tasks.size() + 1, 0);
      for (size_t ci = 0; ci < tasks.size(); ++ci)
        off[ci + 1] = off[ci] + static_cast<uint32_t>(tasks[ci].members.size() - 1);
      std::vector<TaskResult> results(tasks.size());
      const size_t num_chunks = (tasks.size() + chunk - 1) / chunk;
      const auto prove_one = [&](size_t k) {
        const size_t lo = k * chunk;
        prove_chunk(tasks, off, lo, std::min(tasks.size(), lo + chunk), results);
      };
      if (executor_ != nullptr && executor_->jobs() > 1 && num_chunks > 1)
        executor_->parallel_for(num_chunks, prove_one);
      else
        for (size_t k = 0; k < num_chunks; ++k) prove_one(k);
      if (!apply(tasks, off, results)) break;  // no progress: classes settled
    }
    build_reduced();  // fold the last round's merges
    stats_.nodes_after = reduced_.num_ands();
  }

  /// Image of a g literal in the reduced AIG (valid after run()).
  aig::Lit image(aig::Lit l) const {
    const aig::Lit base = rmap_[aig::lit_node(l)];
    return aig::lit_notif(base, aig::lit_compl(l));
  }

  const aig::Aig& reduced() const noexcept { return reduced_; }
  const SweepStats& stats() const noexcept { return stats_; }
  /// Search work of every class-proving solve so far.
  const sat::SolverStats& work() const noexcept { return work_; }
  std::vector<EquivPair> take_proven() { return std::move(proven_); }
  aig::SimBank& bank() noexcept { return bank_; }

  /// Seeds the saved phase of every newly encoded variable from the bank's
  /// per-node signal probability (majority simulated value). Returns the
  /// number of variables seeded. \p done tracks nodes already seeded on
  /// this solver.
  uint64_t seed_phases(sat::Solver& solver, cnf::Encoder& enc, std::vector<uint8_t>& done) {
    if (!solver.options().phase_seed) return 0;
    done.resize(reduced_.num_nodes(), 0);
    uint64_t seeded = 0;
    for (aig::Node n = 1; n < reduced_.num_nodes(); ++n) {
      if (done[n] != 0 || !enc.encoded(n)) continue;
      done[n] = 1;
      // Majority value 0 => prefer assigning false first.
      solver.set_polarity(enc.var(n), prob1_[n] < 0.5f);
      ++seeded;
    }
    return seeded;
  }

 private:
  static aig::SimBankOptions bank_options(const aig::Aig& g, const SweepOptions& opts) {
    aig::SimBankOptions bo;
    bo.seed_words = opts.sim_words > 0 ? opts.sim_words : 1;
    bo.capacity_words = bo.seed_words + opts.cex_words;
    bo.seed = opts.seed;
    (void)g;
    return bo;
  }

  bool interrupted() const {
    return deadline_.expired() || (cancel_.valid() && cancel_.cancelled());
  }

  void mark_cone(aig::Lit root) {
    in_cone_.assign(g_.num_nodes(), 0);
    in_cone_[0] = 1;
    std::vector<aig::Node> stack = {aig::lit_node(root)};
    while (!stack.empty()) {
      const aig::Node n = stack.back();
      stack.pop_back();
      if (in_cone_[n] != 0) continue;
      in_cone_[n] = 1;
      if (g_.is_and(n)) {
        stack.push_back(aig::lit_node(g_.fanin0(n)));
        stack.push_back(aig::lit_node(g_.fanin1(n)));
      }
    }
  }

  /// Union-find root of \p n and the phase of n relative to it.
  std::pair<aig::Node, bool> find(aig::Node n) {
    bool phase = false;
    aig::Node root = n;
    while (parent_[root] != root) {
      phase ^= pphase_[root] != 0;
      root = parent_[root];
    }
    // Path compression, re-rooting every node on the walk directly at root.
    aig::Node cur = n;
    bool cur_phase = false;  // phase of n relative to cur
    while (parent_[cur] != cur) {
      const aig::Node next = parent_[cur];
      const bool next_edge = pphase_[cur] != 0;
      parent_[cur] = root;
      pphase_[cur] = static_cast<uint8_t>(phase ^ cur_phase);
      cur_phase ^= next_edge;
      cur = next;
    }
    return {root, phase};
  }

  /// Records `value(child) == value(root) ^ phase`. \pre both are union
  /// roots and root < child (so the reduced image of root always exists by
  /// the time child's cone is rebuilt).
  void merge(aig::Node root, aig::Node child, bool phase) {
    parent_[child] = root;
    pphase_[child] = static_cast<uint8_t>(phase);
    stats_.merges += 1;
    proven_.push_back(EquivPair{aig::lit_make(root, false), aig::lit_make(child, phase)});
  }

  /// Rebuilds the reduced AIG through the current union-find. Structural
  /// hashing in the reduced graph exposes merges the unions imply (two
  /// roots collapsing onto one node), which are unioned on the spot — an
  /// equivalence proof by construction, no SAT needed.
  void build_reduced() {
    const bool want_probs = sat::SolverOptions::defaults().phase_seed;
    reduced_ = aig::Aig();
    rmap_.assign(g_.num_nodes(), aig::kLitInvalid);
    rmap_[0] = aig::kLitFalse;
    rowner_.assign(1, kNoOwner);
    prob1_.assign(1, 0.0f);
    for (uint32_t i = 0; i < g_.num_pis(); ++i) {
      const aig::Lit pl = g_.pi_lit(i);
      const aig::Lit rl = reduced_.add_pi(g_.pi_name(i));
      rmap_[aig::lit_node(pl)] = rl;
      note_reduced_node(rl, aig::lit_node(pl), want_probs);
    }
    for (aig::Node n = g_.num_pis() + 1; n < g_.num_nodes(); ++n) {
      if (in_cone_[n] == 0) continue;
      const auto [root, phase] = find(n);
      if (root != n) {
        rmap_[n] = aig::lit_notif(rmap_[root], phase);
        continue;
      }
      const aig::Lit f0 = image(g_.fanin0(n));
      const aig::Lit f1 = image(g_.fanin1(n));
      const aig::Lit rl = reduced_.add_and(f0, f1);
      rmap_[n] = rl;
      if (rl == aig::kLitFalse || rl == aig::kLitTrue) {
        // Simplified to a constant: n is provably const (0 is node 0's lit).
        merge(0, n, rl == aig::kLitTrue);
        continue;
      }
      const aig::Node rn = aig::lit_node(rl);
      if (rn < rowner_.size() && rowner_[rn] != kNoOwner && rowner_[rn] != n) {
        // Another root already produced this reduced node: structurally
        // identical under the current merges, so union the two.
        const aig::Node owner = rowner_[rn];
        const bool rel = aig::lit_compl(rl) != aig::lit_compl(rmap_[owner]);
        merge(owner, n, rel);
        continue;
      }
      note_reduced_node(rl, n, want_probs);
    }
  }

  /// Registers a freshly created reduced node: its owning g root (for
  /// structural-union detection) and its signal probability (for phase
  /// seeding).
  void note_reduced_node(aig::Lit rl, aig::Node g_node, bool want_probs) {
    const aig::Node rn = aig::lit_node(rl);
    if (rn >= rowner_.size()) {
      rowner_.resize(reduced_.num_nodes(), kNoOwner);
      prob1_.resize(reduced_.num_nodes(), 0.5f);
    }
    if (rowner_[rn] != kNoOwner) return;
    rowner_[rn] = g_node;
    if (!want_probs || bank_.num_patterns() == 0) return;
    const auto row = bank_.row(g_node);
    uint64_t ones = 0;
    for (size_t w = 0; w < row.size(); ++w)
      ones += static_cast<uint64_t>(__builtin_popcountll(row[w] & bank_.valid_mask(w)));
    float p = static_cast<float>(ones) / static_cast<float>(bank_.num_patterns());
    if (aig::lit_compl(rl)) p = 1.0f - p;
    prob1_[rn] = p;
  }

  /// Partitions the current union roots (in the cone, plus the constant) by
  /// complement-canonical signature. Only multi-member classes are
  /// returned; members come out in ascending node order.
  std::vector<ClassTask> build_classes() {
    std::unordered_map<uint64_t, size_t> index;
    std::vector<ClassTask> classes;
    const size_t words = bank_.num_words();
    for (aig::Node n = 0; n < g_.num_nodes(); ++n) {
      if (n != 0 && in_cone_[n] == 0) continue;
      if (find(n).first != n) continue;
      const auto row = bank_.row(n);
      const bool phase = (row[0] & 1ULL) != 0;  // canonicalize pattern 0 to 0
      const uint64_t flip = phase ? ~0ULL : 0ULL;
      uint64_t h = 0x9e3779b97f4a7c15ULL;
      uint64_t any = 0;
      for (size_t w = 0; w < words; ++w) {
        const uint64_t canon = (row[w] ^ flip) & bank_.valid_mask(w);
        any |= canon;
        h = SplitMix64::mix(h ^ canon);
      }
      const auto [it, fresh] = index.emplace(h, classes.size());
      if (fresh) classes.emplace_back();
      ClassTask& cls = classes[it->second];
      if (cls.members.empty()) cls.near_const = any == 0;
      cls.members.push_back(n);
      cls.phases.push_back(static_cast<uint8_t>(phase));
    }
    std::vector<ClassTask> tasks;
    std::vector<ClassTask> subs;
    for (auto& cls : classes) {
      if (cls.members.size() < 2) continue;
      // Split each signature group along the refuted-pair memo: a member
      // joins the first subgroup whose representative it has not already
      // been refuted against, else it anchors a new subgroup. Refuted pairs
      // the bank could not split (capacity) never get re-proved, and every
      // member still gets a chance against a fresh representative.
      subs.clear();
      for (size_t j = 0; j < cls.members.size(); ++j) {
        bool placed = false;
        for (ClassTask& sub : subs) {
          const bool rel = cls.phases[j] != sub.phases[0];
          if (refuted_.count(pair_key(sub.members[0], cls.members[j], rel)) != 0) continue;
          sub.members.push_back(cls.members[j]);
          sub.phases.push_back(cls.phases[j]);
          placed = true;
          break;
        }
        if (!placed) {
          subs.emplace_back();
          subs.back().near_const = cls.near_const;
          subs.back().members.push_back(cls.members[j]);
          subs.back().phases.push_back(cls.phases[j]);
        }
      }
      for (auto& sub : subs)
        if (sub.members.size() >= 2) tasks.push_back(std::move(sub));
    }
    // Topological order by topmost member: by the time a class is proved,
    // everything in its members' cones sits in earlier classes, so their
    // (asserted or speculated) equalities carry the proof. Members are
    // distinct nodes, so the order is total and deterministic.
    std::sort(tasks.begin(), tasks.end(), [](const ClassTask& a, const ClassTask& b) {
      return a.members.back() < b.members.back();
    });
    return tasks;
  }

  /// Proves the classes [lo, hi) on one shared solver + Tseitin encoding.
  /// Runs on an executor worker; owns its solver and writes only into
  /// results[lo..hi).
  ///
  /// Every equality the chunk relies on — the *unproven* equalities of the
  /// classes below it (speculative reduction) and its own proofs fed forward
  /// — enters the solver guarded by a fresh selector, and each proof query
  /// assumes every selector created so far. On UNSAT the solver's assumption
  /// core names exactly the equalities the proof used; those pair ids go
  /// into PairOutcome::deps, and the serial apply step accepts the proof iff
  /// all of its dependencies were themselves accepted (induction: accepted
  /// deps are genuine facts, so a proof resting only on them is genuine).
  /// Refutations need no such screen: a model assigns the PIs and the
  /// Tseitin clauses force every node, so it is a real simulation vector
  /// regardless of what was speculated.
  ///
  /// The assumption vector grows in global pair-id order with the fresh
  /// miter selector last, so consecutive queries share a long assumption
  /// prefix and trail reuse (SolverOptions::trail_reuse) makes the
  /// re-assumption nearly free.
  void prove_chunk(const std::vector<ClassTask>& tasks, const std::vector<uint32_t>& off,
                   size_t lo, size_t hi, std::vector<TaskResult>& results) {
    auto ledger_scope = ledger::ScopedPurpose::weak(ledger::Purpose::kSweep);
    const bool ledger_on = ledger::enabled();
    const Timer chunk_wall;
    const double chunk_cpu0 = ledger_on ? ledger::thread_cpu_seconds() : 0;
    sat::Solver solver;
    solver.set_deadline(deadline_);
    eco::CancelToken slice;
    if (cancel_.valid()) {
      slice = cancel_.child(opts_.class_slice_seconds);
      solver.set_cancel(slice);
    }
    cnf::Encoder enc(reduced_, solver);
    std::vector<uint8_t> seeded;
    uint64_t phase_seeded = 0;
    const int64_t budget =
        opts_.proof_conflict_budget > 0 ? opts_.proof_conflict_budget : 20000;
    const auto member_lit = [this](const ClassTask& t, size_t j) {
      const bool rel = t.phases[j] != t.phases[0];
      return aig::lit_notif(rmap_[t.members[j]], rel);
    };
    std::vector<sat::Lit> assumps;  // selectors, pair-id order, miter last
    std::unordered_map<sat::Var, uint32_t> sel_pair;  // selector var -> pair id
    // Guarded fact `s -> (a == b)`; assumed (not asserted) so UNSAT cores can
    // report whether a proof leaned on it.
    const auto make_equal_sel = [&](uint32_t pair_id, sat::Lit a, sat::Lit b) {
      const sat::Lit s = sat::mk_lit(solver.new_var());
      solver.add_ternary(~s, ~a, b);
      solver.add_ternary(~s, a, ~b);
      sel_pair.emplace(s.var(), pair_id);
      return s;
    };

    // Build the whole chunk CNF up front — Tseitin cones, own equality
    // guards, own miter selectors, then speculated equality guards — so no
    // clause lands after the first solve. add_clause cancels the trail to
    // level 0, so interleaving clauses with queries would re-propagate the
    // entire assumption stack on every pair; front-loading keeps the shared
    // prefix hot across the whole query sequence.
    struct OwnPair {
      sat::Lit rep;  ///< representative, phase-adjusted, encoded
      sat::Lit mem;  ///< member, phase-adjusted, encoded
      sat::Lit t;    ///< miter selector: t -> rep != member
      sat::Lit s;    ///< equality selector: s -> rep == member
    };
    std::vector<std::vector<OwnPair>> own(hi - lo);
    for (size_t ci = lo; ci < hi; ++ci) {
      const ClassTask& task = tasks[ci];
      results[ci].outcomes.resize(task.members.size() - 1);
      if (interrupted() || !solver.okay()) continue;
      const sat::Lit rep_lit = enc.lit(rmap_[task.members[0]]);
      auto& pairs = own[ci - lo];
      pairs.reserve(task.members.size() - 1);
      for (size_t j = 1; j < task.members.size(); ++j) {
        const sat::Lit mem_lit = enc.lit(member_lit(task, j));
        OwnPair p;
        p.rep = rep_lit;
        p.mem = mem_lit;
        p.t = sat::mk_lit(solver.new_var());
        solver.add_ternary(~p.t, rep_lit, mem_lit);
        solver.add_ternary(~p.t, ~rep_lit, ~mem_lit);
        p.s = make_equal_sel(off[ci] + static_cast<uint32_t>(j - 1), rep_lit, mem_lit);
        pairs.push_back(p);
      }
    }
    // Speculate a lower class's equality only when both sides already sit
    // inside this chunk's encoded cones: those are the only equalities that
    // can prune this chunk's queries, and encoding anything more would make
    // every chunk encode every cone below it — quadratic total work instead
    // of work proportional to the chunk's own cones.
    for (size_t ci = 0; ci < lo; ++ci) {
      if (!solver.okay()) break;
      const ClassTask& below = tasks[ci];
      if (below.near_const) continue;  // the usual home of false candidates
      const aig::Lit rep_rl = rmap_[below.members[0]];
      if (!enc.encoded(aig::lit_node(rep_rl))) continue;
      const sat::Lit rep_lit = enc.lit(rep_rl);
      for (size_t j = 1; j < below.members.size(); ++j) {
        const aig::Lit mem_rl = member_lit(below, j);
        if (!enc.encoded(aig::lit_node(mem_rl))) continue;
        assumps.push_back(make_equal_sel(off[ci] + static_cast<uint32_t>(j - 1), rep_lit,
                                         enc.lit(mem_rl)));
      }
    }
    phase_seeded += seed_phases(solver, enc, seeded);
    // Every clause is loaded, so the stats from here on are the solves' own.
    const sat::SolverStats loaded = solver.stats();

    // Query sequence: each pair assumes every selector so far plus its own
    // miter selector t. Afterwards the pair is retired by appending its
    // equality selector (proven: feeds the fact forward under its pair id)
    // or ~t (otherwise: keeps the search out of that miter subspace), so
    // consecutive assumption vectors differ only in their tail and trail
    // reuse re-propagates just the last level or two.
    //
    // Every SAT model doubles as a simulation vector over the chunk's
    // encoded cones (the Tseitin clauses force each node to its value under
    // the model's PIs), so it is replayed over every pair not yet decided:
    // any pair the model distinguishes is refuted on the spot, no solve
    // needed. Chains of pairwise-inequivalent nodes with identical bank
    // signatures collapse in a couple of queries instead of one SAT model
    // per member (the counterexample-resimulation step of classic fraig).
    for (size_t ci = lo; ci < hi; ++ci) {
      const ClassTask& task = tasks[ci];
      TaskResult& result = results[ci];
      const auto& pairs = own[ci - lo];
      for (size_t j = 1; j < task.members.size() && j - 1 < pairs.size(); ++j) {
        PairOutcome& out = result.outcomes[j - 1];
        const OwnPair& p = pairs[j - 1];
        if (out.verdict != 0) {  // refuted by an earlier model replay
          assumps.push_back(~p.t);
          continue;
        }
        if (deadline_.expired() || (slice.valid() && slice.cancelled()) ||
            !solver.okay()) {  // verdict 0: abandoned
          assumps.push_back(~p.t);
          continue;
        }
        solver.set_conflict_budget(budget);
        assumps.push_back(p.t);
        const sat::LBool res = solver.solve(assumps);
        assumps.pop_back();
        if (res.is_false()) {
          out.verdict = 1;
          for (const sat::Lit c : solver.core()) {
            const auto it = sel_pair.find(c.var());
            if (it != sel_pair.end()) out.deps.push_back(it->second);
          }
          // Feed the proof forward: later pairs may lean on this equality
          // and will pick up its pair id as a dependency via the core.
          assumps.push_back(p.s);
        } else {
          if (res.is_true()) {
            out.verdict = -1;
            out.pattern.assign(g_.num_pis(), false);
            for (uint32_t i = 0; i < reduced_.num_pis(); ++i) {
              const aig::Node pn = reduced_.pi_node(i);
              if (enc.encoded(pn)) out.pattern[i] = solver.model_value(enc.var(pn));
            }
            // Replay the model over everything still pending in this chunk.
            // Only the solved pair keeps the pattern (replayed refutes would
            // bank duplicates); the memo still retires every one of them.
            for (size_t ck = ci; ck < hi; ++ck) {
              const auto& kpairs = own[ck - lo];
              auto& kout = results[ck].outcomes;
              for (size_t q = ck == ci ? j : 1;
                   q - 1 < kpairs.size() && q < tasks[ck].members.size(); ++q) {
                if (kout[q - 1].verdict != 0) continue;
                const OwnPair& kp = kpairs[q - 1];
                if (solver.model_value(kp.rep) != solver.model_value(kp.mem))
                  kout[q - 1].verdict = -1;  // pattern left empty: not banked
              }
            }
          }
          assumps.push_back(~p.t);
        }
      }
    }
    if (lo < results.size()) {
      results[lo].phase_seeded = phase_seeded;
      add_search_work(results[lo].work, solver.stats(), loaded);
    }
    if (ledger_on) {
      ledger::Record r;
      r.kind = ledger::Kind::kSweepChunk;
      r.wall_seconds = chunk_wall.seconds();
      r.cpu_seconds = ledger::thread_cpu_seconds() - chunk_cpu0;
      r.conflicts = solver.stats().conflicts;
      r.decisions = solver.stats().decisions;
      r.propagations = solver.stats().propagations;
      r.vars = static_cast<uint32_t>(hi - lo);  // classes in the chunk
      r.result = ledger::QueryResult::kUndef;   // a batch, not one verdict
      if (deadline_.expired()) r.cancel = ledger::CancelCause::kDeadline;
      ledger::append(r);
    }
  }

  /// Applies task results serially in (class, member) order: unions the
  /// proven pairs and harvests refutation counterexamples into the bank.
  ///
  /// A proof is accepted iff every dependency in its assumption core is an
  /// accepted *proof* (induction over ascending pair ids: accepted deps are
  /// genuine equalities, so the proof is genuine); proofs resting on a
  /// refuted or budget-exhausted speculation are downgraded to undef and
  /// retried next round. Refutations are unconditionally genuine — the
  /// model is a real input vector and simulation is ground truth — so they
  /// always count, feed the bank, and enter the refuted-pair memo that
  /// keeps build_classes from re-pairing them. Returns true when the round
  /// made progress.
  bool apply(const std::vector<ClassTask>& tasks, const std::vector<uint32_t>& off,
             std::vector<TaskResult>& results) {
    uint64_t proofs = 0;
    uint64_t added = 0;
    uint64_t memo_new = 0;
    std::vector<uint8_t> valid(off.back(), 0);  // pair id -> accepted proof
    for (size_t ci = 0; ci < tasks.size(); ++ci) {
      const ClassTask& task = tasks[ci];
      TaskResult& result = results[ci];
      stats_.phase_seeded += result.phase_seeded;
      add_search_work(work_, result.work, sat::SolverStats{});
      for (size_t j = 1; j < task.members.size(); ++j) {
        const PairOutcome& out = result.outcomes[j - 1];
        const uint32_t pair_id = off[ci] + static_cast<uint32_t>(j - 1);
        if (out.verdict == 1) {
          bool deps_ok = true;
          for (const uint32_t d : out.deps) {
            if (d >= pair_id || valid[d] == 0) {
              deps_ok = false;
              break;
            }
          }
          if (deps_ok) {
            valid[pair_id] = 1;
            const bool rel = task.phases[j] != task.phases[0];
            merge(task.members[0], task.members[j], rel);
            stats_.proofs += 1;
            ++proofs;
          } else {
            stats_.undefs += 1;
          }
        } else if (out.verdict == -1) {
          stats_.refutes += 1;
          const bool rel = task.phases[j] != task.phases[0];
          if (refuted_.insert(pair_key(task.members[0], task.members[j], rel)).second)
            ++memo_new;
          // Model-replay refutes carry no pattern (the solved pair banked it).
          if (!out.pattern.empty() && !bank_.full() && bank_.add_pattern(out.pattern)) {
            stats_.cex_splits += 1;
            ++added;
          }
        } else {
          stats_.undefs += 1;
        }
      }
    }
    // Refuted-pair memo entries alone are not progress: once a round neither
    // proves anything nor banks a splitting pattern, further rounds would
    // only churn through pairwise refutations of re-anchored subclasses
    // (each round one model per subclass) without ever shrinking the miter.
    (void)memo_new;
    return proofs > 0 || added > 0;
  }

  /// Memo key for a refuted (root, child, relative-phase) pair; root < child
  /// (class members ascend and the representative is the smallest).
  static uint64_t pair_key(aig::Node root, aig::Node child, bool rel) noexcept {
    return (static_cast<uint64_t>(root) << 33) | (static_cast<uint64_t>(child) << 1) |
           static_cast<uint64_t>(rel);
  }

  const aig::Aig& g_;
  const SweepOptions opts_;
  const eco::Deadline& deadline_;
  const eco::CancelToken& cancel_;
  util::Executor* executor_;

  aig::SimBank bank_;
  std::vector<uint8_t> in_cone_;
  std::vector<aig::Node> parent_;   ///< union-find parent (parent < child)
  std::vector<uint8_t> pphase_;     ///< phase relative to parent
  aig::Aig reduced_;
  std::vector<aig::Lit> rmap_;      ///< g node -> reduced literal
  std::vector<aig::Node> rowner_;   ///< reduced node -> first producing g root
  std::vector<float> prob1_;        ///< reduced node -> P(value == 1)
  std::vector<EquivPair> proven_;
  /// SAT-refuted (root, child, rel) pairs — see pair_key. Consulted by
  /// build_classes so a refutation is final even when the bank is too full
  /// to absorb its counterexample pattern.
  std::unordered_set<uint64_t> refuted_;
  SweepStats stats_;
  sat::SolverStats work_;
};

void publish_telemetry(const SweepStats& stats) {
  ECO_TELEMETRY_COUNT("sweep.classes", stats.classes);
  ECO_TELEMETRY_COUNT("sweep.proofs", stats.proofs);
  ECO_TELEMETRY_COUNT("sweep.refutes", stats.refutes);
  ECO_TELEMETRY_COUNT("sweep.merges", stats.merges);
  ECO_TELEMETRY_COUNT("sweep.cex_splits", stats.cex_splits);
  if (stats.undefs > 0) ECO_TELEMETRY_COUNT("sweep.undefs", stats.undefs);
  if (stats.phase_seeded > 0) ECO_TELEMETRY_COUNT("sweep.phase_seeded", stats.phase_seeded);
}

}  // namespace

SweepResult sweep_check(const aig::Aig& g, aig::Lit root, int64_t conflict_budget,
                        const eco::Deadline& deadline,
                        std::span<const std::vector<bool>> seed_patterns,
                        const eco::CancelToken& cancel, util::Executor* executor,
                        const SweepOptions& options) {
  ECO_TELEMETRY_PHASE("sweep");
  ECO_TELEMETRY_COUNT("sweep.checks");
  // Weak: the engine's verification opens kVerify above this entry point.
  auto ledger_scope = ledger::ScopedPurpose::weak(ledger::Purpose::kSweep);
  const bool ledger_on = ledger::enabled();
  const Timer check_wall;
  const double check_cpu0 = ledger_on ? ledger::thread_cpu_seconds() : 0;
  // Search work of the check's solves (class proofs and the final root
  // query), i.e. the sum of the `solve` records they append.
  sat::SolverStats work;
  auto append_check = [&](const SweepResult& res, bool sim_hit) {
    publish_telemetry(res.stats);
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
    r.result = res.cec.status == Status::kEquivalent      ? ledger::QueryResult::kUnsat
               : res.cec.status == Status::kNotEquivalent ? ledger::QueryResult::kSat
                                                          : ledger::QueryResult::kUndef;
    ledger::append(r);
  };

  SweepResult result;
  if (root == aig::kLitFalse) {
    result.cec.status = Status::kEquivalent;
    append_check(result, false);
    return result;
  }
  if (root == aig::kLitTrue) {
    result.cec.status = Status::kNotEquivalent;
    result.cec.counterexample.assign(g.num_pis(), false);
    append_check(result, false);
    return result;
  }

  Sweeper sweeper(g, root, options, deadline, cancel, executor);
  sweeper.add_seed_patterns(seed_patterns);

  // The bank's random patterns (plus the caller's seeds) double as the
  // simulation screen: any pattern exciting the root decides the check.
  std::vector<bool> witness;
  if (sweeper.bank_hit(root, witness)) {
    result.cec.status = Status::kNotEquivalent;
    result.cec.counterexample = std::move(witness);
    result.stats = sweeper.stats();
    append_check(result, true);
    return result;
  }

  sweeper.run();
  result.proven = sweeper.take_proven();
  work = sweeper.work();

  // Counterexamples harvested during the sweep may already excite the root.
  if (sweeper.bank_hit(root, witness)) {
    result.cec.status = Status::kNotEquivalent;
    result.cec.counterexample = std::move(witness);
    result.stats = sweeper.stats();
    append_check(result, true);
    return result;
  }

  const aig::Lit rl = sweeper.image(root);
  if (rl == aig::kLitFalse) {
    // The sweep merged the root to constant 0: equivalent by construction.
    result.cec.status = Status::kEquivalent;
    result.stats = sweeper.stats();
    append_check(result, false);
    return result;
  }
  if (rl == aig::kLitTrue) {
    result.cec.status = Status::kNotEquivalent;
    result.cec.counterexample.assign(g.num_pis(), false);
    result.stats = sweeper.stats();
    append_check(result, false);
    return result;
  }

  // Final root query on the reduced miter (every proven merge already
  // applied, so this is the small residue the sweep could not settle).
  const aig::Aig& reduced = sweeper.reduced();
  sat::Solver solver;
  solver.set_deadline(deadline);
  solver.set_cancel(cancel);
  cnf::Encoder enc(reduced, solver);
  const sat::Lit out = enc.lit(rl);
  std::vector<uint8_t> seeded;
  SweepStats stats = sweeper.stats();
  stats.phase_seeded += sweeper.seed_phases(solver, enc, seeded);
  solver.add_unit(out);
  if (conflict_budget >= 0) solver.set_conflict_budget(conflict_budget);
  const sat::SolverStats before = solver.stats();
  const sat::LBool verdict = solver.solve();
  add_search_work(work, solver.stats(), before);
  if (verdict.is_false()) {
    result.cec.status = Status::kEquivalent;
  } else if (verdict.is_true()) {
    result.cec.status = Status::kNotEquivalent;
    result.cec.counterexample.assign(g.num_pis(), false);
    for (uint32_t i = 0; i < reduced.num_pis(); ++i) {
      const aig::Node pn = reduced.pi_node(i);
      if (enc.encoded(pn)) result.cec.counterexample[i] = solver.model_value(enc.var(pn));
    }
  }
  result.stats = stats;
  append_check(result, false);
  return result;
}

}  // namespace eco::cec
