/// \file simfilter.hpp
/// \brief Counterexample-driven simulation filtering of ECO SAT queries.
///
/// A SimFilter wraps a simulation pattern bank (aig/simbank.hpp) over one
/// target's ECO miter and classifies every pattern as an on-set point
/// (miter = 1, target = 0) or an off-set point (miter = 1, target = 1).
/// Because a support subset S is insufficient exactly when some on/off
/// pattern pair is indistinguishable by S's divisor signatures, the bank
/// *exactly refutes* subset checks without a SAT call — the witness pair is
/// a concrete SAT model, so answers are bit-identical with filtering on or
/// off. The bank starts from random patterns and grows with every SAT
/// counterexample the engine produces (failed support checks, satprune
/// witnesses, enumerated on-set points, resub dependency models), which is
/// what makes the filter sharp on precisely the subsets the engine probes.
///
/// A ResubFilter applies the same idea to the functional-resubstitution
/// dependency question over the implementation AIG: a pattern pair agreeing
/// on every candidate divisor but disagreeing on the patch function refutes
/// "the patch is a function of the candidates" exactly.
///
/// Gating follows the ECO_SAT_* convention: the process default is seeded
/// from `ECO_SIM_BANK` (unset/non-"0" = enabled, "0" = disabled) and can be
/// overridden per run (`--sim-bank`, EngineOptions::simfilter).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "aig/simbank.hpp"
#include "eco/miter.hpp"
#include "sop/cover.hpp"
#include "util/jsonw.hpp"

namespace eco::core {

struct SimFilterOptions {
  /// Master switch (ECO_SIM_BANK): when false the engine attaches no filter.
  bool enabled = true;
  /// Random seed patterns = 64 * seed_words.
  uint32_t seed_words = 4;
  /// Bank capacity = 64 * capacity_words (counterexamples stop being
  /// recorded once full; all answers stay exact).
  uint32_t capacity_words = 16;
  /// Per-bank storage budget; lowers the capacity on huge miters.
  uint64_t memory_budget_bytes = 64ull << 20;
  /// Seed for the random prefix of every bank.
  uint64_t seed = 0x51bba9c5eedULL;

  /// Process-wide defaults, seeded once from the environment
  /// (ECO_SIM_BANK=0 disables), mirroring sat::SolverOptions.
  static const SimFilterOptions& defaults() noexcept;
  static void set_defaults(const SimFilterOptions& opts) noexcept;
};

/// The sim-bank counters as an X-macro list (docs/OBSERVABILITY.md).
#define ECO_SIM_STATS(X)                                                      \
  X(refuted_support)  /* support subset checks answered by the bank */        \
  X(filtered_resub)   /* resub dependency checks answered by the bank */      \
  X(irredundant_hits) /* irredundancy SAT calls skipped (witness found) */    \
  X(bank_patterns)    /* counterexamples inserted into banks */               \
  X(resim_nodes)      /* incremental re-simulation node-words */

/// Counters of SAT work avoided; aggregated into EngineStats / telemetry.
struct SimFilterStats {
#define ECO_X(name) uint64_t name = 0;
  ECO_SIM_STATS(ECO_X)
#undef ECO_X
};

/// Writes `"name": value` per list entry into the open object of \p w.
inline void write_json(JsonWriter& w, const SimFilterStats& s) {
#define ECO_X(name) w.kv(#name, s.name);
  ECO_SIM_STATS(ECO_X)
#undef ECO_X
}

/// Searches \p bank for a pattern pair — one index with its bit set in \p on,
/// one in \p off — whose signatures over \p lits (bank literals) are equal.
/// Such a pair is exactly a model of the corresponding two-copy SAT
/// instance. Returns the first off-set pattern, in ascending order, whose
/// signature some on-set pattern has, paired with the first such on-set
/// pattern. \p on and \p off hold bank.num_words() words each.
std::optional<std::pair<uint32_t, uint32_t>> indistinguishable_pair(
    aig::SimBank& bank, std::span<const uint64_t> on, std::span<const uint64_t> off,
    std::span<const aig::Lit> lits);

/// Simulation filter for one target's (quantified) ECO miter.
class SimFilter {
 public:
  /// Keeps references to \p m (and its AIG); they must outlive the filter.
  SimFilter(const EcoMiter& m, uint32_t target,
            const SimFilterOptions& options = SimFilterOptions::defaults());

  // -- Bank growth ---------------------------------------------------------

  /// Seeds the bank with shared-input patterns known from elsewhere (a warm
  /// session's counterexample prefixes): each prefix becomes two patterns,
  /// with this target's PI at 0 and at 1, and every other PI past the
  /// prefix at 0. They are bank patterns like the random seeds, not
  /// counterexamples of this run, so counterexample_prefixes() skips them.
  /// Must precede the first add_counterexample(); stops when the bank fills.
  void seed_prefixes(std::span<const std::vector<bool>> prefixes);

  /// Records a SAT counterexample: a full miter-PI assignment. \p off_set
  /// is the class claimed by the SAT model (false = on-set copy M(0,x),
  /// true = off-set copy M(1,x)); the filter itself classifies by
  /// simulation, so the claim is checkable (see recorded_off()).
  void add_counterexample(const std::vector<bool>& pi_values, bool off_set);

  // -- Support subset refutation (paper §3.4) ------------------------------

  /// True when the bank holds an on/off pattern pair no divisor of
  /// \p subset (global divisor indices) distinguishes — an exact witness
  /// that the subset is insufficient. Remembers the pair for separator().
  bool refutes_subset(std::span<const size_t> subset);

  /// After refutes_subset() returned true: the divisors among
  /// \p candidates that distinguish the witness pair (the satprune
  /// separator clause of that concrete model pair).
  std::vector<size_t> separator(std::span<const size_t> candidates);

  // -- Irredundancy witnesses (paper §3.5) ---------------------------------

  /// Prepares cube-membership masks for witnesses_cube_necessity().
  /// \p support maps SOP variables to global divisor indices.
  void begin_irredundancy(const sop::Cover& cover, const std::vector<size_t>& support);

  /// True when a bank on-set pattern lies inside cube \p index and outside
  /// every other cube j with kept[j] — the exact SAT witness that the cube
  /// is necessary, making the irredundancy query for it skippable.
  bool witnesses_cube_necessity(size_t index, const std::vector<uint8_t>& kept);

  // -- CEC seeding ---------------------------------------------------------

  /// The first \p prefix_pis values of up to \p max recorded
  /// counterexamples (skipping the random and seed_prefixes() patterns),
  /// for seeding the final verification's simulation screen.
  std::vector<std::vector<bool>> counterexample_prefixes(uint32_t prefix_pis,
                                                         size_t max);

  // -- Introspection -------------------------------------------------------

  aig::SimBank& bank() noexcept { return bank_; }
  const EcoMiter& miter() const noexcept { return *m_; }
  /// Counterexamples recorded (excludes the random seed prefix).
  uint32_t num_counterexamples() const noexcept;
  /// The class recorded at insertion for counterexample \p i (0-based).
  bool recorded_off(uint32_t i) const noexcept { return recorded_off_[i] != 0; }
  /// Full PI pattern of counterexample \p i.
  std::vector<bool> counterexample_pattern(uint32_t i);
  /// Cumulative counters (resim_nodes/bank sizes sampled at call time).
  SimFilterStats stats() const noexcept;

 private:
  void classify(std::vector<uint64_t>& on, std::vector<uint64_t>& off);

  const EcoMiter* m_;
  uint32_t target_;
  aig::SimBank bank_;
  uint32_t num_seeded_ = 0;            ///< seed_prefixes() patterns
  std::vector<uint8_t> recorded_off_;  ///< per counterexample, insertion order
  uint64_t dropped_full_ = 0;          ///< counterexamples not recorded (bank full)
  SimFilterStats stats_;
  // Witness pair of the last successful refutes_subset().
  std::optional<std::pair<uint32_t, uint32_t>> witness_;
  // Irredundancy state: per-cube membership masks + the on-set mask.
  std::vector<std::vector<uint64_t>> cube_inside_;
  std::vector<uint64_t> ir_on_mask_;
};

/// Simulation filter for functional resubstitution over the implementation
/// AIG (shared by every target of the structural path; the AIG may grow).
class ResubFilter {
 public:
  explicit ResubFilter(const aig::Aig& impl,
                       const SimFilterOptions& options = SimFilterOptions::defaults());

  /// True when two bank patterns agree on every candidate divisor but
  /// disagree on \p func — the exact witness that \p func is not a function
  /// of the candidates, making the dependency SAT check skippable.
  bool refutes_dependency(aig::Lit func, const std::vector<Divisor>& divisors,
                          std::span<const size_t> candidates);

  /// Records a dependency-model pattern (full implementation-PI assignment).
  void add_counterexample(const std::vector<bool>& pi_values);

  aig::SimBank& bank() noexcept { return bank_; }
  SimFilterStats stats() const noexcept;

 private:
  aig::SimBank bank_;
  SimFilterStats stats_;
};

}  // namespace eco::core
