#include "eco/simfilter.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>

#include "util/telemetry.hpp"

namespace eco::core {

// ---------------------------------------------------------------------------
// SimFilterOptions: process-wide, env-seeded defaults (ECO_SAT_* convention)
// ---------------------------------------------------------------------------

namespace {

SimFilterOptions env_seeded_defaults() {
  SimFilterOptions o;
  if (const char* v = std::getenv("ECO_SIM_BANK"))
    o.enabled = !(v[0] == '0' && v[1] == '\0');
  return o;
}

SimFilterOptions& mutable_defaults() {
  static SimFilterOptions o = env_seeded_defaults();
  return o;
}

aig::SimBankOptions bank_options(const SimFilterOptions& o) {
  aig::SimBankOptions b;
  b.seed_words = o.seed_words;
  b.capacity_words = o.capacity_words;
  b.memory_budget_bytes = o.memory_budget_bytes;
  b.seed = o.seed;
  return b;
}

}  // namespace

std::optional<std::pair<uint32_t, uint32_t>> indistinguishable_pair(
    aig::SimBank& bank, std::span<const uint64_t> on, std::span<const uint64_t> off,
    std::span<const aig::Lit> lits) {
  const size_t words = bank.num_words();
  size_t num_on = 0;
  for (size_t w = 0; w < words; ++w) num_on += static_cast<size_t>(std::popcount(on[w]));
  if (num_on == 0) return std::nullopt;
  // Row pointers + complement masks, resolved once (spans are stable: the
  // bank is synced and not grown inside this function).
  std::vector<std::span<const uint64_t>> rows;
  std::vector<uint64_t> compl_mask;
  rows.reserve(lits.size());
  compl_mask.reserve(lits.size());
  for (const aig::Lit l : lits) {
    rows.push_back(bank.row(aig::lit_node(l)));
    compl_mask.push_back(aig::lit_compl(l) ? ~0ULL : 0ULL);
  }
  const size_t sig_words = lits.size() / 64 + 1;
  const auto write_signature = [&](uint32_t p, uint64_t* sig) {
    std::fill(sig, sig + sig_words, 0);
    const size_t w = p / 64;
    const uint32_t b = p % 64;
    for (size_t j = 0; j < rows.size(); ++j)
      sig[j / 64] |= (((rows[j][w] ^ compl_mask[j]) >> b) & 1ULL) << (j % 64);
  };

  // One signature row per distinct on-set signature, owned by the first
  // on-set pattern that has it, plus a last row for the probe key. The
  // index is open addressing over row numbers, at most half full.
  std::vector<uint64_t> sigs((num_on + 1) * sig_words);
  std::vector<uint32_t> owner(num_on);
  constexpr uint32_t kEmpty = UINT32_MAX;
  const size_t slots = std::bit_ceil(2 * num_on);
  std::vector<uint32_t> index(slots, kEmpty);
  const int shift = 64 - std::countr_zero(slots);
  // The slot holding \p sig's row, or the empty slot where it belongs.
  const auto find = [&](const uint64_t* sig) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t k = 0; k < sig_words; ++k) h = (h ^ sig[k]) * 0xff51afd7ed558ccdULL;
    size_t i = static_cast<size_t>((h * 0x9e3779b97f4a7c15ULL) >> shift);
    while (index[i] != kEmpty &&
           !std::equal(sig, sig + sig_words, &sigs[index[i] * sig_words]))
      i = (i + 1) & (slots - 1);
    return i;
  };

  uint32_t num_rows = 0;
  for (size_t w = 0; w < words; ++w)
    for (uint64_t bits = on[w]; bits != 0; bits &= bits - 1) {
      const uint32_t p = static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits));
      write_signature(p, &sigs[num_rows * sig_words]);
      const size_t i = find(&sigs[num_rows * sig_words]);
      if (index[i] != kEmpty) continue;
      index[i] = num_rows;
      owner[num_rows++] = p;
    }
  uint64_t* const key = &sigs[num_rows * sig_words];
  for (size_t w = 0; w < words; ++w)
    for (uint64_t bits = off[w]; bits != 0; bits &= bits - 1) {
      const uint32_t p = static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits));
      write_signature(p, key);
      const size_t i = find(key);
      if (index[i] != kEmpty) return std::make_pair(owner[index[i]], p);
    }
  return std::nullopt;
}

const SimFilterOptions& SimFilterOptions::defaults() noexcept { return mutable_defaults(); }

void SimFilterOptions::set_defaults(const SimFilterOptions& opts) noexcept {
  mutable_defaults() = opts;
}

// ---------------------------------------------------------------------------
// SimFilter
// ---------------------------------------------------------------------------

SimFilter::SimFilter(const EcoMiter& m, uint32_t target, const SimFilterOptions& options)
    : m_(&m), target_(target), bank_(m.aig, bank_options(options)) {}

void SimFilter::seed_prefixes(std::span<const std::vector<bool>> prefixes) {
  assert(recorded_off_.empty() && "seed_prefixes() after a counterexample");
  const uint32_t target_pi = m_->target_pi(target_);
  std::vector<bool> pattern(m_->aig.num_pis(), false);
  for (const auto& prefix : prefixes) {
    std::fill(pattern.begin(), pattern.end(), false);
    std::copy_n(prefix.begin(), std::min<size_t>(prefix.size(), m_->num_x), pattern.begin());
    for (const bool value : {false, true}) {
      pattern[target_pi] = value;
      if (!bank_.add_pattern(pattern)) return;
      ++num_seeded_;
    }
  }
}

void SimFilter::add_counterexample(const std::vector<bool>& pi_values, bool off_set) {
  if (!bank_.add_pattern(pi_values)) {
    ++dropped_full_;
    return;
  }
  recorded_off_.push_back(off_set ? 1 : 0);
  ++stats_.bank_patterns;
  ECO_TELEMETRY_COUNT("sim.bank_patterns");
}

uint32_t SimFilter::num_counterexamples() const noexcept {
  return static_cast<uint32_t>(recorded_off_.size());
}

std::vector<bool> SimFilter::counterexample_pattern(uint32_t i) {
  return bank_.pattern(bank_.num_seed_patterns() + num_seeded_ + i);
}

void SimFilter::classify(std::vector<uint64_t>& on, std::vector<uint64_t>& off) {
  const size_t words = bank_.num_words();
  const auto out_row = bank_.row(aig::lit_node(m_->out));
  const auto tgt_row = bank_.row(aig::lit_node(m_->target_lit(target_)));
  const uint64_t out_c = aig::lit_compl(m_->out) ? ~0ULL : 0ULL;
  const uint64_t tgt_c = aig::lit_compl(m_->target_lit(target_)) ? ~0ULL : 0ULL;
  on.resize(words);
  off.resize(words);
  for (size_t w = 0; w < words; ++w) {
    const uint64_t o = (out_row[w] ^ out_c) & bank_.valid_mask(w);
    const uint64_t t = tgt_row[w] ^ tgt_c;
    on[w] = o & ~t;
    off[w] = o & t;
  }
}

bool SimFilter::refutes_subset(std::span<const size_t> subset) {
  witness_.reset();
  if (bank_.num_patterns() == 0) return false;
  std::vector<uint64_t> on, off;
  classify(on, off);
  std::vector<aig::Lit> lits;
  lits.reserve(subset.size());
  for (const size_t g : subset) lits.push_back(m_->divisor_lits[g]);
  witness_ = indistinguishable_pair(bank_, on, off, lits);
  if (!witness_) return false;
  ++stats_.refuted_support;
  ECO_TELEMETRY_COUNT("sim.refuted_support");
  return true;
}

std::vector<size_t> SimFilter::separator(std::span<const size_t> candidates) {
  assert(witness_ && "separator() without a preceding successful refutes_subset()");
  std::vector<size_t> out;
  for (const size_t g : candidates) {
    const aig::Lit dl = m_->divisor_lits[g];
    if (bank_.value(dl, witness_->first) != bank_.value(dl, witness_->second))
      out.push_back(g);
  }
  return out;
}

void SimFilter::begin_irredundancy(const sop::Cover& cover,
                                   const std::vector<size_t>& support) {
  const size_t words = bank_.num_words();
  std::vector<uint64_t> off;
  classify(ir_on_mask_, off);
  cube_inside_.assign(cover.cubes.size(), std::vector<uint64_t>(words, ~0ULL));
  for (size_t c = 0; c < cover.cubes.size(); ++c) {
    for (const sop::Lit l : cover.cubes[c].lits()) {
      const aig::Lit dl = m_->divisor_lits[support[sop::lit_var(l)]];
      const auto row = bank_.row(aig::lit_node(dl));
      const uint64_t cm =
          (aig::lit_compl(dl) != sop::lit_negated(l)) ? ~0ULL : 0ULL;
      for (size_t w = 0; w < words; ++w) cube_inside_[c][w] &= row[w] ^ cm;
    }
  }
}

bool SimFilter::witnesses_cube_necessity(size_t index, const std::vector<uint8_t>& kept) {
  if (ir_on_mask_.empty()) return false;
  const size_t words = ir_on_mask_.size();
  std::vector<uint64_t> acc(words);
  bool any = false;
  for (size_t w = 0; w < words; ++w) {
    acc[w] = ir_on_mask_[w] & cube_inside_[index][w];
    any |= acc[w] != 0;
  }
  if (!any) return false;
  for (size_t j = 0; j < cube_inside_.size(); ++j) {
    if (j == index || !kept[j]) continue;
    any = false;
    for (size_t w = 0; w < words; ++w) {
      acc[w] &= ~cube_inside_[j][w];
      any |= acc[w] != 0;
    }
    if (!any) return false;
  }
  ++stats_.irredundant_hits;
  ECO_TELEMETRY_COUNT("sim.irredundant_hits");
  return true;
}

std::vector<std::vector<bool>> SimFilter::counterexample_prefixes(uint32_t prefix_pis,
                                                                  size_t max) {
  std::vector<std::vector<bool>> out;
  const uint32_t n = num_counterexamples();
  for (uint32_t i = 0; i < n && out.size() < max; ++i) {
    std::vector<bool> full = counterexample_pattern(i);
    full.resize(prefix_pis);
    out.push_back(std::move(full));
  }
  return out;
}

SimFilterStats SimFilter::stats() const noexcept {
  SimFilterStats s = stats_;
  s.resim_nodes = bank_.resim_node_words();
  return s;
}

// ---------------------------------------------------------------------------
// ResubFilter
// ---------------------------------------------------------------------------

ResubFilter::ResubFilter(const aig::Aig& impl, const SimFilterOptions& options)
    : bank_(impl, bank_options(options)) {}

bool ResubFilter::refutes_dependency(aig::Lit func, const std::vector<Divisor>& divisors,
                                     std::span<const size_t> candidates) {
  if (bank_.num_patterns() == 0) return false;
  const size_t words = bank_.num_words();
  const auto frow = bank_.row(aig::lit_node(func));
  const uint64_t fc = aig::lit_compl(func) ? ~0ULL : 0ULL;
  std::vector<uint64_t> on(words), off(words);
  for (size_t w = 0; w < words; ++w) {
    const uint64_t f = (frow[w] ^ fc);
    on[w] = f & bank_.valid_mask(w);
    off[w] = ~f & bank_.valid_mask(w);
  }
  std::vector<aig::Lit> lits;
  lits.reserve(candidates.size());
  for (const size_t g : candidates) lits.push_back(divisors[g].lit);
  if (!indistinguishable_pair(bank_, on, off, lits)) return false;
  ++stats_.filtered_resub;
  ECO_TELEMETRY_COUNT("sim.filtered_resub");
  return true;
}

void ResubFilter::add_counterexample(const std::vector<bool>& pi_values) {
  if (!bank_.add_pattern(pi_values)) return;
  ++stats_.bank_patterns;
  ECO_TELEMETRY_COUNT("sim.bank_patterns");
}

SimFilterStats ResubFilter::stats() const noexcept {
  SimFilterStats s = stats_;
  s.resim_nodes = bank_.resim_node_words();
  return s;
}

}  // namespace eco::core
