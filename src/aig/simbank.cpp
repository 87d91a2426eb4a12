#include "aig/simbank.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "aig/sim.hpp"
#include "util/telemetry.hpp"

namespace eco::aig {

SimBank::SimBank(const Aig& g, const SimBankOptions& options) : g_(&g) {
  // Scale the word capacity down so the flat storage respects the memory
  // budget on large (e.g. quantified-miter) AIGs; always keep one word.
  const uint64_t nodes = std::max<uint64_t>(1, g.num_nodes());
  const uint64_t budget_words = options.memory_budget_bytes / (8 * nodes);
  capacity_words_ =
      std::max<uint64_t>(1, std::min<uint64_t>(options.capacity_words, budget_words));
  const size_t seed_words = std::min<size_t>(options.seed_words, capacity_words_);

  stride_ = std::max<size_t>(1, seed_words);
  row_capacity_ = known_nodes_ = g.num_nodes();
  words_ = std::make_unique_for_overwrite<uint64_t[]>(row_capacity_ * stride_);
  // The constant and PI rows are the first ones.
  std::fill_n(words_.get(), (static_cast<size_t>(g.num_pis()) + 1) * stride_, 0);

  // Random seed patterns: one SplitMix64 stream fills every PI word.
  const std::vector<uint64_t> pi_words = random_pi_words(g, options.seed, seed_words);
  for (uint32_t i = 0; i < g.num_pis(); ++i)
    std::copy_n(pi_words.data() + i * seed_words, seed_words,
                &words_[static_cast<size_t>(g.pi_node(i)) * stride_]);
  num_patterns_ = static_cast<uint32_t>(seed_words * 64);
  num_seed_patterns_ = num_patterns_;
  clean_words_ = 0;  // AND rows simulated lazily on the first query
}

uint64_t SimBank::valid_mask(size_t w) const noexcept {
  const size_t full = num_patterns_ / 64;
  if (w < full) return ~0ULL;
  const uint32_t rem = num_patterns_ % 64;
  return (w == full && rem != 0) ? (1ULL << rem) - 1 : 0ULL;
}

bool SimBank::add_pattern(const std::vector<bool>& pi_values) {
  assert(pi_values.size() == g_->num_pis());
  if (full()) return false;
  const uint32_t pos = num_patterns_;
  const size_t w = pos / 64;
  if (w == stride_) relayout(row_capacity_, std::min(2 * stride_, capacity_words_));
  const uint64_t bit = 1ULL << (pos % 64);
  for (uint32_t i = 0; i < g_->num_pis(); ++i)
    if (pi_values[i]) words_[static_cast<size_t>(g_->pi_node(i)) * stride_ + w] |= bit;
  ++num_patterns_;
  clean_words_ = std::min(clean_words_, w);
  return true;
}

void SimBank::relayout(size_t rows, size_t stride) {
  auto next = std::make_unique_for_overwrite<uint64_t[]>(rows * stride);
  uint64_t* const dst = next.get();
  const uint64_t* const src = words_.get();
  // Constant and PI rows keep every word and are zero past them; AND rows
  // keep their clean words, the rest is simulated before it is read.
  const size_t inputs = static_cast<size_t>(g_->num_pis()) + 1;
  const size_t keep = std::min(stride_, stride);
  for (size_t n = 0; n < inputs; ++n) {
    std::memcpy(dst + n * stride, src + n * stride_, keep * sizeof(uint64_t));
    std::fill(dst + n * stride + keep, dst + (n + 1) * stride, 0);
  }
  for (size_t n = inputs; n < known_nodes_; ++n)
    std::memcpy(dst + n * stride, src + n * stride_, clean_words_ * sizeof(uint64_t));
  words_ = std::move(next);
  stride_ = stride;
  row_capacity_ = rows;
}

void SimBank::sync() {
  const size_t target_words = num_words();
  // New nodes appended to the AIG since the last sync: allocate their rows
  // (AND only — adding PIs post-construction is unsupported) and simulate
  // them over every already-clean word so only the dirty-word pass below
  // remains.
  if (g_->num_nodes() > known_nodes_) {
    assert(g_->num_pis() + 1 <= known_nodes_ && "PIs added after SimBank creation");
    if (g_->num_nodes() > row_capacity_)
      relayout(std::max<size_t>(g_->num_nodes(), 2 * row_capacity_), stride_);
    for (Node n = known_nodes_; n < g_->num_nodes(); ++n) {
      const Lit a = g_->fanin0(n);
      const Lit b = g_->fanin1(n);
      const uint64_t* wa = &words_[static_cast<size_t>(lit_node(a)) * stride_];
      const uint64_t* wb = &words_[static_cast<size_t>(lit_node(b)) * stride_];
      uint64_t* wn = &words_[static_cast<size_t>(n) * stride_];
      const uint64_t ma = lit_compl(a) ? ~0ULL : 0ULL;
      const uint64_t mb = lit_compl(b) ? ~0ULL : 0ULL;
      for (size_t w = 0; w < clean_words_; ++w) wn[w] = (wa[w] ^ ma) & (wb[w] ^ mb);
    }
    const uint64_t grown =
        static_cast<uint64_t>(g_->num_nodes() - known_nodes_) * clean_words_;
    resim_node_words_ += grown;
    ECO_TELEMETRY_COUNT("sim.resim_nodes", grown);
    known_nodes_ = g_->num_nodes();
  }
  if (clean_words_ >= target_words) return;
  // Incremental pass: recompute only the dirty word columns
  // [clean_words_, target_words) of every AND node, in topological order.
  for (Node n = g_->num_pis() + 1; n < known_nodes_; ++n) {
    const Lit a = g_->fanin0(n);
    const Lit b = g_->fanin1(n);
    const uint64_t* wa = &words_[static_cast<size_t>(lit_node(a)) * stride_];
    const uint64_t* wb = &words_[static_cast<size_t>(lit_node(b)) * stride_];
    uint64_t* wn = &words_[static_cast<size_t>(n) * stride_];
    const uint64_t ma = lit_compl(a) ? ~0ULL : 0ULL;
    const uint64_t mb = lit_compl(b) ? ~0ULL : 0ULL;
    for (size_t w = clean_words_; w < target_words; ++w)
      wn[w] = (wa[w] ^ ma) & (wb[w] ^ mb);
  }
  const uint64_t resimmed = static_cast<uint64_t>(g_->num_ands()) *
                            static_cast<uint64_t>(target_words - clean_words_);
  resim_node_words_ += resimmed;
  ECO_TELEMETRY_COUNT("sim.resim_nodes", resimmed);
  clean_words_ = target_words;
}

std::span<const uint64_t> SimBank::row(Node n) {
  sync();
  assert(n < known_nodes_);
  return {&words_[static_cast<size_t>(n) * stride_], num_words()};
}

bool SimBank::value(Lit l, uint32_t index) {
  assert(index < num_patterns_);
  const uint64_t w = row(lit_node(l))[index / 64];
  const bool v = ((w >> (index % 64)) & 1ULL) != 0;
  return v != lit_compl(l);
}

std::vector<bool> SimBank::pattern(uint32_t index) {
  std::vector<bool> out(g_->num_pis());
  for (uint32_t i = 0; i < g_->num_pis(); ++i) out[i] = value(g_->pi_lit(i), index);
  return out;
}

}  // namespace eco::aig
