/// \file simbank.hpp
/// \brief A growing bank of 64-bit-packed simulation patterns over one AIG.
///
/// The bank stores input patterns column-wise: every node owns a row of
/// 64-pattern words in ONE flat contiguous buffer (`[node][word]` layout,
/// indexed node * stride + w), so a node's signature over all patterns is
/// a cache-friendly span. The bank is seeded with random patterns and grows
/// with counterexamples (SAT models) appended by the engine; re-simulation
/// is incremental and lazy — only the word columns dirtied since the last
/// query are recomputed, and only when a row is actually read.
///
/// Storage follows use: the row stride starts at the seed words and doubles
/// (up to the capacity) on the add_pattern() call that needs a new column.
/// Only the constant and PI rows, which add_pattern() ORs into, are
/// zero-filled; an AND word is always simulated before it is read.
///
/// The underlying AIG may GROW after the bank is created (nodes appended in
/// topological order, e.g. by aig::transfer); the bank extends its storage
/// and simulates the new nodes on the next query. Adding PIs after
/// construction is not supported.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "aig/aig.hpp"

namespace eco::aig {

struct SimBankOptions {
  /// Random seed words (64 patterns each) filled at construction.
  uint32_t seed_words = 4;
  /// Hard cap on total words (counterexample capacity = 64 * words).
  uint32_t capacity_words = 16;
  /// The capacity is lowered so that storage (8 bytes * nodes * words)
  /// stays under this budget on large AIGs.
  uint64_t memory_budget_bytes = 64ull << 20;
  /// Seed of the random fill (decorrelated through SplitMix64::mix).
  uint64_t seed = 0x51bba9c5eedULL;
};

/// See file comment.
class SimBank {
 public:
  /// Keeps a reference to \p g; it must outlive the bank.
  SimBank(const Aig& g, const SimBankOptions& options);

  const Aig& aig() const noexcept { return *g_; }

  /// Patterns currently in the bank (seed + appended).
  uint32_t num_patterns() const noexcept { return num_patterns_; }
  /// How many of them are the random seed patterns (always the prefix).
  uint32_t num_seed_patterns() const noexcept { return num_seed_patterns_; }
  /// Words spanned by the current patterns (ceil(num_patterns / 64)).
  size_t num_words() const noexcept { return (num_patterns_ + 63) / 64; }
  /// Mask of the pattern bits valid in word \p w.
  uint64_t valid_mask(size_t w) const noexcept;
  bool full() const noexcept { return num_patterns_ >= capacity_words_ * 64; }

  /// Appends one pattern (one value per PI). Returns false when full.
  bool add_pattern(const std::vector<bool>& pi_values);

  /// Word row of node \p n over the current patterns (length num_words()).
  /// Triggers incremental re-simulation of dirty words / new nodes; the
  /// span is valid until the next add_pattern() or row() call.
  std::span<const uint64_t> row(Node n);

  /// Value of literal \p l under pattern \p index.
  bool value(Lit l, uint32_t index);

  /// PI values of pattern \p index (the inverse of add_pattern).
  std::vector<bool> pattern(uint32_t index);

  /// Node-word recomputation units spent on incremental re-simulation.
  uint64_t resim_node_words() const noexcept { return resim_node_words_; }

 private:
  void sync();
  /// Moves the known rows into a buffer of \p rows rows of \p stride words.
  void relayout(size_t rows, size_t stride);

  const Aig* g_;
  size_t capacity_words_ = 0;
  size_t stride_ = 0;        ///< words per row, at most capacity_words_
  size_t row_capacity_ = 0;  ///< rows allocated, at least known_nodes_
  uint32_t num_patterns_ = 0;
  uint32_t num_seed_patterns_ = 0;
  uint32_t known_nodes_ = 0;  ///< rows allocated+simulated for nodes [0, known)
  size_t clean_words_ = 0;    ///< word columns up to date for all known nodes
  /// Flat [node * stride_ + w]. Constant and PI rows are fully initialized;
  /// an AND row only in its first clean_words_ words.
  std::unique_ptr<uint64_t[]> words_;
  uint64_t resim_node_words_ = 0;
};

}  // namespace eco::aig
