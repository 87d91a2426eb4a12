/// \file artifacts.hpp
/// \brief Content-addressed input artifacts and the warm session cache of
/// the patch service (docs/SERVICE.md).
///
/// Every ecopatchd job names its inputs by file path, but the service keys
/// its warm state by *content*: the artifact of a netlist file is keyed by
/// the 64-bit `content_hash` of the file bytes, so jobs hit the cache whenever
/// the bytes match — across renames, re-submissions, and concurrent
/// sessions — and never read stale state after an edit-in-place.
///
/// Three artifact kinds, in dependency order:
///  - `NetlistArtifact` — one parsed `net::Network` (impl or spec file),
///  - `WeightsArtifact` — one parsed `net::WeightMap`,
///  - `ProblemArtifact` — the fully elaborated `core::EcoProblem` (both
///    AIGs, target list, divisor candidates) keyed by the (impl, spec,
///    weights) hash triple. This is the expensive one: elaboration plus
///    divisor construction dominates the cold-start cost of small queries.
///    Its key doubles as the *session key* reported in job responses. The
///    problem artifact also carries the warm pattern store: shared-PI
///    counterexample prefixes harvested from previous runs on the same
///    problem (`EcoOutcome::harvested_patterns`), fed to the next run via
///    `EngineOptions::warm_patterns` so verification starts from the
///    stimuli that mattered before.
///
/// `SessionCache` holds all three behind one LRU, budgeted by a
/// `CancelToken` memory account (util/cancel.hpp): every insert charges an
/// approximate byte size, and the least-recently-used entries are evicted
/// until the account fits its budget again. Entries are handed out as
/// `shared_ptr`s, so eviction never invalidates an artifact a running job
/// still uses — it only drops the cache's reference (the accounting is
/// released at eviction, so the account tracks cache-held state, not
/// job-pinned state). A budget of 0 disables caching entirely: every load
/// parses fresh and stores nothing, which is both the CLI's one-shot mode
/// and the cold baseline of bench_service.
///
/// Thread safety: all SessionCache methods are safe to call concurrently.
/// Parsing happens outside the cache lock, so two jobs missing on the same
/// key may parse twice; the second insert adopts the first's entry.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "eco/problem.hpp"
#include "net/network.hpp"
#include "util/cancel.hpp"

namespace eco::service {

/// 64-bit content hash of \p bytes: xxHash64 with seed 0. Four independent
/// multiply-rotate lanes consume 32-byte stripes, eight little-endian bytes
/// per lane; then the lanes merge, the length and the 0-31 tail bytes fold
/// in, and a shift-multiply finalizer mixes every input bit into every
/// output bit. Word-wise, it runs several times faster than a byte-serial
/// hash, and every job hashes all three input files, hit or miss.
uint64_t content_hash(std::string_view bytes) noexcept;

/// Lower-hex rendering (16 digits) — the session-key wire format.
std::string hash_hex(uint64_t h);

/// One parsed netlist file, keyed by the content hash of its bytes.
struct NetlistArtifact {
  uint64_t hash = 0;
  net::Network network;
  uint64_t approx_bytes = 0;  ///< memory-account estimate
};

/// One parsed weight file.
struct WeightsArtifact {
  uint64_t hash = 0;
  net::WeightMap weights;
  uint64_t approx_bytes = 0;
};

/// A ready-to-solve problem plus the warm pattern store. The problem itself
/// is immutable after construction (jobs share it read-only); the pattern
/// store is internally locked.
class ProblemArtifact {
 public:
  uint64_t key = 0;  ///< combined (impl, spec, weights) hash — the session key
  core::EcoProblem problem;
  uint64_t approx_bytes = 0;

  /// Snapshot of the warm patterns (shared-PI prefixes), newest last.
  std::vector<std::vector<bool>> warm_patterns() const;

  /// Folds freshly harvested patterns in, deduplicated, keeping at most
  /// \p cap patterns (oldest dropped first). Returns the number adopted.
  size_t absorb_patterns(const std::vector<std::vector<bool>>& fresh, size_t cap);

  /// Patterns currently stored.
  size_t num_patterns() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<bool>> patterns_;
};

/// Cache hit/miss counters (cumulative since construction).
struct CacheStats {
  uint64_t netlist_hits = 0, netlist_misses = 0;
  uint64_t weights_hits = 0, weights_misses = 0;
  uint64_t problem_hits = 0, problem_misses = 0;
  uint64_t evictions = 0;
};

/// The keyed warm-state cache. See the file comment for semantics.
class SessionCache {
 public:
  /// \p memory_budget_bytes caps cache-held state via a CancelToken memory
  /// account; 0 disables caching (loads parse fresh, nothing is stored).
  explicit SessionCache(uint64_t memory_budget_bytes);

  /// Parses (or returns the cached) netlist at \p path. Throws
  /// net::ParseError on unreadable/malformed input, exactly like
  /// net::parse_verilog_file. \p hit, when non-null, reports cache hit.
  /// \p scratch, when non-null, receives the file bytes: passing one string
  /// to several loads reuses its storage (load_inputs reads its three files
  /// through one).
  std::shared_ptr<const NetlistArtifact> netlist(const std::string& path,
                                                 bool* hit = nullptr,
                                                 std::string* scratch = nullptr);

  /// Parses (or returns the cached) weight map at \p path.
  std::shared_ptr<const WeightsArtifact> weights(const std::string& path,
                                                 bool* hit = nullptr,
                                                 std::string* scratch = nullptr);

  /// Builds (or returns the cached) elaborated problem for the artifact
  /// triple. Throws net::InputError on inconsistent interfaces, exactly
  /// like core::make_problem.
  std::shared_ptr<ProblemArtifact> problem(const NetlistArtifact& impl,
                                           const NetlistArtifact& spec,
                                           const WeightsArtifact& weights,
                                           bool* hit = nullptr);

  CacheStats stats() const;
  uint64_t memory_used() const noexcept;
  uint64_t memory_budget() const noexcept;
  /// Entries currently cached (all kinds).
  size_t entries() const;
  /// Drops every entry (running jobs keep their shared_ptrs).
  void clear();

 private:
  struct Entry {
    std::shared_ptr<void> value;
    uint64_t bytes = 0;
    std::list<uint64_t>::iterator lru_it;
  };

  std::shared_ptr<void> lookup(uint64_t kind_key);
  void insert(uint64_t kind_key, std::shared_ptr<void> value, uint64_t bytes);
  /// Evicts LRU entries until the account fits; moves their values into
  /// \p victims so the caller can free them after unlocking.
  void evict_to_budget_locked(std::vector<std::shared_ptr<void>>& victims);

  const uint64_t budget_;
  /// The memory account: a stoppable token whose budget is the cache cap.
  /// charge/release mirror insert/evict, so memory_used() is cache-held
  /// bytes and the LRU evicts exactly when the account would trip.
  CancelToken account_;

  mutable std::mutex mu_;
  // LRU list, most recent at the front; map values point into the list.
  std::list<uint64_t> lru_;
  std::unordered_map<uint64_t, Entry> map_;
  CacheStats stats_;
};

/// The artifacts of one job's three input files, loaded through \p cache
/// (or parsed fresh when \p cache is null / disabled). The shared front-end
/// path of the CLI `solve` command and the daemon: parse errors throw
/// net::ParseError / net::InputError for the caller's taxonomy mapping,
/// and no parse logic lives in tools/ anymore.
struct LoadedInputs {
  std::shared_ptr<const NetlistArtifact> impl;
  std::shared_ptr<const NetlistArtifact> spec;
  std::shared_ptr<const WeightsArtifact> weights;
  bool impl_hit = false, spec_hit = false, weights_hit = false;
};

LoadedInputs load_inputs(SessionCache& cache, const std::string& impl_path,
                         const std::string& spec_path, const std::string& weights_path);

}  // namespace eco::service
