#include "service/artifacts.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "net/verilog.hpp"
#include "net/weights.hpp"

namespace eco::service {

namespace {

/// Reads the whole file; throws net::ParseError (the parser taxonomy) when
/// it cannot be opened, so a bad path fails the same way a bad file does.
std::string read_file_bytes(const std::string& path) {
  std::optional<std::string> bytes = net::read_file(path);
  if (!bytes) throw net::ParseError(path + ": cannot open file");
  return std::move(*bytes);
}

/// Kind tags keep the three artifact namespaces apart in one map while the
/// content hash stays the visible session-key component.
constexpr uint64_t kKindNetlist = 0x1;
constexpr uint64_t kKindWeights = 0x2;
constexpr uint64_t kKindProblem = 0x3;

uint64_t kind_key(uint64_t kind, uint64_t hash) noexcept {
  // hash is FNV-mixed already; fold the kind into the top bits.
  return hash ^ (kind << 61);
}

/// Combines the three content hashes into the problem/session key.
uint64_t combine(uint64_t a, uint64_t b, uint64_t c) noexcept {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const uint64_t v : {a, b, c}) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

uint64_t approx_network_bytes(const net::Network& n, size_t file_bytes) {
  // Names dominate: every gate stores its output and input names as
  // std::strings, roughly tripling the on-disk footprint.
  return static_cast<uint64_t>(file_bytes) * 3 + n.gates.size() * 64 + 1024;
}

uint64_t approx_problem_bytes(const core::EcoProblem& p) {
  // AIG nodes are two 32-bit literals plus hash-table share; divisors carry
  // a name each. Estimates only steer eviction, they need not be exact.
  uint64_t bytes = 4096;
  bytes += static_cast<uint64_t>(p.impl.num_nodes()) * 24;
  bytes += static_cast<uint64_t>(p.spec.num_nodes()) * 24;
  bytes += p.divisors.size() * 64;
  for (const auto& d : p.divisors) bytes += d.name.capacity();
  for (const auto& t : p.target_names) bytes += t.capacity() + 32;
  return bytes;
}

}  // namespace

uint64_t content_hash(const std::string& bytes) noexcept {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hash_hex(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::vector<std::vector<bool>> ProblemArtifact::warm_patterns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return patterns_;
}

size_t ProblemArtifact::absorb_patterns(const std::vector<std::vector<bool>>& fresh,
                                        size_t cap) {
  if (fresh.empty() || cap == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  size_t adopted = 0;
  for (const auto& p : fresh) {
    if (p.empty()) continue;
    if (std::find(patterns_.begin(), patterns_.end(), p) != patterns_.end()) continue;
    patterns_.push_back(p);
    ++adopted;
  }
  if (patterns_.size() > cap)
    patterns_.erase(patterns_.begin(),
                    patterns_.begin() + static_cast<ptrdiff_t>(patterns_.size() - cap));
  return adopted;
}

size_t ProblemArtifact::num_patterns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return patterns_.size();
}

SessionCache::SessionCache(uint64_t memory_budget_bytes)
    : budget_(memory_budget_bytes),
      account_(memory_budget_bytes > 0 ? CancelToken(0.0, memory_budget_bytes)
                                       : CancelToken()) {}

std::shared_ptr<void> SessionCache::lookup(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  // Touch: move to the LRU front.
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.value;
}

void SessionCache::insert(uint64_t key, std::shared_ptr<void> value, uint64_t bytes) {
  if (budget_ == 0) return;  // caching disabled
  // Declared before the lock, so the evicted artifacts are freed after it
  // is released: freeing a large netlist must not stall other lookups.
  std::vector<std::shared_ptr<void>> victims;
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.find(key) != map_.end()) return;  // racing load: first insert wins
  lru_.push_front(key);
  map_.emplace(key, Entry{std::move(value), bytes, lru_.begin()});
  account_.charge_memory(bytes);
  evict_to_budget_locked(victims);
}

void SessionCache::evict_to_budget_locked(std::vector<std::shared_ptr<void>>& victims) {
  while (account_.memory_used() > account_.memory_budget() && !lru_.empty()) {
    const uint64_t victim = lru_.back();
    lru_.pop_back();
    const auto it = map_.find(victim);
    if (it != map_.end()) {
      account_.release_memory(it->second.bytes);
      victims.push_back(std::move(it->second.value));
      map_.erase(it);
      ++stats_.evictions;
    }
  }
}

std::shared_ptr<const NetlistArtifact> SessionCache::netlist(const std::string& path,
                                                             bool* hit) {
  const std::string bytes = read_file_bytes(path);
  const uint64_t h = content_hash(bytes);
  const uint64_t key = kind_key(kKindNetlist, h);
  if (auto cached = lookup(key)) {
    if (hit != nullptr) *hit = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.netlist_hits;
    }
    return std::static_pointer_cast<const NetlistArtifact>(cached);
  }
  if (hit != nullptr) *hit = false;
  auto artifact = std::make_shared<NetlistArtifact>();
  artifact->hash = h;
  // Parse the bytes that were hashed, not a second read of the file: an
  // edit-in-place between the two reads would otherwise cache the new
  // content under the old content hash.
  artifact->network = net::parse_verilog_string(bytes);
  artifact->approx_bytes = approx_network_bytes(artifact->network, bytes.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.netlist_misses;
  }
  insert(key, artifact, artifact->approx_bytes);
  return artifact;
}

std::shared_ptr<const WeightsArtifact> SessionCache::weights(const std::string& path,
                                                             bool* hit) {
  const std::string bytes = read_file_bytes(path);
  const uint64_t h = content_hash(bytes);
  const uint64_t key = kind_key(kKindWeights, h);
  if (auto cached = lookup(key)) {
    if (hit != nullptr) *hit = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.weights_hits;
    }
    return std::static_pointer_cast<const WeightsArtifact>(cached);
  }
  if (hit != nullptr) *hit = false;
  auto artifact = std::make_shared<WeightsArtifact>();
  artifact->hash = h;
  artifact->weights = net::parse_weights_string(bytes);
  artifact->approx_bytes = bytes.size() * 3 + 1024;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.weights_misses;
  }
  insert(key, artifact, artifact->approx_bytes);
  return artifact;
}

std::shared_ptr<ProblemArtifact> SessionCache::problem(const NetlistArtifact& impl,
                                                       const NetlistArtifact& spec,
                                                       const WeightsArtifact& weights,
                                                       bool* hit) {
  const uint64_t session = combine(impl.hash, spec.hash, weights.hash);
  const uint64_t key = kind_key(kKindProblem, session);
  if (auto cached = lookup(key)) {
    if (hit != nullptr) *hit = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.problem_hits;
    }
    return std::static_pointer_cast<ProblemArtifact>(cached);
  }
  if (hit != nullptr) *hit = false;
  auto artifact = std::make_shared<ProblemArtifact>();
  artifact->key = session;
  artifact->problem = core::make_problem(impl.network, spec.network, weights.weights);
  artifact->approx_bytes = approx_problem_bytes(artifact->problem);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.problem_misses;
  }
  insert(key, artifact, artifact->approx_bytes);
  return artifact;
}

CacheStats SessionCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint64_t SessionCache::memory_used() const noexcept { return account_.memory_used(); }

uint64_t SessionCache::memory_budget() const noexcept {
  return account_.memory_budget();
}

size_t SessionCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void SessionCache::clear() {
  // Freed after the lock is released, as in insert().
  std::unordered_map<uint64_t, Entry> dropped;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, entry] : map_) account_.release_memory(entry.bytes);
  dropped.swap(map_);
  lru_.clear();
}

LoadedInputs load_inputs(SessionCache& cache, const std::string& impl_path,
                         const std::string& spec_path, const std::string& weights_path) {
  LoadedInputs out;
  out.impl = cache.netlist(impl_path, &out.impl_hit);
  out.spec = cache.netlist(spec_path, &out.spec_hit);
  out.weights = cache.weights(weights_path, &out.weights_hit);
  return out;
}

}  // namespace eco::service
