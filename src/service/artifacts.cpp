#include "service/artifacts.hpp"

#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstring>

#include "net/verilog.hpp"
#include "net/weights.hpp"

namespace eco::service {

namespace {

/// Reads the whole file into \p bytes; throws net::ParseError (the parser
/// taxonomy) when it cannot be opened, so a bad path fails the same way a
/// bad file does.
void read_file_bytes(const std::string& path, std::string& bytes) {
  if (!net::read_file(path, bytes)) throw net::ParseError(path + ": cannot open file");
}

// content_hash: the xxHash64 primes and steps.
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

template <typename T>
T load_le(const char* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof v == 8) v = __builtin_bswap64(v);
    else v = __builtin_bswap32(v);
  }
  return v;
}

/// One lane step over an 8-byte word.
uint64_t lane_round(uint64_t acc, uint64_t word) noexcept {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

/// Folds a finished lane into the merged hash.
uint64_t merge_lane(uint64_t h, uint64_t lane) noexcept {
  return (h ^ lane_round(0, lane)) * kPrime1 + kPrime4;
}

/// Kind tags keep the three artifact namespaces apart in one map while the
/// content hash stays the visible session-key component.
constexpr uint64_t kKindNetlist = 0x1;
constexpr uint64_t kKindWeights = 0x2;
constexpr uint64_t kKindProblem = 0x3;

uint64_t kind_key(uint64_t kind, uint64_t hash) noexcept {
  // hash is finalized already; fold the kind into the top bits.
  return hash ^ (kind << 61);
}

/// Combines the three content hashes into the problem/session key.
uint64_t combine(uint64_t a, uint64_t b, uint64_t c) noexcept {
  const uint64_t words[] = {a, b, c};
  return content_hash(std::string_view(reinterpret_cast<const char*>(words), sizeof words));
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

uint64_t content_hash(std::string_view bytes) noexcept {
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  uint64_t h = kPrime5;
  if (bytes.size() >= 32) {
    uint64_t v1 = kPrime1 + kPrime2, v2 = kPrime2, v3 = 0, v4 = 0 - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = lane_round(v1, load_le<uint64_t>(p));
      v2 = lane_round(v2, load_le<uint64_t>(p + 8));
      v3 = lane_round(v3, load_le<uint64_t>(p + 16));
      v4 = lane_round(v4, load_le<uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = merge_lane(merge_lane(merge_lane(merge_lane(h, v1), v2), v3), v4);
  }
  h += bytes.size();
  for (; end - p >= 8; p += 8)
    h = std::rotl(h ^ lane_round(0, load_le<uint64_t>(p)), 27) * kPrime1 + kPrime4;
  if (end - p >= 4) {
    h = std::rotl(h ^ (load_le<uint32_t>(p) * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p)
    h = std::rotl(h ^ (static_cast<unsigned char>(*p) * kPrime5), 11) * kPrime1;
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  return h ^ (h >> 32);
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
  // Duplicates are found through one open-addressing table over the stored
  // and adopted patterns (slot = 1 + index into patterns_, 0 = empty).
  const size_t mask = std::bit_ceil(2 * (patterns_.size() + fresh.size())) - 1;
  std::vector<uint32_t> slots(mask + 1, 0);
  const auto insert_new = [&](const std::vector<bool>& p, size_t index) {
    for (size_t s = std::hash<std::vector<bool>>{}(p) & mask;; s = (s + 1) & mask) {
      if (slots[s] == 0) {
        slots[s] = static_cast<uint32_t>(index + 1);
        return true;
      }
      if (patterns_[slots[s] - 1] == p) return false;
    }
  };
  for (size_t i = 0; i < patterns_.size(); ++i) insert_new(patterns_[i], i);
  size_t adopted = 0;
  for (const auto& p : fresh) {
    if (p.empty() || !insert_new(p, patterns_.size())) continue;
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
                                                             bool* hit, std::string* scratch) {
  std::string local;
  std::string& bytes = scratch != nullptr ? *scratch : local;
  read_file_bytes(path, bytes);
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
                                                             bool* hit, std::string* scratch) {
  std::string local;
  std::string& bytes = scratch != nullptr ? *scratch : local;
  read_file_bytes(path, bytes);
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
  std::string bytes;
  out.impl = cache.netlist(impl_path, &out.impl_hit, &bytes);
  out.spec = cache.netlist(spec_path, &out.spec_hit, &bytes);
  out.weights = cache.weights(weights_path, &out.weights_hit, &bytes);
  return out;
}

}  // namespace eco::service
