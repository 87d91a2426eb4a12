#include "net/network.hpp"

#include <bit>
#include <cerrno>
#include <functional>
#include <string_view>
#include <unordered_set>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace eco::net {

bool read_file(const std::string& path, std::string& bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st {};
  const size_t size =
      ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) ? static_cast<size_t>(st.st_size) : 0;
  // One spare byte: a file that grew since fstat is still read to its end.
  bytes.resize(size + 1);
  size_t used = 0;
  for (;;) {
    if (used == bytes.size()) bytes.resize(2 * bytes.size());
    const ssize_t n = ::read(fd, bytes.data() + used, bytes.size() - used);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    used += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes.resize(used);
  return true;
}

const char* gate_type_name(GateType type) noexcept {
  switch (type) {
    case GateType::kAnd: return "and";
    case GateType::kOr: return "or";
    case GateType::kNand: return "nand";
    case GateType::kNor: return "nor";
    case GateType::kXor: return "xor";
    case GateType::kXnor: return "xnor";
    case GateType::kBuf: return "buf";
    case GateType::kNot: return "not";
    case GateType::kConst0: return "const0";
    case GateType::kConst1: return "const1";
  }
  return "?";
}

std::vector<std::string> Network::all_signals() const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  auto push = [&](const std::string& s) {
    if (seen.insert(s).second) out.push_back(s);
  };
  for (const auto& s : inputs) push(s);
  for (const auto& g : gates) push(g.output);
  return out;
}

namespace {

[[noreturn]] void invalid(const Network& net, const std::string& what) {
  throw InputError("network '" + net.name + "': " + what);
}

/// Open-addressing table from signal name to signal index, keyed by views
/// into the network's own strings: no allocation per entry, and a probe
/// compares a stored hash before it touches a name.
class NameTable {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  explicit NameTable(size_t max_names)
      : slots_(std::bit_ceil(2 * max_names + 2)), mask_(slots_.size() - 1) {
    names_.reserve(max_names);
  }

  /// Adds \p name under the next index; false when it is already present.
  bool insert(std::string_view name) {
    const uint64_t h = std::hash<std::string_view>{}(name);
    Slot& slot = slots_[probe(name, h)];
    if (slot.index != kAbsent) return false;
    slot = Slot{static_cast<uint32_t>(names_.size()), static_cast<uint32_t>(h >> 32)};
    names_.push_back(name);
    return true;
  }

  /// Index of \p name, or kAbsent.
  uint32_t find(std::string_view name) const {
    return slots_[probe(name, std::hash<std::string_view>{}(name))].index;
  }

 private:
  struct Slot {
    uint32_t index = kAbsent;
    uint32_t tag = 0;  ///< high hash bits
  };

  /// The slot holding \p name, or the empty slot where it would go.
  size_t probe(std::string_view name, uint64_t h) const {
    const auto tag = static_cast<uint32_t>(h >> 32);
    for (size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.index == kAbsent || (s.tag == tag && names_[s.index] == name)) return i;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_;
  std::vector<std::string_view> names_;
};

}  // namespace

void Network::validate() const { index_signals(*this, inputs); }

SignalIndex index_signals(const Network& net, std::span<const std::string> inputs) {
  SignalIndex index;
  index.num_inputs = static_cast<uint32_t>(inputs.size());
  const size_t num_signals = inputs.size() + net.gates.size();
  NameTable id(num_signals);
  for (const auto& s : inputs)
    if (!id.insert(s)) invalid(net, "duplicate input '" + s + "'");
  size_t num_fanins = 0;
  for (const Gate& gate : net.gates) {
    if (!id.insert(gate.output))
      invalid(net, "signal '" + gate.output + "' has multiple drivers");
    const size_t n = gate.inputs.size();
    switch (gate.type) {
      case GateType::kBuf:
      case GateType::kNot:
        if (n != 1) invalid(net, "gate '" + gate.output + "' needs exactly 1 input");
        break;
      case GateType::kConst0:
      case GateType::kConst1:
        if (n != 0) invalid(net, "constant gate '" + gate.output + "' takes no inputs");
        break;
      default:
        if (n < 1) invalid(net, "gate '" + gate.output + "' needs at least 1 input");
        break;
    }
    num_fanins += n;
  }
  std::vector<uint8_t> is_output(num_signals, 0);
  index.outputs.reserve(net.outputs.size());
  for (const auto& s : net.outputs) {
    // An undriven output fails on its first listing, so only driven ones
    // can reach the duplicate check.
    const uint32_t signal = id.find(s);
    if (signal == NameTable::kAbsent) invalid(net, "output '" + s + "' is never driven");
    if (is_output[signal]) invalid(net, "duplicate output '" + s + "'");
    is_output[signal] = 1;
    index.outputs.push_back(signal);
  }
  index.fanin_begin.reserve(net.gates.size() + 1);
  index.fanins.reserve(num_fanins);
  for (const Gate& gate : net.gates) {
    index.fanin_begin.push_back(static_cast<uint32_t>(index.fanins.size()));
    for (const auto& in : gate.inputs) {
      const uint32_t signal = id.find(in);
      if (signal == NameTable::kAbsent)
        invalid(net, "signal '" + in + "' is used but never driven");
      index.fanins.push_back(signal);
    }
  }
  index.fanin_begin.push_back(static_cast<uint32_t>(index.fanins.size()));
  return index;
}

}  // namespace eco::net
