/// \file numparse.hpp
/// \brief Strict numeric operand parsing, shared by every command-line front
/// end (ecopatch, ecopatchd and the benches).
///
/// The whole operand must be one base-10 number: empty strings, trailing
/// garbage ("4x"), overflow and non-finite doubles all fail, where
/// atoi/atof would silently read them as some number (often 0, which many
/// options take to mean "unlimited"). On failure \p out is left untouched;
/// range checks beyond the type's own are the caller's.
#pragma once

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace eco::util {

inline bool parse_long(const char* s, long& out) noexcept {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

inline bool parse_int(const char* s, int& out) noexcept {
  long v = 0;
  if (!parse_long(s, v) || v < INT_MIN || v > INT_MAX) return false;
  out = static_cast<int>(v);
  return true;
}

/// Digits only: strtoull would skip leading blanks and wrap "-1" to
/// 2^64 - 1.
inline bool parse_u64(const char* s, uint64_t& out) noexcept {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

/// Finite values only: "nan" and "inf" fail.
inline bool parse_double(const char* s, double& out) noexcept {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !std::isfinite(v)) return false;
  out = v;
  return true;
}

}  // namespace eco::util
