#include "server/session_options.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace prefdb::server {

namespace {

// Decimal digits only. strtoull alone would skip leading whitespace and
// accept a sign, negating "-1" into UINT64_MAX.
bool ParseCount(const std::string& value, uint64_t* out) {
  if (value.empty() ||
      !std::all_of(value.begin(), value.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    return false;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), nullptr, 10);
  if (errno != 0) return false;
  *out = v;
  return true;
}

// Parses `value` as one of the names `name_of` gives the enumerators of
// `Enum`. Enumerators are dense from 0, and the name tables answer "?"
// past the last one, so the vocabulary is exactly the name table.
template <typename Enum>
bool ParseName(const std::string& value, const char* (*name_of)(Enum),
               Enum* out) {
  for (int i = 0;; ++i) {
    const std::string name = name_of(static_cast<Enum>(i));
    if (name == "?") return false;
    if (name == value) {
      *out = static_cast<Enum>(i);
      return true;
    }
  }
}

}  // namespace

std::string SessionOptions::Apply(const std::string& name,
                                  const std::string& value) {
  if (name == "timeout_ms") {
    uint64_t v = 0;
    if (!ParseCount(value, &v) || v > kMaxTimeoutMs) {
      return "timeout_ms expects a number of milliseconds up to " +
             std::to_string(kMaxTimeoutMs);
    }
    timeout_ms = v;
    return "";
  }
  if (name == "max_pending_deltas") {
    uint64_t v = 0;
    if (!ParseCount(value, &v)) return "max_pending_deltas expects a number";
    max_pending_deltas = static_cast<size_t>(v);
    return "";
  }
  if (name == "algorithm") {
    return ParseName(value, BmoAlgorithmName, &bmo.algorithm)
               ? ""
               : "unknown algorithm '" + value + "'";
  }
  if (name == "simd") {
    return ParseName(value, SimdModeName, &bmo.simd)
               ? ""
               : "unknown simd mode '" + value + "'";
  }
  return "unknown session option '" + name + "'";
}

std::string SessionOptions::ApplyWire(const std::string& payload) {
  size_t eq = payload.find('=');
  if (eq == std::string::npos) {
    return "expected name=value, got '" + payload + "'";
  }
  return Apply(payload.substr(0, eq), payload.substr(eq + 1));
}

std::vector<std::pair<std::string, std::string>> SessionOptions::Serialize()
    const {
  return {
      {"timeout_ms", std::to_string(timeout_ms)},
      {"algorithm", BmoAlgorithmName(bmo.algorithm)},
      {"simd", SimdModeName(bmo.simd)},
      {"max_pending_deltas", std::to_string(max_pending_deltas)},
  };
}

}  // namespace prefdb::server
