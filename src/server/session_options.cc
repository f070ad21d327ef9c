#include "server/session_options.h"

#include <cerrno>
#include <cstdlib>

namespace prefdb::server {

namespace {

bool ParseCount(const std::string& value, uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end == value.c_str() || *end != '\0') return false;
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
  if (name == "threads") {
    uint64_t v = 0;
    if (!ParseCount(value, &v)) return "threads expects a number";
    bmo.num_threads = static_cast<size_t>(v);
    // A session asking for intra-query parallelism also gets kAuto's
    // parallel plans back (the serving default opts out of them).
    bmo.parallel_threshold = v > 1 ? 32768 : SIZE_MAX;
    return "";
  }
  if (name == "timeout_ms") {
    return ParseCount(value, &timeout_ms) ? "" : "timeout_ms expects a number";
  }
  if (name == "max_pending_deltas") {
    uint64_t v = 0;
    if (!ParseCount(value, &v)) return "max_pending_deltas expects a number";
    max_pending_deltas = static_cast<size_t>(v);
    return "";
  }
  if (name == "vectorize") {
    if (value == "on") {
      bmo.vectorize = true;
    } else if (value == "off") {
      bmo.vectorize = false;
    } else {
      return "vectorize expects on|off";
    }
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
      {"threads", std::to_string(bmo.num_threads)},
      {"timeout_ms", std::to_string(timeout_ms)},
      {"vectorize", bmo.vectorize ? "on" : "off"},
      {"algorithm", BmoAlgorithmName(bmo.algorithm)},
      {"simd", SimdModeName(bmo.simd)},
      {"max_pending_deltas", std::to_string(max_pending_deltas)},
  };
}

}  // namespace prefdb::server
