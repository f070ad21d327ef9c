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

const char* AlgorithmName(BmoAlgorithm algorithm) {
  switch (algorithm) {
    case BmoAlgorithm::kAuto:
      return "auto";
    case BmoAlgorithm::kNaive:
      return "naive";
    case BmoAlgorithm::kBlockNestedLoop:
      return "bnl";
    case BmoAlgorithm::kSortFilter:
      return "sfs";
    case BmoAlgorithm::kDivideConquer:
      return "dc";
    case BmoAlgorithm::kParallel:
      return "parallel";
  }
  return "auto";
}

const char* SimdName(SimdMode simd) {
  switch (simd) {
    case SimdMode::kAuto:
      return "auto";
    case SimdMode::kScalar:
      return "scalar";
    case SimdMode::kAvx2:
      return "avx2";
  }
  return "auto";
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
    if (value == "auto") {
      bmo.algorithm = BmoAlgorithm::kAuto;
    } else if (value == "naive") {
      bmo.algorithm = BmoAlgorithm::kNaive;
    } else if (value == "bnl") {
      bmo.algorithm = BmoAlgorithm::kBlockNestedLoop;
    } else if (value == "sfs") {
      bmo.algorithm = BmoAlgorithm::kSortFilter;
    } else if (value == "dc") {
      bmo.algorithm = BmoAlgorithm::kDivideConquer;
    } else if (value == "parallel") {
      bmo.algorithm = BmoAlgorithm::kParallel;
    } else {
      return "unknown algorithm '" + value + "'";
    }
    return "";
  }
  if (name == "simd") {
    if (value == "auto") {
      bmo.simd = SimdMode::kAuto;
    } else if (value == "scalar") {
      bmo.simd = SimdMode::kScalar;
    } else if (value == "avx2") {
      bmo.simd = SimdMode::kAvx2;
    } else {
      return "unknown simd mode '" + value + "'";
    }
    return "";
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
      {"algorithm", AlgorithmName(bmo.algorithm)},
      {"simd", SimdName(bmo.simd)},
      {"max_pending_deltas", std::to_string(max_pending_deltas)},
  };
}

}  // namespace prefdb::server
