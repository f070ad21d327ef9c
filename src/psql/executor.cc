#include "psql/executor.h"

#include <cstdio>

namespace prefdb::psql {

std::string QueryStats::ToString() const {
  auto ms = [](uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
    return std::string(buf);
  };
  std::string out = "parse=" + ms(parse_ns) + "ms translate=" +
                    ms(translate_ns) + "ms optimize=" + ms(optimize_ns) +
                    "ms compile=" + ms(compile_ns) + "ms kernel=" +
                    ms(kernel_ns) + "ms execute=" + ms(execute_ns) +
                    "ms total=" + ms(total_ns) + "ms";
  out += std::string(" plan_cache=") + (plan_cache_hit ? "hit" : "miss");
  out += std::string(" exec_cache=") + (exec_cache_hit ? "hit" : "miss");
  if (plan_cache_evictions > 0 || exec_cache_evictions > 0) {
    out += " evictions=" + std::to_string(plan_cache_evictions) + "/" +
           std::to_string(exec_cache_evictions);
  }
  if (!kernel.empty()) out += " variant=" + kernel;
  return out;
}

}  // namespace prefdb::psql
