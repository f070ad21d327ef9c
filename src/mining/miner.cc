#include "mining/miner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"

namespace prefdb::mining {

namespace {

struct CategoricalStats {
  std::unordered_map<Value, size_t, ValueHash> offered;
  std::unordered_map<Value, size_t, ValueHash> picked;
  size_t total_offered = 0;
  size_t total_picked = 0;
};

struct NumericStats {
  std::vector<double> population;
  std::vector<double> chosen;
};

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) {
  if (v.size() < 2) return 0;
  double mean = Mean(v);
  double acc = 0;
  for (double x : v) acc += (x - mean) * (x - mean);
  return std::sqrt(acc / static_cast<double>(v.size() - 1));
}

// Fraction of population values strictly below x.
double Percentile(const std::vector<double>& population, double x) {
  if (population.empty()) return 0.5;
  size_t below = 0;
  for (double p : population) {
    if (p < x) ++below;
  }
  return static_cast<double>(below) / static_cast<double>(population.size());
}

std::optional<MinedAttribute> MineCategorical(const std::string& attr,
                                              const CategoricalStats& stats,
                                              const MinerOptions& opt) {
  if (stats.total_picked == 0 || stats.total_offered == 0) return std::nullopt;
  double overall =
      static_cast<double>(stats.total_picked) / stats.total_offered;
  std::vector<Value> pos, neg;
  for (const auto& [value, offered] : stats.offered) {
    if (offered < opt.min_support) continue;
    auto it = stats.picked.find(value);
    size_t picked = it == stats.picked.end() ? 0 : it->second;
    double rate = static_cast<double>(picked) / offered;
    if (rate >= opt.pos_lift * overall) {
      pos.push_back(value);
    } else if (rate <= opt.neg_drop * overall) {
      neg.push_back(value);
    }
  }
  if (pos.empty() && neg.empty()) return std::nullopt;
  std::sort(pos.begin(), pos.end());
  std::sort(neg.begin(), neg.end());
  MinedAttribute out;
  out.attribute = attr;
  char evidence[160];
  std::snprintf(evidence, sizeof(evidence),
                "%zu favored / %zu avoided values (overall pick rate %.2f)",
                pos.size(), neg.size(), overall);
  out.evidence = evidence;
  if (!pos.empty() && !neg.empty()) {
    out.preference = PosNeg(attr, pos, neg);
  } else if (!pos.empty()) {
    out.preference = Pos(attr, pos);
  } else {
    out.preference = Neg(attr, neg);
  }
  return out;
}

std::optional<MinedAttribute> MineNumeric(const std::string& attr,
                                          const NumericStats& stats,
                                          const MinerOptions& opt) {
  if (stats.chosen.size() < opt.min_support) return std::nullopt;
  double mean_chosen = Mean(stats.chosen);
  double pct = Percentile(stats.population, mean_chosen);
  MinedAttribute out;
  out.attribute = attr;
  char evidence[160];
  if (pct <= opt.extremal_percentile) {
    out.preference = Lowest(attr);
    std::snprintf(evidence, sizeof(evidence),
                  "chosen mean at population percentile %.2f: LOWEST", pct);
    out.evidence = evidence;
    return out;
  }
  if (pct >= 1.0 - opt.extremal_percentile) {
    out.preference = Highest(attr);
    std::snprintf(evidence, sizeof(evidence),
                  "chosen mean at population percentile %.2f: HIGHEST", pct);
    out.evidence = evidence;
    return out;
  }
  double sd_chosen = StdDev(stats.chosen);
  double sd_population = StdDev(stats.population);
  if (sd_population > 0 && sd_chosen <= opt.cluster_ratio * sd_population) {
    out.preference = Around(attr, mean_chosen);
    std::snprintf(evidence, sizeof(evidence),
                  "chosen values clustered (sd ratio %.2f): AROUND %.1f",
                  sd_chosen / sd_population, mean_chosen);
    out.evidence = evidence;
    return out;
  }
  return std::nullopt;
}

}  // namespace

MiningResult MinePreferences(const std::vector<LogEntry>& log,
                             const MinerOptions& options) {
  MiningResult result;
  if (log.empty()) return result;
  const Schema& schema = log[0].shown.schema();
  for (const LogEntry& entry : log) {
    if (entry.shown.schema() != schema) {
      throw std::invalid_argument("log entries must share one schema");
    }
    for (size_t row : entry.chosen) {
      if (row >= entry.shown.size()) {
        throw std::invalid_argument("chosen row index out of range");
      }
    }
  }

  for (size_t col = 0; col < schema.size(); ++col) {
    const Attribute& attr = schema.at(col);
    bool numeric =
        attr.type == ValueType::kInt || attr.type == ValueType::kDouble;
    std::optional<MinedAttribute> mined;
    if (numeric) {
      NumericStats stats;
      for (const LogEntry& entry : log) {
        for (size_t row = 0; row < entry.shown.size(); ++row) {
          if (auto v = entry.shown.ValueAt(row, col).numeric()) {
            stats.population.push_back(*v);
          }
        }
        for (size_t row : entry.chosen) {
          if (auto v = entry.shown.ValueAt(row, col).numeric()) {
            stats.chosen.push_back(*v);
          }
        }
      }
      mined = MineNumeric(attr.name, stats, options);
    } else {
      CategoricalStats stats;
      for (const LogEntry& entry : log) {
        for (size_t row = 0; row < entry.shown.size(); ++row) {
          ++stats.offered[entry.shown.ValueAt(row, col)];
          ++stats.total_offered;
        }
        for (size_t row : entry.chosen) {
          ++stats.picked[entry.shown.ValueAt(row, col)];
          ++stats.total_picked;
        }
      }
      mined = MineCategorical(attr.name, stats, options);
    }
    if (mined) result.attributes.push_back(std::move(*mined));
  }

  if (!result.attributes.empty()) {
    std::vector<PrefPtr> prefs;
    for (const MinedAttribute& m : result.attributes) {
      prefs.push_back(m.preference);
    }
    result.combined = Pareto(prefs);
  }
  return result;
}

}  // namespace prefdb::mining
