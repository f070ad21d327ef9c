#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_set>

#include "datagen/cars.h"

namespace prefbench {

namespace {

using prefdb::Relation;
using prefdb::Tuple;

// Why each workload exists is recorded in README.md; the numbers here are
// its shape.
const Workload kWorkloads[] = {
    {"serve_warm", "serve_warm.sql", 100000, 100000, 4, 1, false, 0, false, 0,
     1, 0},
    {"serve_adhoc", "serve_adhoc.sql", 100000, 100000, 4, 1, false, 4096, true,
     512, 16, 0},
    {"serve_pipelined", "serve_warm.sql", 1000, 1000, 2, 8, true, 0, false, 0,
     1, 0},
    {"ingest_subscribe", "ingest_reads.sql", 20000, 0, 2, 1, false, 72, false,
     0, 1, 20},
};

/// The writer's rows carry oids from here up, disjoint from the generated
/// table's 1..n, so the second subscription sees only them.
constexpr int64_t kOwnOidBase = 1000000000;
/// Own rows the table starts with. The window's mutations alternate an
/// insert with a delete of the oldest own row, so this many stay live.
/// Starting with them in the table, instead of inserting them first,
/// keeps the window uniform: a leading insert-only stretch served reads
/// twice as fast as the rest of the window and moved read_p50_ms with
/// its length.
constexpr size_t kOwnLiveRows = 32;
/// The tables and the expanded statements are the same for every seed;
/// the seed draws the request streams and the writer's stream. Drawn
/// per seed, the data moved single statements' costs by up to 20% (the
/// CASCADE statement's kernel: 4.3 to 6.4 ms at 100k rows) and the
/// literals moved which statements are hot, so read_p50_ms spread 17-20%
/// across seeds, beyond any bound the benchmark could hold.
constexpr uint64_t kDataSeed = 20020820;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed ^ (stream * 0x9E3779B97F4A7C15ULL)).Next();
}

std::map<std::string, std::pair<int64_t, int64_t>> LoadLiterals(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::map<std::string, std::pair<int64_t, int64_t>> ranges;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    char name[64] = {0};
    long long lo = 0;
    long long hi = 0;
    if (std::sscanf(line.c_str(), "%63s %lld %lld", name, &lo, &hi) != 3 ||
        lo > hi) {
      throw std::runtime_error("malformed literal range in " + path + ": " +
                               line);
    }
    ranges[name] = {lo, hi};
  }
  return ranges;
}

std::string Expand(
    const std::string& templ,
    const std::map<std::string, std::pair<int64_t, int64_t>>& ranges,
    Rng* rng) {
  std::string out;
  size_t pos = 0;
  for (;;) {
    size_t open = templ.find("${", pos);
    if (open == std::string::npos) break;
    size_t close = templ.find('}', open);
    if (close == std::string::npos) {
      throw std::runtime_error("unterminated ${ in template: " + templ);
    }
    std::string name = templ.substr(open + 2, close - open - 2);
    auto it = ranges.find(name);
    if (it == ranges.end()) {
      throw std::runtime_error("no literal range named '" + name + "'");
    }
    out += templ.substr(pos, open - pos);
    out += std::to_string(rng->Between(it->second.first, it->second.second));
    pos = close + 1;
  }
  return out + templ.substr(pos);
}

/// Expands the templates into `count` statements; statement i comes from
/// template i mod T. Statements from a template with literals are all
/// distinct; a template without any repeats as it is.
void ExpandTemplates(const std::string& dir, size_t count, Inputs* in) {
  auto ranges = LoadLiterals(dir + "/literals.txt");
  Rng rng(SubSeed(kDataSeed, 1));
  std::unordered_set<std::string> seen;
  for (size_t i = 0; i < count; ++i) {
    size_t t = i % in->templates.size();
    const bool fixed = in->templates[t].find("${") == std::string::npos;
    for (int attempt = 0;; ++attempt) {
      if (attempt == 1000) {
        throw std::runtime_error("literal ranges too narrow for " +
                                 std::to_string(count) +
                                 " distinct statements: " + in->templates[t]);
      }
      std::string sql = Expand(in->templates[t], ranges, &rng);
      if (seen.insert(sql).second || fixed) {
        in->statements.push_back(std::move(sql));
        in->template_of.push_back(t);
        break;
      }
    }
  }
}

/// Zipf(s=1) over the statements: statement i has weight 1 / (i + 1).
void MakeZipfCdf(Inputs* in) {
  double total = 0;
  for (size_t i = 0; i < in->statements.size(); ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    in->zipf_cdf.push_back(total);
  }
  for (double& c : in->zipf_cdf) c /= total;
}

/// Adds the own rows the table starts with, then the writer's stream up
/// to `duration_s`: one mutation at a uniformly drawn instant of each
/// 1 / write_rate slot. A strictly periodic writer phase-locked with the
/// closed-loop readers, so whether a read arrived just after a mutation
/// (and found its cache entry gone) held for seconds at a time, and
/// read_p50_ms moved by a third between runs. Poisson arrivals broke the
/// lock but varied the window's mutation count, which sets how often
/// reads go cold, by about ±6% between seeds.
void MakeMutations(const Workload& workload, double duration_s, uint64_t seed,
                   Inputs* in) {
  Rng arrivals(SubSeed(seed, 3));
  const double slot_s = 1.0 / workload.write_rate;
  std::vector<double> due_s;
  for (double slot = 0; slot < duration_s; slot += slot_s) {
    due_s.push_back(slot + arrivals.Uniform() * slot_s);
  }
  Relation fresh = prefdb::GenerateCars(kOwnLiveRows + (due_s.size() + 1) / 2,
                                        SubSeed(seed, 2));
  std::deque<int64_t> live;  // own oids, oldest first
  size_t next_row = 0;
  auto own_row = [&] {
    Tuple row = fresh.RowAt(next_row);
    const int64_t oid = kOwnOidBase + static_cast<int64_t>(next_row++);
    row[0] = prefdb::Value(oid);
    live.push_back(oid);
    return row;
  };
  for (size_t i = 0; i < kOwnLiveRows; ++i) in->car.Add(own_row());
  for (size_t k = 0; k < due_s.size(); ++k) {
    Mutation m;
    m.due_s = due_s[k];
    m.insert = k % 2 == 0;
    if (m.insert) {
      m.row = own_row();
      m.oid = m.row[0].as_int();
    } else {
      m.oid = live.front();
      live.pop_front();
    }
    in->mutations.push_back(std::move(m));
  }
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const Workload& w : kWorkloads) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int64_t Rng::Between(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

std::vector<std::string> LoadStatements(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    out.push_back(line);
  }
  if (out.empty()) throw std::runtime_error(path + " holds no statements");
  return out;
}

Inputs MakeInputs(const Workload& workload, const std::string& inputs_dir,
                  uint64_t seed, double duration_s) {
  Inputs in;
  in.seed = seed;
  in.car = prefdb::GenerateCars(workload.car_rows, kDataSeed);
  if (workload.trip_rows > 0) {
    in.trip = prefdb::GenerateTrips(workload.trip_rows, kDataSeed + 1);
  }
  std::vector<std::string> lines =
      LoadStatements(inputs_dir + "/" + workload.statements_file);
  if (workload.expand_to > 0) {
    in.templates = lines;
    ExpandTemplates(inputs_dir, workload.expand_to, &in);
  } else {
    // Every line is its own template.
    in.templates = lines;
    in.statements = lines;
    for (size_t i = 0; i < lines.size(); ++i) in.template_of.push_back(i);
  }
  if (workload.zipf) MakeZipfCdf(&in);
  if (workload.write_rate > 0) {
    in.subscriptions = LoadStatements(inputs_dir + "/ingest_subscribe.sql");
    MakeMutations(workload, duration_s, seed, &in);
  }
  return in;
}

RequestStream::RequestStream(const Workload& workload, const Inputs& inputs,
                             size_t reader, size_t readers, Phase phase)
    : inputs_(&inputs),
      rng_(SubSeed(inputs.seed,
                   16 + 2 * reader + (phase == Phase::kWindow ? 1 : 0))),
      zipf_(workload.zipf),
      offset_((reader * inputs.statements.size() / readers + inputs.seed) %
              inputs.statements.size()) {}

size_t RequestStream::Next() {
  size_t n = inputs_->statements.size();
  if (!zipf_) return (offset_ + sent_++) % n;
  const std::vector<double>& cdf = inputs_->zipf_cdf;
  size_t i = static_cast<size_t>(
      std::upper_bound(cdf.begin(), cdf.end(), rng_.Uniform()) - cdf.begin());
  return std::min(i, n - 1);
}

}  // namespace prefbench
