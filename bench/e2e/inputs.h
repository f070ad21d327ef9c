// prefbench inputs: the four workloads and everything generated from the
// run's seed — tables, statements, request streams and the mutation
// stream. The program under test sees only the generated SQL and rows.

#ifndef PREFBENCH_INPUTS_H_
#define PREFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "relation/relation.h"

namespace prefbench {

/// One workload's shape. Every field is fixed per workload; only the seed
/// and the window length vary between runs.
struct Workload {
  const char* name;
  /// File under the inputs directory holding the read statements, or the
  /// statement templates when `expand_to` > 0.
  const char* statements_file;
  size_t car_rows;
  /// 0 = no trip table.
  size_t trip_rows;
  /// Closed-loop reader connections (capped at the host's thread count).
  size_t readers;
  /// Requests each reader keeps in flight.
  size_t depth;
  /// Odd-numbered requests Run a server-side prepared handle instead of
  /// sending the statement text.
  bool prepared_half;
  /// > 0: expand the templates into this many statements (see
  /// ExpandTemplates); 0: the file's lines are the statements.
  size_t expand_to;
  /// Draw requests Zipf(s=1) from the statements instead of cycling them.
  bool zipf;
  /// Warm-up requests over all readers; 0 = one pass over the statement
  /// list per reader (twice with prepared_half: text, then handles).
  size_t warmup_requests;
  /// Every check_every-th warm-up and window request is compared against
  /// the reference engine.
  size_t check_every;
  /// Writer mutations per second on an open-loop schedule (0 = none).
  double write_rate;
};

/// Looks a workload up by name; nullptr when unknown.
const Workload* FindWorkload(const std::string& name);
std::string WorkloadNames();

/// splitmix64: a small generator whose output is fixed by the standard
/// algorithm, so a seed gives the same inputs with every toolchain.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi);

 private:
  uint64_t state_;
};

/// A writer mutation: insert `row`, or delete the row whose oid is `oid`,
/// due `due_s` seconds after the window starts.
struct Mutation {
  bool insert = true;
  int64_t oid = 0;
  prefdb::Tuple row;
  double due_s = 0;
};

struct Inputs {
  uint64_t seed = 0;
  /// With a writer, the car table ends with the writer's first own rows.
  prefdb::Relation car;
  prefdb::Relation trip;
  /// Read statements, and the template each one came from. A cycled
  /// workload keeps its file's order, one template per line.
  std::vector<std::string> statements;
  std::vector<size_t> template_of;
  std::vector<std::string> templates;
  /// Zipf CDF over `statements` (empty for cycled workloads).
  std::vector<double> zipf_cdf;
  /// ingest_subscribe: the subscribed statements and the writer's stream.
  std::vector<std::string> subscriptions;
  std::vector<Mutation> mutations;
};

/// Generates a run's inputs. The mutation stream ends at `duration_s`.
/// Throws std::runtime_error on a missing or malformed input file.
Inputs MakeInputs(const Workload& workload, const std::string& inputs_dir,
                  uint64_t seed, double duration_s);

/// The statement indices one reader sends, in order: the same (inputs,
/// reader, phase) always yields the same sequence, so a traced replay can
/// re-issue exactly what the TCP run sent.
class RequestStream {
 public:
  enum class Phase { kWarmup, kWindow };
  RequestStream(const Workload& workload, const Inputs& inputs, size_t reader,
                size_t readers, Phase phase);
  size_t Next();

 private:
  const Inputs* inputs_;
  Rng rng_;
  bool zipf_;
  size_t offset_;
  size_t sent_ = 0;
};

/// Statements in `path`, one per line; '#' lines and blank lines skipped.
std::vector<std::string> LoadStatements(const std::string& path);

}  // namespace prefbench

#endif  // PREFBENCH_INPUTS_H_
