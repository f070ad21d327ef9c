#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "engine/engine.h"
#include "ivm/maintained_view.h"
#include "psql/parser.h"
#include "psql/translator.h"
#include "server/protocol.h"

namespace prefbench {

namespace {

using prefdb::Engine;
using prefdb::PreparedQuery;
using prefdb::psql::QueryStats;

/// Window requests per reader that record spans.
constexpr size_t kTracedPerReader = 8192;

int64_t SinceNs(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

/// Closes its span when the scope ends.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, uint64_t request)
      : log_(log), index_(log->Open(name, request)) {}
  ~Scoped() { log_->Close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int64_t index_;
};

/// The engine's phase counters for one call, laid out back to back from
/// the start of the span around that call. The counters say how long each
/// phase took, not exactly when, so these children are marked derived.
void AddPhases(SpanLog* log, int64_t parent, const QueryStats& stats,
               bool ranked) {
  if (parent < 0) return;
  const std::pair<const char*, uint64_t> phases[] = {
      {"psql.parse", stats.parse_ns},
      {"psql.translate", stats.translate_ns},
      {"eval.optimize", stats.optimize_ns},
      {"exec.compile", stats.compile_ns},
      {ranked ? "eval.ranked" : "exec.kernel", stats.execute_ns},
  };
  int64_t at = log->spans()[static_cast<size_t>(parent)].start_ns;
  for (const auto& [name, ns] : phases) {
    if (ns == 0) continue;
    log->AddDerived(name, parent, at, at + static_cast<int64_t>(ns));
    at += static_cast<int64_t>(ns);
  }
}

/// Everything a replayed reader needs, shared read-only by its threads.
struct ReplayContext {
  const Workload* workload;
  const Inputs* inputs;
  Engine* engine;
  std::vector<bool> ranked;  // per statement
};

/// One read through the calls the server makes for it: Engine::Execute
/// for statement text (the server's query path) or PreparedQuery::Run for
/// a handle, then SerializeResult, then the client's ParseResult.
ReplayRead ReplayOne(const ReplayContext& ctx,
                     const std::vector<PreparedQuery>& handles,
                     size_t statement, size_t i, uint64_t request,
                     SpanLog* log, std::string* error) {
  ReplayRead read;
  read.statement = static_cast<uint32_t>(statement);
  read.handle = RunsHandle(*ctx.workload, i, ctx.inputs->statements.size());
  read.ranked = ctx.ranked[statement];
  const Clock::time_point t0 = Clock::now();
  const int64_t root = log->Open("request", request);
  const int64_t call =
      log->Open(read.handle ? "engine.run" : "engine.execute", request);
  prefdb::psql::QueryResult result =
      read.handle ? handles[statement].Run()
                  : ctx.engine->Execute(ctx.inputs->statements[statement],
                                        ServedBmo());
  log->Close(call);
  AddPhases(log, call, result.stats, read.ranked);
  const Clock::time_point t1 = Clock::now();
  std::string payload;
  {
    Scoped span(log, "server.encode", request);
    payload = prefdb::server::SerializeResult(result);
  }
  const Clock::time_point t2 = Clock::now();
  bool parsed = false;
  {
    Scoped span(log, "server.decode", request);
    parsed = prefdb::server::ParseResult(payload).has_value();
  }
  const Clock::time_point t3 = Clock::now();
  log->Close(root);
  if (!parsed && error->empty()) {
    *error = "replayed result does not parse: " +
             ctx.inputs->statements[statement];
  }
  read.latency_ms = Millis(t3 - t0);
  read.stats = std::move(result.stats);
  read.result_bytes = payload.size();
  read.encode_ms = Millis(t2 - t1);
  read.decode_ms = Millis(t3 - t2);
  return read;
}

/// Share of templates whose EXPLAIN reports a zero-copy compile, on a
/// throwaway engine so no replayed engine's caches see the EXPLAINs.
double ZeroCopyFrac(const Inputs& inputs) {
  Engine engine;
  RegisterTables(inputs, &engine);
  size_t zero_copy = 0;
  for (size_t t = 0; t < inputs.templates.size(); ++t) {
    size_t s = static_cast<size_t>(
        std::find(inputs.template_of.begin(), inputs.template_of.end(), t) -
        inputs.template_of.begin());
    prefdb::psql::QueryResult explain =
        engine.Execute("EXPLAIN " + inputs.statements[s], ServedBmo());
    if (explain.plan_details.find("compile: zero-copy") != std::string::npos) {
      ++zero_copy;
    }
  }
  return static_cast<double>(zero_copy) /
         static_cast<double>(inputs.templates.size());
}

/// Feeds the window's mutations to a standalone MaintainedView per
/// subscribed statement, timing each ApplyInsert / ApplyDelete.
void ApplyStandalone(const Inputs& inputs, size_t mutations, SpanLog* log,
                     std::vector<double>* apply_us) {
  std::vector<prefdb::ivm::MaintainedView> views;
  for (const std::string& sql : inputs.subscriptions) {
    prefdb::psql::SelectStatement stmt = prefdb::psql::Parse(sql);
    std::function<bool(const prefdb::Tuple&)> where;
    if (stmt.where) {
      where = prefdb::psql::CompileCondition(*stmt.where, inputs.car.schema());
    }
    views.emplace_back(prefdb::psql::TranslatePreferenceChain(stmt.preferring),
                       where, inputs.car, 1, ServedBmo());
  }
  std::vector<int64_t> oids;  // the table's oid column, in row order
  for (size_t i = 0; i < inputs.car.size(); ++i) {
    oids.push_back(inputs.car.ValueAt(i, 0).as_int());
  }
  for (size_t k = 0; k < mutations; ++k) {
    const Mutation& m = inputs.mutations[k];
    const uint64_t version = 2 + k;
    size_t row = m.insert ? oids.size()
                          : static_cast<size_t>(
                                std::find(oids.begin(), oids.end(), m.oid) -
                                oids.begin());
    for (prefdb::ivm::MaintainedView& view : views) {
      const Clock::time_point t0 = Clock::now();
      {
        Scoped span(log, m.insert ? "ivm.apply_insert" : "ivm.apply_delete",
                    k);
        if (m.insert) {
          view.ApplyInsert(m.row, row, version);
        } else {
          view.ApplyDelete({row}, version);
        }
      }
      apply_us->push_back(Millis(Clock::now() - t0) * 1e3);
    }
    if (m.insert) {
      oids.push_back(m.oid);
    } else {
      oids.erase(oids.begin() + static_cast<std::ptrdiff_t>(row));
    }
  }
}

uint64_t RequestId(size_t thread, size_t i) {
  return (static_cast<uint64_t>(thread) << 32) | static_cast<uint64_t>(i);
}

}  // namespace

int64_t SpanLog::Open(const char* name, uint64_t request) {
  if (!enabled_) return -1;
  int64_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(
      {name, request, parent, SinceNs(epoch_, Clock::now()), 0, false});
  open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::Close(int64_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = SinceNs(epoch_, Clock::now());
  open_.pop_back();
}

void SpanLog::Record(const char* name, uint64_t request,
                     Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  spans_.push_back({name, request, open_.empty() ? -1 : open_.back(),
                    SinceNs(epoch_, start), SinceNs(epoch_, end), false});
}

void SpanLog::AddDerived(const char* name, int64_t parent, int64_t start_ns,
                         int64_t end_ns) {
  if (!enabled_) return;
  spans_.push_back({name, spans_[static_cast<size_t>(parent)].request, parent,
                    start_ns, end_ns, true});
}

Replay RunReplay(const Workload& workload, const Inputs& inputs,
                 const TcpRun& tcp, bool spans) {
  Replay out;
  const size_t readers = Readers(workload);
  const bool writes = workload.write_rate > 0;
  const Clock::time_point epoch = Clock::now();
  // Log 0: set-up; 1..readers: readers; then writer, subscriber, views.
  out.logs.assign(readers + 4, SpanLog(spans, epoch));
  SpanLog* setup_log = &out.logs[0];
  SpanLog* writer_log = &out.logs[readers + 1];
  SpanLog* subscriber_log = &out.logs[readers + 2];

  Engine engine;
  {
    Scoped span(setup_log, "engine.register", 0);
    RegisterTables(inputs, &engine);
  }
  {
    Scoped span(setup_log, "stats.derive", 0);
    DeriveStats(&engine);
  }
  ReplayContext ctx{&workload, &inputs, &engine, {}};
  for (const std::string& sql : inputs.statements) {
    ctx.ranked.push_back(prefdb::psql::Parse(sql).ranked);
  }
  std::vector<std::vector<PreparedQuery>> handles(readers);
  if (workload.prepared_half) {
    for (size_t c = 0; c < readers; ++c) {
      for (size_t s = 0; s < inputs.statements.size(); ++s) {
        const Clock::time_point t0 = Clock::now();
        Scoped span(&out.logs[c + 1], "engine.prepare", RequestId(c + 1, s));
        handles[c].push_back(engine.Prepare(inputs.statements[s], ServedBmo()));
        out.prepare_us.push_back(Millis(Clock::now() - t0) * 1e3);
      }
    }
  }
  std::vector<Engine::Subscription> subscriptions;
  for (const std::string& sql : inputs.subscriptions) {
    subscriptions.push_back(engine.Subscribe(sql, ServedBmo()));
    while (subscriptions.back().Poll()) {
    }
  }

  // Warm-up: the TCP run's warm-up streams, unrecorded.
  std::vector<std::string> errors(readers);
  {
    const size_t limit = WarmupPerReader(workload, inputs, readers);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < readers; ++c) {
      threads.emplace_back([&, c] {
        SpanLog off(false, epoch);
        RequestStream stream(workload, inputs, c, readers,
                             RequestStream::Phase::kWarmup);
        for (size_t i = 0; i < limit; ++i) {
          ReplayOne(ctx, handles[c], stream.Next(), i, 0, &off, &errors[c]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // The window's requests and mutations.
  std::vector<std::vector<ReplayRead>> reads(readers);
  std::vector<Clock::time_point> last_done(readers);
  std::atomic<bool> writer_done{false};
  std::string writer_error;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < readers; ++c) {
      threads.emplace_back([&, c] {
        std::this_thread::sleep_until(start);
        RequestStream stream(workload, inputs, c, readers,
                             RequestStream::Phase::kWindow);
        // Spans for an even subsample of at most kTracedPerReader
        // requests: every request of serve_pipelined made a 180 MB file.
        const size_t sent = tcp.sent_per_reader[c];
        const size_t stride =
            std::max<size_t>(1, (sent + kTracedPerReader - 1) /
                                    kTracedPerReader);
        SpanLog untraced(false, epoch);
        for (size_t i = 0; i < sent; ++i) {
          SpanLog* log = i % stride == 0 ? &out.logs[c + 1] : &untraced;
          reads[c].push_back(ReplayOne(ctx, handles[c], stream.Next(), i,
                                       RequestId(c + 1, i), log, &errors[c]));
        }
        last_done[c] = Clock::now();
      });
    }
    std::thread writer;
    std::thread subscriber;
    if (writes) {
      writer = std::thread([&] {
        try {
          for (size_t k = 0; k < tcp.mutations; ++k) {
            const Mutation& m = inputs.mutations[k];
            std::this_thread::sleep_until(DueAt(start, m));
            const Clock::time_point t0 = Clock::now();
            Scoped span(writer_log,
                        m.insert ? "engine.insert" : "engine.delete",
                        RequestId(readers + 1, k));
            if (m.insert) {
              engine.Insert("car", m.row);
              out.insert_ms.push_back(Millis(Clock::now() - t0));
            } else {
              const int64_t oid = m.oid;
              engine.Delete("car", [oid](const prefdb::Tuple& t) {
                return t[0].is_int() && t[0].as_int() == oid;
              });
              out.delete_ms.push_back(Millis(Clock::now() - t0));
            }
          }
        } catch (const std::exception& e) {
          writer_error = std::string("replayed mutation failed: ") + e.what();
        }
        writer_done.store(true);
      });
      subscriber = std::thread([&] {
        // Mutations queue their deltas before they return, so once the
        // writer is done one more empty pass has drained everything.
        uint64_t polled = 0;
        for (bool last_pass = false;;) {
          bool any = false;
          for (Engine::Subscription& sub : subscriptions) {
            const Clock::time_point t0 = Clock::now();
            std::optional<prefdb::ivm::ViewDelta> delta = sub.Poll();
            if (!delta) continue;
            subscriber_log->Record("ivm.poll", polled++, t0, Clock::now());
            any = true;
          }
          if (last_pass) break;
          if (!any) {
            last_pass = writer_done.load();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (writer.joinable()) writer.join();
    if (subscriber.joinable()) subscriber.join();
  }

  for (size_t c = 0; c < readers; ++c) {
    out.reader_wall_s =
        std::max(out.reader_wall_s, Seconds(last_done[c] - start));
    out.reads.insert(out.reads.end(), reads[c].begin(), reads[c].end());
    if (!errors[c].empty()) out.errors.push_back(errors[c]);
  }
  if (!writer_error.empty()) out.errors.push_back(writer_error);
  for (const Engine::Subscription& sub : subscriptions) {
    prefdb::ViewMaintenanceStats stats = sub.view_stats();
    out.ivm_enters += stats.enters;
    out.ivm_exits += stats.exits;
    out.ivm_reseeds += stats.reseeds;
    out.coalesced_resyncs += sub.coalesced_resyncs();
  }
  if (writes) {
    ApplyStandalone(inputs, tcp.mutations, &out.logs[readers + 3],
                    &out.apply_us);
  }
  return out;
}

void WriteSpans(const Replay& replay, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  int64_t base = 0;
  for (size_t thread = 0; thread < replay.logs.size(); ++thread) {
    const std::vector<Span>& spans = replay.logs[thread].spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"id\": %lld, \"thread\": %zu, \"request\": %llu, "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"parent\": %lld, \"self_ns\": %lld, \"derived\": %s}\n",
                   static_cast<long long>(base + static_cast<int64_t>(i)),
                   thread, static_cast<unsigned long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent < 0 ? -1 : base + s.parent),
                   static_cast<long long>(s.end_ns - s.start_ns - child_ns[i]),
                   s.derived ? "true" : "false");
    }
    base += static_cast<int64_t>(spans.size());
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

void AddLayerMetrics(const Inputs& inputs, const TcpRun& tcp,
                     const Replay& off, const Replay& on, Report* report) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto& cb = tcp.cache_before;
  const auto& ca = tcp.cache_after;
  const auto& sb = tcp.server_before;
  const auto& sa = tcp.server_after;

  std::vector<double> parse_us, translate_us, optimize_us, compile_ms,
      kernel_ms, ranked_ms, cost_error, encode_us, encode_ms, bytes, decode_ms;
  std::map<std::string, double> kernel_family_ms = {
      {"bnl", 0}, {"sfs", 0}, {"dc", 0}, {"per-group", 0}, {"closure", 0}};
  for (const ReplayRead& r : on.reads) {
    const QueryStats& s = r.stats;
    if (!s.plan_cache_hit) {
      parse_us.push_back(static_cast<double>(s.parse_ns) / 1e3);
      translate_us.push_back(static_cast<double>(s.translate_ns) / 1e3);
    }
    if (!s.exec_cache_hit) {
      optimize_us.push_back(static_cast<double>(s.optimize_ns) / 1e3);
      compile_ms.push_back(static_cast<double>(s.compile_ns) / 1e6);
    }
    const double execute_ms = static_cast<double>(s.execute_ns) / 1e6;
    if (r.ranked) {
      ranked_ms.push_back(execute_ms);
    } else {
      kernel_ms.push_back(execute_ms);
      std::string family = s.kernel.substr(0, s.kernel.find('['));
      auto it = kernel_family_ms.find(family);
      if (it != kernel_family_ms.end()) it->second += execute_ms;
    }
    if (s.estimated_cost_ns > 0 && s.execute_ns > 0) {
      cost_error.push_back(std::fabs(std::log2(
          static_cast<double>(s.execute_ns) / s.estimated_cost_ns)));
    }
    encode_us.push_back(r.encode_ms * 1e3);
    encode_ms.push_back(r.encode_ms);
    decode_ms.push_back(r.decode_ms);
    bytes.push_back(static_cast<double>(r.result_bytes));
  }

  // Wire, event loop and queue time: what a statement's served median
  // keeps beyond its in-process median, taken per template.
  std::map<size_t, std::vector<double>> served, local;
  for (const ReadSample& s : tcp.reads) {
    if (std::isfinite(s.latency_ms)) {
      served[inputs.template_of[s.statement]].push_back(s.latency_ms);
    }
  }
  for (const ReplayRead& r : off.reads) {
    local[inputs.template_of[r.statement]].push_back(r.latency_ms);
  }
  std::vector<double> residual;
  for (const auto& [t, ms] : served) {
    auto it = local.find(t);
    if (it != local.end()) residual.push_back(Median(ms) - Median(it->second));
  }

  const double plan_lookups = static_cast<double>(
      (ca.plan_hits - cb.plan_hits) + (ca.plan_misses - cb.plan_misses));
  const double exec_lookups = static_cast<double>(
      (ca.exec_hits - cb.exec_hits) + (ca.exec_misses - cb.exec_misses));

  report->Add("psql.parse_us.p50", Median(parse_us), "us");
  report->Add("psql.translate_us.p50", Median(translate_us), "us");
  report->Add("eval.optimize_us.p50", Median(optimize_us), "us");
  report->Add("engine.plan_hit_ratio",
              ratio(static_cast<double>(ca.plan_hits - cb.plan_hits),
                    plan_lookups),
              "ratio");
  report->Add("engine.exec_hit_ratio",
              ratio(static_cast<double>(ca.exec_hits - cb.exec_hits),
                    exec_lookups),
              "ratio");
  report->Add("engine.exec_evictions",
              static_cast<double>(ca.exec_evictions - cb.exec_evictions),
              "count");
  report->Add("engine.invalidations",
              static_cast<double>(ca.invalidations - cb.invalidations),
              "count");
  report->Add("engine.exec_refreshes",
              static_cast<double>(ca.exec_refreshes - cb.exec_refreshes),
              "count");
  report->Add("engine.lock_contention_ratio",
              ratio(static_cast<double>(ca.lock_contentions -
                                        cb.lock_contentions),
                    static_cast<double>(ca.lock_acquisitions -
                                        cb.lock_acquisitions)),
              "ratio");
  report->Add("engine.prepare_us.p50", Median(on.prepare_us), "us");
  report->Add("engine.insert_ms.p50", Median(on.insert_ms), "ms");
  report->Add("engine.insert_ms.p95", Quantile(on.insert_ms, 0.95), "ms");
  report->Add("engine.delete_ms.p50", Median(on.delete_ms), "ms");
  report->Add("engine.register_ms", Median(tcp.register_ms), "ms");
  report->Add("stats.derive_ms", Median(tcp.derive_ms), "ms");
  report->Add("exec.compile_ms.p50", Median(compile_ms), "ms");
  report->Add("exec.compile_ms.sum", Sum(compile_ms), "ms");
  report->Add("exec.zero_copy_frac", ZeroCopyFrac(inputs), "ratio");
  report->Add("exec.kernel_ms.p50", Median(kernel_ms), "ms");
  report->Add("exec.kernel_ms.sum", Sum(kernel_ms), "ms");
  for (const auto& [family, ms] : kernel_family_ms) {
    report->Add("exec.kernel_ms.sum." + family, ms, "ms");
  }
  report->Add("eval.ranked_ms.p50", Median(ranked_ms), "ms");
  report->Add("eval.cost_error.p50", Median(cost_error), "log2");
  report->Add("server.encode_us.p50", Median(encode_us), "us");
  report->Add("server.encode_ms.sum", Sum(encode_ms), "ms");
  report->Add("server.result_bytes.mean",
              ratio(Sum(bytes), static_cast<double>(bytes.size())), "bytes");
  report->Add("server.decode_ms.sum", Sum(decode_ms), "ms");
  report->Add("server.residual_ms.p50", Median(residual), "ms");
  report->Add("server.peak_queue_depth",
              static_cast<double>(sa.peak_queue_depth), "count");
  report->Add("server.read_pauses",
              static_cast<double>(sa.read_pauses - sb.read_pauses), "count");
  report->Add("server.rejected",
              static_cast<double>(
                  (sa.queries_rejected_overload -
                   sb.queries_rejected_overload) +
                  (sa.queries_timeout - sb.queries_timeout) +
                  (sa.sessions_rejected - sb.sessions_rejected)),
              "count");
  report->Add("server.deltas_pushed",
              static_cast<double>(sa.deltas_pushed - sb.deltas_pushed),
              "count");
  report->Add("ivm.enters", static_cast<double>(on.ivm_enters), "count");
  report->Add("ivm.exits", static_cast<double>(on.ivm_exits), "count");
  report->Add("ivm.reseeds", static_cast<double>(on.ivm_reseeds), "count");
  report->Add("ivm.coalesced_resyncs",
              static_cast<double>(on.coalesced_resyncs), "count");
  report->Add("ivm.apply_us.p50", Median(on.apply_us), "us");
  // What users see, measured in the TCP window with spans off.
  std::vector<double> read_ms;
  for (const ReadSample& s : tcp.reads) read_ms.push_back(s.latency_ms);
  report->Add("qps", static_cast<double>(tcp.reads_ok) / tcp.window_s,
              "req/s");
  report->Add("read_p50_ms", Median(read_ms), "ms");
  report->Add("read_p99_ms", Quantile(read_ms, 0.99), "ms");
  report->Add("write_p50_ms", Median(tcp.write_ms), "ms");
  report->Add("write_p95_ms", Quantile(tcp.write_ms, 0.95), "ms");
  report->Add("delta_lag_p50_ms", Median(tcp.delta_lag_ms), "ms");
  report->Add("delta_lag_p90_ms", Quantile(tcp.delta_lag_ms, 0.90), "ms");
  report->Add("failed_frac",
              ratio(static_cast<double>(tcp.failed),
                    static_cast<double>(tcp.attempted)),
              "ratio");
  report->Add("driver.writer_late_p95_ms", Quantile(tcp.writer_late_ms, 0.95),
              "ms");
  report->Add("driver.trace_overhead_frac",
              ratio(on.reader_wall_s - off.reader_wall_s, off.reader_wall_s),
              "ratio");
  report->Add("driver.samples.read", static_cast<double>(tcp.reads.size()),
              "count");
  report->Add("driver.samples.write", static_cast<double>(tcp.write_ms.size()),
              "count");
  report->Add("driver.samples.delta",
              static_cast<double>(tcp.delta_lag_ms.size()), "count");
}

}  // namespace prefbench
