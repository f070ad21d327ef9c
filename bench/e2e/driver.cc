#include "driver.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "metrics.h"
#include "psql/parser.h"
#include "server/client.h"
#include "server/protocol.h"

namespace prefbench {

namespace {

using prefdb::Engine;
using prefdb::Relation;
using prefdb::server::Client;
using prefdb::server::ClientResponse;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// After the writer's last acknowledged mutation, the subscriber keeps
/// reading until no delta has arrived for this long: every delta was
/// queued before that acknowledgement, so only the push is outstanding.
constexpr auto kDeltaQuiet = std::chrono::milliseconds(200);
/// Bootstrap resyncs follow the subscribe acknowledgement immediately.
constexpr uint64_t kBootstrapWaitMs = 10000;
/// setup_s is the median of at least kMinSetups set-ups; cheap set-ups
/// repeat, up to kMaxSetups, until they add up to kSetupBudgetS.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 15;
constexpr double kSetupBudgetS = 3.0;

/// A result in the wire's encoding with the kernel line left empty, so a
/// served answer compares byte for byte with the reference's. The kernel
/// only names the plan, which differs where it may: a subscribed
/// statement is served from its maintained view ("ivm-delta").
std::string Payload(prefdb::psql::QueryResult result) {
  result.stats.kernel.clear();
  return prefdb::server::SerializeResult(result);
}

std::string Payload(const ClientResponse& response) {
  prefdb::psql::QueryResult result;
  result.relation = response.relation;
  result.utilities = response.utilities;
  return Payload(std::move(result));
}

std::multiset<std::string> RowSet(const std::vector<prefdb::Tuple>& rows) {
  std::multiset<std::string> out;
  for (const prefdb::Tuple& t : rows) out.insert(t.ToString());
  return out;
}

/// Single-threaded, cache-less executions of every statement it is asked
/// about, memoized by SQL text: the answers served results must equal.
/// Get and Rows execute; Find only looks up, so once every answer a phase
/// needs has been computed, threads may call Find concurrently.
class Reference {
 public:
  struct Answer {
    std::string payload;
    size_t rows = 0;
  };

  Reference(const Relation& car, const Relation& trip)
      : car_(car), trip_(trip) {}

  const Answer& Get(const std::string& sql) {
    auto it = memo_.find(sql);
    if (it != memo_.end()) return it->second;
    prefdb::psql::QueryResult result = engine().Execute(sql, ServedBmo());
    const size_t rows = result.relation.size();
    Answer answer{Payload(std::move(result)), rows};
    return memo_.emplace(sql, std::move(answer)).first->second;
  }

  /// nullptr when `sql` has not been executed.
  const Answer* Find(const std::string& sql) const {
    auto it = memo_.find(sql);
    return it == memo_.end() ? nullptr : &it->second;
  }

  std::multiset<std::string> Rows(const std::string& sql) {
    return RowSet(engine().Execute(sql, ServedBmo()).relation.tuples());
  }

  /// Frees the engine and what it built for its executions (at 100k rows
  /// about 100 MiB); the answers stay, and Get and Rows start a new one.
  void ReleaseEngine() { engine_.reset(); }

 private:
  Engine& engine() {
    if (!engine_) {
      prefdb::EngineOptions options;
      options.bmo = ServedBmo();
      options.enable_plan_cache = false;
      options.enable_exec_cache = false;
      engine_ = std::make_unique<Engine>(options);
      engine_->RegisterTable("car", car_);
      if (!trip_.empty()) engine_->RegisterTable("trip", trip_);
    }
    return *engine_;
  }

  Relation car_;
  Relation trip_;
  std::unique_ptr<Engine> engine_;
  std::map<std::string, Answer> memo_;
};

/// One set-up: the served engine, its server, and every connection the
/// workload drives. Members are destroyed in reverse order: connections
/// close before the server drains and stops, and the server stops before
/// the engine goes.
struct Session {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<prefdb::server::Server> server;
  std::vector<Client> readers;
  /// Per reader, the server-side prepared handle of each statement.
  std::vector<std::vector<uint64_t>> handles;
  Client writer;
  Client subscriber;
  /// Server subscription id -> index into Inputs::subscriptions.
  std::map<uint64_t, size_t> subscription_index;
  /// Each subscription's result as the delivered deltas build it.
  std::vector<std::multiset<std::string>> subscribed_rows;
};

/// Row-count rule for a window read: equal to the reference's count when
/// the tables are read-only, else a nonempty BMO answer or exactly the
/// TOP k / LIMIT count. Readers call it concurrently.
class RowCheck {
 public:
  RowCheck(const Workload& workload, const Inputs& inputs,
           const Reference& reference)
      : mutable_(workload.write_rate > 0), inputs_(&inputs),
        reference_(&reference) {
    if (!mutable_) return;
    for (const std::string& sql : inputs.statements) {
      prefdb::psql::SelectStatement stmt = prefdb::psql::Parse(sql);
      fixed_.push_back(stmt.top_k > 0 ? stmt.top_k : stmt.limit);
    }
  }

  bool Ok(size_t statement, size_t rows) {
    if (mutable_) {
      size_t fixed = fixed_[statement];
      return fixed > 0 ? rows == fixed : rows >= 1;
    }
    const Reference::Answer* answer =
        reference_->Find(inputs_->statements[statement]);
    if (answer != nullptr) return rows == answer->rows;
    // Unchecked statement: every answer to it must agree.
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, first] = seen_.emplace(statement, rows);
    return first || it->second == rows;
  }

 private:
  bool mutable_;
  const Inputs* inputs_;
  std::vector<size_t> fixed_;
  const Reference* reference_;
  std::mutex mu_;  // guards seen_
  std::map<size_t, size_t> seen_;
};

/// A reader's window latencies, in a buffer allocated once. When it
/// fills, every other sample is dropped and from then on only every
/// stride-th request is kept, so the samples stay spread evenly over the
/// window while the benchmark's own memory, which peak_rss_mb counts,
/// stays the same however many requests complete.
class SampleLog {
 public:
  explicit SampleLog(size_t capacity) : samples_(capacity) {}

  void Add(const ReadSample& sample) {
    const uint64_t i = seen_++;
    if (samples_.empty() || i % stride_ != 0) return;
    if (used_ == samples_.size()) {
      used_ = (used_ + 1) / 2;
      for (size_t k = 0; k < used_; ++k) samples_[k] = samples_[2 * k];
      stride_ *= 2;
      if (i % stride_ != 0) return;
    }
    samples_[used_++] = sample;
  }

  /// The kept samples, in request order.
  std::vector<ReadSample> Take() && {
    samples_.resize(used_);
    return std::move(samples_);
  }

 private:
  std::vector<ReadSample> samples_;
  size_t used_ = 0;
  uint64_t seen_ = 0;
  uint64_t stride_ = 1;
};

/// Latency samples each reader keeps in the window.
constexpr size_t kSamplesPerReader = 8192;

struct ReaderLog {
  explicit ReaderLog(size_t sample_capacity) : samples(sample_capacity) {}
  SampleLog samples;
  /// Window: the statements of every check_every-th request.
  std::set<size_t> recheck;
  size_t sent = 0;
  /// Window reads that completed and passed their row-count check.
  uint64_t ok = 0;
  Clock::time_point last_done{};
  std::string error;
};

/// A closed-loop reader: keeps `depth` requests in flight until it has
/// sent `limit` or the deadline passes, then retires what is in flight.
/// Latency runs from the send to the parsed response, retired in order.
/// With `window` the reader is measuring: it checks each row count and
/// logs latencies. Without it (the warm-up) every check_every-th response
/// is byte-compared with the reference's answer as it arrives; those
/// answers must already be in `reference`.
void RunReader(const Workload& workload, const Inputs& inputs, Client* client,
               const std::vector<uint64_t>& handles, RequestStream stream,
               size_t limit, Clock::time_point deadline, RowCheck* window,
               const Reference& reference, ReaderLog* log) {
  struct Inflight {
    Client::ResponseFuture future;
    Clock::time_point sent;
    size_t statement;
    size_t index;
  };
  std::deque<Inflight> inflight;
  const size_t n = inputs.statements.size();
  auto more = [&] { return log->sent < limit && Clock::now() < deadline; };
  auto send = [&] {
    size_t s = stream.Next();
    size_t i = log->sent++;
    Clock::time_point t = Clock::now();
    Client::ResponseFuture future =
        RunsHandle(workload, i, n) ? client->SendRun(handles[s])
            : client->SendQuery(inputs.statements[s]);
    inflight.push_back({std::move(future), t, s, i});
  };
  try {
    while (inflight.size() < workload.depth && more()) send();
    while (!inflight.empty()) {
      Inflight request = std::move(inflight.front());
      inflight.pop_front();
      ClientResponse response = request.future.Get();
      Clock::time_point done = Clock::now();
      log->last_done = done;
      const std::string& sql = inputs.statements[request.statement];
      bool ok = response.ok;
      if (!ok && log->error.empty()) {
        log->error =
            "request failed: " + response.error.message + " (" + sql + ")";
      }
      const bool checked = request.index % workload.check_every == 0;
      if (window != nullptr) {
        const size_t rows = response.relation.size();
        if (ok && !window->Ok(request.statement, rows)) {
          ok = false;
          if (log->error.empty()) {
            log->error = "unexpected row count " + std::to_string(rows) +
                         " for " + sql;
          }
        }
        log->ok += ok ? 1 : 0;
        log->samples.Add({ok ? Millis(done - request.sent) : kInf,
                          static_cast<uint32_t>(request.statement)});
        if (checked) log->recheck.insert(request.statement);
      } else if (ok && checked) {
        const Reference::Answer* answer = reference.Find(sql);
        if (answer == nullptr || Payload(response) != answer->payload) {
          if (log->error.empty()) {
            log->error = "served result differs from the reference: " + sql;
          }
        }
      }
      if (more()) send();
    }
  } catch (const std::exception& e) {
    log->error = std::string("reader connection failed: ") + e.what();
  }
}

struct WriterLog {
  std::vector<double> write_ms;
  std::vector<double> late_ms;
  size_t sent = 0;
  size_t inserts = 0;
  size_t deletes = 0;
  std::string error;
};

/// The open-loop writer: each mutation is timed from its due time, so a
/// stall also charges the mutations queued behind it. One request is in
/// flight at a time.
void RunWriter(const Inputs& inputs, Client* client, Clock::time_point start,
               Clock::time_point deadline, WriterLog* log) {
  try {
    for (size_t k = 0; k < inputs.mutations.size(); ++k) {
      const Mutation& m = inputs.mutations[k];
      const Clock::time_point due = DueAt(start, m);
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      Clock::time_point sent = Clock::now();
      ClientResponse r =
          m.insert ? client->SendInsert("car", m.row).Get()
                   : client->Query("DELETE FROM car WHERE oid = " +
                                   std::to_string(m.oid));
      Clock::time_point done = Clock::now();
      ++log->sent;
      bool ok = r.ok && (m.insert || (r.relation.size() == 1 &&
                                      r.relation.at(0)[0].is_int() &&
                                      r.relation.at(0)[0].as_int() == 1));
      log->late_ms.push_back(Millis(sent - due));
      log->write_ms.push_back(ok ? Millis(done - due) : kInf);
      if (ok && m.insert) ++log->inserts;
      if (ok && !m.insert) ++log->deletes;
      if (!ok && log->error.empty()) {
        log->error = "mutation " + std::to_string(k) + " failed: " +
                     (r.ok ? "deleted no row" : r.error.message);
      }
    }
  } catch (const std::exception& e) {
    log->error = std::string("writer connection failed: ") + e.what();
  }
}

/// Applies one delta to the subscription's delivered result set.
bool ApplyDelta(const prefdb::server::WireDelta& delta,
                std::multiset<std::string>* rows) {
  if (delta.resync) rows->clear();
  for (const prefdb::Tuple& t : delta.exits.tuples()) {
    auto it = rows->find(t.ToString());
    if (it == rows->end()) return false;
    rows->erase(it);
  }
  for (const prefdb::Tuple& t : delta.enters.tuples()) {
    rows->insert(t.ToString());
  }
  return true;
}

struct SubscriberLog {
  std::vector<double> lag_ms;
  std::string error;
};

/// Reads deltas until the writer is done and the stream has gone quiet.
/// Table version v0 + k + 1 is mutation k's, so each delta's lag runs
/// from that mutation's due time.
void RunSubscriber(const Inputs& inputs, Session* session, uint64_t v0,
                   Clock::time_point start,
                   const std::atomic<bool>& writer_done, SubscriberLog* log) {
  Clock::time_point last = Clock::now();
  bool done_seen = false;
  try {
    for (;;) {
      auto delta = session->subscriber.ReadDelta(20);
      Clock::time_point now = Clock::now();
      if (!delta) {
        if (!done_seen && writer_done.load()) {
          done_seen = true;
          last = std::max(last, now);
        }
        if (done_seen && now - last >= kDeltaQuiet) return;
        continue;
      }
      last = now;
      auto it = session->subscription_index.find(delta->subscription);
      uint64_t k = delta->version - v0 - 1;
      if (it == session->subscription_index.end() || delta->version <= v0 ||
          k >= inputs.mutations.size()) {
        log->error = "delta for an unknown subscription or version " +
                     std::to_string(delta->version);
        return;
      }
      if (!ApplyDelta(*delta, &session->subscribed_rows[it->second])) {
        log->error = "delta removes a row the subscriber never received";
        return;
      }
      log->lag_ms.push_back(Millis(now - DueAt(start, inputs.mutations[k])));
    }
  } catch (const std::exception& e) {
    log->error = std::string("subscriber connection failed: ") + e.what();
  }
}

/// Builds, starts, connects and warms one session, timing all of it as
/// one set-up. The warm-up's checked answers are compared as they arrive.
std::unique_ptr<Session> SetUp(const Workload& workload, const Inputs& inputs,
                               const Reference& reference, TcpRun* run) {
  auto session = std::make_unique<Session>();
  const size_t readers = Readers(workload);
  Clock::time_point t0 = Clock::now();
  session->engine = std::make_unique<Engine>();
  run->register_ms.push_back(RegisterTables(inputs, session->engine.get()));
  run->derive_ms.push_back(DeriveStats(session->engine.get()));
  // num_workers stays 0: one worker per hardware thread.
  session->server = std::make_unique<prefdb::server::Server>(
      session->engine.get(), prefdb::server::ServerOptions{});
  session->server->Start();
  const uint16_t port = session->server->port();
  session->readers.resize(readers);
  session->handles.resize(readers);
  for (size_t c = 0; c < readers; ++c) {
    session->readers[c].Connect("127.0.0.1", port);
    if (!workload.prepared_half) continue;
    for (const std::string& sql : inputs.statements) {
      ClientResponse r = session->readers[c].Prepare(sql);
      if (!r.ok) throw std::runtime_error("prepare failed: " + sql);
      session->handles[c].push_back(r.handle);
    }
  }
  if (workload.write_rate > 0) {
    session->writer.Connect("127.0.0.1", port);
    session->subscriber.Connect("127.0.0.1", port);
    for (size_t i = 0; i < inputs.subscriptions.size(); ++i) {
      ClientResponse r = session->subscriber.Subscribe(inputs.subscriptions[i]);
      if (!r.ok) {
        throw std::runtime_error("subscribe failed: " + r.error.message);
      }
      session->subscription_index[r.handle] = i;
    }
    session->subscribed_rows.resize(inputs.subscriptions.size());
    for (size_t i = 0; i < inputs.subscriptions.size(); ++i) {
      auto boot = session->subscriber.ReadDelta(kBootstrapWaitMs);
      if (!boot || !boot->resync ||
          session->subscription_index.count(boot->subscription) == 0) {
        throw std::runtime_error("no bootstrap resync for a subscription");
      }
      ApplyDelta(*boot,
                 &session->subscribed_rows
                      [session->subscription_index[boot->subscription]]);
    }
  }
  std::vector<ReaderLog> logs(readers, ReaderLog(0));
  {
    const size_t limit = WarmupPerReader(workload, inputs, readers);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < readers; ++c) {
      threads.emplace_back([&, c] {
        RunReader(workload, inputs, &session->readers[c], session->handles[c],
                  RequestStream(workload, inputs, c, readers,
                                RequestStream::Phase::kWarmup),
                  limit, Clock::time_point::max(), nullptr, reference,
                  &logs[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  run->setup_s.push_back(Seconds(Clock::now() - t0));
  for (const ReaderLog& log : logs) {
    if (!log.error.empty()) run->errors.push_back("warm-up: " + log.error);
  }
  return session;
}

/// Executes on the reference, before any set-up, every statement the
/// warm-up will check: the warm-up streams are fixed by the seed.
void ComputeWarmupAnswers(const Workload& workload, const Inputs& inputs,
                          Reference* reference) {
  const size_t readers = Readers(workload);
  const size_t limit = WarmupPerReader(workload, inputs, readers);
  for (size_t c = 0; c < readers; ++c) {
    RequestStream stream(workload, inputs, c, readers,
                         RequestStream::Phase::kWarmup);
    for (size_t i = 0; i < limit; ++i) {
      const size_t s = stream.Next();
      if (i % workload.check_every == 0) reference->Get(inputs.statements[s]);
    }
  }
}

}  // namespace

size_t Readers(const Workload& workload) {
  size_t threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  return std::min(workload.readers, threads);
}

prefdb::BmoOptions ServedBmo() {
  return prefdb::server::ServerOptions::DefaultSessionBmo();
}

bool RunsHandle(const Workload& workload, size_t i, size_t statements) {
  return workload.prepared_half &&
         (i % statements + i / statements) % 2 == 1;
}

size_t WarmupPerReader(const Workload& workload, const Inputs& inputs,
                       size_t readers) {
  if (workload.warmup_requests > 0) {
    return (workload.warmup_requests + readers - 1) / readers;
  }
  return inputs.statements.size() * (workload.prepared_half ? 2 : 1);
}

Clock::time_point DueAt(Clock::time_point start, const Mutation& m) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(m.due_s));
}

double RegisterTables(const Inputs& inputs, Engine* engine) {
  Clock::time_point t0 = Clock::now();
  engine->RegisterTable("car", inputs.car);
  if (!inputs.trip.empty()) engine->RegisterTable("trip", inputs.trip);
  return Millis(Clock::now() - t0);
}

double DeriveStats(Engine* engine) {
  Clock::time_point t0 = Clock::now();
  for (const std::string& table : engine->TableNames()) engine->Stats(table);
  return Millis(Clock::now() - t0);
}

TcpRun RunTcp(const Workload& workload, const Inputs& inputs,
              double duration_s) {
  TcpRun run;
  // The reference answers come first, so the window's memory holds only
  // the answers, not the engine that computed them.
  Reference reference(inputs.car, inputs.trip);
  ComputeWarmupAnswers(workload, inputs, &reference);
  std::vector<std::multiset<std::string>> bootstraps;
  for (const std::string& sql : inputs.subscriptions) {
    bootstraps.push_back(reference.Rows(sql));
  }
  reference.ReleaseEngine();
  std::unique_ptr<Session> session;
  for (;;) {
    // Every set-up starts from a trimmed heap, not from the memory the
    // thrown-away sessions left behind in the allocator.
    TrimHeap();
    session = SetUp(workload, inputs, reference, &run);
    const size_t done = run.setup_s.size();
    if (done >= kMaxSetups ||
        (done >= kMinSetups && Sum(run.setup_s) >= kSetupBudgetS)) {
      break;
    }
    session.reset();
  }
  for (const auto& [id, i] : session->subscription_index) {
    if (session->subscribed_rows[i] != bootstraps[i]) {
      run.errors.push_back("bootstrap resync differs from the reference: " +
                           inputs.subscriptions[i]);
    }
  }
  RowCheck rows(workload, inputs, reference);
  Engine& engine = *session->engine;
  // peak_rss_mb covers the window alone. The set-up's own peak comes
  // while the warm-up's cold executions overlap, and how many overlap
  // varies: counted in, it spread by a tenth of its median over ten runs
  // of serve_warm.
  TrimHeap();
  if (!ResetPeakRss()) {
    run.errors.push_back("cannot restart VmHWM for peak_rss_mb");
  }

  // --- the measured window
  const size_t readers = Readers(workload);
  std::vector<ReaderLog> logs(readers, ReaderLog(kSamplesPerReader));
  WriterLog writer;
  SubscriberLog subscriber;
  std::atomic<bool> writer_done{false};
  const uint64_t v0 = engine.TableVersion("car");
  run.cache_before = engine.cache_stats();
  run.server_before = session->server->stats();
  // Threads start on a shared instant instead of a barrier.
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(duration_s));
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < readers; ++c) {
      threads.emplace_back([&, c] {
        std::this_thread::sleep_until(start);
        RunReader(workload, inputs, &session->readers[c], session->handles[c],
                  RequestStream(workload, inputs, c, readers,
                                RequestStream::Phase::kWindow),
                  SIZE_MAX, deadline, &rows, reference, &logs[c]);
      });
    }
    std::thread subscriber_thread;
    if (workload.write_rate > 0) {
      threads.emplace_back([&] {
        RunWriter(inputs, &session->writer, start, deadline, &writer);
      });
      subscriber_thread = std::thread([&] {
        RunSubscriber(inputs, session.get(), v0, start, writer_done,
                      &subscriber);
      });
    }
    for (std::thread& t : threads) t.join();
    run.cache_after = engine.cache_stats();
    run.server_after = session->server->stats();
    writer_done.store(true);
    if (subscriber_thread.joinable()) subscriber_thread.join();
  }
  // The checks below are the benchmark's own work, not serving.
  run.peak_rss_mb = PeakRssMb();

  // --- collect, then check
  Clock::time_point last_done = start;
  std::set<size_t> recheck;
  for (ReaderLog& log : logs) {
    last_done = std::max(last_done, log.last_done);
    run.sent_per_reader.push_back(log.sent);
    run.attempted += log.sent;
    run.reads_ok += log.ok;
    std::vector<ReadSample> samples = std::move(log.samples).Take();
    run.reads.insert(run.reads.end(), samples.begin(), samples.end());
    recheck.insert(log.recheck.begin(), log.recheck.end());
    if (!log.error.empty()) run.errors.push_back(log.error);
  }
  run.window_s = Seconds(last_done - start);
  run.attempted += writer.sent;
  run.mutations = writer.sent;
  run.write_ms = writer.write_ms;
  run.writer_late_ms = writer.late_ms;
  run.delta_lag_ms = subscriber.lag_ms;
  for (const std::string* e : {&writer.error, &subscriber.error}) {
    if (!e->empty()) run.errors.push_back(*e);
  }

  // serve_adhoc draws from more statements than the warm-up checked: its
  // sampled window statements are re-sent once more and checked now.
  if (workload.zipf) {
    for (size_t statement : recheck) {
      const std::string& sql = inputs.statements[statement];
      ClientResponse r = session->readers[0].Query(sql);
      if (!r.ok || Payload(r) != reference.Get(sql).payload) {
        run.errors.push_back("re-checked result differs from the "
                             "reference: " + sql);
      }
    }
  }

  uint64_t ok_requests = run.reads_ok;
  for (double ms : run.write_ms) ok_requests += ms != kInf ? 1 : 0;
  run.failed = run.attempted - ok_requests;

  if (workload.write_rate > 0) {
    std::shared_ptr<const Relation> car = engine.Snapshot("car");
    size_t expected = inputs.car.size() + writer.inserts - writer.deletes;
    if (car->size() != expected) {
      run.errors.push_back("car holds " + std::to_string(car->size()) +
                           " rows, expected " + std::to_string(expected));
    }
    Reference final_state(*car, Relation());
    for (const auto& [id, i] : session->subscription_index) {
      if (session->subscribed_rows[i] !=
          final_state.Rows(inputs.subscriptions[i])) {
        run.errors.push_back("resync plus deltas differ from a fresh "
                             "execution: " + inputs.subscriptions[i]);
      }
    }
  }
  if (run.failed > 0 && run.errors.empty()) {
    run.errors.push_back(std::to_string(run.failed) + " requests failed");
  }
  return run;
}

}  // namespace prefbench
