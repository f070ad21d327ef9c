// Load driver + integration checker for the preference query server.
//
// Two modes, both replaying the committed query mix (bench/query_mix.sql)
// through src/server/client.h against a real TCP server:
//
//   --mode load    closed-loop replay at fixed concurrency and pipeline
//                  depth: C client threads each keep up to D requests in
//                  flight on one connection (D=1 degenerates to the
//                  classic blocking request/response loop). Reports p50/p99
//                  per-query latency and sustained QPS, and (with --out)
//                  writes Google-Benchmark-shaped JSON families so the CI
//                  perf gate (bench/compare.py) can diff them against the
//                  committed bench/baselines/BENCH_server.json:
//                    server_cold_anchor       single-threaded cold-engine
//                                             median latency — the
//                                             machine-speed normalizer
//                    server_mix_c<C>_p50      median served latency
//                    server_mix_c<C>_p99      tail latency (report-only:
//                                             not in the baseline file)
//                    server_mix_c<C>_throughput_us
//                                             wall-clock µs per completed
//                                             query (inverse QPS)
//                  In-process runs add the pipelining scenarios on a small
//                  second table set (--pipe-rows) where per-request wire
//                  overhead dominates execution:
//                    server_pipe_c<C>_d1_throughput_us   blocking replay
//                    server_pipe_c<C>_d8_throughput_us   depth-8 pipeline
//                    server_mixed_c256_throughput_us     256 sessions, odd
//                                             ones also holding a skyline
//                                             subscription
//                  The driver enforces the pipelining acceptance ratio
//                  in-process: depth-8 must clear at least --pipe-gate x
//                  the depth-1 throughput or the run exits nonzero.
//   --mode check   replays the mix (cold + warm cache passes) over
//                  --sessions concurrent connections and byte-compares
//                  every result against single-threaded Engine::Execute on
//                  identical data; odd sessions also subscribe to the car
//                  skyline and verify the bootstrap resync row set. Any
//                  divergence exits nonzero. The CI integration-smoke step
//                  runs this at --sessions 1; the mixed-load ctest entry
//                  runs it at --sessions 256.
//
// By default the driver hosts the server in-process on an ephemeral
// loopback port (still full TCP through the kernel); --connect host:port
// targets an external server instead (e.g. examples/serve.cc), which must
// hold the same datagen tables (same --rows/--seed). Pipelining scenarios
// need their own small in-process table set, so they are skipped under
// --connect.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "prefdb.h"
#include "server/client.h"
#include "server/server.h"

namespace {

using namespace prefdb;  // NOLINT(google-build-using-namespace): benchmark driver, brevity wins
using Clock = std::chrono::steady_clock;

constexpr const char* kSubscribeSql =
    "SELECT * FROM car PREFERRING LOWEST(price)";

struct DriverOptions {
  std::string mode = "load";
  std::string mix_path = "bench/query_mix.sql";
  std::string connect;  // "host:port", empty = in-process server
  std::string out;      // JSON path, empty = stdout summary only
  size_t rows = 20000;
  uint64_t seed = 42;
  size_t clients = 16;
  size_t per_client = 120;  // queries per client thread
  size_t repeat = 3;        // anchor replays of the mix
  size_t workers = 0;       // server workers (0 = hardware)
  size_t depth = 1;         // pipeline window per client (load mode)
  size_t sessions = 1;      // concurrent sessions (check mode)
  size_t pipe_rows = 64;    // table size for the pipelining scenarios
  double pipe_gate = 2.0;   // required d8/d1 throughput ratio (0 = off)
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--mode load|check] [--mix FILE] [--connect HOST:PORT]\n"
      "          [--rows N] [--seed S] [--clients C] [--per-client Q]\n"
      "          [--repeat R] [--workers W] [--depth D] [--sessions N]\n"
      "          [--pipe-rows N] [--pipe-gate RATIO]\n"
      "          [--out BENCH_server.json]\n",
      argv0);
  std::exit(2);
}

DriverOptions ParseArgs(int argc, char** argv) {
  DriverOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--mode") opt.mode = next();
    else if (arg == "--mix") opt.mix_path = next();
    else if (arg == "--connect") opt.connect = next();
    else if (arg == "--out") opt.out = next();
    else if (arg == "--rows") opt.rows = std::strtoull(next().c_str(), nullptr, 10);
    else if (arg == "--seed") opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (arg == "--clients") opt.clients = std::strtoull(next().c_str(), nullptr, 10);
    else if (arg == "--per-client") opt.per_client = std::strtoull(next().c_str(), nullptr, 10);
    else if (arg == "--repeat") opt.repeat = std::strtoull(next().c_str(), nullptr, 10);
    else if (arg == "--workers") opt.workers = std::strtoull(next().c_str(), nullptr, 10);
    else if (arg == "--depth") opt.depth = std::strtoull(next().c_str(), nullptr, 10);
    else if (arg == "--sessions") opt.sessions = std::strtoull(next().c_str(), nullptr, 10);
    else if (arg == "--pipe-rows") opt.pipe_rows = std::strtoull(next().c_str(), nullptr, 10);
    else if (arg == "--pipe-gate") opt.pipe_gate = std::strtod(next().c_str(), nullptr);
    else Usage(argv[0]);
  }
  if (opt.mode != "load" && opt.mode != "check") Usage(argv[0]);
  if (opt.clients == 0 || opt.per_client == 0 || opt.repeat == 0 ||
      opt.depth == 0 || opt.sessions == 0) {
    Usage(argv[0]);
  }
  return opt;
}

std::vector<std::string> LoadMix(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open query mix '%s'\n", path.c_str());
    std::exit(2);
  }
  std::vector<std::string> queries;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    queries.push_back(line);
  }
  if (queries.empty()) {
    std::fprintf(stderr, "query mix '%s' holds no statements\n", path.c_str());
    std::exit(2);
  }
  return queries;
}

void RegisterTables(Engine* engine, size_t rows, uint64_t seed) {
  engine->RegisterTable("car", GenerateCars(rows, seed));
  engine->RegisterTable("trip", GenerateTrips(rows, seed + 1));
}

struct Endpoint {
  std::string host;
  uint16_t port = 0;
};

Endpoint ParseConnect(const std::string& spec) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect expects HOST:PORT, got '%s'\n",
                 spec.c_str());
    std::exit(2);
  }
  return {spec.substr(0, colon),
          static_cast<uint16_t>(std::strtoul(spec.c_str() + colon + 1,
                                             nullptr, 10))};
}

/// Connects with retries: an externally started server (CI smoke step)
/// may still be binding when the driver launches.
server::Client ConnectWithRetry(const Endpoint& endpoint) {
  for (int attempt = 0;; ++attempt) {
    try {
      server::Client client;
      client.Connect(endpoint.host, endpoint.port);
      return client;
    } catch (const std::runtime_error&) {
      if (attempt >= 50) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
}

double PercentileNs(std::vector<uint64_t>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0.0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted_ns.size()));
  if (idx >= sorted_ns.size()) idx = sorted_ns.size() - 1;
  return static_cast<double>(sorted_ns[idx]);
}

std::vector<std::string> RowSet(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) out.push_back(t.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> RowSet(const Relation& rel) {
  return RowSet(rel.tuples());
}

struct JsonFamily {
  std::string name;
  double real_time_ns = 0.0;
};

void WriteBenchJson(const std::string& path,
                    const std::vector<JsonFamily>& families,
                    const DriverOptions& opt) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    std::exit(2);
  }
  out << "{\n  \"context\": {\n"
      << "    \"executable\": \"bench_server\",\n"
      << "    \"rows\": " << opt.rows << ",\n"
      << "    \"clients\": " << opt.clients << ",\n"
      << "    \"per_client\": " << opt.per_client << "\n"
      << "  },\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < families.size(); ++i) {
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "    {\"name\": \"%s\", \"run_name\": \"%s\", "
                  "\"run_type\": \"iteration\", \"real_time\": %.1f, "
                  "\"cpu_time\": 0.0, \"time_unit\": \"ns\"}%s\n",
                  families[i].name.c_str(), families[i].name.c_str(),
                  families[i].real_time_ns,
                  i + 1 < families.size() ? "," : "");
    out << entry;
  }
  out << "  ]\n}\n";
}

// --- load mode -----------------------------------------------------------

struct ScenarioResult {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double throughput_ns = 0.0;  // wall-clock ns per completed query
  size_t total = 0;
};

/// Closed-loop replay: `clients` threads, each keeping up to `depth`
/// pipelined requests in flight (depth 1 == the classic blocking loop).
/// Odd-numbered threads additionally hold a skyline subscription when
/// `subscribe_odd`, so delta bootstrap frames interleave with pipelined
/// responses on those connections. Returns false on any failed query.
bool RunScenario(const Endpoint& endpoint,
                 const std::vector<std::string>& mix, size_t clients,
                 size_t depth, size_t per_client, bool subscribe_odd,
                 ScenarioResult* out) {
  std::vector<std::vector<uint64_t>> latencies(clients);
  std::atomic<size_t> errors{0};
  std::atomic<size_t> started{0};
  Clock::time_point wall0;
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    std::atomic<bool> go{false};
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          server::Client client = ConnectWithRetry(endpoint);
          if (subscribe_odd && c % 2 == 1) {
            if (!client.Subscribe(kSubscribeSql).ok ||
                !client.ReadDelta(5000).has_value()) {
              errors.fetch_add(1);
            }
          }
          started.fetch_add(1);
          while (!go.load()) std::this_thread::yield();
          std::vector<uint64_t>& mine = latencies[c];
          mine.reserve(per_client);
          // Sliding window: prime `depth` sends, then retire the oldest
          // and immediately refill until the quota is spent. Latency is
          // send-to-retire, so at depth > 1 it includes pipeline queueing
          // — the throughput family is the depth-sensitive number.
          std::deque<std::pair<server::Client::ResponseFuture,
                               Clock::time_point>>
              window;
          size_t sent = 0;
          auto send_next = [&] {
            const std::string& sql = mix[(c + sent) % mix.size()];
            window.emplace_back(client.SendQuery(sql), Clock::now());
            ++sent;
          };
          while (sent < per_client && window.size() < depth) send_next();
          while (!window.empty()) {
            auto entry = std::move(window.front());
            window.pop_front();
            server::ClientResponse response = entry.first.Get();
            mine.push_back(static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - entry.second)
                    .count()));
            if (!response.ok) errors.fetch_add(1);
            if (sent < per_client) send_next();
          }
          client.Goodbye();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "session %zu died: %s\n", c, e.what());
          errors.fetch_add(1);
          started.fetch_add(1);  // never block the barrier
        }
      });
    }
    while (started.load() < clients) std::this_thread::yield();
    wall0 = Clock::now();
    go.store(true);
    for (auto& t : threads) t.join();
  }
  double wall_s = std::chrono::duration<double>(Clock::now() - wall0).count();

  std::vector<uint64_t> all_ns;
  for (auto& per : latencies) {
    all_ns.insert(all_ns.end(), per.begin(), per.end());
  }
  std::sort(all_ns.begin(), all_ns.end());
  if (errors.load() > 0 || all_ns.size() != clients * per_client) {
    std::fprintf(stderr, "%zu/%zu served queries failed\n", errors.load(),
                 clients * per_client);
    return false;
  }
  out->total = all_ns.size();
  out->p50_ns = PercentileNs(all_ns, 0.5);
  out->p99_ns = PercentileNs(all_ns, 0.99);
  out->throughput_ns = wall_s * 1e9 / static_cast<double>(all_ns.size());
  return true;
}

int RunLoad(const DriverOptions& opt,
            const std::vector<std::string>& mix,
            const Endpoint& endpoint,
            const Endpoint* pipe_endpoint) {
  // Anchor: the whole mix executed back-to-back on a cache-less
  // single-threaded engine — the machine-speed proxy every served family
  // is normalized by in the perf gate. One untimed warm-up pass, then the
  // MINIMUM over the timed passes: noise (scheduler, frequency scaling)
  // only ever adds time, so min-of-passes is far more stable than a
  // per-query median on a loaded runner.
  double anchor_ns = 0.0;
  {
    EngineOptions cold;
    cold.enable_plan_cache = false;
    cold.enable_exec_cache = false;
    cold.bmo = server::ServerOptions::DefaultSessionBmo();
    Engine engine(cold);
    RegisterTables(&engine, opt.rows, opt.seed);
    uint64_t best_pass_ns = UINT64_MAX;
    for (size_t r = 0; r < opt.repeat + 1; ++r) {
      Clock::time_point t0 = Clock::now();
      for (const std::string& sql : mix) {
        auto result = engine.Execute(sql);
        if (result.relation.empty() && result.utilities.empty()) {
          // Every mix statement returns rows on the datagen tables; an
          // empty answer means the mix and the data went out of sync.
          std::fprintf(stderr, "anchor query returned nothing: %s\n",
                       sql.c_str());
          return 1;
        }
      }
      uint64_t pass_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count());
      if (r > 0) best_pass_ns = std::min(best_pass_ns, pass_ns);
    }
    anchor_ns = static_cast<double>(best_pass_ns) /
                static_cast<double>(mix.size());
  }

  // Main closed-loop replay at the requested concurrency and depth.
  ScenarioResult mixed;
  if (!RunScenario(endpoint, mix, opt.clients, opt.depth, opt.per_client,
                   /*subscribe_odd=*/false, &mixed)) {
    return 1;
  }

  std::printf("replayed %zu queries over %zu sessions (depth %zu) in %.2fs\n",
              mixed.total, opt.clients, opt.depth,
              mixed.throughput_ns * static_cast<double>(mixed.total) / 1e9);
  std::printf("  anchor (cold 1-thread, best pass) %10.3f ms\n",
              anchor_ns / 1e6);
  std::printf("  p50  %10.3f ms\n", mixed.p50_ns / 1e6);
  std::printf("  p99  %10.3f ms\n", mixed.p99_ns / 1e6);
  std::printf("  QPS  %10.1f (%.3f ms/query wall)\n",
              1e9 / mixed.throughput_ns, mixed.throughput_ns / 1e6);

  std::string c = std::to_string(opt.clients);
  std::vector<JsonFamily> families = {
      {"server_cold_anchor", anchor_ns},
      {"server_mix_c" + c + "_p50", mixed.p50_ns},
      {"server_mix_c" + c + "_p99", mixed.p99_ns},
      {"server_mix_c" + c + "_throughput_us", mixed.throughput_ns},
  };

  // Pipelining scenarios: small tables and low session count — the
  // latency-bound regime pipelining exists for. At depth 1 each query
  // serializes client encode → server execute → client parse across a
  // full round trip; at depth 8 those stages overlap across in-flight
  // requests, so throughput approaches the slowest single stage instead
  // of their sum. Skipped under --connect (the external server holds the
  // wrong table sizes).
  if (pipe_endpoint != nullptr) {
    // Depth-1 over two sessions (one request in flight per connection) is
    // the blocking request/response baseline the acceptance ratio is
    // measured against.
    // Each scenario takes the fastest of --repeat + 2 passes: scheduler
    // noise only ever adds time, and these sub-second replays are too
    // short for a single pass to be trustworthy on a loaded runner. The
    // scenarios of one call run interleaved (d1, d8, d1, d8, ...), so a
    // stretch of host load slows both sides of the ratio alike instead
    // of all passes of one side.
    constexpr size_t kPipeClients = 2;
    size_t pipe_per_client = std::max<size_t>(opt.per_client, 4096);
    struct Scenario {
      size_t clients;
      size_t depth;
      size_t per_client;
      bool subscribe_odd;
      ScenarioResult* best;
    };
    auto best_of = [&](const std::vector<Scenario>& scenarios) {
      for (size_t r = 0; r < opt.repeat + 2; ++r) {
        for (const Scenario& s : scenarios) {
          ScenarioResult pass;
          if (!RunScenario(*pipe_endpoint, mix, s.clients, s.depth,
                           s.per_client, s.subscribe_odd, &pass)) {
            return false;
          }
          if (r == 0 || pass.throughput_ns < s.best->throughput_ns) {
            *s.best = pass;
          }
        }
      }
      return true;
    };
    ScenarioResult d1, d8, wide;
    if (!best_of({{kPipeClients, 1, pipe_per_client, false, &d1},
                  {kPipeClients, 8, pipe_per_client, false, &d8}})) {
      return 1;
    }
    double speedup = d1.throughput_ns / d8.throughput_ns;
    std::printf("pipelining on %zu-row tables, c%zu x %zu queries:\n",
                opt.pipe_rows, kPipeClients, pipe_per_client);
    std::printf("  depth 1 %10.3f us/query\n", d1.throughput_ns / 1e3);
    std::printf("  depth 8 %10.3f us/query  (%.2fx)\n",
                d8.throughput_ns / 1e3, speedup);
    families.push_back({"server_pipe_c2_d1_throughput_us",
                        d1.throughput_ns});
    families.push_back({"server_pipe_c2_d8_throughput_us",
                        d8.throughput_ns});

    // 256 mixed sessions: every session pipelines at depth 4, odd ones
    // also hold a skyline subscription so delta frames share the wire.
    if (!best_of({{256, 4, 32, /*subscribe_odd=*/true, &wide}})) {
      return 1;
    }
    std::printf("  256-session mixed %10.3f us/query\n",
                wide.throughput_ns / 1e3);
    families.push_back({"server_mixed_c256_throughput_us",
                        wide.throughput_ns});

    // The acceptance gate requires the host to be able to overlap the
    // pipeline stages at all: with the client thread, event loop, and
    // worker time-slicing one core, every stage is serialized no matter
    // the depth, and the ratio measures scheduler noise rather than the
    // protocol. Enforce on >= 4 hardware threads, report otherwise.
    if (opt.pipe_gate > 0.0) {
      if (std::thread::hardware_concurrency() >= 4) {
        if (speedup < opt.pipe_gate) {
          std::fprintf(stderr,
                       "FAIL: depth-8 pipelining delivered %.2fx the "
                       "depth-1 throughput, below the %.2fx acceptance "
                       "gate\n",
                       speedup, opt.pipe_gate);
          return 1;
        }
      } else {
        std::printf(
            "  (gate %.2fx reported only: %u hardware threads cannot "
            "overlap pipeline stages)\n",
            opt.pipe_gate, std::thread::hardware_concurrency());
      }
    }
  }

  if (!opt.out.empty()) {
    WriteBenchJson(opt.out, families, opt);
    std::printf("wrote %s\n", opt.out.c_str());
  }
  return 0;
}

// --- check mode ----------------------------------------------------------

int RunCheck(const DriverOptions& opt,
             const std::vector<std::string>& mix,
             const Endpoint& endpoint) {
  // One single-threaded reference pass up front; every session compares
  // served bytes against these exact results. (The served tables are
  // read-only in check mode, so one snapshot serves all passes.)
  Engine reference;
  RegisterTables(&reference, opt.rows, opt.seed);
  std::vector<psql::QueryResult> expected;
  expected.reserve(mix.size());
  for (const std::string& sql : mix) {
    expected.push_back(
        reference.Execute(sql, server::ServerOptions::DefaultSessionBmo()));
  }
  std::vector<std::string> expected_skyline =
      RowSet(reference.Execute(kSubscribeSql).relation);

  std::atomic<size_t> failures{0};
  std::atomic<size_t> checked{0};
  auto run_session = [&](size_t s) {
    try {
      server::Client client = ConnectWithRetry(endpoint);
      // Odd sessions hold a live subscription through both passes; its
      // bootstrap resync must carry exactly the reference skyline.
      if (s % 2 == 1) {
        server::ClientResponse sub = client.Subscribe(kSubscribeSql);
        if (!sub.ok) {
          std::fprintf(stderr, "FAIL (session %zu): subscribe: %s\n", s,
                       sub.error.message.c_str());
          failures.fetch_add(1);
          return;
        }
        auto boot = client.ReadDelta(10000);
        if (!boot.has_value() || !boot->resync ||
            RowSet(boot->enters) != expected_skyline) {
          std::fprintf(stderr,
                       "FAIL (session %zu): subscription bootstrap does not "
                       "match the reference skyline\n",
                       s);
          failures.fetch_add(1);
          return;
        }
      }
      // Two passes: the first executes cold, the second rides the
      // server's warm plan/exec caches — both must match exactly.
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t q = 0; q < mix.size(); ++q) {
          // Stagger the starting offset per session so concurrent
          // sessions hit different statements at the same time.
          size_t at = (q + s) % mix.size();
          server::ClientResponse served = client.Query(mix[at]);
          if (!served.ok) {
            std::fprintf(stderr,
                         "FAIL (session %zu, pass %d): server error for "
                         "%s\n  %s\n",
                         s, pass, mix[at].c_str(),
                         served.error.message.c_str());
            failures.fetch_add(1);
            return;
          }
          if (!(served.relation == expected[at].relation) ||
              served.utilities != expected[at].utilities) {
            std::fprintf(stderr,
                         "FAIL (session %zu, pass %d): served result "
                         "diverges from single-threaded Engine::Execute "
                         "for\n  %s\n  served %zu rows, expected %zu rows\n",
                         s, pass, mix[at].c_str(), served.relation.size(),
                         expected[at].relation.size());
            failures.fetch_add(1);
            return;
          }
          checked.fetch_add(1);
        }
      }
      client.Goodbye();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL (session %zu): %s\n", s, e.what());
      failures.fetch_add(1);
    }
  };

  if (opt.sessions == 1) {
    run_session(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(opt.sessions);
    for (size_t s = 0; s < opt.sessions; ++s) {
      threads.emplace_back(run_session, s);
    }
    for (auto& t : threads) t.join();
  }
  if (failures.load() > 0) return 1;
  std::printf("checked %zu served results across %zu sessions against the "
              "single-threaded reference: all identical\n",
              checked.load(), opt.sessions);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  DriverOptions opt = ParseArgs(argc, argv);
  std::vector<std::string> mix = LoadMix(opt.mix_path);

  // In-process server unless --connect points elsewhere. In-process still
  // exercises the full TCP stack on loopback.
  Engine engine;
  Engine pipe_engine;
  std::unique_ptr<server::Server> local;
  std::unique_ptr<server::Server> pipe_local;
  Endpoint endpoint;
  Endpoint pipe_endpoint;
  bool has_pipe = false;
  if (opt.connect.empty()) {
    RegisterTables(&engine, opt.rows, opt.seed);
    server::ServerOptions options;
    options.num_workers = opt.workers;
    local = std::make_unique<server::Server>(&engine, options);
    local->Start();
    endpoint = {"127.0.0.1", local->port()};
    if (opt.mode == "load") {
      // Second server on small tables for the pipelining families; 256
      // mixed sessions need headroom over the default session cap.
      RegisterTables(&pipe_engine, opt.pipe_rows, opt.seed);
      server::ServerOptions pipe_options;
      pipe_options.num_workers = opt.workers;
      pipe_options.max_sessions = 512;
      pipe_local = std::make_unique<server::Server>(&pipe_engine,
                                                    pipe_options);
      pipe_local->Start();
      pipe_endpoint = {"127.0.0.1", pipe_local->port()};
      has_pipe = true;
    }
  } else {
    endpoint = ParseConnect(opt.connect);
  }

  int rc = opt.mode == "check"
               ? RunCheck(opt, mix, endpoint)
               : RunLoad(opt, mix, endpoint,
                         has_pipe ? &pipe_endpoint : nullptr);
  if (pipe_local != nullptr) pipe_local->Stop();
  if (local != nullptr) local->Stop();
  return rc;
}
