// Network ingest bench: ≥100 concurrent loopback HTTP connections feed the
// AQHI sensor grid through POST /ingest/sensors while the pipelined wave
// engine (compute-only AQHI workflow + IngestBridge ingest) drains the
// staged rows wave by wave — the full front-end path of DESIGN.md §14 under
// load on one box.
//
// Two measurements, one JSON object:
//
//   1. Ingest sweep: spans-over-the-body staging + vectored writes, at
//      loop_threads = 1 / 2 / 4 (SO_REUSEPORT sharding). The 1-loop point
//      carries the throughput floor; the sweep shows scaling.
//   2. Streaming scan: a ≥1M-cell container served buffered (large write
//      bound) vs ?stream=1 (256KB bound) — byte-identical payloads, with
//      the streaming server's peak per-connection write buffer recorded.
//
// Client shape per ingest phase: kThreads feeder threads each own
// kConnsPerThread keep-alive connections (threads × conns = 128 concurrent
// sockets). A round pipelines one request per connection, then collects
// every response; per-request latency is measured send→response-read under
// the full concurrent load. Each phase runs three times interleaved (full
// mode) and keeps its best run, so every loop count sees the same thermal /
// scheduler conditions. Each phase also reports cpu_us_per_request, the
// process CPU time (CLOCK_PROCESS_CPUTIME_ID) per request: the clients share
// the process, so it covers the whole loopback round trip, and host steal
// does not move it the way it moves req/s. The same figure is broken down
// by thread (CLOCK_THREAD_CPUTIME_ID): the event loops, the wave driver,
// the feeders, and the rest of the process (the engine's helper and ingest
// threads), so the one that burns CPU in proportion to wall time shows.
//
// Self-checks (exit 1): every ingest response is 202, every posted row is
// drained into the store by the final wave, a spot cell is readable over
// HTTP, /metrics exposes the sf_net families, scan payloads are
// byte-identical across modes, the streaming peak write buffer stays ≤ the
// bound, and (full mode only) the 1-loop phase reaches
// kMinRequestsPerSec1Loop.
//
//   ./bench/net_ingest > docs/bench/net_ingest.json
//   ./bench/net_ingest short > net_ingest.ci.json   (CI smoke: fewer rounds,
//                                                    no throughput floor)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "datastore/client.h"
#include "datastore/datastore.h"
#include "datastore/flat_snapshot.h"
#include "net/bridge.h"
#include "net/gateway.h"
#include "net/server.h"
#include "net/testing.h"
#include "obs/metrics.h"
#include "wms/engine.h"
#include "workloads/aqhi/aqhi.h"

namespace {

using namespace smartflux;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kThreads = 4;
constexpr std::size_t kConnsPerThread = 32;  // 4 × 32 = 128 concurrent connections
constexpr std::size_t kRowsPerRequest = 24;

/// Full-mode floor on the 1-loop phase's best-of-3 req/s, from 27 full runs
/// on a 4-vCPU VM, RelWithDebInfo, under 4–23% host steal: median 19,509
/// req/s, lowest 12,631. The floor sits below the lowest run so host load
/// does not trip it; a ~2x hot-path loss at the median does.
constexpr double kMinRequestsPerSec1Loop = 10'000.0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_clock_us(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) * 1e-3;
}

/// CPU time consumed so far by every thread of this process, in µs.
double process_cpu_us() { return cpu_clock_us(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU time consumed so far by the calling thread, in µs.
double thread_cpu_us() { return cpu_clock_us(CLOCK_THREAD_CPUTIME_ID); }

double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// One wave-worth chunk of the AQHI grid as an ingest body: kRowsPerRequest
/// detectors starting at a rotating offset, three pollutant columns each.
std::string ingest_body(const workloads::AqhiWorkload& aqhi, std::size_t offset,
                        ds::Timestamp wave) {
  const std::size_t grid = aqhi.params().grid;
  const std::size_t detectors = grid * grid;
  std::string body;
  body.reserve(kRowsPerRequest * 3 * 24);
  char line[96];
  for (std::size_t i = 0; i < kRowsPerRequest; ++i) {
    const std::size_t d = (offset + i) % detectors;
    const std::size_t x = d / grid;
    const std::size_t y = d % grid;
    for (std::size_t pollutant = 0; pollutant < 3; ++pollutant) {
      static const char* kCols[] = {"o3", "pm25", "no2"};
      std::snprintf(line, sizeof line, "d%zu_%zu,%s,%.6f\n", x, y, kCols[pollutant],
                    aqhi.sensor(pollutant, x, y, wave));
      body += line;
    }
  }
  return body;
}

struct FeederResult {
  std::vector<double> latencies_us;
  std::size_t requests = 0;
  std::size_t rows = 0;
  std::size_t bad_status = 0;
  double cpu_us = 0.0;  ///< the feeder thread's whole lifetime
};

struct IngestPhaseResult {
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;
  double rows_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// Process CPU time per request over the phase. Host steal slows the wall
  /// clock but not this, so it tracks hot-path cost where req/s cannot.
  double cpu_us_per_request = 0.0;
  /// The same CPU split by thread: event loops (summed), the wave driver,
  /// the feeders (summed) and the rest of the process.
  double loops_cpu_us_per_request = 0.0;
  double driver_cpu_us_per_request = 0.0;
  double feeders_cpu_us_per_request = 0.0;
  double other_cpu_us_per_request = 0.0;
  std::size_t requests = 0;
  std::size_t rows = 0;
  std::size_t waves = 0;
  int failures = 0;
};

/// One full ingest measurement: fresh store/bridge/server with the given
/// loop count, 128 pipelined feeder connections, a concurrent pipelined wave
/// engine, end-state self-checks.
IngestPhaseResult run_ingest_phase(std::size_t loop_threads, std::size_t rounds) {
  ds::DataStore store(4);
  obs::MetricsRegistry metrics;

  net::IngestBridge::Options bridge_options;
  bridge_options.metrics = &metrics;
  net::IngestBridge bridge(bridge_options);

  workloads::AqhiParams params;
  const workloads::AqhiWorkload aqhi(params);
  wms::WorkflowEngine engine(aqhi.make_compute_workflow(), store);
  // The engine ingests HTTP-staged rows, not the workload generator: the
  // bridge's WaveIngest is the 1_feed replacement.
  const wms::WaveIngest ingest = bridge.make_ingest();

  net::GatewayOptions gateway;
  gateway.store = &store;
  gateway.ingest = &bridge;
  gateway.metrics = &metrics;
  net::ServerOptions server_options;
  server_options.metrics = &metrics;
  server_options.max_connections = 2048;
  server_options.loop_threads = loop_threads;
  net::Server server(net::make_gateway_router(gateway), server_options);
  server.start();
  const std::uint16_t port = server.port();

  std::vector<FeederResult> results(kThreads);
  std::atomic<bool> feeders_done{false};

  const auto wall_start = Clock::now();
  const double cpu_start_us = process_cpu_us();
  std::vector<std::thread> feeders;
  feeders.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    feeders.emplace_back([&, t] {
      FeederResult& result = results[t];
      std::vector<net::testing::Client> conns;
      conns.reserve(kConnsPerThread);
      for (std::size_t c = 0; c < kConnsPerThread; ++c) conns.emplace_back(port);

      std::vector<Clock::time_point> sent(kConnsPerThread);
      for (std::size_t round = 0; round < rounds; ++round) {
        const auto wave = static_cast<ds::Timestamp>(round + 1);
        // Pipeline one request per connection, then collect every response:
        // all kThreads × kConnsPerThread requests are in flight together.
        for (std::size_t c = 0; c < kConnsPerThread; ++c) {
          const std::size_t offset =
              (t * kConnsPerThread + c) * kRowsPerRequest + round * 7;
          const std::string body = ingest_body(aqhi, offset, wave);
          sent[c] = Clock::now();
          conns[c].send_request("POST", "/ingest/sensors", body);
          result.rows += kRowsPerRequest * 3;
        }
        for (std::size_t c = 0; c < kConnsPerThread; ++c) {
          const net::testing::ClientResponse response = conns[c].read_response();
          result.latencies_us.push_back(micros_since(sent[c]));
          ++result.requests;
          if (response.status != 202) ++result.bad_status;
        }
      }
      result.cpu_us = thread_cpu_us();
    });
  }

  // Drain staged rows with the real pipelined engine while the feeders run:
  // chunks of waves until the feeders finish, then one final drain wave.
  wms::SyncController sync;
  ds::Timestamp next_wave = 1;
  std::size_t waves_run = 0;
  double driver_cpu_us = 0.0;
  std::thread driver([&] {
    while (!feeders_done.load(std::memory_order_acquire)) {
      if (bridge.staged_rows() == 0) {
        // Nothing to drain: yield the core to the feeders instead of
        // spinning empty waves (this box may have a single hardware thread).
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        continue;
      }
      engine.run_waves_pipelined(next_wave, 2, sync, ingest);
      next_wave += 2;
      waves_run += 2;
    }
    engine.run_waves_pipelined(next_wave, 1, sync, ingest);
    ++waves_run;
    driver_cpu_us = thread_cpu_us();
  });

  for (auto& thread : feeders) thread.join();
  feeders_done.store(true, std::memory_order_release);
  driver.join();
  const double wall_seconds = seconds_since(wall_start);
  const double cpu_us = process_cpu_us() - cpu_start_us;

  IngestPhaseResult out;
  std::size_t bad_status = 0;
  std::vector<double> latencies;
  double feeders_cpu_us = 0.0;
  for (const FeederResult& result : results) {
    feeders_cpu_us += result.cpu_us;
    out.requests += result.requests;
    out.rows += result.rows;
    bad_status += result.bad_status;
    latencies.insert(latencies.end(), result.latencies_us.begin(), result.latencies_us.end());
  }
  std::sort(latencies.begin(), latencies.end());
  out.wall_seconds = wall_seconds;
  out.requests_per_sec = static_cast<double>(out.requests) / wall_seconds;
  out.rows_per_sec = static_cast<double>(out.rows) / wall_seconds;
  out.p50_us = quantile(latencies, 0.50);
  out.p99_us = quantile(latencies, 0.99);
  const double per_request = 1.0 / static_cast<double>(std::max<std::size_t>(out.requests, 1));
  out.cpu_us_per_request = cpu_us * per_request;
  out.driver_cpu_us_per_request = driver_cpu_us * per_request;
  out.feeders_cpu_us_per_request = feeders_cpu_us * per_request;
  out.waves = waves_run;

  if (bad_status != 0) {
    std::fprintf(stderr, "FAIL(loops=%zu): %zu ingest responses were not 202\n", loop_threads,
                 bad_status);
    ++out.failures;
  }
  if (bridge.stats().rows_ingested != out.rows || bridge.staged_rows() != 0) {
    std::fprintf(stderr, "FAIL(loops=%zu): posted %zu rows but engine drained %llu "
                 "(staged %zu)\n",
                 loop_threads, out.rows,
                 static_cast<unsigned long long>(bridge.stats().rows_ingested),
                 bridge.staged_rows());
    ++out.failures;
  }
  {
    net::testing::Client probe(port);
    if (probe.request("GET", "/get?table=sensors&row=d0_0&col=o3").status != 200) {
      std::fprintf(stderr, "FAIL: spot read of an ingested cell did not return 200\n");
      ++out.failures;
    }
    const net::testing::ClientResponse metrics_response = probe.request("GET", "/metrics");
    if (metrics_response.status != 200 ||
        metrics_response.body.find("sf_net_ingest_rows_total") == std::string::npos) {
      std::fprintf(stderr, "FAIL: /metrics is missing the sf_net families\n");
      ++out.failures;
    }
  }
  server.stop();  // loop CPU is exact once the loops have exited
  const net::ServerStats stats = server.stats();
  if (stats.slow_disconnects != 0 || stats.parse_errors != 0) {
    std::fprintf(stderr, "FAIL: unexpected slow_disconnects=%llu parse_errors=%llu\n",
                 static_cast<unsigned long long>(stats.slow_disconnects),
                 static_cast<unsigned long long>(stats.parse_errors));
    ++out.failures;
  }
  out.loops_cpu_us_per_request = static_cast<double>(stats.loop_cpu_us) * per_request;
  out.other_cpu_us_per_request = out.cpu_us_per_request - out.loops_cpu_us_per_request -
                                 out.driver_cpu_us_per_request - out.feeders_cpu_us_per_request;
  return out;
}

struct ScanPhaseResult {
  std::size_t cells = 0;
  std::size_t payload_bytes = 0;
  double buffered_seconds = 0.0;
  double streamed_seconds = 0.0;
  double streamed_rows_per_sec = 0.0;
  unsigned long long peak_write_buffer = 0;
  std::size_t write_buffer_bound = 0;
  int failures = 0;
};

/// Streaming scan measurement: one container of `cells` cells fetched
/// buffered (write bound raised to fit the whole body) and streamed (default
/// 256KB bound); payloads must match byte for byte and the streaming
/// server's peak pending buffer must respect its bound.
ScanPhaseResult run_scan_phase(std::size_t cells) {
  ScanPhaseResult out;
  out.cells = cells;

  ds::DataStore store(4);
  {
    // Bulk-load outside HTTP; zero-padded keys give a deterministic scan.
    ds::Client client(store, 1);
    constexpr std::size_t kBatch = 50'000;
    std::vector<std::string> keys;
    std::vector<ds::PutOp> ops;
    for (std::size_t start = 0; start < cells; start += kBatch) {
      const std::size_t n = std::min(kBatch, cells - start);
      keys.clear();
      keys.reserve(2 * n);
      ops.clear();
      ops.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        char row[32], col[16];
        std::snprintf(row, sizeof row, "r%09zu", start + i);
        std::snprintf(col, sizeof col, "c%zu", (start + i) % 5);
        keys.emplace_back(row);
        keys.emplace_back(col);
        ops.push_back({keys[keys.size() - 2], keys.back(),
                       static_cast<double>((start + i) % 1000)});
      }
      client.put_batch("grid", ops);
    }
  }

  net::GatewayOptions gateway;
  gateway.store = &store;

  // Buffered reference: the write bound must fit the whole materialized
  // body, or the server would (correctly) drop us as a slow reader.
  std::string buffered_body;
  {
    net::ServerOptions options;
    options.max_write_buffer = 256u * 1024 * 1024;
    net::Server server(net::make_gateway_router(gateway), options);
    server.start();
    net::testing::Client client(server.port(), "127.0.0.1", 120'000);
    const auto start = Clock::now();
    net::testing::ClientResponse response = client.request("GET", "/scan?table=grid");
    out.buffered_seconds = seconds_since(start);
    if (response.status != 200 || response.chunked) {
      std::fprintf(stderr, "FAIL: buffered scan status=%d chunked=%d\n", response.status,
                   response.chunked ? 1 : 0);
      ++out.failures;
    }
    buffered_body = std::move(response.body);
    server.stop();
  }
  out.payload_bytes = buffered_body.size();

  // Streamed run: stock 256KB bound — the point is that the bound holds.
  {
    net::ServerOptions options;
    out.write_buffer_bound = options.max_write_buffer;
    net::Server server(net::make_gateway_router(gateway), options);
    server.start();
    net::testing::Client client(server.port(), "127.0.0.1", 120'000);
    const auto start = Clock::now();
    const net::testing::ClientResponse response =
        client.request("GET", "/scan?table=grid&stream=1");
    out.streamed_seconds = seconds_since(start);
    out.streamed_rows_per_sec = static_cast<double>(cells) / out.streamed_seconds;
    if (response.status != 200 || !response.chunked) {
      std::fprintf(stderr, "FAIL: streamed scan status=%d chunked=%d\n", response.status,
                   response.chunked ? 1 : 0);
      ++out.failures;
    }
    if (response.body != buffered_body) {
      std::fprintf(stderr, "FAIL: streamed scan payload differs from buffered (%zu vs %zu "
                   "bytes)\n",
                   response.body.size(), buffered_body.size());
      ++out.failures;
    }
    const net::ServerStats stats = server.stats();
    out.peak_write_buffer = stats.peak_write_buffer;
    if (stats.streams_completed != 1) {
      std::fprintf(stderr, "FAIL: expected 1 completed stream, saw %llu\n",
                   static_cast<unsigned long long>(stats.streams_completed));
      ++out.failures;
    }
    if (stats.peak_write_buffer > options.max_write_buffer) {
      std::fprintf(stderr, "FAIL: streaming peak write buffer %llu exceeds bound %zu\n",
                   static_cast<unsigned long long>(stats.peak_write_buffer),
                   options.max_write_buffer);
      ++out.failures;
    }
    server.stop();
  }
  return out;
}

void print_ingest_phase(const char* key, const IngestPhaseResult& r, const char* trailing) {
  std::printf("    \"%s\": {\"requests_per_sec\": %.0f, \"rows_per_sec\": %.0f, "
              "\"p50_us\": %.0f, \"p99_us\": %.0f, \"cpu_us_per_request\": %.1f, "
              "\"cpu_us_per_request_by_thread\": {\"loops\": %.1f, \"driver\": %.1f, "
              "\"feeders\": %.1f, \"other\": %.1f}, "
              "\"requests\": %zu, \"waves\": %zu, \"wall_seconds\": %.3f}%s\n",
              key, r.requests_per_sec, r.rows_per_sec, r.p50_us, r.p99_us, r.cpu_us_per_request,
              r.loops_cpu_us_per_request, r.driver_cpu_us_per_request,
              r.feeders_cpu_us_per_request, r.other_cpu_us_per_request, r.requests, r.waves,
              r.wall_seconds, trailing);
}

}  // namespace

int main(int argc, char** argv) {
  const bool short_mode = argc > 1 && std::strcmp(argv[1], "short") == 0;
  const std::size_t rounds = short_mode ? 4 : 96;
  const std::size_t reps = short_mode ? 1 : 3;
  const std::size_t scan_cells = short_mode ? 65'536 : 1'000'000;

  struct Config {
    const char* key;
    std::size_t loops;
  };
  const Config configs[] = {
      {"zero_copy_1loop", 1},
      {"zero_copy_2loops", 2},
      {"zero_copy_4loops", 4},
  };
  constexpr std::size_t kConfigs = sizeof(configs) / sizeof(configs[0]);

  // Interleaved best-of-N: rep-major order so every config samples the same
  // machine conditions; keep each config's best run.
  IngestPhaseResult best[kConfigs];
  int failures = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t c = 0; c < kConfigs; ++c) {
      const IngestPhaseResult r = run_ingest_phase(configs[c].loops, rounds);
      failures += r.failures;
      if (rep == 0 || r.requests_per_sec > best[c].requests_per_sec) best[c] = r;
    }
  }

  // Sanitizer/CI smoke runs record the rate without gating on it: short
  // mode's few rounds and sanitizer overhead put it far below a full run.
  if (!short_mode && best[0].requests_per_sec < kMinRequestsPerSec1Loop) {
    std::fprintf(stderr, "FAIL: 1-loop ingest %.0f req/s is below the %.0f req/s floor\n",
                 best[0].requests_per_sec, kMinRequestsPerSec1Loop);
    ++failures;
  }

  const ScanPhaseResult scan = run_scan_phase(scan_cells);
  failures += scan.failures;

  // Backend name without keeping a server alive: ask a throwaway instance.
  net::Server probe(net::Router{}, {});

  std::printf("{\n");
  std::printf("  \"bench\": \"net_ingest\",\n");
  std::printf("  \"mode\": \"%s\",\n", short_mode ? "short" : "full");
  std::printf("  \"backend\": \"%s\",\n", probe.backend_name());
  std::printf("  \"connections\": %zu,\n", kThreads * kConnsPerThread);
  std::printf("  \"feeder_threads\": %zu,\n", kThreads);
  std::printf("  \"rows_per_request\": %zu,\n", kRowsPerRequest * 3);
  std::printf("  \"hardware_threads\": %u,\n", std::thread::hardware_concurrency());
  std::printf("  \"reps\": %zu,\n", reps);
  std::printf("  \"cpu_us_per_request_note\": \"process CPU time (CLOCK_PROCESS_CPUTIME_ID) "
              "per request over a phase; the feeder clients and the wave engine share the "
              "process, so it covers the whole loopback round trip, not the server alone; "
              "cpu_us_per_request_by_thread splits it with CLOCK_THREAD_CPUTIME_ID into the "
              "event loops (to their exit, so the two self-check requests are included), the "
              "wave driver, the feeders, and the rest of the process\",\n");
  std::printf("  \"ingest\": {\n");
  print_ingest_phase(configs[0].key, best[0], ",");
  print_ingest_phase(configs[1].key, best[1], ",");
  print_ingest_phase(configs[2].key, best[2], ",");
  std::printf("    \"floor_1loop_requests_per_sec\": %.0f\n", kMinRequestsPerSec1Loop);
  std::printf("  },\n");
  std::printf("  \"scan_stream\": {\n");
  std::printf("    \"cells\": %zu,\n", scan.cells);
  std::printf("    \"payload_bytes\": %zu,\n", scan.payload_bytes);
  std::printf("    \"buffered_seconds\": %.3f,\n", scan.buffered_seconds);
  std::printf("    \"streamed_seconds\": %.3f,\n", scan.streamed_seconds);
  std::printf("    \"streamed_rows_per_sec\": %.0f,\n", scan.streamed_rows_per_sec);
  std::printf("    \"peak_write_buffer\": %llu,\n", scan.peak_write_buffer);
  std::printf("    \"write_buffer_bound\": %zu,\n", scan.write_buffer_bound);
  std::printf("    \"payload_identical\": %s\n", scan.failures == 0 ? "true" : "false");
  std::printf("  },\n");
  std::printf("  \"checks\": \"%s\"\n", failures == 0 ? "pass" : "FAIL");
  std::printf("}\n");
  return failures == 0 ? 0 : 1;
}
