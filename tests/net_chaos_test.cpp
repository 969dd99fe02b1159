// End-to-end ingest reliability (DESIGN.md §14): idempotent retries across
// crash+recover, graceful drain, hostile-client defense (slow-loris 408,
// per-connection request caps, bounded chunked bodies) and the deterministic
// socket-chaos harness. These suites back the CI net-chaos job.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "datastore/client.h"
#include "datastore/datastore.h"
#include "net/bridge.h"
#include "net/gateway.h"
#include "net/http.h"
#include "net/server.h"
#include "net/testing.h"
#include "wms/backpressure.h"

namespace smartflux::net {
namespace {

using testing::ChaosClient;
using testing::Client;
using testing::ClientResponse;

/// Bridge + gateway behind a live server; waves drained by hand so each test
/// controls exactly when staged rows become store rows.
struct Stack {
  explicit Stack(ServerOptions server_options = {},
                 IngestBridge::Options bridge_options = {},
                 std::size_t max_versions = 4)
      : store(max_versions), bridge(bridge_options) {
    GatewayOptions gateway;
    gateway.store = &store;
    gateway.ingest = &bridge;
    server = std::make_unique<Server>(make_gateway_router(gateway), server_options);
    server->start();
  }

  void drain_wave(ds::Timestamp wave) {
    ds::Client client(store, wave);
    bridge.make_ingest()(client, wave);
  }

  Client connect() { return Client(server->port()); }

  /// Connects and returns once the server has accepted the connection. A
  /// drain refuses what is still in the listen backlog, so a test that
  /// drains must not race the accept.
  Client connect_accepted() {
    const std::uint64_t before = server->stats().connections_accepted;
    Client client = connect();
    EXPECT_TRUE(eventually([&] { return server->stats().connections_accepted > before; }))
        << "server never accepted the connection";
    return client;
  }

  /// Polls `condition` until it holds or five seconds pass.
  template <typename Condition>
  static bool eventually(Condition condition) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!condition()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  ds::DataStore store;
  IngestBridge bridge;
  std::unique_ptr<Server> server;
};

// --- Idempotent retries ----------------------------------------------------

TEST(NetIdempotency, DuplicateKeyReacksWithoutRestaging) {
  Stack stack;
  Client client = stack.connect();
  const std::vector<std::pair<std::string, std::string>> keyed = {{"Idempotency-Key", "k1"}};

  const ClientResponse first = client.request("POST", "/ingest/sensors", "r1,o3,1\nr2,o3,2\n",
                                              keyed);
  ASSERT_EQ(first.status, 202);
  EXPECT_NE(first.body.find("\"staged\":2"), std::string::npos);
  EXPECT_EQ(stack.bridge.staged_rows(), 2u);

  // The retry (same key, e.g. after a dropped response) re-acks, stages
  // nothing, and is counted as a duplicate.
  const ClientResponse retry = client.request("POST", "/ingest/sensors", "r1,o3,1\nr2,o3,2\n",
                                              keyed);
  ASSERT_EQ(retry.status, 202);
  EXPECT_NE(retry.body.find("\"duplicate\":true"), std::string::npos);
  EXPECT_EQ(stack.bridge.staged_rows(), 2u);
  EXPECT_EQ(stack.bridge.stats().duplicates, 1u);

  // Dedupe is scoped per table: the same key on another table is fresh.
  EXPECT_EQ(client.request("POST", "/ingest/other", "r1,o3,9\n", keyed).status, 202);
  EXPECT_EQ(stack.bridge.staged_rows(), 3u);

  // A duplicate re-ack arriving after the drain (rows already in the store)
  // must not re-stage either — the window outlives the wave boundary.
  stack.drain_wave(1);
  const ClientResponse late = client.request("POST", "/ingest/sensors", "r1,o3,1\nr2,o3,2\n",
                                             keyed);
  ASSERT_EQ(late.status, 202);
  EXPECT_NE(late.body.find("\"duplicate\":true"), std::string::npos);
  EXPECT_EQ(stack.bridge.staged_rows(), 0u);
  EXPECT_EQ(stack.store.cell_versions("sensors", "r1", "o3").size(), 1u);
}

TEST(NetIdempotency, SeqQueryParamActsAsKey) {
  Stack stack;
  Client client = stack.connect();

  ASSERT_EQ(client.request("POST", "/ingest/sensors?source=a&seq=7", "r1,o3,1\n").status, 202);
  const ClientResponse dup =
      client.request("POST", "/ingest/sensors?source=a&seq=7", "r1,o3,1\n");
  ASSERT_EQ(dup.status, 202);
  EXPECT_NE(dup.body.find("\"duplicate\":true"), std::string::npos);
  EXPECT_EQ(stack.bridge.staged_rows(), 1u);

  // A different source or sequence number is a different request.
  EXPECT_EQ(client.request("POST", "/ingest/sensors?source=b&seq=7", "r2,o3,2\n").status, 202);
  EXPECT_EQ(client.request("POST", "/ingest/sensors?source=a&seq=8", "r3,o3,3\n").status, 202);
  EXPECT_EQ(stack.bridge.staged_rows(), 3u);
  EXPECT_EQ(stack.bridge.stats().duplicates, 1u);
}

TEST(NetIdempotency, WindowEvictionForgetsOldKeys) {
  IngestBridge::Options options;
  options.dedupe_window = 2;
  options.dedupe_table.clear();  // memory-only; eviction is what's under test
  IngestBridge bridge(options);

  EXPECT_FALSE(bridge.stage_keyed("t", "k1", {{"r1", "c", 1.0}}).duplicate);
  EXPECT_FALSE(bridge.stage_keyed("t", "k2", {{"r2", "c", 2.0}}).duplicate);
  EXPECT_TRUE(bridge.stage_keyed("t", "k1", {{"r1", "c", 1.0}}).duplicate);

  // k3 evicts k1 (FIFO window of 2); a k1 retry now re-stages.
  EXPECT_FALSE(bridge.stage_keyed("t", "k3", {{"r3", "c", 3.0}}).duplicate);
  EXPECT_FALSE(bridge.is_duplicate("t", "k1"));
  EXPECT_TRUE(bridge.is_duplicate("t", "k3"));
  EXPECT_FALSE(bridge.stage_keyed("t", "k1", {{"r1", "c", 1.0}}).duplicate);
}

// The crash matrix, extended with the kill-between-ack-and-commit window:
// a keyed request is acked and its wave crashes at every possible WAL record
// boundary — mid data batch, between data and key stamps, between stamps and
// the commit record, and past the commit. After recovery the client replays
// (the retry contract), the wave re-drains, and the store must hold exactly
// the request's rows: zero lost, zero duplicated, one version each.
TEST(NetIdempotency, KeysSurviveCrashRecoverAtEveryKillPoint) {
  const std::string dir = ::testing::TempDir() + "/net_idem_crash";
  constexpr std::size_t kMaxKill = 8;  // past the total appends of one wave

  for (std::uint64_t kill = 1; kill <= kMaxKill; ++kill) {
    std::filesystem::remove_all(dir);
    FaultInjector faults(/*seed=*/1);
    ds::DurabilityOptions dur;
    dur.flush = ds::WalFlushPolicy::kEveryWave;
    dur.fault_injector = &faults;

    auto store = std::make_unique<ds::DataStore>(4);
    store->enable_durability(dir, dur);
    IngestBridge bridge;

    ASSERT_FALSE(bridge.stage_keyed("sensors", "k0",
                                    {{"r1", "o3", 1.5}, {"r2", "o3", 2.5}})
                     .duplicate);
    // 202 went out here; the crash lands between that ack and the commit.
    faults.add_disk_rule({.kind = DiskFaultKind::kCrash,
                          .file_tag = "wal",
                          .first_record = kill,
                          .last_record = kill,
                          .message = "kill point"});
    bool crashed = false;
    try {
      ds::Client client(*store, 1);
      bridge.make_ingest()(client, 1);
      store->commit_wave(1);
    } catch (const InjectedFault&) {
      crashed = true;
    }
    store.reset();
    faults.clear_rules();

    ds::RecoveryInfo info;
    store = ds::DataStore::recover(dir, dur, 4, &info);
    const ds::Timestamp resume = info.last_durable_wave.value_or(0) + 1;

    IngestBridge recovered;
    recovered.seed_dedupe(*store);
    if (recovered.is_duplicate("sensors", "k0")) {
      // Key stamps are written *after* the data in the same wave, so a
      // durable key implies durable rows — the re-ack is safe.
      EXPECT_EQ(store->cell_versions("sensors", "r1", "o3").size(), 1u)
          << "kill " << kill << ": key durable without its rows";
    } else {
      // Replay re-stages; the re-drain at the recovered wave overwrites any
      // torn pre-crash appends at the same timestamp.
      EXPECT_FALSE(recovered.stage_keyed("sensors", "k0",
                                         {{"r1", "o3", 1.5}, {"r2", "o3", 2.5}})
                       .duplicate);
    }
    {
      ds::Client client(*store, resume);
      recovered.make_ingest()(client, resume);
      store->commit_wave(resume);
    }

    EXPECT_EQ(store->cell_count("sensors"), 2u) << "kill " << kill;
    for (const char* row : {"r1", "r2"}) {
      const auto versions = store->cell_versions("sensors", row, "o3");
      ASSERT_EQ(versions.size(), 1u) << "kill " << kill << " row " << row
                                     << (crashed ? " (crashed)" : " (no crash)");
      EXPECT_EQ(versions.front().value, row[1] == '1' ? 1.5 : 2.5) << "kill " << kill;
    }
    // And the re-armed window survives a second recovery (idempotent seed).
    IngestBridge again;
    EXPECT_GT(again.seed_dedupe(*store), 0u) << "kill " << kill;
    EXPECT_TRUE(again.is_duplicate("sensors", "k0")) << "kill " << kill;
  }
  std::filesystem::remove_all(dir);
}

// --- Graceful drain --------------------------------------------------------

TEST(NetDrain, DrainFlushesStagedRowsAndStops) {
  Stack stack;
  {
    Client client = stack.connect();
    ASSERT_EQ(client.request("POST", "/ingest/sensors", "r1,o3,4.5\n").status, 202);
  }
  ASSERT_EQ(stack.bridge.staged_rows(), 1u);

  const bool drained = stack.server->drain(5'000, [&] { stack.drain_wave(1); });
  EXPECT_TRUE(drained);
  EXPECT_FALSE(stack.server->draining());  // drain ends in a full stop
  EXPECT_EQ(stack.bridge.staged_rows(), 0u);
  EXPECT_EQ(stack.store.cell_versions("sensors", "r1", "o3").size(), 1u);
  EXPECT_THROW(Client{stack.server->port()}, Error);  // no longer accepting
}

TEST(NetDrain, InFlightRequestAnsweredWithConnectionClose) {
  Stack stack;
  Client client = stack.connect_accepted();
  // Half a request on the wire when drain begins: drain must wait for it,
  // answer it, and only then let the connection go.
  client.send_raw("POST /ingest/sensors HTTP/1.1\r\nContent-Length: 10\r\n\r\nr1,o3");

  std::atomic<bool> drained{false};
  std::jthread drainer([&] { drained.store(stack.server->drain(5'000, {})); });
  EXPECT_TRUE(Stack::eventually([&] { return stack.server->draining(); }));
  client.send_raw(",4.5\n");

  const ClientResponse response = client.read_response();
  EXPECT_EQ(response.status, 202);
  ASSERT_NE(response.header("Connection"), nullptr);
  EXPECT_EQ(*response.header("Connection"), "close");
  EXPECT_TRUE(client.at_eof());
  drainer.join();
  EXPECT_TRUE(drained.load());
}

TEST(NetDrain, DrainCompletesActivelyReadStream) {
  ServerOptions options;
  options.max_write_buffer = 4096;  // keep the stream producer alive a while
  Stack stack(options);
  {
    ds::Client client(stack.store, 1);
    for (int i = 0; i < 2000; ++i) {
      client.put("big", "row" + std::to_string(i), "c", static_cast<double>(i));
    }
  }

  Client client = stack.connect_accepted();
  client.send_request("GET", "/scan?table=big&stream=1");
  std::atomic<bool> drained{false};
  std::jthread drainer([&] { drained.store(stack.server->drain(10'000, {})); });
  const ClientResponse response = client.read_response();  // reads to the final chunk
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(response.chunked);
  drainer.join();
  EXPECT_TRUE(drained.load());
  const ServerStats stats = stack.server->stats();
  EXPECT_GE(stats.streams_completed, 1u);
  EXPECT_EQ(stats.streams_aborted, 0u);
}

TEST(NetDrain, StopAbortsUnreadStreamWithoutLeaking) {
  ServerOptions options;
  options.max_write_buffer = 4096;
  Stack stack(options);
  {
    // Far bigger than the kernel can buffer on loopback: the producer must
    // still be mid-stream when stop() lands.
    ds::Client client(stack.store, 1);
    const std::string pad(512, 'p');
    for (int i = 0; i < 50'000; ++i) {
      client.put("big", pad + std::to_string(i), "c", static_cast<double>(i));
    }
  }

  Client client = stack.connect();
  {
    const int small = 8 * 1024;  // shrink our receive window, too
    ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &small, sizeof small);
  }
  client.send_request("GET", "/scan?table=big&stream=1");
  // Never read: the stream stalls against the write buffer; stop() must
  // abandon it cleanly (ASan in CI holds the "no leak" half of this test).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stack.server->stop();
  EXPECT_GE(stack.server->stats().streams_aborted, 1u);
}

// --- Hostile-client defense ------------------------------------------------

TEST(NetReadTimeout, SlowLorisClosedWith408) {
  ServerOptions options;
  options.request_read_timeout_ms = 100;
  Stack stack(options);

  Client client = stack.connect();
  client.send_raw("GET /status HTTP/1.1\r\nX-Slow:");  // ...and never finishes
  const auto t0 = std::chrono::steady_clock::now();
  const ClientResponse response = client.read_response();
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_EQ(response.status, 408);
  EXPECT_TRUE(client.at_eof());
  // Deadline plus one sweep tick (<= read_timeout/4, floor 10ms), with slack.
  EXPECT_LT(elapsed, std::chrono::milliseconds(2'000));
  EXPECT_EQ(stack.server->stats().read_timeouts, 1u);

  // An idle keep-alive connection is *not* mid-request: it must survive the
  // read deadline untouched.
  Client idle = stack.connect();
  ASSERT_EQ(idle.request("GET", "/status").status, 200);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(idle.request("GET", "/status").status, 200);
  EXPECT_EQ(stack.server->stats().read_timeouts, 1u);
}

TEST(NetReadTimeout, MaxRequestsPerConnectionCloses) {
  ServerOptions options;
  options.max_requests_per_connection = 2;
  Stack stack(options);

  Client client = stack.connect();
  const ClientResponse first = client.request("GET", "/status");
  EXPECT_EQ(first.status, 200);
  ASSERT_NE(first.header("Connection"), nullptr);
  EXPECT_EQ(*first.header("Connection"), "keep-alive");

  const ClientResponse second = client.request("GET", "/status");
  EXPECT_EQ(second.status, 200);
  ASSERT_NE(second.header("Connection"), nullptr);
  EXPECT_EQ(*second.header("Connection"), "close");
  EXPECT_TRUE(client.at_eof());

  // A fresh connection gets a fresh budget.
  Client next = stack.connect();
  EXPECT_EQ(next.request("GET", "/status").status, 200);
}

// --- Chunked request bodies ------------------------------------------------

TEST(NetChunkedRequest, ByteEquivalentToContentLength) {
  Stack stack;
  const std::string body = "r1,o3,3.5\nr2,pm25,12\nr3,no2,0.25\n";

  Client client = stack.connect();
  ASSERT_EQ(client.request("POST", "/ingest/plain", body).status, 202);
  client.send_chunked_request("POST", "/ingest/chunked", body, /*chunk_size=*/5);
  ASSERT_EQ(client.read_response().status, 202);
  stack.drain_wave(1);

  // The two transfer encodings must produce byte-identical staged rows.
  const auto plain = stack.store.snapshot(ds::ContainerRef::whole_table("plain"));
  const auto chunked = stack.store.snapshot(ds::ContainerRef::whole_table("chunked"));
  EXPECT_EQ(plain.size(), 3u);
  EXPECT_EQ(plain, chunked);
}

TEST(NetChunkedRequest, OversizedChunkedBodyRefused413) {
  ServerOptions options;
  options.limits.max_body_bytes = 64;
  Stack stack(options);

  Client client = stack.connect();
  const std::string body(100, 'x');  // total exceeds the cap mid-stream
  client.send_chunked_request("POST", "/ingest/sensors", body, /*chunk_size=*/16);
  EXPECT_EQ(client.read_response().status, 413);
  EXPECT_TRUE(client.at_eof());
  EXPECT_EQ(stack.bridge.staged_rows(), 0u);
}

TEST(NetChunkedParser, ByteAtATimeWithExtensionsAndTrailers) {
  const std::string wire =
      "POST /ingest/t HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "6;ext=v\r\nr1,c,1\r\n"
      "1\r\n\n\r\n"
      "0\r\nX-Trailer: ignored\r\n\r\n";
  RequestParser parser;
  Request request;
  for (const char c : wire) {
    parser.feed(std::string_view(&c, 1));
    const auto result = parser.next(&request);
    ASSERT_NE(result, RequestParser::Result::kError);
    if (result == RequestParser::Result::kRequest) break;
  }
  EXPECT_EQ(request.body, "r1,c,1\n");
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(NetChunkedParser, TransferEncodingWithContentLengthIs400) {
  RequestParser parser;
  parser.feed(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 4\r\n\r\n");
  Request request;
  EXPECT_EQ(parser.next(&request), RequestParser::Result::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(NetChunkedParser, Http10ChunkedIs400) {
  RequestParser parser;
  parser.feed("POST / HTTP/1.0\r\nTransfer-Encoding: chunked\r\n\r\n");
  Request request;
  EXPECT_EQ(parser.next(&request), RequestParser::Result::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(NetChunkedParser, OversizedTrailerIs431) {
  RequestParser parser(HttpLimits{.max_header_bytes = 64, .max_body_bytes = 1024});
  parser.feed("POST / HTTP/1.1\r\nTE2: x\r\nTransfer-Encoding: chunked\r\n\r\n"
              "3\r\nabc\r\n0\r\nX-Pad: " +
              std::string(200, 'a') + "\r\n\r\n");
  Request request;
  EXPECT_EQ(parser.next(&request), RequestParser::Result::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

// --- Pipelined poisoning ---------------------------------------------------

TEST(NetPipelinePoison, ErrorMidPipelineDoesNotParseLaterBytes) {
  Stack stack;
  Client client = stack.connect();
  // Three pipelined requests; the second is malformed. The third carries a
  // valid ingest that must NEVER be parsed — a poisoned stream cannot be
  // resurrected by well-formed bytes behind the error.
  client.send_raw(
      "GET /status HTTP/1.1\r\n\r\n"
      "BROKEN\r\n\r\n"
      "POST /ingest/sensors HTTP/1.1\r\nContent-Length: 9\r\n\r\nr9,o3,9.9");

  EXPECT_EQ(client.read_response().status, 200);
  const ClientResponse poisoned = client.read_response();
  EXPECT_EQ(poisoned.status, 400);
  ASSERT_NE(poisoned.header("Connection"), nullptr);
  EXPECT_EQ(*poisoned.header("Connection"), "close");
  EXPECT_TRUE(client.at_eof());  // no third response

  EXPECT_EQ(stack.bridge.staged_rows(), 0u);  // the trailing ingest never ran
  const ServerStats stats = stack.server->stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.parse_errors, 1u);
}

// --- Socket-level chaos ----------------------------------------------------

TEST(NetChaosSchedule_, DrawsAreDeterministicAndBounded) {
  NetChaosOptions options;
  options.seed = 99;
  options.partial_write = 0.25;
  options.reset = 0.25;
  options.stall = 0.25;
  options.duplicate = 0.25;
  const NetChaosSchedule a(options);
  const NetChaosSchedule b(options);

  std::map<NetFaultKind, int> histogram;
  for (std::uint64_t request = 0; request < 256; ++request) {
    const NetFaultKind kind = a.draw(/*stream=*/1, request, /*attempt=*/0);
    EXPECT_EQ(kind, b.draw(1, request, 0)) << request;  // stateless: replayable
    ++histogram[kind];
    const std::size_t cut = a.cut_point(1, request, 0, /*salt=*/0, /*total=*/100);
    EXPECT_GE(cut, 1u);
    EXPECT_LT(cut, 100u);
  }
  // Every kind shows up at these rates over 256 draws.
  for (const auto kind : {NetFaultKind::kPartialWrite, NetFaultKind::kReset,
                          NetFaultKind::kStall, NetFaultKind::kDuplicate}) {
    EXPECT_GT(histogram[kind], 0) << static_cast<int>(kind);
  }

  // The quiet schedule never faults; a reseed changes the stream.
  const NetChaosSchedule quiet;
  for (std::uint64_t request = 0; request < 64; ++request) {
    EXPECT_EQ(quiet.draw(0, request, 0), NetFaultKind::kNone);
  }
}

TEST(NetChaosClient_, ChaosIngestConservesRows) {
  ServerOptions server_options;
  server_options.request_read_timeout_ms = 50;  // stalls must trip the 408 path
  Stack stack(server_options);

  NetChaosOptions chaos;
  chaos.seed = 7;
  chaos.partial_write = 0.2;
  chaos.reset = 0.12;
  chaos.stall = 0.06;
  chaos.duplicate = 0.12;
  chaos.stall_for = std::chrono::milliseconds(120);
  const NetChaosSchedule schedule(chaos);

  constexpr std::size_t kClients = 2;
  constexpr std::size_t kRequests = 12;
  std::atomic<ds::Timestamp> wave{1};
  std::atomic<bool> done{false};
  std::jthread driver([&] {
    while (!done.load(std::memory_order_acquire)) {
      stack.drain_wave(wave.fetch_add(1, std::memory_order_relaxed));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> faults_inflicted{0};
  std::vector<std::jthread> swarm;
  for (std::size_t c = 0; c < kClients; ++c) {
    swarm.emplace_back([&, c] {
      ChaosClient client(stack.server->port(), &schedule, /*stream=*/c);
      for (std::size_t r = 0; r < kRequests; ++r) {
        const std::string row = "w" + std::to_string(c) + "_" + std::to_string(r);
        const std::string body = row + ",o3," + std::to_string(c * 100 + r) + ".5\n";
        if (client.post_ingest("sensors", row, body) != 202) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      const testing::ChaosStats& stats = client.stats();
      faults_inflicted.fetch_add(stats.partial_writes + stats.resets + stats.stalls +
                                     stats.duplicate_sends,
                                 std::memory_order_relaxed);
    });
  }
  for (auto& worker : swarm) worker.join();
  done.store(true, std::memory_order_release);
  driver.join();
  stack.drain_wave(wave.fetch_add(1));

  // Exact conservation under chaos: every row present with the right value,
  // exactly once — partial writes, resets, stalls and duplicate sends all
  // collapse onto one staged copy through the idempotency keys.
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(faults_inflicted.load(), 0u);
  EXPECT_EQ(stack.store.cell_count("sensors"), kClients * kRequests);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t r = 0; r < kRequests; ++r) {
      const std::string row = "w" + std::to_string(c) + "_" + std::to_string(r);
      const auto versions = stack.store.cell_versions("sensors", row, "o3");
      ASSERT_EQ(versions.size(), 1u) << row;
      EXPECT_EQ(versions.front().value, static_cast<double>(c * 100 + r) + 0.5) << row;
    }
  }
}

// --- Dynamic Retry-After ---------------------------------------------------

TEST(NetRetryAfter, ScalesWithQueueDepthAboveLowWatermark) {
  wms::PressureOptions pressure;
  pressure.high_watermark = 8;
  pressure.low_watermark = 2;
  pressure.overflow = wms::OverflowPolicy::kShed;
  wms::BoundedWaveQueue queue(pressure);

  IngestBridge::Options options;
  options.queue = &queue;
  options.retry_after_seconds = 1;
  options.retry_after_max_seconds = 8;
  IngestBridge bridge(options);

  for (ds::Timestamp w = 1; w <= 8; ++w) ASSERT_TRUE(queue.push(w));
  auto refusal = bridge.admission();
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(refusal->reason, "backpressure");
  EXPECT_EQ(refusal->retry_after_seconds, 8);  // saturated: the cap

  // Hysteresis keeps the gate shut below high; the advertised backoff eases
  // as the queue drains toward the low watermark.
  for (int i = 0; i < 3; ++i) queue.pop();  // depth 5: t = 0.5
  refusal = bridge.admission();
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(refusal->retry_after_seconds, 5);

  for (int i = 0; i < 2; ++i) queue.pop();  // depth 3: t = 1/6
  refusal = bridge.admission();
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(refusal->retry_after_seconds, 2);

  queue.pop();  // depth 2 = low watermark: the gate reopens
  EXPECT_FALSE(bridge.admission().has_value());

  // Hard refusals always advertise the ceiling.
  queue.close();
  refusal = bridge.admission();
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(refusal->reason, "queue-closed");
  EXPECT_EQ(refusal->retry_after_seconds, 8);
}

// --- Staged-byte ceiling ---------------------------------------------------

TEST(NetStagingBytes, ByteCeilingRefusesBeforeRowCeiling) {
  IngestBridge::Options options;
  options.max_staged_rows = 1 << 20;  // rows alone would admit everything
  options.max_staged_bytes = 48;
  Stack stack({}, options);

  Client client = stack.connect();
  // One fat row blows the byte budget on its own; the next request bounces.
  const std::string fat = "row_with_a_long_name,column_with_a_long_name,123456.75\n";
  ASSERT_EQ(client.request("POST", "/ingest/sensors", fat).status, 202);
  EXPECT_GE(stack.bridge.staged_bytes(), 48u);

  const ClientResponse refused = client.request("POST", "/ingest/sensors", "r2,c,1\n");
  EXPECT_EQ(refused.status, 503);
  EXPECT_NE(refused.body.find("staging-full"), std::string::npos);
  ASSERT_NE(refused.header("Retry-After"), nullptr);
  EXPECT_EQ(*refused.header("Retry-After"),
            std::to_string(IngestBridge::Options{}.retry_after_max_seconds));

  // Draining releases the bytes with the rows.
  stack.drain_wave(1);
  EXPECT_EQ(stack.bridge.staged_bytes(), 0u);
  EXPECT_EQ(client.request("POST", "/ingest/sensors", "r2,c,1\n").status, 202);
}

}  // namespace
}  // namespace smartflux::net
