#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
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
#include "wms/xml_loader.h"

namespace smartflux::net {
namespace {

using testing::Client;
using testing::ClientResponse;

/// Store + bridge + gateway behind a live server, with the server options
/// under test control (streaming bounds, loop counts, idle timeout).
class StreamFixture : public ::testing::Test {
 protected:
  void start_server(ServerOptions options, GatewayOptions extra = {}) {
    GatewayOptions gateway = std::move(extra);
    gateway.store = &store_;
    gateway.ingest = &bridge_;
    server_ = std::make_unique<Server>(make_gateway_router(std::move(gateway)), options);
    server_->start();
  }

  /// Fills `table` with `n` cells whose snapshot order equals generation
  /// order (zero-padded keys) and whose values format without %.17g noise.
  void fill_table(const std::string& table, std::size_t n) {
    ds::Client client(store_, 1);
    std::vector<ds::PutOp> ops;
    keys_.reserve(keys_.size() + 2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      char row[32], col[16];
      std::snprintf(row, sizeof row, "r%08zu", i);
      std::snprintf(col, sizeof col, "c%zu", i % 7);
      keys_.push_back(row);
      keys_.push_back(col);
      ops.push_back({keys_[keys_.size() - 2], keys_.back(), static_cast<double>(i)});
    }
    client.put_batch(table, ops);
  }

  Client connect() { return Client(server_->port()); }

  ds::DataStore store_{4};
  IngestBridge bridge_;
  std::vector<std::string> keys_;  ///< owns the string_views in put_batch
  std::unique_ptr<Server> server_;
};

using NetStreaming = StreamFixture;

TEST_F(NetStreaming, StreamedScanMatchesBufferedCsv) {
  start_server({});
  fill_table("sensors", 2000);
  Client client = connect();

  const ClientResponse buffered = client.request("GET", "/scan?table=sensors");
  ASSERT_EQ(buffered.status, 200);
  ASSERT_FALSE(buffered.chunked);
  ASSERT_GT(buffered.body.size(), 2000u * 10);

  const ClientResponse streamed = client.request("GET", "/scan?table=sensors&stream=1");
  ASSERT_EQ(streamed.status, 200);
  EXPECT_TRUE(streamed.chunked);
  ASSERT_NE(streamed.header("Transfer-Encoding"), nullptr);
  EXPECT_EQ(streamed.body, buffered.body);

  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.streams_started, 1u);
  EXPECT_EQ(stats.streams_completed, 1u);
}

TEST_F(NetStreaming, StreamedScanMatchesBufferedNdjson) {
  start_server({});
  fill_table("sensors", 500);
  Client client = connect();

  const ClientResponse buffered = client.request("GET", "/scan?table=sensors&format=ndjson");
  ASSERT_EQ(buffered.status, 200);
  EXPECT_EQ(*buffered.header("Content-Type"), "application/x-ndjson");
  EXPECT_NE(buffered.body.find("{\"row\":\"r00000000\",\"col\":\"c0\",\"value\":0}"),
            std::string::npos);

  const ClientResponse streamed =
      client.request("GET", "/scan?table=sensors&format=ndjson&stream=1");
  ASSERT_EQ(streamed.status, 200);
  EXPECT_TRUE(streamed.chunked);
  EXPECT_EQ(*streamed.header("Content-Type"), "application/x-ndjson");
  EXPECT_EQ(streamed.body, buffered.body);

  const ClientResponse bad = client.request("GET", "/scan?table=sensors&format=xml");
  EXPECT_EQ(bad.status, 400);
}

TEST_F(NetStreaming, LargeScanStaysUnderWriteBound) {
  ServerOptions options;
  options.max_write_buffer = 64 * 1024;
  start_server(options);
  const std::size_t kCells = 40'000;  // ~700KB of body, 10x the write bound
  fill_table("big", kCells);

  // Expected payload built independently of the server (the buffered path
  // could not serve it under this write bound — that is the point of
  // streaming).
  std::string expected;
  {
    const ds::FlatSnapshot snap = store_.snapshot_flat(ds::ContainerRef("big", "", ""));
    ASSERT_EQ(snap.size(), kCells);
    char line[96];
    for (const ds::FlatEntry& e : snap) {
      const int n = std::snprintf(line, sizeof line, "%s,%s,%.17g\n", e.row->c_str(),
                                  e.col->c_str(), e.value);
      expected.append(line, static_cast<std::size_t>(n));
    }
  }

  Client client = connect();
  const ClientResponse streamed = client.request("GET", "/scan?table=big&stream=1");
  ASSERT_EQ(streamed.status, 200);
  EXPECT_TRUE(streamed.chunked);
  EXPECT_EQ(streamed.body.size(), expected.size());
  EXPECT_EQ(streamed.body, expected);

  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.streams_completed, 1u);
  EXPECT_EQ(stats.slow_disconnects, 0u);
  // The producer pauses at max_write_buffer/2; framing overhead stays well
  // inside the remaining half.
  EXPECT_LE(stats.peak_write_buffer, options.max_write_buffer);
}

TEST_F(NetStreaming, EmptyScanStreamsZeroChunks) {
  start_server({});
  fill_table("sensors", 3);
  Client client = connect();
  const ClientResponse streamed =
      client.request("GET", "/scan?table=sensors&prefix=nomatch&stream=1");
  ASSERT_EQ(streamed.status, 200);
  EXPECT_TRUE(streamed.chunked);
  EXPECT_TRUE(streamed.body.empty());
  // The connection survives the empty stream.
  EXPECT_EQ(client.request("GET", "/scan?table=sensors").status, 200);
}

TEST_F(NetStreaming, Http10PeerGetsBufferedFallback) {
  start_server({});
  fill_table("sensors", 100);
  Client client = connect();
  client.send_raw("GET /scan?table=sensors&stream=1 HTTP/1.0\r\n\r\n");
  const ClientResponse response = client.read_response();
  ASSERT_EQ(response.status, 200);
  EXPECT_FALSE(response.chunked);
  ASSERT_NE(response.header("Content-Length"), nullptr);
  EXPECT_EQ(response.header("Transfer-Encoding"), nullptr);
  EXPECT_NE(response.body.find("r00000000,c0,0\n"), std::string::npos);
}

TEST_F(NetStreaming, PipelinedRequestsBehindStreamAreAnsweredInOrder) {
  start_server({});
  fill_table("sensors", 1000);
  Client client = connect();
  // Both requests hit the socket before the stream starts draining; the
  // second must be served after the final chunk, on the same connection.
  client.send_request("GET", "/scan?table=sensors&stream=1");
  client.send_request("GET", "/get?table=sensors&row=r00000007&col=c0");
  const ClientResponse first = client.read_response();
  const ClientResponse second = client.read_response();
  EXPECT_TRUE(first.chunked);
  ASSERT_EQ(second.status, 200);
  EXPECT_EQ(second.body, "{\"value\":7}\n");
}

using NetServerMultiLoop = StreamFixture;

TEST_F(NetServerMultiLoop, ServesConcurrentClientsAcrossLoops) {
  ServerOptions options;
  options.loop_threads = 4;
  start_server(options);
  EXPECT_EQ(server_->loop_count(), 4u);

  constexpr int kClients = 8;
  constexpr int kRequests = 40;
  std::atomic<int> accepted{0};
  std::vector<std::jthread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([this, t, &accepted] {
      Client client = connect();
      for (int i = 0; i < kRequests; ++i) {
        // Spread tables across stripe domains; every loop thread stages.
        const std::string table = "t" + std::to_string((t * kRequests + i) % 5);
        const ClientResponse r =
            client.request("POST", "/ingest/" + table, "row,col," + std::to_string(i) + "\n");
        if (r.status == 202) accepted.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(accepted.load(), kClients * kRequests);
  EXPECT_EQ(bridge_.staged_rows(), static_cast<std::size_t>(kClients * kRequests));
  EXPECT_EQ(server_->stats().requests, static_cast<std::uint64_t>(kClients * kRequests));

  // One drain sees every striped row.
  ds::Client ds_client(store_, 1);
  bridge_.make_ingest()(ds_client, 1);
  EXPECT_EQ(bridge_.staged_rows(), 0u);
  EXPECT_EQ(bridge_.stats().rows_ingested, static_cast<std::uint64_t>(kClients * kRequests));
}

TEST_F(NetServerMultiLoop, SharedListenerFallbackStillServes) {
  ServerOptions options;
  options.loop_threads = 3;
  options.reuse_port = false;  // force the locked shared-accept path
  start_server(options);
  EXPECT_EQ(server_->loop_count(), 3u);
  EXPECT_FALSE(server_->reuse_port_active());

  std::vector<Client> clients;
  for (int i = 0; i < 6; ++i) clients.emplace_back(connect());
  for (auto& client : clients) {
    EXPECT_EQ(client.request("GET", "/status").status, 200);
  }
}

TEST_F(NetServerMultiLoop, ReusePortShardsWhenAvailable) {
  ServerOptions options;
  options.loop_threads = 2;
  start_server(options);
#ifdef SO_REUSEPORT
  EXPECT_TRUE(server_->reuse_port_active());
#endif
  Client client = connect();
  EXPECT_EQ(client.request("GET", "/status").status, 200);
}

TEST_F(NetServerMultiLoop, IdleConnectionsAreReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  start_server(options);
  Client client = connect();
  ASSERT_EQ(client.request("GET", "/status").status, 200);
  // Past the timeout the server hangs up on its own.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->stats().idle_disconnects == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server_->stats().idle_disconnects, 1u);
  EXPECT_TRUE(client.at_eof());
}

// --- vectored write path --------------------------------------------------

Router pattern_router(std::size_t body_bytes) {
  Router router;
  router.add("GET", "/big", [body_bytes](Request&, const std::vector<std::string>&) {
    std::string body(body_bytes, '\0');
    for (std::size_t i = 0; i < body.size(); ++i) {
      body[i] = static_cast<char>('A' + (i % 23));
    }
    return text_response(200, std::move(body));
  });
  router.add("GET", "/echo/<n>", [](Request&, const std::vector<std::string>& params) {
    return text_response(200, "echo:" + params[0] + "\n");
  });
  return router;
}

TEST(NetWritev, ShortWritesResumeMidChunk) {
  // 8MB through loopback forces many partial sendmsg() calls; any slip in
  // head_offset bookkeeping corrupts the pattern.
  constexpr std::size_t kBody = 8u * 1024 * 1024;
  ServerOptions options;
  options.max_write_buffer = 2 * kBody;  // buffered on purpose: stress flush
  Server server(pattern_router(kBody), options);
  server.start();
  Client client(server.port());
  const ClientResponse response = client.request("GET", "/big");
  ASSERT_EQ(response.status, 200);
  ASSERT_EQ(response.body.size(), kBody);
  for (std::size_t i = 0; i < kBody; i += 4097) {
    ASSERT_EQ(response.body[i], static_cast<char>('A' + (i % 23))) << "at byte " << i;
  }
  server.stop();
}

TEST(NetWritev, PipelinedResponsesShareOneQueue) {
  // Many small pipelined responses land in the chunk queue together and go
  // out through multi-iovec sendmsg calls; order and framing must hold.
  Server server(pattern_router(64), {});
  server.start();
  Client client(server.port());
  constexpr int kCount = 40;
  for (int i = 0; i < kCount; ++i) {
    client.send_request("GET", "/echo/" + std::to_string(i));
  }
  for (int i = 0; i < kCount; ++i) {
    const ClientResponse response = client.read_response();
    ASSERT_EQ(response.status, 200);
    EXPECT_EQ(response.body, "echo:" + std::to_string(i) + "\n");
  }
  server.stop();
}

// --- zero-copy ingest -----------------------------------------------------

TEST(NetIngestSpans, SpanParseMatchesRecordParse) {
  const std::string body = "r1,c1,3.5\r\nr2,c2,-0.25\n\nrow3,col3,1e3\n";
  std::string err_records, err_spans;
  const auto records = parse_ingest_body(body, &err_records);
  const auto spans = parse_ingest_spans(body, &err_spans);
  ASSERT_TRUE(records.has_value());
  ASSERT_TRUE(spans.has_value());
  ASSERT_EQ(records->size(), spans->size());
  for (std::size_t i = 0; i < records->size(); ++i) {
    const IngestSpan& s = (*spans)[i];
    EXPECT_EQ((*records)[i].row, body.substr(s.row_off, s.row_len));
    EXPECT_EQ((*records)[i].column, body.substr(s.col_off, s.col_len));
    EXPECT_EQ((*records)[i].value, s.value);
  }

  // Same diagnostics, same line numbers.
  for (const char* bad : {"r1,c1\n", ",c,1\n", "r,,1\n", "a,b,xyz\n", "ok,ok,1\nr2,c2,\n"}) {
    std::string e1, e2;
    EXPECT_FALSE(parse_ingest_body(bad, &e1).has_value()) << bad;
    EXPECT_FALSE(parse_ingest_spans(bad, &e2).has_value()) << bad;
    EXPECT_EQ(e1, e2) << bad;
  }
}

TEST(NetIngestSpans, StageSpansEquivalentToStage) {
  const std::string body = "r1,o3,3.5\nr1,pm25,12\nr2,o3,4.25\nr2,pm25,0.125\n";

  ds::DataStore store_records{2};
  ds::DataStore store_spans{2};
  IngestBridge via_records;
  IngestBridge via_spans;

  auto records = parse_ingest_body(body, nullptr);
  ASSERT_TRUE(records.has_value());
  via_records.stage("sensors", std::move(*records));

  auto spans = parse_ingest_spans(body, nullptr);
  ASSERT_TRUE(spans.has_value());
  via_spans.stage_spans("sensors", std::string(body), std::move(*spans));

  EXPECT_EQ(via_records.staged_rows(), via_spans.staged_rows());
  {
    ds::Client c1(store_records, 1);
    via_records.make_ingest()(c1, 1);
    ds::Client c2(store_spans, 1);
    via_spans.make_ingest()(c2, 1);
  }

  const ds::FlatSnapshot s1 = store_records.snapshot_flat(ds::ContainerRef("sensors", "", ""));
  const ds::FlatSnapshot s2 = store_spans.snapshot_flat(ds::ContainerRef("sensors", "", ""));
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(*s1.entries()[i].row, *s2.entries()[i].row);
    EXPECT_EQ(*s1.entries()[i].col, *s2.entries()[i].col);
    EXPECT_EQ(s1.entries()[i].value, s2.entries()[i].value);
  }
}

TEST_F(NetStreaming, LegacyCopyIngestPathStillServes) {
  GatewayOptions gateway;
  gateway.zero_copy_ingest = false;
  start_server({}, std::move(gateway));
  Client client = connect();
  const ClientResponse staged = client.request("POST", "/ingest/sensors", "r1,c1,2.5\n");
  ASSERT_EQ(staged.status, 202);
  EXPECT_NE(staged.body.find("\"staged\":1"), std::string::npos);
  ds::Client ds_client(store_, 1);
  bridge_.make_ingest()(ds_client, 1);
  EXPECT_EQ(client.request("GET", "/get?table=sensors&row=r1&col=c1").body, "{\"value\":2.5}\n");
}

// --- POST /workflow -------------------------------------------------------

constexpr const char* kWorkflowXml = R"(<?xml version="1.0"?>
<workflow-app name="aqhi">
  <action name="feed">
    <impl>feed</impl>
    <qod><container role="output" table="sensors"/></qod>
  </action>
  <action name="index">
    <impl>index</impl>
    <predecessors>feed</predecessors>
    <qod>
      <container role="input" table="sensors"/>
      <container role="output" table="aqhi" column="idx"/>
      <max-error>0.1</max-error>
    </qod>
  </action>
</workflow-app>)";

class NetWorkflow : public StreamFixture {
 protected:
  NetWorkflow() {
    registry_.register_step("feed", [](wms::StepContext&) {});
    registry_.register_step("index", [](wms::StepContext&) {});
  }

  wms::StepRegistry registry_;
};

TEST_F(NetWorkflow, UploadParsesAndReportsSpec) {
  GatewayOptions gateway;
  gateway.workflow_steps = &registry_;
  std::string installed_name;
  gateway.install_workflow = [&installed_name](wms::WorkflowSpec&& spec) {
    installed_name = spec.name();
    return std::string("\"installed\":true");
  };
  start_server({}, std::move(gateway));

  Client client = connect();
  const ClientResponse response = client.request("POST", "/workflow", kWorkflowXml);
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"workflow\":\"aqhi\""), std::string::npos);
  EXPECT_NE(response.body.find("\"steps\":2"), std::string::npos);
  EXPECT_NE(response.body.find("\"installed\":true"), std::string::npos);
  EXPECT_EQ(installed_name, "aqhi");
}

TEST_F(NetWorkflow, BadXmlIs400WithDiagnostics) {
  GatewayOptions gateway;
  gateway.workflow_steps = &registry_;
  start_server({}, std::move(gateway));
  Client client = connect();

  const ClientResponse malformed = client.request("POST", "/workflow", "<workflow-app>");
  EXPECT_EQ(malformed.status, 400);
  EXPECT_NE(malformed.body.find("workflow rejected"), std::string::npos);

  // Valid XML, unknown <impl>: the registry diagnostics come back verbatim.
  const ClientResponse unknown = client.request(
      "POST", "/workflow",
      "<workflow-app name=\"x\"><action name=\"a\"><impl>nope</impl></action></workflow-app>");
  EXPECT_EQ(unknown.status, 400);
  EXPECT_NE(unknown.body.find("nope"), std::string::npos);
}

TEST_F(NetWorkflow, RouteAbsentWithoutRegistry) {
  start_server({});
  Client client = connect();
  EXPECT_EQ(client.request("POST", "/workflow", kWorkflowXml).status, 404);
}

}  // namespace
}  // namespace smartflux::net
