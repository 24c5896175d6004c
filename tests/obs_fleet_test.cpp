// Fleet collector: JSON parse-back, scrape-client timeout bounds,
// multi-hub merge semantics, cross-process trace stitching over real
// UDP, and the spans_dropped metric mirror.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "net/udp_transport.h"
#include "obs/export.h"
#include "obs/fleet.h"
#include "obs/json.h"
#include "obs/scrape.h"
#include "obs/scrape_client.h"
#include "obs/telemetry.h"
#include "runtime/threaded_client.h"
#include "runtime/threaded_replica.h"
#include "stats/variates.h"

namespace aqua::obs {
namespace {

// ----------------------------------------------------------- json parser

TEST(FleetJsonTest, ParsesStructuresNumbersAndEscapes) {
  const json::Value v = json::parse(
      R"({"a":1,"b":-2.5,"c":"x\"y\nA","d":[true,false,null],"e":{"nested":[ [0,7] ]}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.u64("a"), 1u);
  EXPECT_TRUE(v.find("a")->is_integer);
  EXPECT_DOUBLE_EQ(v.dbl("b"), -2.5);
  EXPECT_FALSE(v.find("b")->is_integer);
  EXPECT_EQ(v.find("c")->as_string(), "x\"y\nA");
  ASSERT_TRUE(v.find("d")->is_array());
  EXPECT_TRUE(v.find("d")->array[0].as_bool());
  EXPECT_EQ(v.find("d")->array[2].kind, json::Value::Kind::kNull);
  const json::Value* pair = &v.find("e")->find("nested")->array[0];
  EXPECT_EQ(pair->array[1].as_u64(), 7u);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(FleetJsonTest, RejectsMalformedDocuments) {
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(json::parse("nope"), std::runtime_error);
}

TEST(FleetJsonTest, SnapshotRoundTripsThroughParseBack) {
  Telemetry telemetry;
  telemetry.metrics().counter("t.count").add(42);
  telemetry.metrics().gauge("t.gauge").set(2.5);
  Histogram& h = telemetry.metrics().histogram("t.latency");
  for (int i = 1; i <= 100; ++i) h.record_value(i * 100);

  std::ostringstream out;
  write_snapshot_json(out, telemetry);
  const FleetNodeData data = parse_snapshot_body(out.str());
  EXPECT_EQ(data.counters.at("t.count"), 42u);
  EXPECT_DOUBLE_EQ(data.gauges.at("t.gauge"), 2.5);
  const HistogramBins& bins = data.histograms.at("t.latency");
  EXPECT_EQ(bins.count, 100u);
  // Parse-back preserves the bins exactly, so quantiles agree with the
  // live histogram.
  EXPECT_EQ(bins.quantile(0.5), h.quantile(0.5));
  EXPECT_EQ(bins.quantile(0.99), h.quantile(0.99));
  EXPECT_EQ(bins.max_us, h.max_value());
  EXPECT_GT(data.now_us, -1);
}

TEST(FleetJsonTest, SpansRoundTripThroughParseBack) {
  const SpanRecord span{.trace_id = make_trace_id(ClientId{3}, RequestId{9}),
                        .span_id = 11,
                        .parent_span_id = 4,
                        .kind = SpanKind::kQueueWait,
                        .client = ClientId{3},
                        .request = RequestId{9},
                        .replica = ReplicaId{2},
                        .start = TimePoint{usec(100)},
                        .end = TimePoint{usec(250)},
                        .ok = true};
  std::ostringstream out;
  const std::vector<SpanRecord> spans{span};
  write_spans_json(out, std::span<const SpanRecord>{spans});
  const std::vector<SpanRecord> parsed = parse_spans_body(out.str());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], span);
}

TEST(FleetJsonTest, ParsesEndpointSpecs) {
  const FleetEndpoint bare = parse_fleet_endpoint("9900");
  EXPECT_EQ(bare.host, "127.0.0.1");
  EXPECT_EQ(bare.port, 9900);
  const FleetEndpoint full = parse_fleet_endpoint("10.1.2.3:80");
  EXPECT_EQ(full.host, "10.1.2.3");
  EXPECT_EQ(full.port, 80);
  EXPECT_THROW(parse_fleet_endpoint("host:"), std::runtime_error);
  EXPECT_THROW(parse_fleet_endpoint("host:99999"), std::runtime_error);
  EXPECT_THROW(parse_fleet_endpoint(""), std::runtime_error);
}

// --------------------------------------------------------- scrape client

TEST(ScrapeClientTest, RefusedConnectionFailsFastWithError) {
  // Bind-then-close reserves a port with nothing listening.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(fd);

  const auto start = std::chrono::steady_clock::now();
  const ScrapeResult result = scrape_http_get("127.0.0.1", dead_port, "/metrics");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
  EXPECT_LT(elapsed, std::chrono::seconds{2});
}

TEST(ScrapeClientTest, SilentEndpointTimesOutWithinBudget) {
  // A listener that accepts the TCP handshake (kernel backlog) but never
  // serves a byte: the exact half-dead endpoint that used to hang the
  // old blocking dashboard client forever.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(fd, 4), 0);
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t silent_port = ntohs(addr.sin_port);

  ScrapeOptions options;
  options.connect_timeout = msec(200);
  options.read_timeout = msec(200);
  const auto start = std::chrono::steady_clock::now();
  const ScrapeResult result = scrape_http_get("127.0.0.1", silent_port, "/metrics", options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ::close(fd);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("timed out"), std::string::npos) << result.error;
  // Budgeted, not blocking: well under a second for a 200ms budget.
  EXPECT_LT(elapsed, std::chrono::seconds{2});
}

TEST(ScrapeClientTest, FetchesBodiesFromALiveServer) {
  Telemetry telemetry;
  telemetry.metrics().counter("alive").add(3);
  ScrapeServer server{telemetry, 0};
  const ScrapeResult result = scrape_http_get("127.0.0.1", server.port(), "/metrics");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, 200);
  EXPECT_NE(result.body.find("aqua_alive 3"), std::string::npos);
  const ScrapeResult missing = scrape_http_get("127.0.0.1", server.port(), "/nope");
  EXPECT_FALSE(missing.ok);
  EXPECT_EQ(missing.status, 404);
}

// ----------------------------------------------------------- fleet merge

TEST(FleetCollectorTest, MergesCountersHistogramsAndKeepsGaugesPerNode) {
  Telemetry hub_a;
  Telemetry hub_b;
  hub_a.metrics().counter("shared.count").add(10);
  hub_b.metrics().counter("shared.count").add(32);
  hub_a.metrics().gauge("queue.depth").set(4.0);
  hub_b.metrics().gauge("queue.depth").set(9.0);
  Histogram union_stream;
  for (int i = 1; i <= 60; ++i) {
    hub_a.metrics().histogram("latency").record_value(i * 10);
    union_stream.record_value(i * 10);
  }
  for (int i = 1; i <= 40; ++i) {
    hub_b.metrics().histogram("latency").record_value(i * 1000);
    union_stream.record_value(i * 1000);
  }
  ScrapeServer server_a{hub_a, 0};
  ScrapeServer server_b{hub_b, 0};

  FleetCollector collector{{{.host = "127.0.0.1", .port = server_a.port(), .label = "a"},
                           {.host = "127.0.0.1", .port = server_b.port(), .label = "b"}}};
  const FleetSnapshot snapshot = collector.collect();
  ASSERT_EQ(snapshot.nodes.size(), 2u);
  ASSERT_TRUE(snapshot.nodes[0].reachable) << snapshot.nodes[0].error;
  ASSERT_TRUE(snapshot.nodes[1].reachable) << snapshot.nodes[1].error;

  EXPECT_EQ(snapshot.counters.at("shared.count"), 42u);
  // Gauges never merge: instantaneous per-node values keep their node.
  EXPECT_EQ(snapshot.gauges.count("queue.depth"), 0u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("a/queue.depth"), 4.0);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("b/queue.depth"), 9.0);
  EXPECT_EQ(snapshot.gauges.count("a/fleet.clock_skew_us"), 1u);

  const HistogramBins& merged = snapshot.histograms.at("latency");
  EXPECT_EQ(merged.count, 100u);
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(merged.quantile(q), union_stream.quantile(q)) << "q " << q;
  }

  std::ostringstream json_out;
  write_fleet_json(json_out, snapshot);
  const json::Value report = json::parse(json_out.str());
  EXPECT_EQ(report.find("counters")->u64("shared.count"), 42u);
  EXPECT_EQ(report.find("nodes")->array.size(), 2u);
}

TEST(FleetCollectorTest, DeadNodeDegradesToStaleWithLastGoodData) {
  Telemetry hub;
  hub.metrics().counter("events").add(5);
  auto server = std::make_unique<ScrapeServer>(hub, 0);
  const std::uint16_t port = server->port();

  FleetCollector collector{{{.host = "127.0.0.1", .port = port, .label = "node"}},
                           ScrapeOptions{.connect_timeout = msec(200),
                                         .read_timeout = msec(400)}};
  const FleetSnapshot live = collector.collect();
  ASSERT_TRUE(live.nodes[0].reachable) << live.nodes[0].error;
  EXPECT_EQ(live.counters.at("events"), 5u);

  server.reset();  // node dies
  const FleetSnapshot stale = collector.collect();
  EXPECT_FALSE(stale.nodes[0].reachable);
  EXPECT_TRUE(stale.nodes[0].has_data);
  EXPECT_FALSE(stale.nodes[0].error.empty());
  EXPECT_GE(stale.nodes[0].stale_s, 0.0);
  // Last-good counters stay in the merge: fleet totals never go backwards.
  EXPECT_EQ(stale.counters.at("events"), 5u);
}

// ------------------------------------------------- cross-process stitch

TEST(FleetStitchTest, StitchesGatewayAndReplicaHubsOverUdp) {
  net::UdpTransportConfig udp_config;
  udp_config.retransmit_initial = msec(5);
  udp_config.retransmit_backoff = 1.5;
  udp_config.max_attempts = 4;
  udp_config.retransmit_tick = msec(2);

  // Replica "process": own hub, transport, scrape server.
  Telemetry replica_telemetry;
  net::UdpTransport replica_transport{udp_config};
  replica_transport.set_telemetry(&replica_telemetry);
  replica::ReplicaConfig replica_config;
  replica_config.telemetry = &replica_telemetry;
  runtime::ThreadedReplica replica{
      ReplicaId{1}, replica::make_sampled_service(stats::make_constant(msec(2))),
      Rng{11}.fork("replica").fork(1), replica_transport,
      [&replica_transport](net::ReceiveFn fn) {
        return replica_transport.create_endpoint_on(HostId{1}, 0, std::move(fn));
      },
      replica_config};
  ScrapeServer replica_scrape{replica_telemetry, 0};

  // Gateway "process": its own hub and transport, pointed at the peer.
  Telemetry gateway_telemetry;
  net::UdpTransport gateway_transport{udp_config};
  gateway_transport.set_telemetry(&gateway_telemetry);
  ScrapeServer gateway_scrape{gateway_telemetry, 0};
  runtime::ThreadedClientConfig client_config;
  client_config.telemetry = &gateway_telemetry;
  client_config.transport = &gateway_transport;
  client_config.id = ClientId{1};
  client_config.host = HostId{1'000};
  runtime::ThreadedClient client{core::QosSpec{msec(100), 0.5}, Rng{11}.fork("client").fork(1),
                                 client_config};
  client.subscribe_to(gateway_transport.register_peer(
      "127.0.0.1", replica_transport.endpoint_port(replica.endpoint())));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{5};
  while (client.known_replicas() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  ASSERT_EQ(client.known_replicas(), 1u);

  std::size_t answered = 0;
  for (int i = 0; i < 20; ++i) {
    if (client.invoke(i).answered) ++answered;
  }
  client.shutdown();
  ASSERT_GT(answered, 0u);

  FleetCollector collector{
      {{.host = "127.0.0.1", .port = gateway_scrape.port(), .label = "gateway"},
       {.host = "127.0.0.1", .port = replica_scrape.port(), .label = "replica"}}};
  const FleetSnapshot snapshot = collector.collect();
  ASSERT_TRUE(snapshot.nodes[0].reachable) << snapshot.nodes[0].error;
  ASSERT_TRUE(snapshot.nodes[1].reachable) << snapshot.nodes[1].error;

  // The replica hub recorded server-side spans under the gateway's
  // propagated trace ids: queue wait + service from the worker.
  bool replica_has_queue = false;
  bool replica_has_service = false;
  for (const SpanRecord& s : snapshot.nodes[1].data.spans) {
    replica_has_queue |= s.kind == SpanKind::kQueueWait;
    replica_has_service |= s.kind == SpanKind::kService;
  }
  EXPECT_TRUE(replica_has_queue);
  EXPECT_TRUE(replica_has_service);
  EXPECT_EQ(snapshot.counters.at("replica.replies"), replica.serviced());

  // Loss-free loopback: every answered request stitches end-to-end.
  EXPECT_EQ(snapshot.traces_answered, answered);
  EXPECT_GE(snapshot.traces_stitched, 1u);
  EXPECT_GE(snapshot.stitch_completeness(), 0.95);
  ASSERT_GT(snapshot.attribution.traces, 0u);
  // Attribution is coherent: service dominates a 2ms-constant workload,
  // and each leg's p50 is within the end-to-end p50.
  const FleetAttribution& a = snapshot.attribution;
  EXPECT_GE(a.service.quantile(0.5), msec(1).count());
  EXPECT_LE(a.queue.quantile(0.5), a.end_to_end.quantile(1.0));
  for (const StitchedTrace& t : snapshot.traces) {
    if (!t.complete) continue;
    // Legs + residual reconstruct the measured end-to-end exactly (the
    // residual absorbs hand-off gaps and clock estimation error).
    EXPECT_EQ(t.dispatch_us + t.wire_out_us + t.queue_us + t.service_us + t.wire_back_us +
                  t.residual_us,
              t.end_to_end_us);
  }

  // Merged Perfetto: gateway and replica process groups share trace ids.
  std::ostringstream trace_out;
  write_fleet_perfetto_json(trace_out, snapshot);
  const std::string trace = trace_out.str();
  EXPECT_NE(trace.find("\"name\":\"gateway\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"replica-1\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);  // flow arrows
}

// -------------------------------------------------- spans_dropped mirror

TEST(FleetSpansDroppedTest, RingEvictionBumpsTheRegistryCounter) {
  TelemetryConfig config;
  config.span_capacity = 4;
  Telemetry telemetry{config};
  for (std::uint64_t i = 0; i < 10; ++i) {
    telemetry.record_span({.trace_id = i + 1, .span_id = telemetry.next_span_id()});
  }
  EXPECT_EQ(telemetry.spans_dropped(), 6u);
  EXPECT_EQ(telemetry.metrics().counter("telemetry.spans_dropped").value(), 6u);
  // And the mirror rides /snapshot into the fleet merge.
  std::ostringstream out;
  write_snapshot_json(out, telemetry);
  const FleetNodeData data = parse_snapshot_body(out.str());
  EXPECT_EQ(data.counters.at("telemetry.spans_dropped"), 6u);
  EXPECT_EQ(data.spans_dropped, 6u);
}

}  // namespace
}  // namespace aqua::obs
