// Fleet observability cost + fidelity report: a scripted 1-gateway /
// 3-replica run over loopback UDP, scraped and stitched by
// obs::FleetCollector exactly as `aqua_top --fleet` would.
//
// "Fleet" here means four independent Telemetry hubs behind four
// independent UdpTransports and ScrapeServers — real sockets, real
// HTTP scrapes, real per-hub clocks — assembled in one process so the
// bench is self-contained and CI-runnable. The report answers:
//
//   - stitch fidelity: what fraction of answered requests reassemble
//     into a complete cross-process trace (root + dispatch + queue +
//     service), and how well the per-leg attribution sums back to the
//     measured end-to-end time (residual = clock-offset error + hand-off
//     gaps);
//   - collector cost: wall time to scrape all four endpoints and to
//     merge + stitch the results;
//   - merge conservation: summed fleet counters equal the sum of each
//     node's own /metrics totals (checked against the raw Prometheus
//     bodies, i.e. through a second, independent export path).
//
// Emits BENCH_fleet.json; tools/run_checks.sh greps the headline rows.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "net/udp_transport.h"
#include "obs/fleet.h"
#include "obs/scrape.h"
#include "obs/telemetry.h"
#include "runtime/threaded_client.h"
#include "runtime/threaded_replica.h"
#include "stats/variates.h"

namespace {

using namespace aqua;

constexpr std::size_t kReplicas = 3;
constexpr std::size_t kRequests = 200;

net::UdpTransportConfig fast_udp() {
  net::UdpTransportConfig cfg;
  cfg.retransmit_initial = msec(5);
  cfg.retransmit_backoff = 1.5;
  cfg.max_attempts = 4;
  cfg.retransmit_tick = msec(2);
  return cfg;
}

/// One replica "process": its own hub, transport, worker, and scrape
/// server, indistinguishable over the wire from a separate OS process.
struct ReplicaNode {
  obs::Telemetry telemetry;
  net::UdpTransport transport{fast_udp()};
  std::unique_ptr<runtime::ThreadedReplica> replica;
  std::unique_ptr<obs::ScrapeServer> scrape;
  std::uint16_t udp_port = 0;

  explicit ReplicaNode(std::uint64_t id) {
    transport.set_telemetry(&telemetry);
    replica::ReplicaConfig config;
    config.telemetry = &telemetry;
    replica = std::make_unique<runtime::ThreadedReplica>(
        ReplicaId{id}, replica::make_sampled_service(stats::make_exponential(msec(2))),
        Rng{7}.fork("replica").fork(id), transport,
        [this, id](net::ReceiveFn fn) {
          return transport.create_endpoint_on(HostId{id}, /*port=*/0, std::move(fn));
        },
        config);
    udp_port = transport.endpoint_port(replica->endpoint());
    scrape = std::make_unique<obs::ScrapeServer>(telemetry, /*port=*/0);
  }
};

/// Sum of one mangled counter across raw Prometheus bodies.
std::map<std::string, double> parse_prometheus(const std::string& body) {
  std::map<std::string, double> metrics;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    metrics[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
  }
  return metrics;
}

std::string mangle(const std::string& name) {
  std::string out = "aqua_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

int main() {
  std::printf("=== Fleet observability report: 1 gateway + %zu replicas over UDP ===\n\n",
              kReplicas);

  // ------------------------------------------------------- assemble fleet
  std::vector<std::unique_ptr<ReplicaNode>> replicas;
  for (std::size_t i = 0; i < kReplicas; ++i) {
    replicas.push_back(std::make_unique<ReplicaNode>(i + 1));
  }

  obs::Telemetry gateway_telemetry;
  net::UdpTransport gateway_transport{fast_udp()};
  gateway_transport.set_telemetry(&gateway_telemetry);
  obs::ScrapeServer gateway_scrape{gateway_telemetry, /*port=*/0};

  runtime::ThreadedClientConfig client_config;
  client_config.telemetry = &gateway_telemetry;
  client_config.transport = &gateway_transport;
  client_config.id = ClientId{1};
  client_config.host = HostId{1'000};
  runtime::ThreadedClient client{core::QosSpec{msec(50), 0.9}, Rng{7}.fork("client").fork(1),
                                 client_config};
  for (const auto& node : replicas) {
    client.subscribe_to(gateway_transport.register_peer("127.0.0.1", node->udp_port));
  }
  const auto discovery_deadline = std::chrono::steady_clock::now() + std::chrono::seconds{5};
  while (client.known_replicas() < kReplicas &&
         std::chrono::steady_clock::now() < discovery_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  if (client.known_replicas() == 0) {
    std::fprintf(stderr, "discovery failed: no replica announced\n");
    return 1;
  }

  // ------------------------------------------------------------ workload
  for (std::size_t i = 0; i < kRequests; ++i) {
    client.invoke(static_cast<std::int64_t>(i));
    std::this_thread::sleep_for(usec(500));
  }
  client.shutdown();

  // Let the fleet go quiescent before scraping: full-K multicast means
  // the losing replicas are still draining their queues (and sending
  // replies nobody is listening for) after the last invoke returns. A
  // scrape mid-drain would make /snapshot and /metrics — read a few ms
  // apart — disagree by the messages processed in between, and the
  // conservation check below deliberately has no slack.
  const auto drain_deadline = std::chrono::steady_clock::now() + std::chrono::seconds{10};
  std::uint64_t last_serviced = 0;
  int stable_polls = 0;
  while (stable_polls < 3 && std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{50});
    std::uint64_t serviced = 0;
    std::size_t queued = 0;
    for (const auto& node : replicas) {
      serviced += node->replica->serviced();
      queued += node->replica->queue_length();
    }
    stable_polls = (queued == 0 && serviced == last_serviced) ? stable_polls + 1 : 0;
    last_serviced = serviced;
  }

  // -------------------------------------------------------- scrape fleet
  std::vector<obs::FleetEndpoint> endpoints;
  endpoints.push_back({.host = "127.0.0.1", .port = gateway_scrape.port(),
                       .label = "gateway"});
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    endpoints.push_back({.host = "127.0.0.1", .port = replicas[i]->scrape->port(),
                         .label = "replica-" + std::to_string(i + 1)});
  }
  obs::FleetCollector collector{endpoints};
  const obs::FleetSnapshot snapshot = collector.collect();

  // ---------------------------------------------------- derived numbers
  std::size_t unreachable = 0;
  for (const obs::FleetNodeStatus& node : snapshot.nodes) {
    if (!node.reachable) {
      ++unreachable;
      std::fprintf(stderr, "unreachable: %s (%s)\n", node.endpoint.name().c_str(),
                   node.error.c_str());
    }
  }

  // Median absolute attribution residual over complete traces: how far
  // the five legs are from summing to the measured end-to-end time.
  std::vector<std::int64_t> residuals;
  for (const obs::StitchedTrace& t : snapshot.traces) {
    if (t.complete) residuals.push_back(std::abs(t.residual_us));
  }
  std::sort(residuals.begin(), residuals.end());
  const double residual_p50_us =
      residuals.empty() ? 0.0 : static_cast<double>(residuals[residuals.size() / 2]);

  // Merge conservation: for every merged counter, the fleet total must
  // equal the sum over nodes of that counter in the RAW /metrics bodies.
  bool conserved = true;
  for (const auto& [name, value] : snapshot.counters) {
    double prometheus_sum = 0.0;
    for (const obs::FleetNodeStatus& node : snapshot.nodes) {
      const auto metrics = parse_prometheus(node.data.prometheus);
      const auto it = metrics.find(mangle(name));
      if (it != metrics.end()) prometheus_sum += it->second;
    }
    if (static_cast<double>(value) != prometheus_sum) {
      conserved = false;
      std::fprintf(stderr, "conservation violated: %s merged=%llu prometheus_sum=%.0f\n",
                   name.c_str(), static_cast<unsigned long long>(value), prometheus_sum);
    }
  }

  const obs::FleetAttribution& a = snapshot.attribution;
  const double completeness = snapshot.stitch_completeness();
  std::printf("nodes: %zu (%zu unreachable)\n", snapshot.nodes.size(), unreachable);
  std::printf("traces: %llu total, %llu answered, %llu stitched (%.1f%% complete)\n",
              static_cast<unsigned long long>(snapshot.traces_total),
              static_cast<unsigned long long>(snapshot.traces_answered),
              static_cast<unsigned long long>(snapshot.traces_stitched),
              100.0 * completeness);
  std::printf("collector: scrape %lldus, merge+stitch %lldus, max clock skew %lldus\n",
              static_cast<long long>(snapshot.scrape_us),
              static_cast<long long>(snapshot.merge_us),
              static_cast<long long>(snapshot.max_abs_clock_skew_us));
  std::printf("attribution (p99): end-to-end %lldus = wire %lldus + queue %lldus + "
              "service %lldus (median |residual| %.0fus)\n",
              static_cast<long long>(a.end_to_end.quantile(0.99)),
              static_cast<long long>(a.wire.quantile(0.99)),
              static_cast<long long>(a.queue.quantile(0.99)),
              static_cast<long long>(a.service.quantile(0.99)), residual_p50_us);
  std::printf("merge conservation: %s\n", conserved ? "ok" : "VIOLATED");

  aqua::bench::write_bench_json(
      "BENCH_fleet.json", "fleet_report",
      {{"stitch_completeness_pct", 100.0 * completeness, "percent"},
       {"traces_total", static_cast<double>(snapshot.traces_total), "count"},
       {"traces_answered", static_cast<double>(snapshot.traces_answered), "count"},
       {"traces_stitched", static_cast<double>(snapshot.traces_stitched), "count"},
       {"scrape_us", static_cast<double>(snapshot.scrape_us), "us"},
       {"merge_us", static_cast<double>(snapshot.merge_us), "us"},
       {"max_abs_clock_skew_us", static_cast<double>(snapshot.max_abs_clock_skew_us), "us"},
       {"end_to_end_p99_us", static_cast<double>(a.end_to_end.quantile(0.99)), "us"},
       {"wire_share_p99", a.share(a.wire, 0.99), "fraction"},
       {"queue_share_p99", a.share(a.queue, 0.99), "fraction"},
       {"service_share_p99", a.share(a.service, 0.99), "fraction"},
       {"attribution_residual_p50_us", residual_p50_us, "us"},
       {"merge_conservation", conserved ? 1.0 : 0.0, "bool"},
       {"unreachable_nodes", static_cast<double>(unreachable), "count"}});

  // Fidelity floor: CI treats a loss-free loopback run that stitches
  // under 95% of answered traces as a regression.
  if (unreachable > 0) return 1;
  if (snapshot.traces_answered > 0 && completeness < 0.95) {
    std::fprintf(stderr, "stitch completeness %.1f%% below the 95%% floor\n",
                 100.0 * completeness);
    return 1;
  }
  if (!conserved) return 1;
  return 0;
}
