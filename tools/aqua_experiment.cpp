// aqua_experiment — run a configurable AQuA-RS deployment from the
// command line and print per-client reports.
//
//   aqua_experiment --replicas 7 --deadline 150 --pc 0.9 --requests 50
//   aqua_experiment --policy fastest-mean --crash-at 5
//   aqua_experiment --service-dist pareto --clients 4 --csv run.csv
//   aqua_experiment --obs-json snapshot.json --obs-csv run --obs-flush-ms 5000
//   aqua_experiment --seed 4242 --perfetto trace.json
//   aqua_experiment --threaded --scrape-port 9900 --serve-seconds 30
//
// Every run is deterministic in (--seed, flags); every run records into
// an obs::Telemetry hub and the per-client reports are aggregated from
// its request traces (the same pipeline the figure benches consume).
// (--threaded swaps the simulator for the wall-clock runtime, so those
// runs are deterministic in structure but not in timings.)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gateway/history_io.h"
#include "gateway/system.h"
#include "net/udp_transport.h"
#include "obs/export.h"
#include "obs/flusher.h"
#include "obs/perfetto_export.h"
#include "obs/scrape.h"
#include "obs/telemetry.h"
#include "runtime/threaded_system.h"

namespace {

using namespace aqua;
using namespace aqua::gateway;

struct Options {
  std::uint64_t seed = 1;
  int replicas = 7;
  std::int64_t service_mean_ms = 100;
  std::int64_t service_sd_ms = 50;
  std::string service_dist = "normal";
  int clients = 1;
  std::int64_t deadline_ms = 200;
  double pc = 0.9;
  std::size_t requests = 50;
  std::int64_t think_ms = 1000;
  std::size_t window = 5;
  std::size_t crash_tolerance = 1;
  std::string policy = "dynamic";
  double crash_at_s = 0.0;  // 0 = no crash
  int crash_count = 1;
  std::size_t manager_min = 0;  // 0 = manager off
  std::int64_t manager_delay_ms = 2000;
  bool spikes = false;
  double loss = 0.0;
  std::int64_t probe_staleness_ms = 0;
  bool windowed_gateway = false;
  bool queue_shift = false;
  bool no_compensation = false;
  std::string csv_path;
  bool per_request = false;
  double run_seconds = 0.0;  // 0 = until clients done
  std::string obs_json_path;
  std::string obs_csv_prefix;
  std::int64_t obs_flush_ms = 0;  // 0 = no periodic flusher
  std::string perfetto_path;
  int scrape_port = -1;        // -1 = no scrape server
  double serve_seconds = 0.0;  // keep the scrape endpoint up after the run
  bool threaded = false;
  std::string transport = "sim";  // sim | udp
  std::string listen;             // udp replica process: [ADDR:]PORT to bind
  std::vector<std::string> peers;  // udp gateway process: replica ADDR:PORT list
  std::uint64_t replica_id = 1;    // identity of a --listen replica process
};

void print_usage() {
  std::puts(
      "aqua_experiment — configurable AQuA-RS timing-fault experiment\n"
      "\n"
      "deployment:\n"
      "  --replicas N           server replicas (default 7)\n"
      "  --service-mean MS      mean service time (default 100)\n"
      "  --service-sd MS        service spread (default 50)\n"
      "  --service-dist D       normal|exponential|uniform|pareto|bimodal (default normal)\n"
      "  --manager-min N        keep >= N replicas alive via dependability manager (0=off)\n"
      "  --manager-delay MS     replacement startup delay (default 2000)\n"
      "workload:\n"
      "  --clients N            concurrent clients (default 1)\n"
      "  --deadline MS          client deadline t (default 200)\n"
      "  --pc P                 requested probability P_c (default 0.9)\n"
      "  --requests N           requests per client, 0 = unbounded (default 50)\n"
      "  --think MS             think time between requests (default 1000)\n"
      "  --run-seconds S        run for S simulated seconds instead of until done\n"
      "algorithm:\n"
      "  --policy P             dynamic|fastest-mean|best-probability|random-K|\n"
      "                         round-robin-K|static-K|all (default dynamic)\n"
      "  --window L             sliding-window size l (default 5)\n"
      "  --crash-tolerance K    protected members, 0..n (default 1 = Algorithm 1)\n"
      "  --no-compensation      disable the F(t - delta) overhead compensation\n"
      "  --windowed-gateway     model T from a window instead of its last value\n"
      "  --queue-shift          shift F by queue_length x mean(S) (extension)\n"
      "  --probe-staleness MS   probe replicas with data older than MS (0=off)\n"
      "faults:\n"
      "  --crash-at S           crash replica host(s) at S seconds (0=off)\n"
      "  --crash-count N        how many replicas crash (default 1)\n"
      "  --spikes               enable LAN traffic spikes\n"
      "  --loss R               message loss rate in [0,1)\n"
      "output:\n"
      "  --seed S               experiment seed (default 1)\n"
      "  --per-request          dump each request of client 0\n"
      "  --csv FILE             write client 0's request history as CSV\n"
      "telemetry:\n"
      "  --obs-json FILE        write the full telemetry snapshot as JSON\n"
      "  --obs-csv PREFIX       write PREFIX.metrics.csv, PREFIX.requests.csv,\n"
      "                         PREFIX.selections.csv\n"
      "  --obs-flush-ms MS      print a metrics JSON line every MS simulated ms\n"
      "  --perfetto FILE        write the span ring as Chrome trace-event JSON\n"
      "                         (open in ui.perfetto.dev)\n"
      "  --scrape-port P        serve /metrics, /snapshot, /alerts, /calibration,\n"
      "                         /trace, /spans, /traces/<id> on 127.0.0.1:P (0 =\n"
      "                         ephemeral); in a --listen replica process, serves that\n"
      "                         replica's server-side metrics (queue length, cancel\n"
      "                         fates); in a --peer gateway process, serves the\n"
      "                         gateway hub during the run (fleet stitching input)\n"
      "  --serve-seconds S      keep the scrape endpoint up S seconds after the run\n"
      "runtime:\n"
      "  --threaded             wall-clock threaded runtime instead of the simulator\n"
      "                         (uses replicas/clients/deadline/pc/requests/think)\n"
      "  --transport T          sim|udp (default sim). udp runs the threaded runtime\n"
      "                         over real loopback UDP sockets; without --listen or\n"
      "                         --peer, gateway and replicas share this process\n"
      "  --listen [ADDR:]PORT   udp replica process: bind one replica here and serve\n"
      "                         until --run-seconds elapse (0 = until killed)\n"
      "  --replica-id N         identity of the --listen replica (default 1)\n"
      "  --peer ADDR:PORT       udp gateway process: a replica to subscribe to\n"
      "                         (repeatable; runs the workload, prints the report)\n"
      "  --help                 this text");
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      print_usage();
      return std::nullopt;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(need_value(i), nullptr, 10);
    } else if (flag == "--replicas") {
      opt.replicas = std::atoi(need_value(i));
    } else if (flag == "--service-mean") {
      opt.service_mean_ms = std::atoll(need_value(i));
    } else if (flag == "--service-sd") {
      opt.service_sd_ms = std::atoll(need_value(i));
    } else if (flag == "--service-dist") {
      opt.service_dist = need_value(i);
    } else if (flag == "--clients") {
      opt.clients = std::atoi(need_value(i));
    } else if (flag == "--deadline") {
      opt.deadline_ms = std::atoll(need_value(i));
    } else if (flag == "--pc") {
      opt.pc = std::atof(need_value(i));
    } else if (flag == "--requests") {
      opt.requests = static_cast<std::size_t>(std::atoll(need_value(i)));
    } else if (flag == "--think") {
      opt.think_ms = std::atoll(need_value(i));
    } else if (flag == "--window") {
      opt.window = static_cast<std::size_t>(std::atoll(need_value(i)));
    } else if (flag == "--crash-tolerance") {
      opt.crash_tolerance = static_cast<std::size_t>(std::atoll(need_value(i)));
    } else if (flag == "--policy") {
      opt.policy = need_value(i);
    } else if (flag == "--crash-at") {
      opt.crash_at_s = std::atof(need_value(i));
    } else if (flag == "--crash-count") {
      opt.crash_count = std::atoi(need_value(i));
    } else if (flag == "--manager-min") {
      opt.manager_min = static_cast<std::size_t>(std::atoll(need_value(i)));
    } else if (flag == "--manager-delay") {
      opt.manager_delay_ms = std::atoll(need_value(i));
    } else if (flag == "--spikes") {
      opt.spikes = true;
    } else if (flag == "--loss") {
      opt.loss = std::atof(need_value(i));
    } else if (flag == "--probe-staleness") {
      opt.probe_staleness_ms = std::atoll(need_value(i));
    } else if (flag == "--windowed-gateway") {
      opt.windowed_gateway = true;
    } else if (flag == "--queue-shift") {
      opt.queue_shift = true;
    } else if (flag == "--no-compensation") {
      opt.no_compensation = true;
    } else if (flag == "--csv") {
      opt.csv_path = need_value(i);
    } else if (flag == "--per-request") {
      opt.per_request = true;
    } else if (flag == "--run-seconds") {
      opt.run_seconds = std::atof(need_value(i));
    } else if (flag == "--obs-json") {
      opt.obs_json_path = need_value(i);
    } else if (flag == "--obs-csv") {
      opt.obs_csv_prefix = need_value(i);
    } else if (flag == "--obs-flush-ms") {
      opt.obs_flush_ms = std::atoll(need_value(i));
    } else if (flag == "--perfetto") {
      opt.perfetto_path = need_value(i);
    } else if (flag == "--scrape-port") {
      opt.scrape_port = std::atoi(need_value(i));
    } else if (flag == "--serve-seconds") {
      opt.serve_seconds = std::atof(need_value(i));
    } else if (flag == "--threaded") {
      opt.threaded = true;
    } else if (flag == "--transport") {
      opt.transport = need_value(i);
    } else if (flag == "--listen") {
      opt.listen = need_value(i);
    } else if (flag == "--replica-id") {
      opt.replica_id = std::strtoull(need_value(i), nullptr, 10);
    } else if (flag == "--peer") {
      opt.peers.emplace_back(need_value(i));
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", flag.c_str());
      std::exit(2);
    }
  }
  return opt;
}

stats::SamplerPtr make_service_sampler(const Options& opt) {
  const Duration mean = msec(opt.service_mean_ms);
  const Duration sd = msec(opt.service_sd_ms);
  if (opt.service_dist == "normal") return stats::make_truncated_normal(mean, sd);
  if (opt.service_dist == "exponential") return stats::make_exponential(mean);
  if (opt.service_dist == "uniform") {
    const Duration lo = std::max(Duration::zero(), mean - sd);
    return stats::make_uniform(lo, mean + sd);
  }
  if (opt.service_dist == "pareto") {
    return stats::make_bounded_pareto(1.3, std::max(msec(1), mean / 4), mean * 20);
  }
  if (opt.service_dist == "bimodal") {
    return stats::make_bimodal(0.15, stats::make_truncated_normal(mean, sd / 2),
                               stats::make_truncated_normal(mean * 4, sd));
  }
  std::fprintf(stderr, "unknown --service-dist %s\n", opt.service_dist.c_str());
  std::exit(2);
}

core::PolicyPtr make_policy(const Options& opt, const core::SelectionConfig& selection,
                            const core::ModelConfig& model) {
  const std::string& p = opt.policy;
  if (p == "dynamic") return core::make_dynamic_policy(selection, model);
  if (p == "fastest-mean") return core::make_fastest_mean_policy();
  if (p == "best-probability") return core::make_best_probability_policy(model);
  if (p == "all") return core::make_all_replicas_policy();
  const auto dash = p.rfind('-');
  if (dash != std::string::npos) {
    const std::string base = p.substr(0, dash);
    const auto k = static_cast<std::size_t>(std::atoll(p.c_str() + dash + 1));
    if (k >= 1) {
      if (base == "random") return core::make_random_policy(k);
      if (base == "round-robin") return core::make_round_robin_policy(k);
      if (base == "static") return core::make_static_k_policy(k, model);
    }
  }
  std::fprintf(stderr, "unknown --policy %s\n", p.c_str());
  std::exit(2);
}

int write_perfetto_file(const Options& opt, const obs::Telemetry& telemetry) {
  if (opt.perfetto_path.empty()) return 0;
  std::ofstream out(opt.perfetto_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", opt.perfetto_path.c_str());
    return 1;
  }
  obs::write_perfetto_json(out, telemetry);
  std::printf("wrote %zu spans as perfetto trace to %s\n", telemetry.spans().size(),
              opt.perfetto_path.c_str());
  return 0;
}

void serve_remaining(const Options& opt, const obs::ScrapeServer& server) {
  std::printf("scrape endpoint live on http://127.0.0.1:%u/metrics\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  if (opt.serve_seconds > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds{static_cast<std::int64_t>(opt.serve_seconds * 1e3)});
  }
}

/// "[ADDR:]PORT" -> {ADDR or 127.0.0.1, PORT}. Exits on a bad port.
std::pair<std::string, std::uint16_t> parse_host_port(const std::string& spec) {
  std::string address = "127.0.0.1";
  std::string port_text = spec;
  if (const auto colon = spec.rfind(':'); colon != std::string::npos) {
    address = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
  }
  const long port = std::strtol(port_text.c_str(), nullptr, 10);
  if (port < 1 || port > 65535) {
    std::fprintf(stderr, "bad address:port %s\n", spec.c_str());
    std::exit(2);
  }
  return {address, static_cast<std::uint16_t>(port)};
}

void fill_client_config(const Options& opt, runtime::ThreadedClientConfig& client) {
  client.repository.window_size = opt.window;
  client.selection.crash_tolerance = opt.crash_tolerance;
  client.selection.overhead_compensation = !opt.no_compensation;
  client.model.windowed_gateway_delay = opt.windowed_gateway;
  client.model.queue_backlog_shift = opt.queue_shift;
}

/// UDP replica process: one ThreadedReplica behind a fixed-port endpoint,
/// serving until --run-seconds elapse (0 = until killed). With
/// --scrape-port the server side gets its own Telemetry hub — queue
/// length, cancel fates, chunk demand — scrapable while it serves.
int run_udp_replica(const Options& opt) {
  const auto [address, port] = parse_host_port(opt.listen);
  net::UdpTransportConfig transport_config;
  transport_config.bind_address = address;
  net::UdpTransport transport{transport_config};

  std::unique_ptr<obs::Telemetry> telemetry;
  if (opt.scrape_port >= 0) {
    telemetry = std::make_unique<obs::Telemetry>();
    transport.set_telemetry(telemetry.get());
  }

  const stats::SamplerPtr service = make_service_sampler(opt);
  replica::ReplicaConfig replica_config;
  replica_config.telemetry = telemetry.get();
  runtime::ThreadedReplica replica{
      ReplicaId{opt.replica_id}, replica::make_sampled_service(service),
      Rng{opt.seed}.fork("replica").fork(opt.replica_id), transport,
      [&transport, &opt, port = port](net::ReceiveFn fn) {
        return transport.create_endpoint_on(HostId{opt.replica_id}, port, std::move(fn));
      },
      replica_config};
  std::unique_ptr<obs::ScrapeServer> scrape;
  if (telemetry != nullptr) {
    scrape = std::make_unique<obs::ScrapeServer>(*telemetry,
                                                 static_cast<std::uint16_t>(opt.scrape_port));
    std::printf("replica-%llu scrape endpoint live on http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned long long>(opt.replica_id),
                static_cast<unsigned>(scrape->port()));
  }
  std::printf("replica-%llu listening on %s:%u (service=%s)\n",
              static_cast<unsigned long long>(opt.replica_id), address.c_str(),
              static_cast<unsigned>(transport.endpoint_port(replica.endpoint())),
              service->describe().c_str());
  std::fflush(stdout);

  if (opt.run_seconds > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds{static_cast<std::int64_t>(opt.run_seconds * 1e3)});
  } else {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds{3600});
  }
  std::printf("replica-%llu serviced %llu requests\n",
              static_cast<unsigned long long>(opt.replica_id),
              static_cast<unsigned long long>(replica.serviced()));
  return 0;
}

/// UDP gateway process: a transport-mode ThreadedClient over the --peer
/// replica processes, ending in the same to_run_report aggregation the
/// simulated runs print.
int run_udp_gateway(const Options& opt) {
  obs::Telemetry telemetry;
  net::UdpTransport transport;
  transport.set_telemetry(&telemetry);

  // With --scrape-port the gateway serves /snapshot, /spans, /metrics
  // while the workload runs (and for --serve-seconds after), so a fleet
  // collector can stitch its spans with the replica processes'.
  std::unique_ptr<obs::ScrapeServer> scrape;
  if (opt.scrape_port >= 0) {
    scrape = std::make_unique<obs::ScrapeServer>(telemetry,
                                                 static_cast<std::uint16_t>(opt.scrape_port));
    std::printf("gateway scrape endpoint live on http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned>(scrape->port()));
    std::fflush(stdout);
  }

  runtime::ThreadedClientConfig client_config;
  fill_client_config(opt, client_config);
  client_config.telemetry = &telemetry;
  client_config.transport = &transport;
  client_config.id = ClientId{1};
  client_config.host = HostId{1'000 + 1};
  runtime::ThreadedClient client{core::QosSpec{msec(opt.deadline_ms), opt.pc},
                                 Rng{opt.seed}.fork("client").fork(1), client_config};
  for (const std::string& peer : opt.peers) {
    const auto [address, port] = parse_host_port(peer);
    client.subscribe_to(transport.register_peer(address, port));
  }

  // Wait for the Subscribe/Announce handshake to fill the directory; a
  // replica that never answers is simply absent (and its host reported
  // dead once the Subscribe retransmit budget runs out).
  const auto discovery_deadline = std::chrono::steady_clock::now() + std::chrono::seconds{5};
  while (client.known_replicas() < opt.peers.size() &&
         std::chrono::steady_clock::now() < discovery_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
  }
  std::printf("aqua_experiment (udp gateway) seed=%llu peers=%zu announced=%zu "
              "deadline=%lldms pc=%.2f\n",
              static_cast<unsigned long long>(opt.seed), opt.peers.size(),
              client.known_replicas(), static_cast<long long>(opt.deadline_ms), opt.pc);
  std::fflush(stdout);
  if (client.known_replicas() == 0) {
    std::fprintf(stderr, "no replica answered the subscribe handshake\n");
    return 1;
  }

  const std::size_t requests = opt.requests == 0 ? 50 : opt.requests;
  for (std::size_t i = 0; i < requests; ++i) {
    client.invoke(static_cast<std::int64_t>(i));
    std::this_thread::sleep_for(msec(opt.think_ms));
  }

  const trace::ClientRunReport report =
      obs::to_run_report(telemetry.request_traces(), ClientId{1}, "udp-gateway");
  std::printf("%s\n", report.summary_line().c_str());
  std::printf("transport: %llu sent, %llu delivered, %llu dropped, %llu retransmitted\n",
              static_cast<unsigned long long>(transport.messages_sent()),
              static_cast<unsigned long long>(transport.messages_delivered()),
              static_cast<unsigned long long>(transport.messages_dropped()),
              static_cast<unsigned long long>(transport.messages_retransmitted()));

  if (scrape != nullptr) serve_remaining(opt, *scrape);

  if (!opt.obs_json_path.empty()) {
    std::ofstream out(opt.obs_json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opt.obs_json_path.c_str());
      return 1;
    }
    obs::write_snapshot_json(out, telemetry);
    std::printf("wrote telemetry snapshot to %s\n", opt.obs_json_path.c_str());
  }
  return write_perfetto_file(opt, telemetry);
}

int run_threaded(const Options& opt) {
  obs::Telemetry telemetry;
  // In-process --transport=udp: same assembly, but every request and
  // reply crosses real loopback sockets. Declared before the system so
  // it outlives the endpoints torn down in ~ThreadedSystem.
  std::unique_ptr<net::UdpTransport> udp;
  runtime::ThreadedSystemConfig cfg;
  cfg.seed = opt.seed;
  cfg.telemetry = &telemetry;
  cfg.scrape_port = opt.scrape_port;
  fill_client_config(opt, cfg.client);
  if (opt.transport == "udp") {
    udp = std::make_unique<net::UdpTransport>();
    udp->set_telemetry(&telemetry);
    cfg.transport = udp.get();
  }
  runtime::ThreadedSystem system{cfg};

  const stats::SamplerPtr service = make_service_sampler(opt);
  for (int i = 0; i < opt.replicas; ++i) system.add_replica(service);
  for (int c = 0; c < opt.clients; ++c) {
    system.add_client(core::QosSpec{msec(opt.deadline_ms), opt.pc});
  }

  std::printf("aqua_experiment (threaded, %s) seed=%llu replicas=%d clients=%d service=%s "
              "deadline=%lldms pc=%.2f\n",
              opt.transport == "udp" ? "udp loopback" : "direct",
              static_cast<unsigned long long>(opt.seed), opt.replicas, opt.clients,
              service->describe().c_str(), static_cast<long long>(opt.deadline_ms), opt.pc);
  if (system.scrape_server() != nullptr) {
    std::printf("scrape endpoint live on http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned>(system.scrape_server()->port()));
    std::fflush(stdout);
  }

  const std::size_t requests = opt.requests == 0 ? 50 : opt.requests;
  const auto stats = system.run_workload(requests, msec(opt.think_ms));
  for (std::size_t c = 0; c < stats.size(); ++c) {
    const auto& s = stats[c];
    std::printf("client-%zu: %zu requests, %zu answered, %zu timely (P_f=%.3f), "
                "mean response %.1f ms, mean redundancy %.2f, mean overhead %.1f us\n",
                c + 1, s.requests, s.answered, s.timely, s.failure_probability(),
                s.mean_response_ms, s.mean_redundancy, s.mean_selection_overhead_us);
  }

  // Keep the endpoint scrapeable after the workload so external
  // collectors (or the smoke test) can fetch the final state.
  if (system.scrape_server() != nullptr && opt.serve_seconds > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds{static_cast<std::int64_t>(opt.serve_seconds * 1e3)});
  }

  if (!opt.obs_json_path.empty()) {
    std::ofstream out(opt.obs_json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opt.obs_json_path.c_str());
      return 1;
    }
    obs::write_snapshot_json(out, telemetry);
    std::printf("wrote telemetry snapshot to %s\n", opt.obs_json_path.c_str());
  }
  return write_perfetto_file(opt, telemetry);
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed) return 0;
  const Options& opt = *parsed;
  if (opt.replicas < 1 || opt.clients < 1) {
    std::fprintf(stderr, "need at least one replica and one client\n");
    return 2;
  }
  if (opt.transport != "sim" && opt.transport != "udp") {
    std::fprintf(stderr, "unknown --transport %s (sim|udp)\n", opt.transport.c_str());
    return 2;
  }
  if (opt.transport == "udp") {
    if (!opt.listen.empty()) return run_udp_replica(opt);
    if (!opt.peers.empty()) return run_udp_gateway(opt);
    return run_threaded(opt);
  }
  if (opt.threaded) return run_threaded(opt);

  obs::Telemetry telemetry;
  SystemConfig sys_cfg;
  sys_cfg.seed = opt.seed;
  sys_cfg.telemetry = &telemetry;
  sys_cfg.lan.loss_rate = opt.loss;
  if (opt.spikes) {
    sys_cfg.lan.spike.enabled = true;
    sys_cfg.lan.spike.mean_interval = sec(5);
    sys_cfg.lan.spike.mean_duration = msec(250);
    sys_cfg.lan.spike.delay_factor = 25.0;
  }
  AquaSystem system{sys_cfg};

  const stats::SamplerPtr service = make_service_sampler(opt);
  for (int i = 0; i < opt.replicas; ++i) {
    system.add_replica(replica::make_sampled_service(service));
  }
  if (opt.manager_min > 0) {
    manager::ManagerConfig mcfg;
    mcfg.min_replicas = opt.manager_min;
    mcfg.startup_delay = msec(opt.manager_delay_ms);
    system.enable_dependability_manager(mcfg, replica::make_sampled_service(service));
  }

  HandlerConfig handler_cfg;
  handler_cfg.repository.window_size = opt.window;
  handler_cfg.selection.crash_tolerance = opt.crash_tolerance;
  handler_cfg.selection.overhead_compensation = !opt.no_compensation;
  handler_cfg.model.windowed_gateway_delay = opt.windowed_gateway;
  handler_cfg.model.queue_backlog_shift = opt.queue_shift;
  handler_cfg.probe_staleness = msec(opt.probe_staleness_ms);

  std::vector<ClientApp*> apps;
  for (int c = 0; c < opt.clients; ++c) {
    ClientWorkload workload;
    workload.total_requests = opt.requests;
    workload.think_time = stats::make_constant(msec(opt.think_ms));
    workload.start_delay = msec(31 * c);
    apps.push_back(&system.add_client(
        core::QosSpec{msec(opt.deadline_ms), opt.pc}, workload, handler_cfg,
        make_policy(opt, handler_cfg.selection, handler_cfg.model)));
  }

  obs::SnapshotFlusher flusher;
  if (opt.obs_flush_ms > 0) {
    flusher.start(system.simulator(), msec(opt.obs_flush_ms), [&telemetry](std::size_t tick) {
      std::ostringstream line;
      obs::write_metrics_json(line, telemetry);
      std::printf("obs[%zu] %s\n", tick, line.str().c_str());
    });
  }

  if (opt.crash_at_s > 0.0) {
    system.simulator().schedule_after(
        Duration{static_cast<std::int64_t>(opt.crash_at_s * 1e6)}, [&system, &opt] {
          int remaining = opt.crash_count;
          for (auto* replica : system.replicas()) {
            if (remaining == 0) break;
            if (replica->alive()) {
              replica->crash_host();
              --remaining;
            }
          }
        });
  }

  if (opt.run_seconds > 0.0) {
    system.run_for(Duration{static_cast<std::int64_t>(opt.run_seconds * 1e6)});
  } else if (opt.requests == 0) {
    system.run_for(sec(60));
  } else {
    system.run_until_clients_done(sec(3600));
  }

  std::printf("aqua_experiment seed=%llu replicas=%d service=%s policy=%s deadline=%lldms "
              "pc=%.2f window=%zu\n\n",
              static_cast<unsigned long long>(opt.seed), opt.replicas,
              service->describe().c_str(), opt.policy.c_str(),
              static_cast<long long>(opt.deadline_ms), opt.pc, opt.window);
  // Reports come from the telemetry request traces (the same aggregation
  // as ClientApp::report(); qos callbacks are app-side state the traces
  // do not carry).
  const std::vector<obs::RequestTrace> traces = telemetry.request_traces();
  for (ClientApp* app : apps) {
    const ClientId client = app->handler().client();
    trace::ClientRunReport report =
        obs::to_run_report(traces, client, "client-" + std::to_string(client.value()));
    report.qos_violation_callbacks = app->qos_violations();
    std::printf("%s; abandoned %zu, QoS callbacks %zu\n", report.summary_line().c_str(),
                app->abandoned(), app->qos_violations());
  }

  if (opt.per_request && !apps.empty()) {
    std::printf("\n%-6s %-12s %-14s %-8s\n", "req", "redundancy", "response(ms)", "timely");
    int i = 0;
    for (const RequestRecord& r : apps[0]->handler().history()) {
      if (r.probe) continue;
      std::printf("%-6d %-12zu %-14.1f %-8s\n", ++i, r.redundancy,
                  r.response_time ? to_ms(*r.response_time) : -1.0, r.timely ? "yes" : "NO");
    }
  }

  if (!opt.csv_path.empty() && !apps.empty()) {
    std::ofstream out(opt.csv_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opt.csv_path.c_str());
      return 1;
    }
    const std::size_t rows = write_history_csv(out, apps[0]->handler().history());
    std::printf("\nwrote %zu rows to %s\n", rows, opt.csv_path.c_str());
  }

  if (!opt.obs_json_path.empty()) {
    std::ofstream out(opt.obs_json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opt.obs_json_path.c_str());
      return 1;
    }
    obs::write_snapshot_json(out, telemetry);
    std::printf("wrote telemetry snapshot to %s\n", opt.obs_json_path.c_str());
  }
  if (!opt.obs_csv_prefix.empty()) {
    const auto write_one = [&](const char* suffix, auto&& writer) {
      const std::string path = opt.obs_csv_prefix + suffix;
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        std::exit(1);
      }
      writer(out);
      std::printf("wrote %s\n", path.c_str());
    };
    write_one(".metrics.csv", [&](std::ostream& o) { obs::write_metrics_csv(o, telemetry); });
    write_one(".requests.csv",
              [&](std::ostream& o) { obs::write_requests_csv(o, telemetry.request_traces()); });
    write_one(".selections.csv",
              [&](std::ostream& o) { obs::write_selections_csv(o, telemetry.selection_traces()); });
  }
  if (const int rc = write_perfetto_file(opt, telemetry); rc != 0) return rc;
  // Simulated runs can still expose the final state over HTTP — useful
  // for poking at a finished run with curl instead of reading files.
  if (opt.scrape_port >= 0) {
    obs::ScrapeServer server{telemetry, static_cast<std::uint16_t>(opt.scrape_port)};
    serve_remaining(opt, server);
  }
  return 0;
}
