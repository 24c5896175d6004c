// aqua_top — live terminal dashboard over AQuA scrape endpoints
// (see obs/scrape.h). Curses-free: it redraws with ANSI clear-screen,
// so it works in any terminal and degrades to plain append-only output
// with --once.
//
//   aqua_top --port 9900                  # poll 127.0.0.1:9900 every second
//   aqua_top --port 9900 --once           # one snapshot, then exit
//   aqua_top --fleet 9900,9901,9902       # fleet mode: aggregate + stitch
//   aqua_top --fleet 9900,9901 --once --json fleet.json --perfetto fleet.trace
//
// Every HTTP GET goes through obs::scrape_client with connect/read
// timeouts — a half-dead endpoint (port open, nothing served) shows up
// as "stale since Ns" instead of freezing the dashboard, which is what
// the original blocking client here used to do.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/fleet.h"
#include "obs/scrape_client.h"

namespace {

using aqua::obs::FleetCollector;
using aqua::obs::FleetEndpoint;
using aqua::obs::FleetNodeStatus;
using aqua::obs::FleetSnapshot;
using aqua::obs::HistogramBins;
using aqua::obs::ScrapeOptions;
using aqua::obs::ScrapeResult;

struct Options {
  std::string host = "127.0.0.1";
  int port = 9900;
  int interval_ms = 1000;
  bool once = false;
  std::vector<FleetEndpoint> fleet;  ///< non-empty selects fleet mode
  std::string json_path;             ///< fleet JSON report per refresh
  std::string perfetto_path;         ///< merged fleet Perfetto per refresh
};

void print_usage() {
  std::puts(
      "aqua_top — terminal dashboard for live AQuA scrape endpoints\n"
      "\n"
      "  --host H          scrape host (default 127.0.0.1)\n"
      "  --port P          scrape port (default 9900)\n"
      "  --fleet LIST      fleet mode: comma-separated [host:]port endpoints;\n"
      "                    aggregates metrics and stitches cross-process traces\n"
      "  --json FILE       (fleet) write the merged report as JSON each refresh\n"
      "  --perfetto FILE   (fleet) write the merged span set as a Chrome\n"
      "                    trace-event document each refresh\n"
      "  --interval-ms MS  refresh period (default 1000)\n"
      "  --once            print one snapshot and exit\n"
      "  --help            this text");
}

/// Scrape timeouts tuned for an interactive dashboard: a dead endpoint
/// costs at most ~1 s per refresh, not forever.
ScrapeOptions dashboard_scrape_options() {
  ScrapeOptions options;
  options.connect_timeout = aqua::msec(300);
  options.read_timeout = aqua::msec(1000);
  return options;
}

/// Timeout-aware GET; empty body on any failure (callers show staleness).
std::string http_get(const std::string& host, int port, const std::string& path) {
  const ScrapeResult result = aqua::obs::scrape_http_get(
      host, static_cast<std::uint16_t>(port), path, dashboard_scrape_options());
  return result.ok ? result.body : std::string{};
}

/// Parse Prometheus text exposition into name -> value (labels kept as
/// part of the name, e.g. `aqua_x{quantile="0.9"}`).
std::map<std::string, double> parse_metrics(const std::string& body) {
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

/// Crude but sufficient alert-line extraction: pull "kind" and "detail"
/// string fields out of the /alerts JSON array without a JSON parser.
std::vector<std::string> parse_alert_lines(const std::string& body) {
  std::vector<std::string> lines;
  const auto field = [](const std::string& obj, const std::string& key) -> std::string {
    const std::string needle = "\"" + key + "\":\"";
    const auto at = obj.find(needle);
    if (at == std::string::npos) return {};
    const auto start = at + needle.size();
    const auto end = obj.find('"', start);
    return end == std::string::npos ? std::string{} : obj.substr(start, end - start);
  };
  std::size_t pos = 0;
  while ((pos = body.find('{', pos)) != std::string::npos) {
    const auto end = body.find('}', pos);
    if (end == std::string::npos) break;
    const std::string obj = body.substr(pos, end - pos + 1);
    const std::string kind = field(obj, "kind");
    if (!kind.empty()) lines.push_back(kind + ": " + field(obj, "detail"));
    pos = end + 1;
  }
  return lines;
}

/// First numeric value after `"key":` at/after `from`; NaN when absent.
/// Good enough for our own exporter's stable field order — this panel
/// deliberately carries no JSON parser.
double find_number(const std::string& body, const std::string& key, std::size_t from,
                   std::size_t* next = nullptr) {
  const std::string needle = "\"" + key + "\":";
  const auto at = body.find(needle, from);
  if (at == std::string::npos) return std::nan("");
  if (next != nullptr) *next = at + needle.size();
  return std::atof(body.c_str() + at + needle.size());
}

/// Calibration panel: reliability sparkline over the global decile bins
/// (observed timely fraction per bin, '.' where a bin is empty), the
/// worst-calibrated replica by ECE, and the freshest drift alert.
void append_calibration_panel(std::ostringstream& frame, const std::string& body,
                              const std::vector<std::string>& alerts) {
  frame << "\n  calibration: ";
  if (body.empty() || body.find("\"enabled\":true") == std::string::npos) {
    frame << "disabled\n";
    return;
  }
  const double samples = find_number(body, "samples", 0);
  const double ece = find_number(body, "ece", 0);
  const double brier = find_number(body, "brier_window_mean", 0);
  char head[96];
  std::snprintf(head, sizeof head, "%.0f samples, ece %.3f, window brier %.3f\n", samples, ece,
                brier);
  frame << head;

  // Sparkline: one glyph per global bin, height = timely fraction.
  static const char* const kLevels[] = {"▁", "▂", "▃", "▄",
                                        "▅", "▆", "▇", "█"};
  frame << "    reliability 0->1: ";
  const auto global_at = body.find("\"bins\":[");
  const auto global_end = body.find(']', global_at);
  std::size_t pos = global_at;
  while (pos != std::string::npos && pos < global_end) {
    pos = body.find('{', pos);
    if (pos == std::string::npos || pos > global_end) break;
    const double count = find_number(body, "count", pos);
    const double timely = find_number(body, "timely_fraction", pos);
    if (count <= 0.0) {
      frame << '.';
    } else {
      const int level = std::min(7, static_cast<int>(timely * 8.0));
      frame << kLevels[level < 0 ? 0 : level];
    }
    pos = body.find('}', pos);
  }
  frame << '\n';

  // Worst-calibrated replica: max stats.ece over the replicas array.
  const auto replicas_at = body.find("\"replicas\":[");
  const auto drift_at = body.find("\"drift\":");
  double worst_ece = -1.0;
  double worst_id = 0.0;
  pos = replicas_at;
  while (pos != std::string::npos && pos < drift_at) {
    std::size_t after = 0;
    const double id = find_number(body, "replica", pos, &after);
    if (std::isnan(id) || after >= drift_at) break;
    const double replica_ece = find_number(body, "ece", after);
    if (replica_ece > worst_ece) {
      worst_ece = replica_ece;
      worst_id = id;
    }
    pos = after;
  }
  if (worst_ece >= 0.0) {
    char line[96];
    std::snprintf(line, sizeof line, "    worst replica:     #%.0f (ece %.3f)\n", worst_id,
                  worst_ece);
    frame << line;
  }

  const double alarms = find_number(body, "alarms", drift_at);
  std::string last_drift = "none";
  for (const std::string& alert : alerts) {
    if (alert.rfind("calibration_drift", 0) == 0) last_drift = alert;
  }
  char drift_line[160];
  std::snprintf(drift_line, sizeof drift_line, "    drift alarms %.0f, last: %s\n", alarms,
                last_drift.c_str());
  frame << drift_line;
}

// ------------------------------------------------------- single endpoint

/// Wall-clock seconds since the last successful scrape, shared across
/// redraws so the header can show "stale since Ns" instead of freezing.
struct Staleness {
  bool ever_ok = false;
  std::chrono::steady_clock::time_point last_ok{};

  void mark(bool ok) {
    if (ok) {
      ever_ok = true;
      last_ok = std::chrono::steady_clock::now();
    }
  }
  [[nodiscard]] double seconds() const {
    if (!ever_ok) return 0.0;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - last_ok).count();
  }
};

void draw_single(const Options& opt, Staleness& staleness, bool clear) {
  const std::string metrics_body = http_get(opt.host, opt.port, "/metrics");
  staleness.mark(!metrics_body.empty());
  const std::string alerts_body =
      metrics_body.empty() ? std::string{} : http_get(opt.host, opt.port, "/alerts");
  const std::string calibration_body =
      metrics_body.empty() ? std::string{} : http_get(opt.host, opt.port, "/calibration");
  std::ostringstream frame;
  frame << "aqua_top — " << opt.host << ':' << opt.port << "\n\n";
  if (metrics_body.empty()) {
    if (staleness.ever_ok) {
      char line[96];
      std::snprintf(line, sizeof line, "  scrape endpoint unreachable — stale since %.0fs\n",
                    staleness.seconds());
      frame << line;
    } else {
      frame << "  scrape endpoint unreachable\n";
    }
  } else {
    const auto metrics = parse_metrics(metrics_body);
    frame << "  metrics (" << metrics.size() << "):\n";
    for (const auto& [name, value] : metrics) {
      frame << "    " << name;
      for (std::size_t pad = name.size(); pad < 52; ++pad) frame << ' ';
      char cell[32];
      std::snprintf(cell, sizeof cell, "%14.3f", value);
      frame << cell << '\n';
    }
    const auto alerts = parse_alert_lines(alerts_body);
    frame << "\n  alerts (" << alerts.size() << "):\n";
    const std::size_t shown = alerts.size() > 10 ? alerts.size() - 10 : 0;
    for (std::size_t i = shown; i < alerts.size(); ++i) frame << "    " << alerts[i] << '\n';
    append_calibration_panel(frame, calibration_body, alerts);
  }
  if (clear) std::fputs("\033[2J\033[H", stdout);
  std::fputs(frame.str().c_str(), stdout);
  std::fflush(stdout);
}

// --------------------------------------------------------------- fleet

void append_attribution_panel(std::ostringstream& frame, const FleetSnapshot& snapshot) {
  const aqua::obs::FleetAttribution& a = snapshot.attribution;
  char line[160];
  std::snprintf(line, sizeof line,
                "  traces: %llu total, %llu answered, %llu stitched (%.1f%% complete)\n",
                static_cast<unsigned long long>(snapshot.traces_total),
                static_cast<unsigned long long>(snapshot.traces_answered),
                static_cast<unsigned long long>(snapshot.traces_stitched),
                100.0 * snapshot.stitch_completeness());
  frame << line;
  if (a.traces == 0) return;
  frame << "  latency attribution (end-to-end = wire + queue + service):\n";
  std::snprintf(line, sizeof line, "    %-10s %10s %10s %10s\n", "", "p50", "p99", "p999");
  frame << line;
  const auto row = [&frame, &a, &line](const char* name, const HistogramBins& leg) {
    std::snprintf(line, sizeof line,
                  "    %-10s %8lldus %8lldus %8lldus  (%2.0f%% / %2.0f%% / %2.0f%%)\n", name,
                  static_cast<long long>(leg.quantile(0.50)),
                  static_cast<long long>(leg.quantile(0.99)),
                  static_cast<long long>(leg.quantile(0.999)), 100.0 * a.share(leg, 0.50),
                  100.0 * a.share(leg, 0.99), 100.0 * a.share(leg, 0.999));
    frame << line;
  };
  std::snprintf(line, sizeof line, "    %-10s %8lldus %8lldus %8lldus\n", "end-to-end",
                static_cast<long long>(a.end_to_end.quantile(0.50)),
                static_cast<long long>(a.end_to_end.quantile(0.99)),
                static_cast<long long>(a.end_to_end.quantile(0.999)));
  frame << line;
  row("wire", a.wire);
  row("queue", a.queue);
  row("service", a.service);
}

void draw_fleet(const Options& opt, FleetCollector& collector, bool clear) {
  const FleetSnapshot snapshot = collector.collect();
  std::ostringstream frame;
  frame << "aqua_top — fleet of " << snapshot.nodes.size() << " endpoints (scrape "
        << snapshot.scrape_us / 1000 << "ms, merge " << snapshot.merge_us / 1000
        << "ms, max clock skew " << snapshot.max_abs_clock_skew_us << "us)\n\n";

  for (const FleetNodeStatus& node : snapshot.nodes) {
    char line[192];
    if (node.reachable) {
      std::snprintf(line, sizeof line,
                    "  [up]    %-22s rtt %6lldus  offset %8lldus  spans %llu (%llu dropped)\n",
                    node.endpoint.name().c_str(),
                    static_cast<long long>(node.scrape_rtt_us),
                    static_cast<long long>(node.clock_offset_us),
                    static_cast<unsigned long long>(node.data.spans_recorded),
                    static_cast<unsigned long long>(node.data.spans_dropped));
    } else if (node.has_data) {
      std::snprintf(line, sizeof line, "  [STALE] %-22s stale since %.0fs — %s\n",
                    node.endpoint.name().c_str(), node.stale_s, node.error.c_str());
    } else {
      std::snprintf(line, sizeof line, "  [down]  %-22s %s\n", node.endpoint.name().c_str(),
                    node.error.c_str());
    }
    frame << line;
    // Per-replica panel: the handful of counters that tell the server
    // side's story at a glance (absent on gateway-only hubs).
    const auto counter = [&node](const char* name) -> long long {
      const auto it = node.data.counters.find(name);
      return it == node.data.counters.end() ? -1 : static_cast<long long>(it->second);
    };
    if (const long long requests = counter("replica.requests"); requests >= 0) {
      std::snprintf(line, sizeof line,
                    "          requests %lld, replies %lld, rejected %lld, queue %.0f\n",
                    requests, counter("replica.replies"), counter("replica.rejected"),
                    [&node] {
                      // One replica.<id>.queue_length gauge per replica on the hub.
                      double queued = 0.0;
                      for (const auto& [name, value] : node.data.gauges) {
                        if (name.starts_with("replica.") && name.ends_with(".queue_length")) {
                          queued += value;
                        }
                      }
                      return queued;
                    }());
      frame << line;
    }
  }
  frame << '\n';

  // Merged fleet metrics: a few headline totals, not the full registry.
  const auto total = [&snapshot](const char* name) -> long long {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : static_cast<long long>(it->second);
  };
  char line[160];
  std::snprintf(line, sizeof line,
                "  fleet totals: %lld requests, %lld timely, %lld timing failures, "
                "%lld spans dropped\n",
                total("threaded.requests"), total("threaded.timely"),
                total("threaded.timing_failures"), total("telemetry.spans_dropped"));
  frame << line;
  append_attribution_panel(frame, snapshot);

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    if (out) {
      aqua::obs::write_fleet_json(out, snapshot);
    } else {
      frame << "  (cannot write " << opt.json_path << ")\n";
    }
  }
  if (!opt.perfetto_path.empty()) {
    std::ofstream out(opt.perfetto_path);
    if (out) {
      aqua::obs::write_fleet_perfetto_json(out, snapshot);
    } else {
      frame << "  (cannot write " << opt.perfetto_path << ")\n";
    }
  }

  if (clear) std::fputs("\033[2J\033[H", stdout);
  std::fputs(frame.str().c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      print_usage();
      return 0;
    } else if (flag == "--host") {
      opt.host = need_value();
    } else if (flag == "--port") {
      opt.port = std::atoi(need_value());
    } else if (flag == "--fleet") {
      std::string list = need_value();
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string spec =
            list.substr(start, comma == std::string::npos ? comma : comma - start);
        if (!spec.empty()) {
          try {
            opt.fleet.push_back(aqua::obs::parse_fleet_endpoint(spec));
          } catch (const std::exception& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
          }
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (flag == "--json") {
      opt.json_path = need_value();
    } else if (flag == "--perfetto") {
      opt.perfetto_path = need_value();
    } else if (flag == "--interval-ms") {
      opt.interval_ms = std::atoi(need_value());
    } else if (flag == "--once") {
      opt.once = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", flag.c_str());
      return 2;
    }
  }
  if ((!opt.json_path.empty() || !opt.perfetto_path.empty()) && opt.fleet.empty()) {
    std::fprintf(stderr, "--json/--perfetto require --fleet\n");
    return 2;
  }
  if (!opt.fleet.empty()) {
    FleetCollector collector{opt.fleet, dashboard_scrape_options()};
    if (opt.once) {
      draw_fleet(opt, collector, /*clear=*/false);
      return 0;
    }
    for (;;) {
      draw_fleet(opt, collector, /*clear=*/true);
      std::this_thread::sleep_for(std::chrono::milliseconds{opt.interval_ms});
    }
  }
  Staleness staleness;
  if (opt.once) {
    draw_single(opt, staleness, /*clear=*/false);
    return 0;
  }
  for (;;) {
    draw_single(opt, staleness, /*clear=*/true);
    std::this_thread::sleep_for(std::chrono::milliseconds{opt.interval_ms});
  }
}
