// perfbench: the repository benchmark's entry point.
//
//   perfbench --workload sim_wide|udp_closed|udp_open --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// Prints the run's notes and a metric table, then, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (the traced run also measures an untraced half, to
// state the tracing overhead). Exits 1 when an output check fails and 2
// on bad arguments. perfbench/README.md explains every metric.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "workloads.h"

namespace perfbench {

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

std::string percentile_label(Permyriad q) {
  char buf[16];
  if (q % 100 == 0) {
    std::snprintf(buf, sizeof buf, "p%lld", static_cast<long long>(q / 100));
  } else {
    std::snprintf(buf, sizeof buf, "p%g", static_cast<double>(q) / 100.0);
  }
  return buf;
}

}  // namespace

std::string describe_distribution(const std::string& name, std::vector<double> values,
                                  const std::string& unit) {
  std::sort(values.begin(), values.end());
  const Permyriad top = highest_reportable(values.size());
  std::ostringstream out;
  out << name << ": n=" << values.size() << ", p50 " << format_value(quantile_sorted(values, 5000))
      << ' ' << unit;
  if (top > 5000) {
    out << ", " << percentile_label(top) << ' ' << format_value(quantile_sorted(values, top)) << ' '
        << unit << " (highest percentile with >= 10 samples beyond it)";
  }
  return out.str();
}

void SpanTable::add(const std::string& kind, double duration_us, double self_us) {
  auto [it, inserted] = rows.try_emplace(kind);
  if (inserted) kinds.push_back(kind);
  it->second.duration_us.push_back(duration_us);
  it->second.self_us.push_back(self_us);
}

std::vector<std::string> SpanTable::render() const {
  std::vector<std::string> lines;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-18s %9s %10s %10s %10s %10s %8s", "span kind", "count",
                "dur p50", "dur tail", "self p50", "self mean", "self %");
  lines.emplace_back(buf);
  for (const std::string& kind : kinds) {
    const Row& row = rows.at(kind);
    std::vector<double> dur = row.duration_us;
    std::sort(dur.begin(), dur.end());
    double self_sum = 0.0;
    for (double s : row.self_us) self_sum += s;
    const Permyriad top = std::max<Permyriad>(highest_reportable(dur.size()), 5000);
    std::snprintf(buf, sizeof buf, "%-18s %9zu %10.2f %10.2f %10.2f %10.2f %7.2f%%  (tail=%s)",
                  kind.c_str(), dur.size(), quantile_sorted(dur, 5000),
                  quantile_sorted(dur, top), quantile(row.self_us, 5000),
                  self_sum / static_cast<double>(row.self_us.size()),
                  root_total_us > 0 ? 100.0 * self_sum / root_total_us : 0.0,
                  percentile_label(top).c_str());
    lines.emplace_back(buf);
  }
  lines.emplace_back("(times in us; self = duration minus the union of child spans; "
                     "self % = share of the root spans' total time)");
  return lines;
}

}  // namespace perfbench

namespace {

using perfbench::Options;
using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Must match BENCHMARK.json (perfbench/run.py checks every result
/// against it).
constexpr MetricSpec kEndToEnd[] = {
    {"throughput_rps", "1/s"},     {"latency_p50_us", "us"},       {"latency_tail_us", "us"},
    {"timely_fraction", "fraction"}, {"replicas_per_request", "count"}, {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.select_us.p50", "us"},
    {"core.select_us.p99", "us"},
    {"core.select_share", "fraction"},
    {"core.model_misses_per_request", "count"},
    {"sim.events_per_request", "count"},
    {"sim.other_us_per_request", "us"},
    {"net.send_us.p50", "us"},
    {"net.send_us.p99", "us"},
    {"net.reply_send_us.p50", "us"},
    {"net.request_leg_us.p50", "us"},
    {"net.request_leg_us.p99", "us"},
    {"net.reply_leg_us.p50", "us"},
    {"net.reply_leg_us.p99", "us"},
    {"net.datagrams_per_request", "count"},
    {"net.retransmits", "count"},
    {"net.drops", "count"},
    {"net.queue_drops", "count"},
    {"proc.user_cpu_us_per_request", "us"},
    {"proc.sys_cpu_us_per_request", "us"},
    {"runtime.harvest_us.p50", "us"},
    {"runtime.harvest_us.p99", "us"},
    {"runtime.wake_us.p50", "us"},
    {"runtime.wake_us.p99", "us"},
    {"runtime.residual_us.p50", "us"},
    {"replica.intake_us.p50", "us"},
    {"replica.queue_us.p50", "us"},
    {"replica.queue_us.p99", "us"},
    {"replica.service_us.p50", "us"},
    {"replica.useful_ratio", "fraction"},
    {"obs.spans_per_request", "count"},
    {"obs.spans_dropped", "count"},
    {"obs.snapshot_export_ms", "ms"},
    {"gen.lag_us.p50", "us"},
    {"gen.lag_us.p99", "us"},
    {"tail.latency_p99_us", "us"},
    {"tail.latency_p999_us", "us"},
    {"tail.requests_over_5ms", "count"},
    {"trace.requests_traced", "count"},
    {"trace.overhead_latency_p50_us", "us"},
    {"trace.overhead_throughput_share", "fraction"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload sim_wide|udp_closed|udp_open "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

void print_json_metrics(const Result& result, bool trace, std::string& json, bool& finite) {
  json += "{";
  bool first = true;
  auto emit = [&](const MetricSpec& spec, double value) {
    if (!std::isfinite(value)) finite = false;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", spec.name, std::isfinite(value) ? value : 0.0, spec.unit);
    json += buf;
    first = false;
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) {
      auto it = result.layers.find(spec.name);
      emit(spec, it == result.layers.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, result.metrics.at(spec.name));
  }
  json += "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Result result;
  try {
    if (options.workload == "sim_wide") {
      result = perfbench::run_sim_wide(options);
    } else if (options.workload == "udp_closed") {
      result = perfbench::run_udp(options, /*open_loop=*/false);
    } else if (options.workload == "udp_open") {
      result = perfbench::run_udp(options, /*open_loop=*/true);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  std::printf("%-34s %16s  %s\n", "metric", "value", "unit");
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      auto it = result.layers.find(spec.name);
      std::printf("%-34s %16s  %s\n", spec.name,
                  it == result.layers.end() ? "n/a" : perfbench::format_value(it->second).c_str(),
                  spec.unit);
    }
    std::printf("(n/a: the layer is not on this workload's path; reported as 0)\n");
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      std::printf("%-34s %16s  %s\n", spec.name,
                  perfbench::format_value(result.metrics.at(spec.name)).c_str(), spec.unit);
    }
  }

  std::string metrics_json;
  bool finite = true;
  print_json_metrics(result, options.trace, metrics_json, finite);
  if (!finite) result.failures.push_back("a metric is not a finite number");
  for (const std::string& failure : result.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = result.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics_json.c_str());
  return correct ? 0 : 1;
}
