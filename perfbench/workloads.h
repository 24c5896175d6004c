// Shared types of the benchmark's workloads (sim_wide.cpp, udp.cpp) and
// its entry point (main.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arith.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (CSV); empty = don't write.
  std::string trace_out;
};

/// What one workload run hands back to main(). `metrics` holds the
/// end-to-end metrics of the untraced run, `layers` the per-layer ones of
/// the traced run (empty when untraced). Names missing from `layers` are
/// reported as 0 and marked n/a: they belong to another workload.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // failed output checks; non-empty = incorrect
  std::map<std::string, double> metrics;
  std::map<std::string, double> layers;
  std::vector<std::string> notes;  // printed before the result line
};

Result run_sim_wide(const Options& options);
Result run_udp(const Options& options, bool open_loop);

/// Steady-clock time in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds elapsed on the steady clock since `start_ns`.
double seconds_since(std::int64_t start_ns);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// One latency distribution summarised by the reporting rule: p50, the
/// highest percentile with >= 10 samples beyond it, and the count.
std::string describe_distribution(const std::string& name, std::vector<double> values,
                                  const std::string& unit);

/// Per-kind span table: duration and self-time percentiles, and each
/// kind's share of the root spans' total time.
struct SpanTable {
  struct Row {
    std::vector<double> duration_us;
    std::vector<double> self_us;
  };
  std::vector<std::string> kinds;  // print order
  std::map<std::string, Row> rows;
  double root_total_us = 0.0;

  void add(const std::string& kind, double duration_us, double self_us);
  [[nodiscard]] std::vector<std::string> render() const;
};

}  // namespace perfbench
