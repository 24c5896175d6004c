// Fleet observability: multi-endpoint scrape aggregation and
// cross-process trace stitching.
//
// A fleet run spreads one logical request pipeline over several OS
// processes — a gateway process and N replica processes — each with its
// own Telemetry hub and ScrapeServer. FleetCollector polls every
// endpoint's /snapshot, /spans, and /metrics over HTTP (scrape_client.h)
// and folds the results into one FleetSnapshot:
//
//   metrics   counters summed across nodes; log-binned histograms merged
//             bin-wise (HistogramBins::merge — exact counts, quantiles
//             identical to a union-stream histogram); gauges are
//             instantaneous per-node facts, so they are kept per node
//             under "<label>/<name>" instead of being averaged.
//
//   clocks    every Telemetry stamps spans in µs since ITS OWN
//             construction, so per-node time axes are mutually offset.
//             The collector brackets each /snapshot GET with its own
//             clock and reads the snapshot's now_us: offset =
//             midpoint(send, receive) − node_now. Node spans map onto
//             the collector axis by adding the offset; half the scrape
//             RTT bounds the estimate's error. The per-node offset is
//             surfaced as a "<label>/fleet.clock_skew_us" gauge.
//
//   traces    spans from all nodes sharing one trace_id (the id packs
//             (client, request), so the gateway's root and the
//             replica's queue/service spans agree by construction) are
//             stitched into end-to-end StitchedTraces. Span IDS are NOT
//             unique across hubs — every hub counts from 1 — so
//             stitching keys on (trace_id, kind, replica), never on
//             span_id. Wire legs are inferred from offset-mapped
//             cross-node timestamps: wire_out = queue.start −
//             dispatch.end, wire_back = root.end − service.end.
//
// Staleness: a node that stops answering keeps its last-good parsed
// data in the merge (counters are lifetime totals; dropping them would
// make fleet totals go backwards) and is flagged unreachable with the
// seconds since its last successful scrape — the "stale since Ns"
// marker aqua_top shows instead of freezing.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/ids.h"
#include "obs/metrics.h"
#include "obs/scrape_client.h"
#include "obs/span.h"

namespace aqua::obs {

struct FleetEndpoint {
  std::string host;
  std::uint16_t port = 0;
  /// Display label; defaults to "host:port" when empty.
  std::string label;

  [[nodiscard]] std::string name() const {
    return label.empty() ? host + ":" + std::to_string(port) : label;
  }
};

/// Parse "host:port" (host defaults to 127.0.0.1 when only a port is
/// given). Throws std::runtime_error on a malformed spec.
[[nodiscard]] FleetEndpoint parse_fleet_endpoint(const std::string& spec);

/// One node's parsed scrape content, on the NODE's own time axis.
struct FleetNodeData {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramBins> histograms;
  std::vector<SpanRecord> spans;
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;
  std::uint64_t requests_recorded = 0;
  std::int64_t now_us = 0;        ///< node clock at snapshot serialization
  std::string prometheus;         ///< raw /metrics body (conservation checks)
};

/// Per-node scrape outcome inside one FleetSnapshot.
struct FleetNodeStatus {
  FleetEndpoint endpoint;
  bool reachable = false;
  std::string error;              ///< last scrape failure when !reachable
  bool has_data = false;          ///< some scrape (this poll or earlier) parsed
  double stale_s = 0.0;           ///< seconds since last successful scrape
  std::int64_t clock_offset_us = 0;  ///< collector axis − node axis
  std::int64_t scrape_rtt_us = 0;    ///< /snapshot GET round trip
  FleetNodeData data;             ///< last-good parse (see staleness note)
};

/// One request's cross-process lifecycle reassembled from fleet spans.
/// Leg values are raw differences of offset-mapped timestamps, so clock
/// estimation error can make a wire leg slightly negative.
struct StitchedTrace {
  std::uint64_t trace_id = 0;
  ClientId client{};
  RequestId request{};
  ReplicaId replica{};            ///< replica whose reply won (0 = unanswered)
  bool ok = false;                ///< root closed timely
  bool answered = false;
  /// Root + dispatch + winning replica's queue AND service all present:
  /// the trace supports full latency attribution.
  bool complete = false;
  std::int64_t end_to_end_us = 0;
  std::int64_t dispatch_us = 0;   ///< selection + marshalling (gateway)
  std::int64_t wire_out_us = 0;   ///< dispatch end -> replica enqueue
  std::int64_t queue_us = 0;      ///< replica FIFO wait
  std::int64_t service_us = 0;    ///< application upcall
  std::int64_t wire_back_us = 0;  ///< service end -> client merge
  /// end_to_end − sum(legs): un-attributed gaps (root-to-dispatch start
  /// skew, queue-to-service hand-off) plus clock estimation error.
  std::int64_t residual_us = 0;
};

/// Where an end-to-end microsecond goes, over all complete traces.
struct FleetAttribution {
  std::uint64_t traces = 0;       ///< complete traces feeding the histograms
  HistogramBins end_to_end;
  HistogramBins wire;             ///< wire_out + wire_back per trace
  HistogramBins queue;
  HistogramBins service;

  /// Fraction of the end-to-end quantile attributable to one leg
  /// (leg pXX / end-to-end pXX); 0 when empty. Legs are clamped into
  /// [0, e2e] per trace before binning, but the log-binned nearest-rank
  /// quantiles still carry up to one bin width of rounding each way, so
  /// the raw ratio can poke past 1 — capped here, since "more than all
  /// of the end-to-end time" is never the right thing to display.
  [[nodiscard]] double share(const HistogramBins& leg, double q) const {
    const std::int64_t total = end_to_end.quantile(q);
    if (total <= 0) return 0.0;
    return std::min(1.0, static_cast<double>(leg.quantile(q)) / static_cast<double>(total));
  }
};

struct FleetSnapshot {
  std::vector<FleetNodeStatus> nodes;

  /// Merged metrics: counters summed, histograms merged bin-wise.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramBins> histograms;
  /// Per-node gauges under "<label>/<name>", plus the collector's own
  /// "<label>/fleet.clock_skew_us" and "<label>/fleet.scrape_rtt_us".
  std::map<std::string, double> gauges;

  /// All nodes' spans mapped onto the collector time axis (span ids are
  /// per-hub and may collide — see header comment).
  std::vector<SpanRecord> spans;

  std::vector<StitchedTrace> traces;
  std::uint64_t traces_total = 0;     ///< root spans seen
  std::uint64_t traces_answered = 0;  ///< roots with a winning replica
  std::uint64_t traces_stitched = 0;  ///< answered AND complete
  /// traces_stitched / traces_answered; 1.0 when nothing was answered.
  [[nodiscard]] double stitch_completeness() const {
    return traces_answered == 0
               ? 1.0
               : static_cast<double>(traces_stitched) / static_cast<double>(traces_answered);
  }

  FleetAttribution attribution;

  std::int64_t scrape_us = 0;  ///< wall time polling all endpoints
  std::int64_t merge_us = 0;   ///< wall time merging + stitching
  std::int64_t max_abs_clock_skew_us = 0;  ///< across reachable nodes
};

/// Polls a fixed endpoint list and merges the results. Stateful: keeps
/// each node's last-good data between collect() calls so a dead node
/// degrades to "stale" instead of vanishing from the fleet view.
class FleetCollector {
 public:
  explicit FleetCollector(std::vector<FleetEndpoint> endpoints, ScrapeOptions options = {});

  /// One poll + merge + stitch cycle over every endpoint.
  [[nodiscard]] FleetSnapshot collect();

  [[nodiscard]] const std::vector<FleetEndpoint>& endpoints() const { return endpoints_; }

 private:
  struct NodeState {
    bool ever_ok = false;
    std::chrono::steady_clock::time_point last_success{};
    std::string last_error;
    std::int64_t clock_offset_us = 0;
    std::int64_t scrape_rtt_us = 0;
    FleetNodeData data;
  };

  /// The collector time axis: the process's steady clock (steady_now),
  /// the same base a hub in this process stamps its /snapshot with.
  [[nodiscard]] static std::int64_t collector_now_us() { return count_us(steady_now()); }

  std::vector<FleetEndpoint> endpoints_;
  ScrapeOptions options_;
  std::vector<NodeState> states_;
};

/// Stitch already-merged spans (collector axis) into per-trace
/// lifecycles. Exposed for tests and for single-node use.
[[nodiscard]] std::vector<StitchedTrace> stitch_traces(std::span<const SpanRecord> spans);

/// Machine-readable fleet report: node statuses, merged counters, stitch
/// stats, and latency attribution. Feeds aqua_top --json and
/// bench/fleet_report.
void write_fleet_json(std::ostream& out, const FleetSnapshot& snapshot);

/// Merged Perfetto document: one track group per process (gateway pid 1,
/// replicas pid 100+R) with cross-process flow arrows, all on the
/// collector time axis. Thin wrapper over write_perfetto_json on
/// snapshot.spans.
void write_fleet_perfetto_json(std::ostream& out, const FleetSnapshot& snapshot);

/// Parse one node's /snapshot body (export.cpp's write_snapshot_json
/// format) into FleetNodeData. Throws std::runtime_error on malformed
/// JSON.
[[nodiscard]] FleetNodeData parse_snapshot_body(const std::string& body);

/// Parse a /spans body (write_spans_json format). Throws on malformed
/// JSON; unknown span kinds are skipped.
[[nodiscard]] std::vector<SpanRecord> parse_spans_body(const std::string& body);

}  // namespace aqua::obs
