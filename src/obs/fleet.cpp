#include "obs/fleet.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/json.h"
#include "obs/perfetto_export.h"

namespace aqua::obs {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from).count();
}

bool kind_from_string(const std::string& name, SpanKind& kind) {
  for (int k = 0; k <= static_cast<int>(SpanKind::kLateReply); ++k) {
    const auto candidate = static_cast<SpanKind>(k);
    if (name == to_string(candidate)) {
      kind = candidate;
      return true;
    }
  }
  return false;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

FleetEndpoint parse_fleet_endpoint(const std::string& spec) {
  FleetEndpoint endpoint;
  const std::size_t colon = spec.rfind(':');
  std::string port_text;
  if (colon == std::string::npos) {
    endpoint.host = "127.0.0.1";
    port_text = spec;
  } else {
    endpoint.host = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
  }
  if (endpoint.host.empty() || port_text.empty()) {
    throw std::runtime_error("bad endpoint spec: " + spec);
  }
  int port = 0;
  try {
    port = std::stoi(port_text);
  } catch (const std::exception&) {
    throw std::runtime_error("bad endpoint port: " + spec);
  }
  if (port <= 0 || port > 65535) throw std::runtime_error("bad endpoint port: " + spec);
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

FleetNodeData parse_snapshot_body(const std::string& body) {
  const json::Value doc = json::parse(body);
  if (!doc.is_object()) throw std::runtime_error("snapshot: not an object");
  FleetNodeData data;
  data.now_us = doc.find("now_us") != nullptr ? doc.find("now_us")->as_i64() : 0;
  data.spans_recorded = doc.u64("spans_recorded");
  data.spans_dropped = doc.u64("spans_dropped");
  data.requests_recorded = doc.u64("requests_recorded");

  const json::Value* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return data;
  if (const json::Value* counters = metrics->find("counters"); counters != nullptr) {
    for (const auto& [name, value] : counters->object) {
      data.counters[name] = value.as_u64();
    }
  }
  if (const json::Value* gauges = metrics->find("gauges"); gauges != nullptr) {
    for (const auto& [name, value] : gauges->object) {
      data.gauges[name] = value.as_double();
    }
  }
  if (const json::Value* histograms = metrics->find("histograms"); histograms != nullptr) {
    for (const auto& [name, h] : histograms->object) {
      HistogramBins bins;
      bins.count = h.u64("count");
      bins.sum_us = h.find("sum_us") != nullptr ? h.find("sum_us")->as_i64() : 0;
      bins.max_us = h.find("max_us") != nullptr ? h.find("max_us")->as_i64() : 0;
      if (const json::Value* pairs = h.find("bins"); pairs != nullptr && pairs->is_array()) {
        for (const json::Value& pair : pairs->array) {
          if (!pair.is_array() || pair.array.size() != 2) continue;
          const std::uint64_t bin = pair.array[0].as_u64();
          if (bin < Histogram::kBinCount) bins.bins[bin] = pair.array[1].as_u64();
        }
      }
      data.histograms.emplace(name, bins);
    }
  }
  return data;
}

std::vector<SpanRecord> parse_spans_body(const std::string& body) {
  const json::Value doc = json::parse(body);
  if (!doc.is_array()) throw std::runtime_error("spans: not an array");
  std::vector<SpanRecord> spans;
  spans.reserve(doc.array.size());
  for (const json::Value& s : doc.array) {
    SpanKind kind{};
    const json::Value* kind_field = s.find("kind");
    if (kind_field == nullptr || !kind_from_string(kind_field->as_string(), kind)) continue;
    const json::Value* start_field = s.find("start_us");
    const json::Value* end_field = s.find("end_us");
    if (start_field == nullptr || end_field == nullptr) continue;
    spans.push_back({.trace_id = s.u64("trace_id"),
                     .span_id = s.u64("span_id"),
                     .parent_span_id = s.u64("parent_span_id"),
                     .kind = kind,
                     .client = ClientId{s.u64("client")},
                     .request = RequestId{s.u64("request")},
                     .replica = ReplicaId{s.u64("replica")},
                     .start = TimePoint{usec(start_field->as_i64())},
                     .end = TimePoint{usec(end_field->as_i64())},
                     .ok = s.find("ok") != nullptr && s.find("ok")->as_bool()});
  }
  return spans;
}

// ------------------------------------------------------------- stitching

std::vector<StitchedTrace> stitch_traces(std::span<const SpanRecord> spans) {
  // Group by trace id. Client-side spans (root, dispatch, first-reply)
  // keep the LATEST instance so redispatches resolve to the attempt that
  // decided the request. Server-side spans (queue wait, service) keep the
  // EARLIEST per replica: a retransmit-duplicate serviced later by the
  // same replica must not replace the servicing the first reply came
  // from, or attribution charges a service leg LONGER than the measured
  // end-to-end time. Span ids are per-hub counters and collide across
  // processes, so keys never involve them.
  struct TraceParts {
    const SpanRecord* root = nullptr;
    const SpanRecord* dispatch = nullptr;
    const SpanRecord* first_reply = nullptr;
    std::map<std::uint64_t, const SpanRecord*> queue_by_replica;
    std::map<std::uint64_t, const SpanRecord*> service_by_replica;
  };
  std::map<std::uint64_t, TraceParts> by_trace;
  const auto keep_latest = [](const SpanRecord*& slot, const SpanRecord& s) {
    if (slot == nullptr || s.end >= slot->end) slot = &s;
  };
  const auto keep_earliest = [](const SpanRecord*& slot, const SpanRecord& s) {
    if (slot == nullptr || s.end < slot->end) slot = &s;
  };
  for (const SpanRecord& s : spans) {
    TraceParts& parts = by_trace[s.trace_id];
    switch (s.kind) {
      case SpanKind::kRequest: keep_latest(parts.root, s); break;
      case SpanKind::kDispatch: keep_latest(parts.dispatch, s); break;
      case SpanKind::kFirstReply: keep_latest(parts.first_reply, s); break;
      case SpanKind::kQueueWait:
        keep_earliest(parts.queue_by_replica[s.replica.value()], s);
        break;
      case SpanKind::kService:
        keep_earliest(parts.service_by_replica[s.replica.value()], s);
        break;
      default: break;
    }
  }

  std::vector<StitchedTrace> traces;
  traces.reserve(by_trace.size());
  for (const auto& [trace_id, parts] : by_trace) {
    if (parts.root == nullptr) continue;  // replica-side orphan (gateway ring rolled)
    StitchedTrace t;
    t.trace_id = trace_id;
    t.client = parts.root->client;
    t.request = parts.root->request;
    t.replica = parts.root->replica;
    t.ok = parts.root->ok;
    t.answered = t.replica.value() != 0;
    t.end_to_end_us = count_us(parts.root->end) - count_us(parts.root->start);
    if (parts.dispatch != nullptr) {
      t.dispatch_us = count_us(parts.dispatch->end) - count_us(parts.dispatch->start);
    }
    const SpanRecord* queue = nullptr;
    const SpanRecord* service = nullptr;
    if (t.answered) {
      if (const auto it = parts.queue_by_replica.find(t.replica.value());
          it != parts.queue_by_replica.end()) {
        queue = it->second;
      }
      if (const auto it = parts.service_by_replica.find(t.replica.value());
          it != parts.service_by_replica.end()) {
        service = it->second;
      }
    }
    if (queue != nullptr) t.queue_us = count_us(queue->end) - count_us(queue->start);
    if (service != nullptr) t.service_us = count_us(service->end) - count_us(service->start);
    if (queue != nullptr && parts.dispatch != nullptr) {
      t.wire_out_us = count_us(queue->start) - count_us(parts.dispatch->end);
    }
    if (service != nullptr) {
      t.wire_back_us = count_us(parts.root->end) - count_us(service->end);
    }
    t.complete = t.answered && parts.dispatch != nullptr && queue != nullptr &&
                 service != nullptr;
    t.residual_us = t.end_to_end_us - (t.dispatch_us + t.wire_out_us + t.queue_us +
                                       t.service_us + t.wire_back_us);
    traces.push_back(t);
  }
  return traces;
}

// ------------------------------------------------------------- collector

FleetCollector::FleetCollector(std::vector<FleetEndpoint> endpoints, ScrapeOptions options)
    : endpoints_(std::move(endpoints)), options_(options), states_(endpoints_.size()) {}

FleetSnapshot FleetCollector::collect() {
  FleetSnapshot snapshot;
  const Clock::time_point scrape_start = Clock::now();

  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    const FleetEndpoint& endpoint = endpoints_[i];
    NodeState& state = states_[i];
    bool ok = false;
    std::string error;
    try {
      // Bracket the /snapshot GET with the collector clock: the node
      // serializes now_us while we wait, so the midpoint is the best
      // collector-axis guess for when now_us was read. Half the RTT
      // bounds the offset error.
      const std::int64_t c0 = collector_now_us();
      const ScrapeResult snap = scrape_http_get(endpoint.host, endpoint.port, "/snapshot",
                                                options_);
      const std::int64_t c1 = collector_now_us();
      if (!snap.ok) throw std::runtime_error("/snapshot: " + snap.error);
      FleetNodeData data = parse_snapshot_body(snap.body);

      const ScrapeResult spans = scrape_http_get(endpoint.host, endpoint.port, "/spans",
                                                 options_);
      if (!spans.ok) throw std::runtime_error("/spans: " + spans.error);
      data.spans = parse_spans_body(spans.body);

      const ScrapeResult prom = scrape_http_get(endpoint.host, endpoint.port, "/metrics",
                                                options_);
      if (!prom.ok) throw std::runtime_error("/metrics: " + prom.error);
      data.prometheus = prom.body;

      state.clock_offset_us = (c0 + c1) / 2 - data.now_us;
      state.scrape_rtt_us = c1 - c0;
      state.data = std::move(data);
      state.ever_ok = true;
      state.last_success = Clock::now();
      state.last_error.clear();
      ok = true;
    } catch (const std::exception& e) {
      error = e.what();
      state.last_error = error;
    }

    FleetNodeStatus status;
    status.endpoint = endpoint;
    status.reachable = ok;
    status.error = state.last_error;
    status.has_data = state.ever_ok;
    status.stale_s = (ok || !state.ever_ok)
                         ? 0.0
                         : static_cast<double>(us_between(state.last_success, Clock::now())) /
                               1e6;
    status.clock_offset_us = state.clock_offset_us;
    status.scrape_rtt_us = state.scrape_rtt_us;
    status.data = state.data;
    snapshot.nodes.push_back(std::move(status));
  }
  const Clock::time_point merge_start = Clock::now();
  snapshot.scrape_us = us_between(scrape_start, merge_start);

  // ------------------------------------------------------------- merge
  for (const FleetNodeStatus& node : snapshot.nodes) {
    if (!node.has_data) continue;
    const std::string label = node.endpoint.name();
    for (const auto& [name, value] : node.data.counters) {
      snapshot.counters[name] += value;
    }
    for (const auto& [name, bins] : node.data.histograms) {
      snapshot.histograms[name].merge(bins);
    }
    for (const auto& [name, value] : node.data.gauges) {
      snapshot.gauges[label + "/" + name] = value;
    }
    snapshot.gauges[label + "/fleet.clock_skew_us"] =
        static_cast<double>(node.clock_offset_us);
    snapshot.gauges[label + "/fleet.scrape_rtt_us"] =
        static_cast<double>(node.scrape_rtt_us);
    if (node.reachable) {
      snapshot.max_abs_clock_skew_us = std::max(
          snapshot.max_abs_clock_skew_us, std::abs(node.clock_offset_us));
    }
    // Map node spans onto the collector axis so cross-node timestamp
    // arithmetic (wire legs, merged Perfetto) is meaningful.
    const Duration offset = usec(node.clock_offset_us);
    for (SpanRecord span : node.data.spans) {
      span.start += offset;
      span.end += offset;
      snapshot.spans.push_back(span);
    }
  }

  // ------------------------------------------------------------ stitch
  snapshot.traces = stitch_traces(std::span<const SpanRecord>{snapshot.spans});
  for (const StitchedTrace& t : snapshot.traces) {
    ++snapshot.traces_total;
    if (t.answered) ++snapshot.traces_answered;
    if (t.complete) {
      ++snapshot.traces_stitched;
      FleetAttribution& a = snapshot.attribution;
      ++a.traces;
      // Each leg is physically a sub-interval of the end-to-end span, so
      // any measured excess is clock-mapping error (bounded by scrape
      // RTT/2); clamping legs into [0, e2e] keeps per-leg quantiles — and
      // hence the share() ratios — below the end-to-end quantiles.
      const auto record = [&t](HistogramBins& bins, std::int64_t us) {
        const std::int64_t clamped =
            std::clamp<std::int64_t>(us, 0, std::max<std::int64_t>(0, t.end_to_end_us));
        const std::size_t bin = Histogram::bin_index(clamped);
        ++bins.bins[bin];
        ++bins.count;
        bins.sum_us += clamped;
        bins.max_us = std::max(bins.max_us, clamped);
      };
      record(a.end_to_end, t.end_to_end_us);
      record(a.wire, t.wire_out_us + t.wire_back_us);
      record(a.queue, t.queue_us);
      record(a.service, t.service_us);
    }
  }
  snapshot.merge_us = us_between(merge_start, Clock::now());
  return snapshot;
}

// ------------------------------------------------------------- reports

void write_fleet_json(std::ostream& out, const FleetSnapshot& snapshot) {
  out << "{\"nodes\":[";
  bool first = true;
  for (const FleetNodeStatus& node : snapshot.nodes) {
    if (!first) out << ',';
    first = false;
    out << "{\"endpoint\":\"" << json_escape(node.endpoint.name())
        << "\",\"reachable\":" << (node.reachable ? "true" : "false")
        << ",\"has_data\":" << (node.has_data ? "true" : "false")
        << ",\"stale_s\":" << json_number(node.stale_s)
        << ",\"clock_offset_us\":" << node.clock_offset_us
        << ",\"scrape_rtt_us\":" << node.scrape_rtt_us
        << ",\"spans_recorded\":" << node.data.spans_recorded
        << ",\"spans_dropped\":" << node.data.spans_dropped
        << ",\"error\":\"" << json_escape(node.error) << "\"}";
  }
  out << "],\"counters\":{";
  first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(name) << "\":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(name) << "\":" << json_number(value);
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, bins] : snapshot.histograms) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(name) << "\":{\"count\":" << bins.count
        << ",\"sum_us\":" << bins.sum_us << ",\"p50_us\":" << bins.quantile(0.50)
        << ",\"p99_us\":" << bins.quantile(0.99) << ",\"p999_us\":" << bins.quantile(0.999)
        << ",\"max_us\":" << bins.max_us << '}';
  }
  const FleetAttribution& a = snapshot.attribution;
  out << "},\"stitch\":{\"traces_total\":" << snapshot.traces_total
      << ",\"traces_answered\":" << snapshot.traces_answered
      << ",\"traces_stitched\":" << snapshot.traces_stitched
      << ",\"completeness\":" << json_number(snapshot.stitch_completeness()) << '}'
      << ",\"attribution\":{\"traces\":" << a.traces;
  const auto leg = [&out, &a](const char* name, const HistogramBins& bins) {
    out << ",\"" << name << "\":{\"p50_us\":" << bins.quantile(0.50)
        << ",\"p99_us\":" << bins.quantile(0.99) << ",\"p999_us\":" << bins.quantile(0.999)
        << ",\"share_p50\":" << json_number(a.share(bins, 0.50))
        << ",\"share_p99\":" << json_number(a.share(bins, 0.99))
        << ",\"share_p999\":" << json_number(a.share(bins, 0.999)) << '}';
  };
  out << ",\"end_to_end\":{\"p50_us\":" << a.end_to_end.quantile(0.50)
      << ",\"p99_us\":" << a.end_to_end.quantile(0.99)
      << ",\"p999_us\":" << a.end_to_end.quantile(0.999) << '}';
  leg("wire", a.wire);
  leg("queue", a.queue);
  leg("service", a.service);
  out << "},\"scrape_us\":" << snapshot.scrape_us << ",\"merge_us\":" << snapshot.merge_us
      << ",\"max_abs_clock_skew_us\":" << snapshot.max_abs_clock_skew_us << "}\n";
}

void write_fleet_perfetto_json(std::ostream& out, const FleetSnapshot& snapshot) {
  write_perfetto_json(out, std::span<const SpanRecord>{snapshot.spans});
}

}  // namespace aqua::obs
