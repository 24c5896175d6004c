// Telemetry hub: one instance per system run, shared by every
// instrumented component.
//
// Owns the MetricsRegistry, bounded ring buffers of RequestTrace /
// SelectionTrace records, and an annotation Timeline (the same
// trace::Timeline the scenario engine writes, so exported snapshots
// line up with fault scripts on one time axis).
//
// Enable/disable discipline: components take a raw `Telemetry*` that
// defaults to nullptr. A null pointer means telemetry is off and every
// instrumented site costs exactly one branch. The pointer is non-owning;
// the Telemetry must outlive the system it observes.
//
// Thread safety: metrics are lock-free relaxed atomics (see metrics.h);
// trace rings and the timeline are guarded by one mutex each. Trace
// recording happens once per *request* (not per packet), so the lock is
// far off the per-message hot path.
//
// Determinism: recording never schedules simulator events and never
// draws from any Rng stream, so enabling telemetry cannot perturb a
// seeded simulation — fig4/fig5 produce bit-identical numbers with
// telemetry on or off.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/alerts.h"
#include "obs/calibration.h"
#include "obs/metrics.h"
#include "obs/records.h"
#include "obs/span.h"
#include "trace/timeline.h"

namespace aqua::obs {

struct TelemetryConfig {
  /// Ring capacities. When a ring is full the OLDEST record is dropped
  /// and a drop counter increments — never silently.
  std::size_t request_capacity = 65536;
  std::size_t selection_capacity = 65536;
  std::size_t annotation_capacity = 65536;
  /// Spans are ~8 per request (dispatch, per-replica legs, queue,
  /// service, merge), so the ring is sized a few multiples deeper.
  std::size_t span_capacity = 262144;
  std::size_t alert_capacity = 4096;
  /// Selection explainability records are the heaviest (one vector per
  /// selection); turn them off to keep only metrics + request traces.
  bool selection_traces = true;
  /// Span recording toggle, same spirit as selection_traces: off keeps
  /// trace-id stamping (cheap, deterministic) but records no spans.
  bool spans = true;
  /// Prediction-calibration tracker (obs/calibration.h). When
  /// calibration.enabled is false no tracker is constructed and every
  /// record_calibration call is one null-pointer branch.
  CalibrationConfig calibration;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config = {});

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] const TelemetryConfig& config() const { return config_; }
  [[nodiscard]] bool selection_traces_enabled() const { return config_.selection_traces; }
  [[nodiscard]] bool spans_enabled() const { return config_.spans; }

  /// Allocate a span id. Ids start at 1 (0 = "no parent") and are handed
  /// out by one relaxed atomic counter; in the discrete-event simulator
  /// every allocation happens in deterministic event order, so a seeded
  /// run assigns identical ids on every execution.
  [[nodiscard]] std::uint64_t next_span_id() { return span_id_counter_.fetch_add(1, std::memory_order_relaxed) + 1; }

  /// Wall-clock "now" on the TimePoint axis: the process's steady clock
  /// (steady_now), so every hub in a process shares one time base. Only
  /// the threaded runtime calls this; the simulator stamps spans with sim
  /// time and never touches it.
  [[nodiscard]] TimePoint wall_now() const { return steady_now(); }

  /// Record a decided request; returns a sequence number usable with
  /// amend_request.
  std::uint64_t record_request(RequestTrace trace);

  /// Patch a previously recorded request whose first reply arrived
  /// AFTER its outcome was decided at the deadline (late answer). The
  /// record keeps timely=false but gains the reply's timing fields —
  /// the same in-place amendment RequestRecord::response_time gets.
  /// No-op if the record has already been evicted from the ring.
  void amend_request(std::uint64_t seq, TimePoint t4, Duration response_time,
                     ReplicaId first_replica, Duration service_time,
                     Duration queuing_delay, Duration gateway_delay);

  /// Record one Algorithm-1 run. Drops the record (cheaply) when
  /// selection traces are disabled.
  void record_selection(SelectionTrace trace);

  /// Append a (time, kind, detail) marker to the shared timeline —
  /// QoS-violation callbacks, snapshot flushes, view changes.
  void annotate(TimePoint at, std::string kind, std::string detail = {});

  /// Record one CLOSED span (start and end already known). Callers must
  /// check spans_enabled() first — recording with spans off is still
  /// correct but wastes the lock. No-op when config_.spans is false.
  void record_span(SpanRecord span);

  /// Record a structured QoS alert event.
  void record_alert(AlertEvent alert);

  /// Join one decided request's predicted P_K(t) with its outcome
  /// (obs/calibration.h). `first_replica` is the replica whose reply
  /// decided the request (zero id = unanswered). When the drift
  /// detector alarms, a kCalibrationDrift AlertEvent stamped `at` /
  /// `client` lands in the alert ring. No-op when calibration is
  /// disabled. Callers classify outcomes once per request, so this sits
  /// next to the QoS tracker update — record it BEFORE the QoS
  /// violation check so a drift alert always precedes the violation it
  /// predicts in the ring.
  void record_calibration(TimePoint at, ClientId client, ReplicaId first_replica,
                          double predicted, bool timely);

  /// The calibration tracker, or null when disabled.
  [[nodiscard]] const CalibrationTracker* calibration() const { return calibration_.get(); }

  /// Snapshot copies (thread-safe, records in recording order).
  [[nodiscard]] std::vector<RequestTrace> request_traces() const;
  [[nodiscard]] std::vector<SelectionTrace> selection_traces() const;
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Spans belonging to one trace, in recording order.
  [[nodiscard]] std::vector<SpanRecord> spans_for(std::uint64_t trace_id) const;
  [[nodiscard]] std::vector<AlertEvent> alerts() const;
  [[nodiscard]] trace::Timeline timeline() const;

  /// Lifetime totals, including records since evicted from the rings.
  [[nodiscard]] std::uint64_t requests_recorded() const;
  [[nodiscard]] std::uint64_t requests_dropped() const;
  [[nodiscard]] std::uint64_t selections_recorded() const;
  [[nodiscard]] std::uint64_t selections_dropped() const;
  [[nodiscard]] std::uint64_t annotations_dropped() const;
  [[nodiscard]] std::uint64_t spans_recorded() const;
  [[nodiscard]] std::uint64_t spans_dropped() const;
  [[nodiscard]] std::uint64_t alerts_recorded() const;
  [[nodiscard]] std::uint64_t alerts_dropped() const;

 private:
  TelemetryConfig config_;
  MetricsRegistry metrics_;
  std::unique_ptr<CalibrationTracker> calibration_;

  mutable std::mutex requests_mutex_;
  std::deque<RequestTrace> requests_;
  std::uint64_t first_request_seq_ = 0;  ///< seq of requests_.front()
  std::uint64_t next_request_seq_ = 0;
  std::uint64_t requests_dropped_ = 0;

  mutable std::mutex selections_mutex_;
  std::deque<SelectionTrace> selections_;
  std::uint64_t selections_recorded_ = 0;
  std::uint64_t selections_dropped_ = 0;

  mutable std::mutex timeline_mutex_;
  trace::Timeline timeline_;
  std::uint64_t annotations_dropped_ = 0;

  std::atomic<std::uint64_t> span_id_counter_{0};
  mutable std::mutex spans_mutex_;
  std::deque<SpanRecord> spans_;
  std::uint64_t spans_recorded_ = 0;
  std::uint64_t spans_dropped_ = 0;
  /// Ring-overflow evictions mirrored into the metrics registry
  /// ("telemetry.spans_dropped") so a fleet collector can tell wire loss
  /// from ring overflow without fetching the full snapshot.
  Counter* spans_dropped_counter_ = nullptr;

  mutable std::mutex alerts_mutex_;
  std::deque<AlertEvent> alerts_;
  std::uint64_t alerts_recorded_ = 0;
  std::uint64_t alerts_dropped_ = 0;
};

}  // namespace aqua::obs
