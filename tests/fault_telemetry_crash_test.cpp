// Telemetry under fault injection: a mid-flight replica crash must leave
// the request-trace ring and the span ring consistent — every recorded
// span closed (no dangling open spans for work that died with the host),
// no service attributed to the dead replica, and late replies amended
// into the rings exactly once. Runs in both substrates; the fault tier
// re-runs this under ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "gateway/system.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "runtime/threaded_system.h"
#include "stats/variates.h"

namespace aqua::fault {
namespace {

using obs::SpanKind;
using obs::SpanRecord;

/// Shared structural check: every span closed, unique ids, one root per
/// trace, every parent resolvable within its trace.
void expect_well_formed(const std::vector<SpanRecord>& spans) {
  std::set<std::uint64_t> span_ids;
  std::map<std::uint64_t, std::set<std::uint64_t>> ids_by_trace;
  std::map<std::uint64_t, std::size_t> roots_by_trace;
  for (const SpanRecord& s : spans) {
    EXPECT_GE(count_us(s.end), count_us(s.start)) << to_string(s.kind);
    EXPECT_TRUE(span_ids.insert(s.span_id).second);
    ids_by_trace[s.trace_id].insert(s.span_id);
    if (s.kind == SpanKind::kRequest) ++roots_by_trace[s.trace_id];
  }
  for (const auto& [trace_id, roots] : roots_by_trace) EXPECT_EQ(roots, 1u) << trace_id;
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(roots_by_trace.count(s.trace_id), 1u) << "no root for " << to_string(s.kind);
    if (s.parent_span_id != 0) {
      EXPECT_TRUE(ids_by_trace[s.trace_id].count(s.parent_span_id)) << to_string(s.kind);
    }
  }
}

TEST(FaultTelemetrySim, MidflightCrashLeavesNoDanglingSpans) {
  obs::Telemetry telemetry;
  gateway::SystemConfig config;
  config.seed = 9;
  config.telemetry = &telemetry;
  gateway::AquaSystem system{config};
  for (int i = 0; i < 3; ++i) {
    system.add_replica(replica::make_sampled_service(stats::make_constant(msec(30))));
  }
  gateway::ClientWorkload workload;
  workload.total_requests = 5;
  workload.think_time = stats::make_constant(msec(100));
  gateway::ClientApp& app = system.add_client(core::QosSpec{msec(200), 0.0}, workload);

  // Crash replica 0's whole host while the first multicast is on the
  // wire to it (discovery ~2.5ms, wire ~1.5ms more).
  replica::ReplicaServer& victim = *system.replicas()[0];
  const ReplicaId victim_id = victim.id();
  system.simulator().schedule_after(msec(3), [&victim] { victim.crash_host(); });

  ASSERT_TRUE(system.run_until_clients_done(sec(60)));
  system.run_for(sec(6));
  ASSERT_EQ(victim.serviced_requests(), 0u);
  ASSERT_EQ(app.answered(), 5u);

  // Request ring: every request decided, none served by the dead host.
  const std::vector<obs::RequestTrace> traces = telemetry.request_traces();
  ASSERT_EQ(traces.size(), 5u);
  for (const obs::RequestTrace& t : traces) {
    EXPECT_TRUE(t.answered);
    EXPECT_NE(t.first_replica, victim_id);
  }

  // Span ring: the in-flight leg to the victim died with it — no queue,
  // service, or reply span may carry the victim's id, and nothing the
  // crash interrupted may linger as an open span.
  const std::vector<SpanRecord> spans = telemetry.spans();
  ASSERT_FALSE(spans.empty());
  expect_well_formed(spans);
  for (const SpanRecord& s : spans) {
    if (s.kind == SpanKind::kQueueWait || s.kind == SpanKind::kService ||
        s.kind == SpanKind::kReplyLeg) {
      EXPECT_NE(s.replica, victim_id) << to_string(s.kind);
    }
  }
}

TEST(FaultTelemetrySim, LateRepliesAmendRequestRingAndCloseLateSpans) {
  obs::Telemetry telemetry;
  gateway::SystemConfig config;
  config.seed = 5;
  config.telemetry = &telemetry;
  gateway::AquaSystem system{config};
  // One replica, three times slower than the deadline: every request is
  // decided unanswered at the deadline, then the reply arrives late.
  system.add_replica(replica::make_sampled_service(stats::make_constant(msec(30))));
  gateway::ClientWorkload workload;
  workload.total_requests = 4;
  workload.think_time = stats::make_constant(msec(150));
  system.add_client(core::QosSpec{msec(10), 0.0}, workload);

  ASSERT_TRUE(system.run_until_clients_done(sec(60)));
  system.run_for(sec(6));  // harvest every late reply

  const std::vector<obs::RequestTrace> traces = telemetry.request_traces();
  ASSERT_EQ(traces.size(), 4u);
  for (const obs::RequestTrace& t : traces) {
    EXPECT_FALSE(t.timely);
    // The late-reply amendment backfilled the reply's timing fields.
    ASSERT_TRUE(t.response_time.has_value());
    EXPECT_GT(count_us(*t.response_time), count_us(t.deadline));
  }

  const std::vector<SpanRecord> spans = telemetry.spans();
  expect_well_formed(spans);
  std::size_t late = 0;
  for (const SpanRecord& s : spans) {
    if (s.kind == SpanKind::kLateReply) {
      ++late;
      EXPECT_FALSE(s.ok);  // a harvested late reply is never timely
    }
    if (s.kind == SpanKind::kRequest) {
      EXPECT_FALSE(s.ok);
    }
  }
  EXPECT_EQ(late, 4u);
}

TEST(FaultTelemetryThreaded, CrashMidRunKeepsEveryTraceClosed) {
  obs::Telemetry telemetry;
  runtime::ThreadedSystemConfig config;
  config.telemetry = &telemetry;
  config.net.base = usec(500);
  config.net.jitter_max = usec(100);
  runtime::ThreadedSystem system{config};
  runtime::ThreadedReplica& doomed = system.add_replica(stats::make_constant(msec(2)));
  system.add_replica(stats::make_constant(msec(2)));
  runtime::ThreadedClient& client = system.add_client(core::QosSpec{msec(200), 0.9});

  for (int i = 0; i < 4; ++i) ASSERT_TRUE(client.invoke(i).answered);

  // Crash WITHOUT informing the client: subsequent invokes may still
  // select the dead replica; its leg simply never produces spans, and
  // the root must still close on the survivor's reply.
  doomed.crash();
  for (int i = 0; i < 4; ++i) {
    const runtime::ThreadedClient::Outcome outcome = client.invoke(100 + i);
    ASSERT_TRUE(outcome.answered);
    EXPECT_NE(outcome.first_replica, doomed.id());
  }

  const std::vector<SpanRecord> spans = telemetry.spans();
  expect_well_formed(spans);
  std::size_t roots = 0;
  for (const SpanRecord& s : spans) {
    if (s.kind == SpanKind::kRequest) ++roots;
    if ((s.kind == SpanKind::kQueueWait || s.kind == SpanKind::kService) &&
        count_us(s.start) > 0) {
      // Queue/service work after the crash can only be the survivor's.
      // (The doomed replica's pre-crash spans legitimately carry its id.)
    }
  }
  // One closed root per invoke — crash or not, no request leaks an open
  // trace.
  EXPECT_EQ(roots, 8u);
}

}  // namespace
}  // namespace aqua::fault
