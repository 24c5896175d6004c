// QoS negotiation lifecycle (§4, §5.4.2).
//
// The client loads its initial QoS from a configuration file ("A client
// may either negotiate its QoS requirements at runtime or specify them
// in a configuration file"), asks for more than the service can deliver,
// receives the QoS-violation callback ("the handler notifies the client
// by issuing a callback. The client can then either choose to
// renegotiate its QoS specification or issue its requests to the service
// at a later time"), and renegotiates to a feasible specification.
#include <cstdio>

#include "core/qos_config.h"
#include "gateway/system.h"

int main() {
  using namespace aqua;
  using namespace aqua::gateway;

  // The client's QoS configuration file: the "gold" spec is physically
  // impossible for this fleet (service alone takes ~60ms, deadline 40ms).
  const auto qos_entries = core::parse_qos_config(
      "service = pricing\n"
      "deadline_ms = 40\n"
      "min_probability = 0.9\n"
      "\n"
      "service = pricing-fallback\n"
      "deadline_ms = 250\n"
      "min_probability = 0.9\n");
  const core::QosSpec gold = core::find_service(qos_entries, "pricing").qos;
  const core::QosSpec fallback = core::find_service(qos_entries, "pricing-fallback").qos;

  SystemConfig config;
  config.seed = 31;
  AquaSystem system{config};
  for (int i = 0; i < 4; ++i) {
    system.add_replica(
        replica::make_sampled_service(stats::make_truncated_normal(msec(60), msec(15))));
  }

  HandlerConfig handler_cfg;
  handler_cfg.failure_tracker.min_samples = 5;

  ClientWorkload workload;
  workload.total_requests = 40;
  workload.think_time = stats::make_constant(msec(150));
  ClientApp& app = system.add_client(gold, workload, handler_cfg);

  std::printf("qos renegotiation: 4 replicas (~60ms service)\n");
  std::printf("initial spec from config file: deadline %s, Pc %.2f (infeasible)\n\n",
              to_string(gold.deadline).c_str(), gold.min_probability);

  // On the violation callback, renegotiate to the fallback spec — once.
  app.on_qos_violation([&](double fraction) {
    std::printf("[%7.0fms] QoS violation callback: timely fraction %.2f < %.2f\n",
                to_ms(system.simulator().now() - TimePoint{}), fraction, gold.min_probability);
    if (app.handler().qos() == gold) {
      std::printf("[%7.0fms] client renegotiates: deadline %s, Pc %.2f\n",
                  to_ms(system.simulator().now() - TimePoint{}),
                  to_string(fallback.deadline).c_str(), fallback.min_probability);
      app.handler().set_qos(fallback);
    }
  });

  system.run_until_clients_done(sec(120));

  // Outcomes before vs after the renegotiation.
  std::size_t before_total = 0, before_timely = 0, after_total = 0, after_timely = 0;
  for (const RequestRecord& record : app.handler().history()) {
    const bool was_gold = record.qos == gold;
    (was_gold ? before_total : after_total) += 1;
    if (record.timely) (was_gold ? before_timely : after_timely) += 1;
  }
  std::printf("\nwith the infeasible spec: %zu/%zu timely\n", before_timely, before_total);
  std::printf("after renegotiation:      %zu/%zu timely (budget %.2f)\n", after_timely,
              after_total, fallback.min_probability);
  std::printf("\nthe handler kept counting failures until the callback fired, the client\n");
  std::printf("renegotiated at runtime, and the same replicas now satisfy the spec.\n");
  return 0;
}
