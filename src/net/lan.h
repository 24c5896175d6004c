// Local-area network with modelled delays.
//
// Substitutes the paper's physical LAN + Maestro/Ensemble wire path. A
// message from one gateway endpoint to another experiences
//
//   delay = stack_delay            (protocol-stack traversal, both ends)
//         + wire_base + per_byte   (transmission)
//         + lognormal jitter       (scheduling noise)
//         + spike multiplier       (occasional periods of high traffic,
//                                   §3: "they may experience occasional
//                                   periods of high traffic")
//
// Same-host delivery skips the wire terms. Host crashes silently drop all
// traffic to/from the host's endpoints, exactly like a crashed process;
// crash notifications reach interested parties (the group failure
// detector) through subscribe_host_state, modelling heartbeat timeout.
//
// The Lan runs on either clock of a Scheduler: every delivery is a
// sim::Simulator event (the seeded experiments) or a task on a
// runtime::DelayedExecutor's thread (the threaded runtime). One mutex
// guards its state, so any thread may send; it is released before a
// receive callback or a host-state subscriber runs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/scheduler.h"
#include "common/time.h"
#include "net/payload.h"
#include "net/transport.h"

namespace aqua::obs {
class Counter;
class Histogram;
class Telemetry;
}  // namespace aqua::obs

namespace aqua::net {

struct SpikeConfig {
  bool enabled = false;
  /// Mean interval between spike onsets (exponential).
  Duration mean_interval = sec(10);
  /// Mean spike length (exponential).
  Duration mean_duration = msec(200);
  /// Delay multiplier applied while a spike is active.
  double delay_factor = 8.0;
};

struct LanConfig {
  /// One-way protocol-stack traversal (marshalling + Maestro/Ensemble).
  Duration stack_delay = usec(1200);
  /// Fixed wire cost for any off-host message.
  Duration wire_base = usec(150);
  /// Transmission cost per byte on the wire.
  double per_byte_us = 0.01;
  /// Median of the lognormal jitter term.
  Duration jitter_median = usec(100);
  /// Sigma of the lognormal jitter term (0 disables jitter).
  double jitter_sigma = 0.4;
  /// Extra per-destination cost when multicasting (group fan-out work).
  Duration multicast_member_cost = usec(40);
  /// Same-host delivery cost (loopback, no wire).
  Duration local_delay = usec(120);
  /// Probability that an off-host message is silently lost. Ensemble
  /// provides reliable delivery, so this is 0 by default; benches raise it
  /// to study robustness.
  double loss_rate = 0.0;
  /// Ensemble delivers FIFO per sender; when true (default), two messages
  /// on the same (source, destination) pair never reorder even if the
  /// jitter draw for the second is smaller.
  bool fifo_per_pair = true;
  SpikeConfig spike;
};

/// Preset for a Lan inside one process (the threaded runtime): every hop
/// takes `one_way`, and a hop between hosts adds lognormal jitter of
/// median `jitter` (none when zero). Hops are in-memory handoffs, so there
/// is no wire, per-byte or fan-out cost; loss, spikes, FIFO and host crash
/// keep their LanConfig defaults.
[[nodiscard]] LanConfig in_process_lan(Duration one_way, Duration jitter);

/// Decision of a fault-injection message filter for one message.
struct FilterVerdict {
  /// Silently discard the message (counted in messages_fault_dropped()).
  bool drop = false;
  /// Extra one-way delay added on top of the modelled delay (>= 0).
  Duration extra_delay{};
};

/// Fault-injection hook consulted for every message before its delivery is
/// scheduled. Installed by the scenario engine for scripted drop/delay
/// windows; any randomness must come from the filter's own seeded stream
/// so the Lan's draws stay unperturbed. It runs under the Lan's lock, on
/// the sending thread, and must not call back into the Lan.
using MessageFilterFn =
    std::function<FilterVerdict(EndpointId from, EndpointId to, const Payload& message)>;

class Lan final : public Transport {
 public:
  /// `scheduler` supplies the clock and runs every delivery. It must
  /// outlive the Lan and run none of its tasks after the Lan is gone: a
  /// DelayedExecutor is shut down before the Lan is destroyed.
  Lan(Scheduler& scheduler, Rng rng, LanConfig config);

  /// Register a receiving endpoint on `host`. The callback runs on the
  /// scheduler's thread at delivery time.
  EndpointId create_endpoint(HostId host, ReceiveFn on_receive) override;

  /// Remove an endpoint; in-flight messages to it are dropped on arrival.
  /// After this returns no callback of `endpoint` is running — one in
  /// progress is waited for — unless the caller is that callback.
  void destroy_endpoint(EndpointId endpoint) override;

  /// Crash or restore a host. Crash drops all in-flight and future
  /// traffic involving the host's endpoints and notifies subscribers.
  void set_host_alive(HostId host, bool alive);
  [[nodiscard]] bool host_alive(HostId host) const override {
    return locked([&] { return alive_locked(host); });
  }

  /// Observe host liveness transitions (failure-detector input).
  void subscribe_host_state(HostStateFn fn) override;

  /// Point-to-point send, from any thread. A send from a destroyed
  /// endpoint or a dead host is a counted drop (the process is gone; a
  /// threaded replica's reply can outlive its endpoint), as is a hop the
  /// scheduler refuses because it is shutting down.
  void unicast(EndpointId from, EndpointId to, Payload message) override;

  /// Send to each destination independently (Maestro send-to-subset).
  void multicast(EndpointId from, std::span<const EndpointId> to, Payload message) override;

  [[nodiscard]] const LanConfig& config() const { return config_; }
  [[nodiscard]] HostId endpoint_host(EndpointId endpoint) const override;
  [[nodiscard]] bool endpoint_exists(EndpointId endpoint) const override {
    return locked([&] { return endpoints_.contains(endpoint); });
  }

  /// True while a traffic spike is in progress (natural or forced).
  [[nodiscard]] bool spike_active() const {
    return locked([this] { return spike_override_.has_value() || spike_active_; });
  }

  /// Fault-injection: force a spike window with an explicit delay factor,
  /// independent of the stochastic spike process (which keeps running —
  /// and consuming its RNG draws — underneath, so forcing a window never
  /// shifts any other stream of a seeded run).
  void force_spike(double delay_factor);

  /// End a forced spike window (back to the natural spike state).
  void clear_forced_spike() { locked([this] { spike_override_.reset(); }); }

  /// Fault-injection: install (or, with nullptr, remove) a message filter
  /// consulted before every delivery is scheduled. Once this returns, the
  /// previous filter is not running and will not be called again.
  void set_message_filter(MessageFilterFn filter) {
    locked([&] { message_filter_ = std::move(filter); });
  }

  /// Mirror message counters into `telemetry` (lan.sent / lan.delivered /
  /// lan.dropped / lan.fault_dropped / lan.spikes plus the lan.delay_us
  /// histogram of sampled one-way delays), and record a wire-leg span at
  /// delivery for every traced payload (payload.span().valid()). Null
  /// detaches; the disabled path costs one branch per message.
  void set_telemetry(obs::Telemetry* telemetry) override;

  /// Counters for tests and reports.
  [[nodiscard]] std::uint64_t messages_sent() const override { return sent_.load(); }
  [[nodiscard]] std::uint64_t messages_delivered() const override { return delivered_.load(); }
  [[nodiscard]] std::uint64_t messages_dropped() const override { return dropped_.load(); }
  /// Subset of messages_dropped() discarded by the fault filter.
  [[nodiscard]] std::uint64_t messages_fault_dropped() const { return fault_dropped_.load(); }

 private:
  struct Endpoint {
    HostId host;
    /// Shared so a callback that destroys its own endpoint keeps running.
    std::shared_ptr<const ReceiveFn> on_receive;
  };

  /// Run `fn` under mutex_.
  template <typename Fn>
  auto locked(Fn fn) const -> decltype(fn()) {
    std::lock_guard lock(mutex_);
    return fn();
  }
  /// The rest of the private members assume mutex_ is held, except
  /// arrive(), which takes it.
  void send_locked(EndpointId from, EndpointId to, Payload message, std::size_t fanout);
  void arrive(EndpointId from, EndpointId to, TimePoint sent_at, const Payload& message);
  [[nodiscard]] bool alive_locked(HostId host) const;
  void drop_locked();
  Duration sample_delay(const Endpoint& src, const Endpoint& dst, std::int64_t bytes,
                        std::size_t fanout);
  void schedule_next_spike();

  Scheduler& scheduler_;
  const LanConfig config_;

  mutable std::mutex mutex_;  // guards everything below
  Rng rng_;
  IdGenerator<EndpointId> endpoint_ids_;
  std::unordered_map<EndpointId, Endpoint> endpoints_;
  /// Latest scheduled delivery per (src, dst) pair, for FIFO enforcement.
  std::map<std::pair<EndpointId, EndpointId>, TimePoint> last_delivery_;
  std::unordered_map<HostId, bool> host_alive_;
  std::vector<HostStateFn> host_state_subscribers_;
  bool spike_active_ = false;
  /// Forced-spike delay factor while a scripted spike window is open.
  std::optional<double> spike_override_;
  MessageFilterFn message_filter_;
  /// Written under mutex_; atomic so the getters need not take it.
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> fault_dropped_{0};
  /// The endpoint whose callback runs now (none when default), and the
  /// scheduler thread running it; destroy_endpoint waits on delivered_cv_.
  EndpointId delivering_{};
  std::thread::id delivery_thread_{};
  std::condition_variable delivered_cv_;

  /// Null unless telemetry is attached (one-branch discipline).
  obs::Counter* sent_counter_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* fault_dropped_counter_ = nullptr;
  obs::Counter* spikes_counter_ = nullptr;
  obs::Histogram* delay_histogram_ = nullptr;
  /// Span sink; non-null only when telemetry is attached AND spans are
  /// enabled in its config, so the disabled path stays one branch.
  obs::Telemetry* span_sink_ = nullptr;
};

}  // namespace aqua::net
