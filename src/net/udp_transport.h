// Real-socket transport backend: kernel UDP on loopback or a LAN
// interface.
//
// Each local endpoint binds its own UDP socket and runs one receiver
// thread: it reads one datagram at a time, takes in the frame header
// (acks, owed ack, dedup), then calls the endpoint's ReceiveFn inline for
// a fresh payload. The socket's kernel buffer is the endpoint's queue, so
// a slow consumer backs up its own socket (the kernel's overflow count is
// read back as a counted drop), never the socket of another endpoint.
// Remote endpoints — other processes, or other endpoints of this process
// reached through the kernel — are handles for a (address, port) pair,
// registered explicitly or learned from the source address of an
// incoming datagram.
//
// Datagrams are framed as
//
//   [u32 magic "AQDF"] [u8 version] [u8 DATA|ACK] [u64 seq]
//   [u8 n] [n x u64 acked seq]  (+ payload, DATA only)
//
// with the payload serialized by net/wire.h (body + SpanContext). UDP
// drops, duplicates, and reorders; the transport restores at-most-once
// delivery: every DATA is acked, retransmitted with exponential backoff
// until acked, and deduplicated by (receiver, source, seq) on arrival.
// Acks are delayed and piggybacked: the receiver owes the ack to the
// (endpoint, peer) pair, and the next DATA frame that pair sends carries
// it in its header (a replica's Reply acks the Request). An ack no DATA
// frame has carried within min(retransmit_tick, retransmit_initial / 4)
// goes out alone in an ACK frame. A destination that exhausts the
// retransmit budget is reported dead through the same host-liveness
// signal the dependability layer consumes on the simulated Lan; any later
// ack or datagram from it reports it alive again. The give-up waits while
// the ack may be held up inside this process (the sender's socket or a
// local destination's holds unread datagrams, or that destination still
// owes the ack): a callback that blocks its receiver must not make a live
// peer look dead. A peer in another process cannot see that, so there a
// callback that blocks longer than the peer's retransmit budget gets
// this host presumed dead (its DATA waits unacked in the socket).
// destroy_endpoint sends the acks its endpoint still owes, and counts as
// dropped every frame still unacked to it that it never delivered.
//
// Locking. No lock spans the process on the datagram path:
//  - members_ (read-mostly) guards locals_, remotes_, by_addr_ and
//    host_alive_. Sends and receives take it shared; it is taken
//    exclusively only to create or destroy an endpoint, learn or register
//    a peer, and flip a host's liveness.
//  - each local endpoint's own mutex guards the acks it owes and its
//    unacked DATA frames (acks for a frame always return to the socket
//    that sent it, so the receiver that reads them takes only its own
//    endpoint's mutex). It is taken after members_, never before.
//  - the receiver thread owns its endpoint's dedup state outright: one
//    SeqDedup (net/seq_dedup.h) per source.
// The timer thread scans endpoint by endpoint: resends and give-up
// candidates first, then every give-up check, then the sweep that turns
// overdue owed acks into ACK frames. A give-up check must see an ack the
// sweep is about to send as still owed, so no check may follow it.
//
// A DATA frame costs one allocation: the bytes the retransmit table
// keeps (the body is encoded into a reused per-thread buffer). ACK frames
// and received frames cost none once the tables have grown.
//
// Attach telemetry BEFORE traffic flows; the counters mirror the shared
// lan.* metric names so dashboards work unchanged across backends.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "net/transport.h"

namespace aqua::obs {
class Counter;
}  // namespace aqua::obs

namespace aqua::net {

struct UdpTransportConfig {
  /// Interface address local endpoints bind (and are reachable at).
  std::string bind_address = "127.0.0.1";
  /// Ack + retransmit for lost datagrams. Off = fire-and-forget.
  bool reliable = true;
  /// First retransmit after this long without an ack.
  Duration retransmit_initial = msec(20);
  /// Each further retransmit multiplies the wait by this factor.
  double retransmit_backoff = 2.0;
  /// Total send attempts (first send included) before giving up and
  /// reporting the destination host dead.
  int max_attempts = 5;
  /// Longest retransmit-scan period. The scan runs every
  /// min(retransmit_tick, retransmit_initial / 4), and an ack no DATA
  /// frame has carried goes out alone at the first scan after that long.
  Duration retransmit_tick = msec(5);
  /// Per-(receiver, source) dedup state: keep at most `dedup_capacity`
  /// seen-seq entries; once exceeded, prune everything below max_seen -
  /// dedup_window and refuse those seqs outright from then on. Seqs are
  /// numbered across the whole transport, so the window is in that
  /// process-wide space.
  std::size_t dedup_capacity = 8192;
  std::uint64_t dedup_window = 4096;
};

class UdpTransport final : public Transport {
 public:
  explicit UdpTransport(UdpTransportConfig config = {});
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Bind a local endpoint on an ephemeral port.
  EndpointId create_endpoint(HostId host, ReceiveFn on_receive) override;

  /// Bind a local endpoint on an explicit port (0 = ephemeral). Throws
  /// std::runtime_error when the bind fails.
  EndpointId create_endpoint_on(HostId host, std::uint16_t port, ReceiveFn on_receive);

  /// Handle for a remote endpoint at address:port (usually another
  /// process). Idempotent per (address, port); each new peer is placed on
  /// its own auto-allocated host so liveness is tracked per peer.
  EndpointId register_peer(const std::string& address, std::uint16_t port);

  void destroy_endpoint(EndpointId endpoint) override;

  void unicast(EndpointId from, EndpointId to, Payload message) override;
  void multicast(EndpointId from, std::span<const EndpointId> to, Payload message) override;

  void subscribe_host_state(HostStateFn fn) override;
  [[nodiscard]] bool host_alive(HostId host) const override;
  [[nodiscard]] HostId endpoint_host(EndpointId endpoint) const override;
  [[nodiscard]] bool endpoint_exists(EndpointId endpoint) const override;

  void set_telemetry(obs::Telemetry* telemetry) override;

  [[nodiscard]] std::uint64_t messages_sent() const override {
    return sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t messages_delivered() const override {
    return delivered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t messages_dropped() const override {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Subset of messages_dropped(): datagrams the kernel dropped because
  /// a local endpoint's socket buffer was full (SO_RXQ_OVFL). The count
  /// arrives with the next datagram the socket queues.
  [[nodiscard]] std::uint64_t messages_queue_dropped() const {
    return queue_dropped_.load(std::memory_order_relaxed);
  }
  /// DATA frames re-sent by the reliability layer.
  [[nodiscard]] std::uint64_t messages_retransmitted() const {
    return retransmitted_.load(std::memory_order_relaxed);
  }
  /// Standalone ACK frames: acks no DATA frame carried in time.
  [[nodiscard]] std::uint64_t acks_sent() const {
    return acks_sent_.load(std::memory_order_relaxed);
  }
  /// DATA frames refused because their seq lay below the source's dedup
  /// prune floor: a replay of a pruned seq, or a first arrival that came
  /// later than dedup_window seqs behind the newest one. Acked but not
  /// delivered, and counted apart from plain duplicates (which are not
  /// counted at all) and from messages_dropped().
  [[nodiscard]] std::uint64_t messages_refused_below_floor() const {
    return refused_below_floor_.load(std::memory_order_relaxed);
  }

  /// Bound port of a local endpoint.
  [[nodiscard]] std::uint16_t endpoint_port(EndpointId endpoint) const;

  [[nodiscard]] const UdpTransportConfig& config() const { return config_; }

 private:
  struct LocalEndpoint;
  /// Handle for an (address, port) the kernel can reach but this process
  /// does not own.
  struct RemotePeer {
    HostId host;
    sockaddr_in addr{};
  };
  /// An (address, port) in network order, packed as address << 16 | port.
  using AddrKey = std::uint64_t;
  /// One timer scan's work, built under the locks and done after them.
  struct Scan;
  /// ACK frames built under an endpoint's mutex and sent after it.
  struct AckBatch;

  void receive_loop(LocalEndpoint* endpoint);
  /// Retransmits unacked DATA, reports give-ups, and sends the acks no
  /// DATA frame carried within ack_delay_.
  void timer_loop();
  /// Takes in the acks a received frame carries, owes the ack for a DATA
  /// frame, dedups it, then delivers its payload if fresh.
  void handle_frame(LocalEndpoint& endpoint, AddrKey source, std::span<const std::uint8_t> bytes);
  /// Adds the socket's newly reported kernel drops to the queue drops.
  void count_kernel_drops(LocalEndpoint& endpoint, msghdr& msg);
  /// The handle of `source` with its host marked alive, learning a new
  /// remote peer on first contact when `learn`; an invalid id for an
  /// unknown source otherwise.
  EndpointId note_alive(AddrKey source, bool learn);
  /// Whether the ack for a frame `from` sent to `to` may still be on its
  /// way inside this process, held up by a callback that blocks a local
  /// receiver; its give-up waits until it is not.
  [[nodiscard]] bool acks_may_be_behind(const LocalEndpoint& from, EndpointId to) const;
  /// Forgets the unacked frames of every local endpoint to `to`. When
  /// `to` was local (`victim`), those it never delivered are counted
  /// drops.
  void forget_pending_to(EndpointId to, const LocalEndpoint* victim);
  void send_acks(const AckBatch& acks);
  void send_datagram(EndpointId from, EndpointId to, const std::vector<std::uint8_t>* body);
  /// Caller holds members_ exclusively.
  EndpointId learn_peer_locked(AddrKey source);
  /// Caller holds members_ (either way).
  [[nodiscard]] HostId endpoint_host_locked(EndpointId endpoint) const;
  /// Caller holds members_ (either way). Returns false when `to` is
  /// neither local nor a known peer.
  bool find_destination_locked(EndpointId to, sockaddr_in& addr, HostId& host) const;
  /// Flip a host's liveness; returns the notifications to fire once the
  /// lock is released. Caller holds members_ exclusively.
  void set_host_alive_locked(HostId host, bool alive,
                             std::vector<std::pair<HostId, bool>>& notifications);
  void notify_host_state(const std::vector<std::pair<HostId, bool>>& notifications);
  void count_drop(std::uint64_t n = 1);
  std::shared_ptr<LocalEndpoint> detach_local(EndpointId endpoint);

  UdpTransportConfig config_;
  /// How long an owed ack may wait for a DATA frame to carry it, and
  /// the timer loop's period.
  Duration ack_delay_;

  mutable std::shared_mutex members_;
  IdGenerator<EndpointId> endpoint_ids_;
  IdGenerator<HostId> peer_hosts_{1'000'000};  // clear of caller-assigned hosts
  /// Values are shared so a sender can pin an endpoint's socket across
  /// its out-of-lock sendto; the fd closes with the last reference.
  std::unordered_map<EndpointId, std::shared_ptr<LocalEndpoint>> locals_;
  std::unordered_map<EndpointId, RemotePeer> remotes_;
  std::unordered_map<AddrKey, EndpointId> by_addr_;
  std::unordered_map<HostId, bool> host_alive_;
  std::vector<HostStateFn> host_state_subscribers_;
  /// Receiver threads of endpoints destroyed from their own callback:
  /// they cannot join themselves, so the destructor joins them.
  std::vector<std::thread> self_destroyed_;

  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> queue_dropped_{0};
  std::atomic<std::uint64_t> retransmitted_{0};
  std::atomic<std::uint64_t> acks_sent_{0};
  std::atomic<std::uint64_t> refused_below_floor_{0};

  /// Null unless telemetry is attached (one-branch discipline). Set
  /// before traffic flows; the counters themselves are thread-safe.
  obs::Counter* sent_counter_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* retransmit_counter_ = nullptr;
  obs::Counter* acks_sent_counter_ = nullptr;
  obs::Counter* refused_counter_ = nullptr;

  std::atomic<bool> stopping_{false};
  /// Wakes the timer loop out of its wait at shutdown.
  std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  std::thread timer_thread_;
};

}  // namespace aqua::net
