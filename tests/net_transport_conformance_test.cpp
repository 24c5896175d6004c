// Transport conformance: the behaviour every net::Transport backend must
// share, run against the simulated Lan, the real-socket UdpTransport and
// the threaded runtime's in-process LocalTransport — delivery, multicast
// fan-out payload integrity, drop accounting for destroyed endpoints, and
// the host-liveness signal. The backend-specific contracts ride along:
// FIFO-per-pair ordering (sim only — UDP makes no ordering promise),
// SpanContext surviving the UDP wire format (the sim hands payloads
// across by pointer, so only the socket backend actually marshals it),
// and, on both threaded backends, destroy_endpoint waiting out a
// delivery in progress but not a callback destroying its own endpoint.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>

#include "net/lan.h"
#include "net/udp_transport.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "proto/messages.h"
#include "runtime/local_transport.h"
#include "sim/simulator.h"

namespace aqua::net {
namespace {

/// Fast-failure UDP config so give-up tests finish in milliseconds.
UdpTransportConfig fast_udp() {
  UdpTransportConfig cfg;
  cfg.retransmit_initial = msec(3);
  cfg.retransmit_backoff = 1.5;
  cfg.max_attempts = 3;
  cfg.retransmit_tick = msec(1);
  return cfg;
}

LanConfig quiet_lan() {
  LanConfig cfg;
  cfg.jitter_sigma = 0.0;
  return cfg;
}

/// Spin until `pred` holds or ~5s pass (real-time backends only).
bool wait_for(const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Thread-safe inbox shared by a delivery thread and the test.
struct Inbox {
  std::mutex mutex;
  std::vector<std::pair<EndpointId, std::string>> messages;

  ReceiveFn sink() {
    return [this](EndpointId from, const Payload& message) {
      const std::string* body = message.get_if<std::string>();
      std::lock_guard lock(mutex);
      messages.emplace_back(from, body != nullptr ? *body : std::string{"<non-string>"});
    };
  }
  std::size_t size() {
    std::lock_guard lock(mutex);
    return messages.size();
  }
  std::vector<std::pair<EndpointId, std::string>> snapshot() {
    std::lock_guard lock(mutex);
    return messages;
  }
};

// ---------------------------------------------------------------------------
// Shared conformance checks, parameterised on backend + flush strategy.
// `flush(n)` blocks until at least n messages should have arrived: the sim
// runs its event loop to quiescence, UDP polls the inbox.
// ---------------------------------------------------------------------------

void check_unicast_delivery(Transport& transport, Inbox& inbox,
                            const std::function<void(std::size_t)>& flush) {
  const EndpointId a = transport.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  const EndpointId b = transport.create_endpoint(HostId{2}, inbox.sink());
  transport.unicast(a, b, Payload::make(std::string{"ping"}, 64));
  flush(1);
  const auto messages = inbox.snapshot();
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0].first, a);
  EXPECT_EQ(messages[0].second, "ping");
  EXPECT_EQ(transport.messages_delivered(), 1u);
  EXPECT_EQ(transport.messages_dropped(), 0u);
}

void check_multicast_integrity(Transport& transport, const std::function<void(std::size_t)>& flush) {
  const EndpointId sender =
      transport.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  constexpr std::size_t kFanout = 4;
  std::vector<Inbox> inboxes(kFanout);
  std::vector<EndpointId> members;
  for (std::size_t i = 0; i < kFanout; ++i) {
    members.push_back(
        transport.create_endpoint(HostId{10 + static_cast<std::uint64_t>(i)}, inboxes[i].sink()));
  }
  // The payload is moved into the LAST delivery (Lan's zero-copy path);
  // every member, including the last, must still see the full body.
  const std::string body(300, 'q');
  transport.multicast(sender, members, Payload::make(body, 512));
  flush(kFanout);
  for (std::size_t i = 0; i < kFanout; ++i) {
    const auto messages = inboxes[i].snapshot();
    ASSERT_EQ(messages.size(), 1u) << "member " << i;
    EXPECT_EQ(messages[0].second, body) << "member " << i;
    EXPECT_EQ(messages[0].first, sender);
  }
  EXPECT_EQ(transport.messages_sent(), kFanout);
  EXPECT_EQ(transport.messages_delivered(), kFanout);
}

void check_destroyed_endpoint_drops(Transport& transport,
                                    const std::function<void(std::size_t)>& flush) {
  const EndpointId a = transport.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  Inbox inbox;
  const EndpointId b = transport.create_endpoint(HostId{2}, inbox.sink());
  transport.destroy_endpoint(b);
  EXPECT_FALSE(transport.endpoint_exists(b));
  transport.unicast(a, b, Payload::make(std::string{"into the void"}, 64));
  flush(0);
  EXPECT_GE(transport.messages_dropped(), 1u);
  EXPECT_EQ(inbox.size(), 0u);
}

// ThreadedClient::shutdown relies on this: once destroy_endpoint returns,
// no callback of the endpoint is running, even one that was already in
// flight when it was called.
void check_destroy_waits_for_blocked_callback(Transport& transport) {
  const EndpointId a = transport.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  std::mutex gate;
  gate.lock();
  std::atomic<bool> entered{false};
  std::atomic<bool> finished{false};
  const EndpointId b = transport.create_endpoint(HostId{2}, [&](EndpointId, const Payload&) {
    entered.store(true);
    gate.lock();  // parked until the test releases it
    gate.unlock();
    finished.store(true);
  });
  transport.unicast(a, b, Payload::make(std::string{"stuck"}, 64));
  ASSERT_TRUE(wait_for([&] { return entered.load(); }));

  std::atomic<bool> destroyed{false};
  std::thread destroyer([&] {
    transport.destroy_endpoint(b);
    // Read before publishing: the callback must be done by now.
    EXPECT_TRUE(finished.load());
    destroyed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(destroyed.load());  // still waiting on the parked callback
  EXPECT_FALSE(transport.endpoint_exists(b));
  gate.unlock();
  destroyer.join();
  EXPECT_TRUE(destroyed.load());
  // Let a callback that destroy_endpoint failed to wait for finish
  // before the locals it touches go away.
  EXPECT_TRUE(wait_for([&] { return finished.load(); }));
}

void check_callback_destroying_its_own_endpoint(Transport& transport) {
  const EndpointId a = transport.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  std::atomic<bool> returned{false};
  EndpointId self{};
  self = transport.create_endpoint(HostId{2}, [&](EndpointId, const Payload&) {
    transport.destroy_endpoint(self);
    returned.store(true);
  });
  transport.unicast(a, self, Payload::make(std::string{"bye"}, 64));
  ASSERT_TRUE(wait_for([&] { return returned.load(); }));
  EXPECT_FALSE(transport.endpoint_exists(self));

  // The transport still serves other endpoints.
  Inbox inbox;
  const EndpointId c = transport.create_endpoint(HostId{3}, inbox.sink());
  transport.unicast(a, c, Payload::make(std::string{"still here"}, 64));
  ASSERT_TRUE(wait_for([&] { return inbox.size() == 1; }));
}

// ---------------------------------------------------------------------------
// Simulated Lan backend
// ---------------------------------------------------------------------------

class SimConformance : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  std::function<void(std::size_t)> flush() {
    return [this](std::size_t) { sim_.run(); };
  }
};

TEST_F(SimConformance, UnicastDelivery) {
  Lan lan{sim_, Rng{1}, quiet_lan()};
  Inbox inbox;
  check_unicast_delivery(lan, inbox, flush());
}

TEST_F(SimConformance, MulticastFanoutPreservesPayload) {
  Lan lan{sim_, Rng{1}, quiet_lan()};
  check_multicast_integrity(lan, flush());
}

TEST_F(SimConformance, DestroyedEndpointIsACountedDrop) {
  Lan lan{sim_, Rng{1}, quiet_lan()};
  check_destroyed_endpoint_drops(lan, flush());
}

TEST_F(SimConformance, DeadHostDropsTrafficAndNotifies) {
  Lan lan{sim_, Rng{1}, quiet_lan()};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  Inbox inbox;
  const EndpointId b = lan.create_endpoint(HostId{2}, inbox.sink());
  std::vector<std::pair<HostId, bool>> transitions;
  lan.subscribe_host_state(
      [&](HostId host, bool alive) { transitions.emplace_back(host, alive); });

  lan.set_host_alive(HostId{2}, false);
  EXPECT_FALSE(lan.host_alive(HostId{2}));
  lan.unicast(a, b, Payload::make(std::string{"lost"}, 64));
  sim_.run();
  EXPECT_EQ(inbox.size(), 0u);
  EXPECT_GE(lan.messages_dropped(), 1u);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0], (std::pair<HostId, bool>{HostId{2}, false}));
}

TEST_F(SimConformance, FifoPerPairNeverReorders) {
  LanConfig cfg;
  cfg.jitter_sigma = 0.9;  // heavy jitter: raw delays would reorder
  cfg.fifo_per_pair = true;
  Lan lan{sim_, Rng{7}, cfg};
  const EndpointId a = lan.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  Inbox inbox;
  const EndpointId b = lan.create_endpoint(HostId{2}, inbox.sink());
  constexpr int kCount = 32;
  for (int i = 0; i < kCount; ++i) {
    lan.unicast(a, b, Payload::make(std::to_string(i), 64));
  }
  sim_.run();
  const auto messages = inbox.snapshot();
  ASSERT_EQ(messages.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(messages[static_cast<std::size_t>(i)].second, std::to_string(i));
}

TEST_F(SimConformance, ChunkedRequestReplyRoundTrip) {
  // Coded dispatch sends n distinct chunk-requests and matches replies by
  // (chunk, code_id); a transport must carry both fields intact.
  Lan lan{sim_, Rng{1}, quiet_lan()};
  std::vector<proto::Reply> replies;
  const EndpointId client = lan.create_endpoint(HostId{1}, [&](EndpointId, const Payload& m) {
    if (const auto* reply = m.get_if<proto::Reply>()) replies.push_back(*reply);
  });
  EndpointId replica{};
  replica = lan.create_endpoint(HostId{2}, [&](EndpointId from, const Payload& m) {
    const auto* request = m.get_if<proto::Request>();
    ASSERT_NE(request, nullptr);
    EXPECT_EQ(request->code_k, 2u);
    proto::Reply reply;
    reply.request = request->id;
    reply.replica = ReplicaId{2};
    reply.method = request->method;
    reply.chunk = request->chunk;
    reply.code_id = request->code_id;
    lan.unicast(replica, from, Payload::make(reply, proto::kReplyBytes));
  });

  for (std::uint32_t chunk = 0; chunk < 3; ++chunk) {
    proto::Request request;
    request.id = RequestId{500};
    request.client = ClientId{1};
    request.method = "invoke";
    request.chunk = chunk;
    request.code_k = 2;
    request.code_id = 77;
    lan.unicast(client, replica, Payload::make(request, proto::kRequestBytes));
  }
  sim_.run();

  ASSERT_EQ(replies.size(), 3u);
  std::vector<std::uint32_t> chunks;
  for (const proto::Reply& reply : replies) {
    EXPECT_EQ(reply.code_id, 77u);
    chunks.push_back(reply.chunk);
  }
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks, (std::vector<std::uint32_t>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// UDP socket backend
// ---------------------------------------------------------------------------

class UdpConformance : public ::testing::Test {
 protected:
  std::function<void(std::size_t)> flush(Inbox& inbox) {
    return [&inbox](std::size_t at_least) {
      if (at_least == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return;
      }
      ASSERT_TRUE(wait_for([&] { return inbox.size() >= at_least; }));
    };
  }
};

TEST_F(UdpConformance, UnicastDelivery) {
  UdpTransport udp{fast_udp()};
  Inbox inbox;
  check_unicast_delivery(udp, inbox, flush(inbox));
}

TEST_F(UdpConformance, MulticastFanoutPreservesPayload) {
  UdpTransport udp{fast_udp()};
  // Flush by total delivered count: each member has its own inbox.
  check_multicast_integrity(udp, [&](std::size_t at_least) {
    ASSERT_TRUE(wait_for([&] { return udp.messages_delivered() >= at_least; }));
  });
}

TEST_F(UdpConformance, DestroyedEndpointIsACountedDrop) {
  UdpTransport udp{fast_udp()};
  check_destroyed_endpoint_drops(udp, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
}

TEST_F(UdpConformance, SilentPeerIsReportedDeadAfterRetransmitBudget) {
  // Declared before the transport, so its retransmit thread can never
  // call the subscriber below after they are gone.
  std::mutex mutex;
  std::vector<std::pair<HostId, bool>> transitions;
  UdpTransport udp{fast_udp()};
  const EndpointId a = udp.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});

  // Bind-then-destroy reserves a port with no listener behind it: sends
  // reach the kernel but nothing ever acks.
  const EndpointId ghost = udp.create_endpoint(HostId{99}, [](EndpointId, const Payload&) {});
  const std::uint16_t dead_port = udp.endpoint_port(ghost);
  udp.destroy_endpoint(ghost);
  const EndpointId peer = udp.register_peer("127.0.0.1", dead_port);
  const HostId peer_host = udp.endpoint_host(peer);
  EXPECT_TRUE(udp.host_alive(peer_host));

  udp.subscribe_host_state([&](HostId host, bool alive) {
    std::lock_guard lock(mutex);
    transitions.emplace_back(host, alive);
  });

  udp.unicast(a, peer, Payload::make(std::string{"anyone there?"}, 64));
  ASSERT_TRUE(wait_for([&] { return !udp.host_alive(peer_host); }));
  EXPECT_GE(udp.messages_dropped(), 1u);
  EXPECT_GE(udp.messages_retransmitted(), 1u);
  // Subscribers hear of the flip after the transport releases its lock,
  // so the transition may land a moment after host_alive reads false.
  ASSERT_TRUE(wait_for([&] {
    std::lock_guard lock(mutex);
    return !transitions.empty();
  }));
  std::lock_guard lock(mutex);
  EXPECT_EQ(transitions.back(), (std::pair<HostId, bool>{peer_host, false}));
}

TEST_F(UdpConformance, SpanContextSurvivesTheWire) {
  UdpTransport udp{fast_udp()};
  const EndpointId a = udp.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  std::mutex mutex;
  std::vector<obs::SpanContext> spans;
  const EndpointId b = udp.create_endpoint(HostId{2}, [&](EndpointId, const Payload& message) {
    std::lock_guard lock(mutex);
    spans.push_back(message.span());
  });

  Payload payload = Payload::make(std::string{"traced"}, 64);
  obs::SpanContext ctx;
  ctx.trace_id = 0xABCDEF0123456789ULL;
  ctx.parent_span_id = 42;
  ctx.leg = obs::SpanKind::kRequestLeg;
  ctx.replica = ReplicaId{5};
  payload.set_span(ctx);
  udp.unicast(a, b, std::move(payload));

  ASSERT_TRUE(wait_for([&] {
    std::lock_guard lock(mutex);
    return !spans.empty();
  }));
  std::lock_guard lock(mutex);
  ASSERT_TRUE(spans[0].valid());
  EXPECT_EQ(spans[0].trace_id, ctx.trace_id);
  EXPECT_EQ(spans[0].parent_span_id, ctx.parent_span_id);
  EXPECT_EQ(spans[0].leg, ctx.leg);
  EXPECT_EQ(spans[0].replica, ctx.replica);
}

TEST_F(UdpConformance, ChunkedRequestReplySurvivesTheWire) {
  // Unlike the sim (pointer handoff), UDP marshals through the v2 wire
  // format — this is the end-to-end check that chunk index, code k, and
  // the generation tag survive real datagrams in both directions.
  UdpTransport udp{fast_udp()};
  std::mutex mutex;
  std::vector<proto::Request> seen_requests;
  std::vector<proto::Reply> seen_replies;
  EndpointId requester_seen{};
  const EndpointId client = udp.create_endpoint(HostId{1}, [&](EndpointId, const Payload& m) {
    if (const auto* reply = m.get_if<proto::Reply>()) {
      std::lock_guard lock(mutex);
      seen_replies.push_back(*reply);
    }
  });
  const EndpointId replica = udp.create_endpoint(HostId{2}, [&](EndpointId from, const Payload& m) {
    if (const auto* request = m.get_if<proto::Request>()) {
      std::lock_guard lock(mutex);
      seen_requests.push_back(*request);
      requester_seen = from;
    }
  });

  for (std::uint32_t chunk = 0; chunk < 3; ++chunk) {
    proto::Request request;
    request.id = RequestId{501};
    request.client = ClientId{1};
    request.method = "invoke";
    request.chunk = chunk;
    request.code_k = 2;
    request.code_id = 0xC0DE1DULL;
    udp.unicast(client, replica, Payload::make(request, proto::kRequestBytes));
  }
  ASSERT_TRUE(wait_for([&] {
    std::lock_guard lock(mutex);
    return seen_requests.size() >= 3;
  }));

  // Echo each chunk back from the main thread (the replica sink does
  // not send from inside its delivery callback).
  std::vector<proto::Request> requests;
  {
    std::lock_guard lock(mutex);
    requests = seen_requests;
    EXPECT_EQ(requester_seen, client);
  }
  for (const proto::Request& request : requests) {
    EXPECT_EQ(request.code_k, 2u);
    proto::Reply reply;
    reply.request = request.id;
    reply.replica = ReplicaId{2};
    reply.method = request.method;
    reply.chunk = request.chunk;
    reply.code_id = request.code_id;
    udp.unicast(replica, client, Payload::make(reply, proto::kReplyBytes));
  }
  ASSERT_TRUE(wait_for([&] {
    std::lock_guard lock(mutex);
    return seen_replies.size() >= 3;
  }));

  std::lock_guard lock(mutex);
  std::vector<std::uint32_t> chunks;
  for (const proto::Reply& reply : seen_replies) {
    EXPECT_EQ(reply.code_id, 0xC0DE1DULL);
    chunks.push_back(reply.chunk);
  }
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks, (std::vector<std::uint32_t>{0, 1, 2}));
}

/// The kernel's default socket receive buffer, in bytes.
int default_receive_buffer() {
  std::ifstream in{"/proc/sys/net/core/rmem_default"};
  int bytes = 0;
  return (in >> bytes) && bytes > 0 ? bytes : 212992;
}

TEST_F(UdpConformance, InboxOverflowIsACountedQueueDrop) {
  UdpTransportConfig cfg = fast_udp();
  cfg.reliable = false;  // no retransmits: each overflow is a clean drop
  UdpTransport udp{cfg};
  const EndpointId a = udp.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});

  // Park the receiver inside the first callback: its socket buffer is
  // the endpoint's queue, and it must overflow while we keep sending.
  std::mutex gate;
  gate.lock();
  std::atomic<int> received{0};
  const EndpointId b = udp.create_endpoint(HostId{2}, [&](EndpointId, const Payload&) {
    if (received.fetch_add(1) == 0) {
      gate.lock();  // parked until the test releases it
      gate.unlock();
    }
  });
  udp.unicast(a, b, Payload::make(std::string{"first"}, 64));
  ASSERT_TRUE(wait_for([&] { return received.load() == 1; }));
  // Every queued datagram costs the buffer far more than 64 bytes of
  // kernel memory, so this many must overflow it.
  const int sends = std::max(2048, default_receive_buffer() / 64);
  for (int i = 0; i < sends; ++i) {
    udp.unicast(a, b, Payload::make(std::to_string(i), 64));
  }
  gate.unlock();
  // The kernel reports its drop count with the next datagram it queues,
  // so keep probing until one lands after the backlog has drained.
  std::uint64_t sent = 1 + static_cast<std::uint64_t>(sends);
  ASSERT_TRUE(wait_for([&] {
    if (udp.messages_delivered() + udp.messages_queue_dropped() >= sent) return true;
    udp.unicast(a, b, Payload::make(std::string{"probe"}, 64));
    ++sent;
    return false;
  }));
  EXPECT_GE(udp.messages_queue_dropped(), 1u);
  EXPECT_EQ(udp.messages_delivered() + udp.messages_queue_dropped(), sent);
  EXPECT_EQ(udp.messages_dropped(), udp.messages_queue_dropped());
}

TEST_F(UdpConformance, AnAckNoDataFrameCarriesGoesOutAloneWithinTheAckDelay) {
  // b never sends DATA back to a, so its ack for a's frame must go out in
  // an ACK frame of its own, after min(tick, retransmit_initial / 4) =
  // 5 ms here: well before the first retransmit, and not a tick later.
  UdpTransportConfig cfg;
  cfg.retransmit_initial = msec(20);
  cfg.retransmit_tick = sec(30);
  UdpTransport udp{cfg};
  const EndpointId a = udp.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  Inbox inbox;
  const EndpointId b = udp.create_endpoint(HostId{2}, inbox.sink());
  udp.unicast(a, b, Payload::make(std::string{"no reply"}, 64));
  ASSERT_TRUE(wait_for([&] { return udp.acks_sent() == 1; }));
  EXPECT_EQ(inbox.size(), 1u);
  EXPECT_EQ(udp.messages_retransmitted(), 0u);
}

TEST_F(UdpConformance, ParkedCallbackDoesNotMakeALivePeerLookDead) {
  // A callback parked far past the retransmit budget (~95 ms here) leaves
  // its receiver's socket unread. For a's own DATA the ack waits there;
  // for b's DATA to parked c the frame itself does. Neither is a dead
  // peer.
  UdpTransportConfig cfg;
  cfg.retransmit_initial = msec(20);
  cfg.retransmit_backoff = 1.5;
  cfg.max_attempts = 3;
  // Declared before the transport, so no callback outlives them.
  std::mutex mutex;
  std::vector<std::pair<HostId, bool>> transitions;
  std::mutex gate;
  gate.lock();
  std::atomic<int> parked{0};
  const auto park = [&](EndpointId, const Payload&) {
    parked.fetch_add(1);
    gate.lock();
    gate.unlock();
  };
  Inbox inbox;
  UdpTransport udp{cfg};
  udp.subscribe_host_state([&](HostId host, bool alive) {
    std::lock_guard lock(mutex);
    transitions.emplace_back(host, alive);
  });
  const EndpointId a = udp.create_endpoint(HostId{1}, park);
  const EndpointId b = udp.create_endpoint(HostId{2}, inbox.sink());
  const EndpointId c = udp.create_endpoint(HostId{3}, park);

  udp.unicast(b, a, Payload::make(std::string{"park a"}, 64));
  udp.unicast(b, c, Payload::make(std::string{"park c"}, 64));
  ASSERT_TRUE(wait_for([&] { return parked.load() == 2; }));
  udp.unicast(a, b, Payload::make(std::string{"from parked a"}, 64));
  udp.unicast(b, c, Payload::make(std::string{"to parked c"}, 64));
  ASSERT_TRUE(wait_for([&] { return inbox.size() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(udp.messages_dropped(), 0u);

  gate.unlock();
  ASSERT_TRUE(wait_for([&] { return parked.load() == 3; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(udp.messages_dropped(), 0u);
  std::lock_guard lock(mutex);
  EXPECT_TRUE(transitions.empty());
}

TEST_F(UdpConformance, DestroySendsTheAcksItStillOwes) {
  // Two transports stand for two processes. b's ack delay (500 ms) is far
  // longer than a's whole retransmit budget (100 ms), so only the acks
  // destroy_endpoint sends keep a from presuming b's host dead.
  UdpTransportConfig patient;
  patient.retransmit_initial = sec(2);
  patient.retransmit_tick = sec(30);
  UdpTransportConfig strict;
  strict.retransmit_initial = msec(100);
  strict.max_attempts = 1;
  Inbox inbox;
  UdpTransport near{strict};
  UdpTransport far{patient};
  const EndpointId b = far.create_endpoint(HostId{2}, inbox.sink());
  const EndpointId a = near.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  const EndpointId b_peer = near.register_peer("127.0.0.1", far.endpoint_port(b));

  near.unicast(a, b_peer, Payload::make(std::string{"last words"}, 64));
  ASSERT_TRUE(wait_for([&] { return inbox.size() == 1; }));
  far.destroy_endpoint(b);
  EXPECT_EQ(far.acks_sent(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_TRUE(near.host_alive(near.endpoint_host(b_peer)));
  EXPECT_EQ(near.messages_dropped(), 0u);
}

TEST_F(UdpConformance, DestroyWaitsForACallbackBlockedMidDelivery) {
  UdpTransport udp{fast_udp()};
  check_destroy_waits_for_blocked_callback(udp);
}

TEST_F(UdpConformance, CallbackDestroyingItsOwnEndpointReturns) {
  UdpTransport udp{fast_udp()};
  check_callback_destroying_its_own_endpoint(udp);
}

TEST_F(UdpConformance, DestroyingAnIdleEndpointIsPrompt) {
  // The receiver blocks in recvmsg with no timeout; destroy must wake it
  // rather than wait for traffic or a poll interval. The median of a few
  // endpoints keeps one descheduled thread from failing the run.
  UdpTransport udp{fast_udp()};
  std::vector<std::chrono::steady_clock::duration> took;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const EndpointId idle = udp.create_endpoint(HostId{1 + i}, [](EndpointId, const Payload&) {});
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // parked in recvmsg by now
    const auto start = std::chrono::steady_clock::now();
    udp.destroy_endpoint(idle);
    took.push_back(std::chrono::steady_clock::now() - start);
    EXPECT_FALSE(udp.endpoint_exists(idle));
  }
  std::sort(took.begin(), took.end());
  EXPECT_LT(took[took.size() / 2], std::chrono::milliseconds(5));
}

// ---------------------------------------------------------------------------
// In-process LocalTransport backend (threaded runtime)
// ---------------------------------------------------------------------------

class LocalConformance : public ::testing::Test {
 protected:
  runtime::LocalTransport local_{runtime::NetDelayModel{}, Rng{1}};

  std::function<void(std::size_t)> flush(Inbox& inbox) {
    return [&inbox](std::size_t at_least) {
      if (at_least == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return;
      }
      ASSERT_TRUE(wait_for([&] { return inbox.size() >= at_least; }));
    };
  }
};

TEST_F(LocalConformance, UnicastDelivery) {
  obs::Telemetry telemetry;
  local_.set_telemetry(&telemetry);
  Inbox inbox;
  check_unicast_delivery(local_, inbox, flush(inbox));
  EXPECT_EQ(telemetry.metrics().counter("lan.sent").value(), 1u);
  EXPECT_EQ(telemetry.metrics().counter("lan.delivered").value(), 1u);
  local_.set_telemetry(nullptr);
}

TEST_F(LocalConformance, MulticastFanoutPreservesPayload) {
  check_multicast_integrity(local_, [this](std::size_t at_least) {
    ASSERT_TRUE(wait_for([&] { return local_.messages_delivered() >= at_least; }));
  });
}

TEST_F(LocalConformance, MulticastCopiesShareOneBody) {
  // Nothing is marshalled in process: every member sees the same body
  // object, and only the envelope is copied per destination.
  const EndpointId sender = local_.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  std::mutex mutex;
  std::vector<const std::string*> bodies;
  std::vector<EndpointId> members;
  for (std::uint64_t i = 0; i < 3; ++i) {
    members.push_back(local_.create_endpoint(HostId{10 + i}, [&](EndpointId, const Payload& m) {
      std::lock_guard lock(mutex);
      bodies.push_back(m.get_if<std::string>());
    }));
  }
  // The test keeps a copy, so the body outlives the deliveries.
  const Payload payload = Payload::make(std::string(300, 'q'), 512);
  local_.multicast(sender, members, payload);
  ASSERT_TRUE(wait_for([&] {
    std::lock_guard lock(mutex);
    return bodies.size() == members.size();
  }));
  std::lock_guard lock(mutex);
  for (const std::string* body : bodies) EXPECT_EQ(body, payload.get_if<std::string>());
}

TEST_F(LocalConformance, DestroyedEndpointIsACountedDrop) {
  Inbox inbox;
  check_destroyed_endpoint_drops(local_, flush(inbox));
}

TEST_F(LocalConformance, SpanContextIsCarriedOnThePayload) {
  const EndpointId a = local_.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
  std::mutex mutex;
  std::vector<obs::SpanContext> spans;
  const EndpointId b = local_.create_endpoint(HostId{2}, [&](EndpointId, const Payload& message) {
    std::lock_guard lock(mutex);
    spans.push_back(message.span());
  });

  Payload payload = Payload::make(std::string{"traced"}, 64);
  obs::SpanContext ctx;
  ctx.trace_id = 0xABCDEF0123456789ULL;
  ctx.parent_span_id = 42;
  ctx.leg = obs::SpanKind::kRequestLeg;
  ctx.replica = ReplicaId{5};
  payload.set_span(ctx);
  local_.unicast(a, b, std::move(payload));

  ASSERT_TRUE(wait_for([&] {
    std::lock_guard lock(mutex);
    return !spans.empty();
  }));
  std::lock_guard lock(mutex);
  EXPECT_EQ(spans[0].trace_id, ctx.trace_id);
  EXPECT_EQ(spans[0].parent_span_id, ctx.parent_span_id);
  EXPECT_EQ(spans[0].leg, ctx.leg);
  EXPECT_EQ(spans[0].replica, ctx.replica);
}

TEST_F(LocalConformance, ChunkedRequestReplyRoundTrip) {
  // The replica side answers from inside its callback, as ThreadedReplica
  // answers a Subscribe: sends from the delivery thread must not block.
  std::mutex mutex;
  std::vector<proto::Reply> replies;
  const EndpointId client = local_.create_endpoint(HostId{1}, [&](EndpointId, const Payload& m) {
    if (const auto* reply = m.get_if<proto::Reply>()) {
      std::lock_guard lock(mutex);
      replies.push_back(*reply);
    }
  });
  EndpointId replica{};
  replica = local_.create_endpoint(HostId{2}, [&](EndpointId from, const Payload& m) {
    const auto* request = m.get_if<proto::Request>();
    ASSERT_NE(request, nullptr);
    EXPECT_EQ(request->code_k, 2u);
    proto::Reply reply;
    reply.request = request->id;
    reply.replica = ReplicaId{2};
    reply.method = request->method;
    reply.chunk = request->chunk;
    reply.code_id = request->code_id;
    local_.unicast(replica, from, Payload::make(reply, proto::kReplyBytes));
  });

  for (std::uint32_t chunk = 0; chunk < 3; ++chunk) {
    proto::Request request;
    request.id = RequestId{502};
    request.client = ClientId{1};
    request.method = "invoke";
    request.chunk = chunk;
    request.code_k = 2;
    request.code_id = 78;
    local_.unicast(client, replica, Payload::make(request, proto::kRequestBytes));
  }
  ASSERT_TRUE(wait_for([&] {
    std::lock_guard lock(mutex);
    return replies.size() >= 3;
  }));

  std::lock_guard lock(mutex);
  std::vector<std::uint32_t> chunks;
  for (const proto::Reply& reply : replies) {
    EXPECT_EQ(reply.code_id, 78u);
    chunks.push_back(reply.chunk);
  }
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST_F(LocalConformance, DestroyWaitsForACallbackBlockedMidDelivery) {
  check_destroy_waits_for_blocked_callback(local_);
}

TEST_F(LocalConformance, CallbackDestroyingItsOwnEndpointReturns) {
  check_callback_destroying_its_own_endpoint(local_);
}

}  // namespace
}  // namespace aqua::net
