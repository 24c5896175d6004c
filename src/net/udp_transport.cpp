#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/assert.h"
#include "common/log.h"
#include "net/seq_dedup.h"
#include "net/wire.h"
#include "obs/telemetry.h"

namespace aqua::net {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kFrameMagic = 0x46445141;  // "AQDF" little-endian
// v2: the header carries a list of acked seqs (piggybacked acks), so a
// v1 frame is refused as a counted drop.
constexpr std::uint8_t kFrameVersion = 2;
constexpr std::uint8_t kFrameData = 1;
constexpr std::uint8_t kFrameAck = 2;
constexpr std::size_t kFrameFixedBytes = 4 + 1 + 1 + 8 + 1;
/// Acks one frame carries; more owed acks wait for the next frame.
constexpr std::size_t kMaxAcksPerFrame = 32;

void put_u32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

std::size_t frame_header_bytes(std::size_t acks) { return kFrameFixedBytes + 8 * acks; }

/// Writes frame_header_bytes(acks.size()) bytes.
void write_frame_header(std::uint8_t* out, std::uint8_t type, std::uint64_t seq,
                        std::span<const std::uint64_t> acks) {
  put_u32(out, kFrameMagic);
  out[4] = kFrameVersion;
  out[5] = type;
  put_u64(out + 6, seq);
  out[14] = static_cast<std::uint8_t>(acks.size());
  for (std::size_t i = 0; i < acks.size(); ++i) put_u64(out + kFrameFixedBytes + 8 * i, acks[i]);
}

/// Whether a datagram waits unread in the socket's receive queue.
bool has_unread(int fd) {
  int bytes = 0;
  return ::ioctl(fd, FIONREAD, &bytes) == 0 && bytes > 0;
}

std::uint64_t addr_key(const sockaddr_in& addr) {
  return static_cast<std::uint64_t>(addr.sin_addr.s_addr) << 16 | addr.sin_port;
}

sockaddr_in key_addr(std::uint64_t key) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = static_cast<std::uint32_t>(key >> 16);
  addr.sin_port = static_cast<std::uint16_t>(key);
  return addr;
}

void send_bytes(int fd, const std::uint8_t* bytes, std::size_t size, const sockaddr_in& addr) {
  (void)::sendto(fd, bytes, size, 0, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
}

}  // namespace

struct UdpTransport::LocalEndpoint {
  /// Seqs received from one peer and not yet acked, oldest first. The
  /// entry stays once the peer is known, empty while nothing is owed, so
  /// owing an ack allocates nothing.
  struct OwedAcks {
    std::vector<std::uint64_t> seqs;
    Clock::time_point since{};  // when the oldest was received

    /// Moves up to kMaxAcksPerFrame of the oldest seqs into `out`.
    void take(std::vector<std::uint64_t>& out) {
      const auto n = static_cast<std::ptrdiff_t>(std::min(seqs.size(), kMaxAcksPerFrame));
      out.assign(seqs.begin(), seqs.begin() + n);
      seqs.erase(seqs.begin(), seqs.begin() + n);
    }
  };
  /// One unacked DATA frame awaiting retransmit or give-up.
  struct Pending {
    std::uint64_t seq = 0;
    EndpointId to;
    HostId to_host;
    sockaddr_in addr{};
    /// Shared with a sender or the timer between its unlock and sendto.
    std::shared_ptr<std::uint8_t[]> frame;
    std::size_t size = 0;
    int attempts = 1;
    Clock::time_point next_resend{};
    Duration wait{};
  };
  /// A source's dedup state, reset when its handle changes (the handle
  /// was destroyed and the address learned afresh).
  struct Source {
    EndpointId from;
    SeqDedup seen;
  };

  HostId host{};
  ReceiveFn on_receive;
  int fd = -1;
  std::uint16_t port = 0;
  sockaddr_in bound{};
  std::atomic<bool> stopping{false};

  /// Guards owed_acks and pending. Taken after members_, never before.
  std::mutex mutex;
  std::unordered_map<AddrKey, OwedAcks> owed_acks;
  /// Ascending by seq: a seq is drawn under `mutex`, so frames append in
  /// order and an ack finds its frame by binary search.
  std::vector<Pending> pending;

  /// Receiver thread only, and whoever destroys the endpoint once that
  /// thread has stopped.
  std::unordered_map<AddrKey, Source> sources;
  /// The socket's cumulative kernel drop count last read (receiver only).
  std::uint32_t kernel_drops = 0;

  std::thread receiver;

  // The fd closes with the LAST reference, not at destroy_endpoint():
  // a sender thread that looked the endpoint up holds a shared_ptr
  // across its out-of-lock sendto, so the descriptor can never be
  // closed (or recycled by the kernel) under an in-flight send.
  ~LocalEndpoint() {
    if (fd >= 0) ::close(fd);
  }

  /// Whether `seq` was still unacked. Caller holds `mutex`.
  bool erase_pending(std::uint64_t seq) {
    auto it = std::lower_bound(pending.begin(), pending.end(), seq,
                               [](const Pending& p, std::uint64_t s) { return p.seq < s; });
    if (it == pending.end() || it->seq != seq) return false;
    pending.erase(it);
    return true;
  }

  /// Caller holds `mutex`.
  void owe_ack(AddrKey peer, std::uint64_t seq) {
    OwedAcks& owed = owed_acks[peer];
    if (owed.seqs.empty()) owed.since = Clock::now();
    owed.seqs.push_back(seq);
  }

  /// Caller holds `mutex`.
  [[nodiscard]] bool owes_ack_to(AddrKey peer) const {
    auto it = owed_acks.find(peer);
    return it != owed_acks.end() && !it->second.seqs.empty();
  }

  /// Whether this endpoint delivered (or refused below its floor) the
  /// frame `seq` from `source`. Only once its receiver has stopped, or
  /// on that thread.
  [[nodiscard]] bool delivered(AddrKey source, std::uint64_t seq) const {
    auto it = sources.find(source);
    return it != sources.end() && it->second.seen.admitted(seq);
  }
};

struct UdpTransport::AckBatch {
  struct Frame {
    const LocalEndpoint* src;
    sockaddr_in addr;
    std::size_t offset;
    std::size_t size;
  };
  std::vector<std::uint8_t> bytes;
  std::vector<Frame> frames;

  /// Moves the acks `endpoint` has owed a peer since `owed_since` or
  /// earlier into ACK frames. Caller holds the endpoint's mutex.
  void take(LocalEndpoint& endpoint, Clock::time_point owed_since) {
    for (auto& [peer, owed] : endpoint.owed_acks) {
      if (owed.seqs.empty() || owed.since > owed_since) continue;  // a DATA frame may carry them
      const sockaddr_in addr = key_addr(peer);
      while (!owed.seqs.empty()) {
        const std::size_t n = std::min(owed.seqs.size(), kMaxAcksPerFrame);
        const std::size_t offset = bytes.size();
        bytes.resize(offset + frame_header_bytes(n));
        write_frame_header(bytes.data() + offset, kFrameAck, 0, {owed.seqs.data(), n});
        owed.seqs.erase(owed.seqs.begin(), owed.seqs.begin() + static_cast<std::ptrdiff_t>(n));
        frames.push_back({&endpoint, addr, offset, frame_header_bytes(n)});
      }
    }
  }

  void clear() {
    bytes.clear();
    frames.clear();
  }
};

struct UdpTransport::Scan {
  struct Resend {
    const LocalEndpoint* src;
    sockaddr_in addr;
    std::shared_ptr<std::uint8_t[]> frame;
    std::size_t size;
  };
  struct GiveUp {
    LocalEndpoint* from;
    std::uint64_t seq;
    EndpointId to;
    HostId to_host;
  };
  /// Holds every scanned endpoint, and so its fd, until the scan's sends
  /// are done. The vectors keep their capacity from scan to scan.
  std::vector<std::shared_ptr<LocalEndpoint>> endpoints;
  std::vector<Resend> resends;
  std::vector<GiveUp> give_ups;
  std::vector<HostId> dead;
  AckBatch acks;

  void clear() {
    endpoints.clear();
    resends.clear();
    give_ups.clear();
    dead.clear();
    acks.clear();
  }
};

UdpTransport::UdpTransport(UdpTransportConfig config)
    : config_(std::move(config)),
      ack_delay_(std::min(config_.retransmit_tick, config_.retransmit_initial / 4)) {
  AQUA_REQUIRE(config_.max_attempts >= 1, "max attempts must be >= 1");
  AQUA_REQUIRE(config_.retransmit_backoff >= 1.0, "retransmit backoff must be >= 1");
  AQUA_REQUIRE(config_.retransmit_initial > Duration::zero(),
               "retransmit timeout must be positive");
  AQUA_REQUIRE(config_.retransmit_tick > Duration::zero(), "retransmit tick must be positive");
  AQUA_REQUIRE(config_.dedup_capacity >= 1, "dedup capacity must be >= 1");
  // Runs on unreliable transports too: a reliable peer still needs acks.
  timer_thread_ = std::thread([this] { timer_loop(); });
}

UdpTransport::~UdpTransport() {
  {
    // The lock pairs with the wait in timer_loop: without it, the flag
    // could flip between the loop's predicate check and its sleep, and
    // the notify would be lost for a full tick.
    std::lock_guard lock(timer_mutex_);
    stopping_.store(true);
  }
  timer_cv_.notify_all();
  timer_thread_.join();
  std::vector<EndpointId> local_ids;
  {
    std::shared_lock lock(members_);
    local_ids.reserve(locals_.size());
    for (const auto& [id, endpoint] : locals_) local_ids.push_back(id);
  }
  for (EndpointId id : local_ids) destroy_endpoint(id);
  std::vector<std::thread> self_destroyed;
  {
    std::unique_lock lock(members_);
    self_destroyed.swap(self_destroyed_);
  }
  for (std::thread& thread : self_destroyed) thread.join();
}

EndpointId UdpTransport::create_endpoint(HostId host, ReceiveFn on_receive) {
  return create_endpoint_on(host, 0, std::move(on_receive));
}

EndpointId UdpTransport::create_endpoint_on(HostId host, std::uint16_t port,
                                            ReceiveFn on_receive) {
  AQUA_REQUIRE(on_receive != nullptr, "endpoint receive callback must be callable");
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw std::runtime_error("udp: socket() failed");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("udp: bad bind address " + config_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("udp: cannot bind " + config_.bind_address + ":" +
                             std::to_string(port) + ": " + std::strerror(err));
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);

  // Every queued datagram then carries the socket's drop count.
  const int on = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_RXQ_OVFL, &on, sizeof on);

  auto endpoint = std::make_shared<LocalEndpoint>();
  endpoint->host = host;
  endpoint->on_receive = std::move(on_receive);
  endpoint->fd = fd;
  endpoint->port = ntohs(addr.sin_port);
  endpoint->bound = addr;

  std::unique_lock lock(members_);
  const EndpointId id = endpoint_ids_.next();
  by_addr_[addr_key(addr)] = id;
  host_alive_.try_emplace(host, true);
  // Started under the lock that destroy_endpoint reads `receiver` under.
  // The thread holds a reference, so an endpoint destroyed from its own
  // callback outlives the callback.
  endpoint->receiver = std::thread([this, endpoint] { receive_loop(endpoint.get()); });
  locals_.emplace(id, std::move(endpoint));
  return id;
}

EndpointId UdpTransport::register_peer(const std::string& address, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  AQUA_REQUIRE(::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) == 1,
               "peer address must be a dotted-quad IPv4 address");
  std::unique_lock lock(members_);
  const AddrKey key = addr_key(addr);
  if (auto it = by_addr_.find(key); it != by_addr_.end()) return it->second;
  return learn_peer_locked(key);
}

std::shared_ptr<UdpTransport::LocalEndpoint> UdpTransport::detach_local(EndpointId endpoint) {
  std::unique_lock lock(members_);
  auto it = locals_.find(endpoint);
  if (it == locals_.end()) return nullptr;
  std::shared_ptr<LocalEndpoint> victim = std::move(it->second);
  locals_.erase(it);
  by_addr_.erase(addr_key(victim->bound));
  // Called from the endpoint's own callback: the thread cannot join
  // itself, and no other callback of the endpoint can be running.
  if (victim->receiver.get_id() == std::this_thread::get_id()) {
    self_destroyed_.push_back(std::move(victim->receiver));
  }
  return victim;
}

void UdpTransport::destroy_endpoint(EndpointId endpoint) {
  if (std::shared_ptr<LocalEndpoint> victim = detach_local(endpoint)) {
    {
      // No sender can reach the endpoint any more: its unacked frames
      // are forgotten, never retransmitted or given up on.
      std::lock_guard lock(victim->mutex);
      victim->pending.clear();
    }
    victim->stopping.store(true);
    // Wakes a receiver blocked in recvmsg at once: reads of a read-shut
    // socket return empty. Linux does this for unconnected UDP sockets
    // too, though the call itself reports ENOTCONN.
    (void)::shutdown(victim->fd, SHUT_RD);
    // Waits out a callback in progress; not joinable when the callback
    // itself destroys its endpoint. The fd closes in ~LocalEndpoint, once
    // no receiver or sender holds the endpoint.
    if (victim->receiver.joinable()) victim->receiver.join();
    forget_pending_to(endpoint, victim.get());
    // No DATA frame of this endpoint will carry the acks it still owes,
    // and a peer left without them would retransmit into a closed socket
    // and presume this host dead.
    AckBatch acks;
    {
      std::lock_guard lock(victim->mutex);
      acks.take(*victim, Clock::time_point::max());
    }
    send_acks(acks);
    return;
  }
  {
    std::unique_lock lock(members_);
    auto it = remotes_.find(endpoint);
    if (it == remotes_.end()) return;
    by_addr_.erase(addr_key(it->second.addr));
    remotes_.erase(it);
  }
  forget_pending_to(endpoint, nullptr);
}

void UdpTransport::forget_pending_to(EndpointId to, const LocalEndpoint* victim) {
  std::uint64_t lost = 0;
  {
    std::shared_lock members(members_);
    for (const auto& [id, endpoint] : locals_) {
      const AddrKey source = addr_key(endpoint->bound);
      std::lock_guard lock(endpoint->mutex);
      std::erase_if(endpoint->pending, [&](const LocalEndpoint::Pending& pending) {
        if (pending.to != to) return false;
        if (victim != nullptr && !victim->delivered(source, pending.seq)) ++lost;
        return true;
      });
    }
  }
  if (lost != 0) count_drop(lost);
}

void UdpTransport::unicast(EndpointId from, EndpointId to, Payload message) {
  // Reused per thread: send_datagram copies the body into the frame.
  thread_local std::vector<std::uint8_t> body;
  const bool ok = encode_payload(message, body);
  send_datagram(from, to, ok ? &body : nullptr);
}

void UdpTransport::multicast(EndpointId from, std::span<const EndpointId> to, Payload message) {
  if (to.empty()) return;
  thread_local std::vector<std::uint8_t> body;
  const bool ok = encode_payload(message, body);
  // One independent datagram (own seq, own retransmit state) per member.
  for (EndpointId dst : to) send_datagram(from, dst, ok ? &body : nullptr);
}

void UdpTransport::send_datagram(EndpointId from, EndpointId to,
                                 const std::vector<std::uint8_t>* body) {
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (sent_counter_ != nullptr) sent_counter_->add();
  std::shared_ptr<LocalEndpoint> src;  // keeps the fd open across the sendto
  std::shared_ptr<std::uint8_t[]> frame;
  std::size_t size = 0;
  sockaddr_in dst{};
  {
    // Held until the frame is registered, so destroy_endpoint(to) either
    // precedes the lookup or sees the frame it must forget.
    std::shared_lock members(members_);
    auto from_it = locals_.find(from);
    HostId to_host{};
    // A sender destroyed with a reply in flight, an unknown destination,
    // or an unserializable body.
    if (from_it == locals_.end() || !find_destination_locked(to, dst, to_host) ||
        body == nullptr) {
      count_drop();
      return;
    }
    src = from_it->second;

    std::lock_guard lock(src->mutex);
    // The frame carries the acks this endpoint owes the destination.
    thread_local std::vector<std::uint64_t> acks;
    acks.clear();
    if (auto it = src->owed_acks.find(addr_key(dst)); it != src->owed_acks.end()) {
      it->second.take(acks);
    }
    const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::size_t header = frame_header_bytes(acks.size());
    size = header + body->size();
    frame = std::make_shared_for_overwrite<std::uint8_t[]>(size);
    write_frame_header(frame.get(), kFrameData, seq, acks);
    std::memcpy(frame.get() + header, body->data(), body->size());

    if (config_.reliable) {
      // Register the pending entry BEFORE the first transmission: on
      // loopback the ack can beat any bookkeeping done after sendto, and
      // a pending entry inserted late is an orphan the timer loop then
      // resends spuriously.
      LocalEndpoint::Pending& pending = src->pending.emplace_back();
      pending.seq = seq;
      pending.to = to;
      pending.to_host = to_host;
      pending.addr = dst;
      pending.frame = frame;
      pending.size = size;
      pending.wait = config_.retransmit_initial;
      pending.next_resend = Clock::now() + config_.retransmit_initial;
    }
  }
  send_bytes(src->fd, frame.get(), size, dst);
}

void UdpTransport::receive_loop(LocalEndpoint* endpoint) {
  std::vector<std::uint8_t> buf(65536);
  alignas(cmsghdr) std::array<char, CMSG_SPACE(sizeof(std::uint32_t))> control{};
  while (!endpoint->stopping.load(std::memory_order_relaxed)) {
    sockaddr_in src{};
    iovec iov{buf.data(), buf.size()};
    msghdr msg{};
    msg.msg_name = &src;
    msg.msg_namelen = sizeof src;
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control.data();
    msg.msg_controllen = control.size();
    // Blocks until a datagram arrives or destroy_endpoint shuts the
    // socket for reading (then empty reads, at once and from then on).
    const ssize_t n = ::recvmsg(endpoint->fd, &msg, 0);
    // EINTR, or destroyed.
    if (n < 0 || endpoint->stopping.load(std::memory_order_relaxed)) continue;
    count_kernel_drops(*endpoint, msg);
    if (n == 0) continue;  // an empty datagram
    handle_frame(*endpoint, addr_key(src), {buf.data(), static_cast<std::size_t>(n)});
  }
}

void UdpTransport::count_kernel_drops(LocalEndpoint& endpoint, msghdr& msg) {
  for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr; c = CMSG_NXTHDR(&msg, c)) {
    if (c->cmsg_level != SOL_SOCKET || c->cmsg_type != SO_RXQ_OVFL) continue;
    std::uint32_t total = 0;
    std::memcpy(&total, CMSG_DATA(c), sizeof total);
    const std::uint32_t fresh = total - endpoint.kernel_drops;  // wraps like the kernel's
    endpoint.kernel_drops = total;
    if (fresh != 0) {
      queue_dropped_.fetch_add(fresh, std::memory_order_relaxed);
      count_drop(fresh);
    }
  }
}

void UdpTransport::handle_frame(LocalEndpoint& endpoint, AddrKey source,
                                std::span<const std::uint8_t> bytes) {
  // Runts, foreign formats and other frame versions are counted drops.
  if (bytes.size() < kFrameFixedBytes || get_u32(bytes.data()) != kFrameMagic ||
      bytes[4] != kFrameVersion || bytes.size() < frame_header_bytes(bytes[14]) ||
      (bytes[5] != kFrameData && bytes[5] != kFrameAck)) {
    count_drop();
    return;
  }
  const std::size_t header = frame_header_bytes(bytes[14]);
  const bool data = bytes[5] == kFrameData;
  const std::uint64_t seq = get_u64(bytes.data() + 6);
  {
    // Acks return to the socket that sent the frame: this endpoint's.
    std::lock_guard lock(endpoint.mutex);
    for (std::size_t off = kFrameFixedBytes; off < header; off += 8) {
      endpoint.erase_pending(get_u64(bytes.data() + off));
    }
    // Owe the ack, duplicates included: a lost ack is repaired by
    // acking the retransmit.
    if (data) endpoint.owe_ack(source, seq);
  }
  const EndpointId from = note_alive(source, /*learn=*/data);
  if (!data) return;

  auto it = endpoint.sources.find(source);
  if (it == endpoint.sources.end() || it->second.from != from) {
    SeqDedup fresh{config_.dedup_capacity, config_.dedup_window};
    it = endpoint.sources.insert_or_assign(source, LocalEndpoint::Source{from, std::move(fresh)})
             .first;
  }
  switch (it->second.seen.admit(seq)) {
    case SeqDedup::Verdict::kFresh:
      break;
    case SeqDedup::Verdict::kDuplicate:
      return;
    case SeqDedup::Verdict::kBelowFloor:
      refused_below_floor_.fetch_add(1, std::memory_order_relaxed);
      if (refused_counter_ != nullptr) refused_counter_->add();
      return;
  }

  std::optional<Payload> payload = decode_payload(bytes.subspan(header));
  if (!payload.has_value()) {  // foreign version or corrupt datagram
    count_drop();
    return;
  }
  delivered_.fetch_add(1, std::memory_order_relaxed);
  if (delivered_counter_ != nullptr) delivered_counter_->add();
  endpoint.on_receive(from, *payload);
}

EndpointId UdpTransport::note_alive(AddrKey source, bool learn) {
  {
    std::shared_lock lock(members_);
    auto it = by_addr_.find(source);
    if (it == by_addr_.end()) {
      if (!learn) return EndpointId{};
    } else if (auto alive = host_alive_.find(endpoint_host_locked(it->second));
               alive == host_alive_.end() || alive->second) {
      return it->second;
    }
  }
  // A new peer, or a host presumed dead that is heard from again.
  std::vector<std::pair<HostId, bool>> notifications;
  EndpointId id{};
  {
    std::unique_lock lock(members_);
    if (auto it = by_addr_.find(source); it != by_addr_.end()) {
      id = it->second;
    } else if (learn) {
      id = learn_peer_locked(source);
    } else {
      return EndpointId{};
    }
    set_host_alive_locked(endpoint_host_locked(id), true, notifications);
  }
  notify_host_state(notifications);
  return id;
}

void UdpTransport::send_acks(const AckBatch& acks) {
  for (const AckBatch::Frame& ack : acks.frames) {
    acks_sent_.fetch_add(1, std::memory_order_relaxed);
    if (acks_sent_counter_ != nullptr) acks_sent_counter_->add();
    send_bytes(ack.src->fd, acks.bytes.data() + ack.offset, ack.size, ack.addr);
  }
}

bool UdpTransport::acks_may_be_behind(const LocalEndpoint& from, EndpointId to) const {
  // A callback that blocks a local receiver leaves its socket unread:
  // the sender's, where the ack may wait, or a local destination's, where
  // the frame may wait. A local destination that has read the frame owes
  // the ack until its next ACK frame or DATA frame to the sender.
  if (has_unread(from.fd)) return true;
  std::shared_lock members(members_);
  auto to_it = locals_.find(to);
  if (to_it == locals_.end()) return false;
  LocalEndpoint& dest = *to_it->second;
  if (has_unread(dest.fd)) return true;
  std::lock_guard lock(dest.mutex);
  return dest.owes_ack_to(addr_key(from.bound));
}

void UdpTransport::timer_loop() {
  Scan scan;
  while (true) {
    {
      std::shared_lock members(members_);
      for (const auto& [id, endpoint] : locals_) scan.endpoints.push_back(endpoint);
    }
    const auto now = Clock::now();
    // Due frames: resend, or judge below once the budget is spent.
    for (const std::shared_ptr<LocalEndpoint>& endpoint : scan.endpoints) {
      std::lock_guard lock(endpoint->mutex);
      for (LocalEndpoint::Pending& pending : endpoint->pending) {
        if (now < pending.next_resend) continue;
        if (pending.attempts >= config_.max_attempts) {
          scan.give_ups.push_back({endpoint.get(), pending.seq, pending.to, pending.to_host});
          continue;
        }
        ++pending.attempts;
        scan.resends.push_back({endpoint.get(), pending.addr, pending.frame, pending.size});
        pending.wait = Duration{static_cast<std::int64_t>(std::llround(
            static_cast<double>(count_us(pending.wait)) * config_.retransmit_backoff))};
        pending.next_resend = now + pending.wait;
      }
    }
    // Every give-up check precedes the ack sweep: an ack the sweep takes
    // is no longer owed, and a check after it would miss it.
    for (const Scan::GiveUp& give_up : scan.give_ups) {
      if (acks_may_be_behind(*give_up.from, give_up.to)) continue;  // judged at a later scan
      {
        std::lock_guard lock(give_up.from->mutex);
        if (!give_up.from->erase_pending(give_up.seq)) continue;  // acked meanwhile
      }
      // Retransmit budget exhausted: the datagram is lost for good and
      // the destination is presumed dead — the same liveness signal a
      // crashed host raises on the simulated Lan.
      count_drop();
      scan.dead.push_back(give_up.to_host);
    }
    // Acks no DATA frame carried in time go out alone.
    for (const std::shared_ptr<LocalEndpoint>& endpoint : scan.endpoints) {
      std::lock_guard lock(endpoint->mutex);
      scan.acks.take(*endpoint, now - ack_delay_);
    }
    for (const Scan::Resend& resend : scan.resends) {
      retransmitted_.fetch_add(1, std::memory_order_relaxed);
      if (retransmit_counter_ != nullptr) retransmit_counter_->add();
      send_bytes(resend.src->fd, resend.frame.get(), resend.size, resend.addr);
    }
    send_acks(scan.acks);
    if (!scan.dead.empty()) {
      std::vector<std::pair<HostId, bool>> notifications;
      {
        std::unique_lock members(members_);
        for (HostId host : scan.dead) set_host_alive_locked(host, false, notifications);
      }
      notify_host_state(notifications);
    }
    // Drops the scan's endpoint references now, so the socket of one
    // destroyed meanwhile closes at once, not a tick later.
    scan.clear();

    // Waking every ack_delay_ sends an owed ack within 2 x ack_delay_ <=
    // retransmit_initial / 2, before its frame's first retransmit.
    std::unique_lock lock(timer_mutex_);
    if (timer_cv_.wait_for(lock, ack_delay_,
                           [this] { return stopping_.load(std::memory_order_relaxed); })) {
      return;
    }
  }
}

EndpointId UdpTransport::learn_peer_locked(AddrKey source) {
  const EndpointId id = endpoint_ids_.next();
  const HostId host = peer_hosts_.next();
  remotes_.emplace(id, RemotePeer{host, key_addr(source)});
  by_addr_[source] = id;
  host_alive_.try_emplace(host, true);
  return id;
}

HostId UdpTransport::endpoint_host_locked(EndpointId endpoint) const {
  if (auto it = locals_.find(endpoint); it != locals_.end()) return it->second->host;
  auto it = remotes_.find(endpoint);
  AQUA_REQUIRE(it != remotes_.end(), "unknown endpoint");
  return it->second.host;
}

bool UdpTransport::find_destination_locked(EndpointId to, sockaddr_in& addr, HostId& host) const {
  if (auto it = locals_.find(to); it != locals_.end()) {
    addr = it->second->bound;
    host = it->second->host;
    return true;
  }
  if (auto it = remotes_.find(to); it != remotes_.end()) {
    addr = it->second.addr;
    host = it->second.host;
    return true;
  }
  return false;
}

void UdpTransport::set_host_alive_locked(HostId host, bool alive,
                                         std::vector<std::pair<HostId, bool>>& notifications) {
  auto it = host_alive_.try_emplace(host, true).first;
  if (it->second == alive) return;
  it->second = alive;
  notifications.emplace_back(host, alive);
}

void UdpTransport::notify_host_state(
    const std::vector<std::pair<HostId, bool>>& notifications) {
  if (notifications.empty()) return;
  std::vector<HostStateFn> subscribers;
  {
    std::shared_lock lock(members_);
    subscribers = host_state_subscribers_;
  }
  for (const auto& [host, alive] : notifications) {
    AQUA_LOG_DEBUG << "udp: host " << host << (alive ? " alive" : " presumed dead");
    for (const HostStateFn& fn : subscribers) fn(host, alive);
  }
}

void UdpTransport::count_drop(std::uint64_t n) {
  dropped_.fetch_add(n, std::memory_order_relaxed);
  if (dropped_counter_ != nullptr) dropped_counter_->add(n);
}

void UdpTransport::subscribe_host_state(HostStateFn fn) {
  AQUA_REQUIRE(fn != nullptr, "host-state callback must be callable");
  std::unique_lock lock(members_);
  host_state_subscribers_.push_back(std::move(fn));
}

bool UdpTransport::host_alive(HostId host) const {
  std::shared_lock lock(members_);
  auto it = host_alive_.find(host);
  return it == host_alive_.end() ? true : it->second;
}

HostId UdpTransport::endpoint_host(EndpointId endpoint) const {
  std::shared_lock lock(members_);
  return endpoint_host_locked(endpoint);
}

bool UdpTransport::endpoint_exists(EndpointId endpoint) const {
  std::shared_lock lock(members_);
  return locals_.contains(endpoint) || remotes_.contains(endpoint);
}

void UdpTransport::set_telemetry(obs::Telemetry* telemetry) {
  std::unique_lock lock(members_);
  if (telemetry == nullptr) {
    sent_counter_ = nullptr;
    delivered_counter_ = nullptr;
    dropped_counter_ = nullptr;
    retransmit_counter_ = nullptr;
    acks_sent_counter_ = nullptr;
    refused_counter_ = nullptr;
    return;
  }
  auto& metrics = telemetry->metrics();
  sent_counter_ = &metrics.counter("lan.sent");
  delivered_counter_ = &metrics.counter("lan.delivered");
  dropped_counter_ = &metrics.counter("lan.dropped");
  retransmit_counter_ = &metrics.counter("lan.retransmits");
  acks_sent_counter_ = &metrics.counter("lan.acks_sent");
  refused_counter_ = &metrics.counter("lan.dedup_floor_refused");
}

std::uint16_t UdpTransport::endpoint_port(EndpointId endpoint) const {
  std::shared_lock lock(members_);
  auto it = locals_.find(endpoint);
  AQUA_REQUIRE(it != locals_.end(), "endpoint_port needs a local endpoint");
  return it->second->port;
}

}  // namespace aqua::net
