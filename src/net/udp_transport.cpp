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
#include "net/wire.h"
#include "obs/telemetry.h"

namespace aqua::net {
namespace {

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

}  // namespace

struct UdpTransport::LocalEndpoint {
  /// Seqs received from one peer and not yet acked, oldest first. An
  /// entry exists only while it owes something.
  struct OwedAcks {
    std::vector<std::uint64_t> seqs;
    std::chrono::steady_clock::time_point since{};  // when the oldest was received

    /// Moves up to kMaxAcksPerFrame of the oldest seqs into `out`.
    void take(std::vector<std::uint64_t>& out) {
      const auto n = static_cast<std::ptrdiff_t>(std::min(seqs.size(), kMaxAcksPerFrame));
      out.assign(seqs.begin(), seqs.begin() + n);
      seqs.erase(seqs.begin(), seqs.begin() + n);
    }
  };

  HostId host{};
  ReceiveFn on_receive;
  int fd = -1;
  std::uint16_t port = 0;
  sockaddr_in bound{};
  std::atomic<bool> stopping{false};
  /// Guarded by the transport's mutex_.
  std::map<AddrKey, OwedAcks> owed_acks;
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
};

struct UdpTransport::Outgoing {
  std::shared_ptr<LocalEndpoint> src;  // keeps the fd open across the sendto
  sockaddr_in addr{};
  std::shared_ptr<const std::vector<std::uint8_t>> frame;
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
    std::lock_guard lock(mutex_);
    local_ids.reserve(locals_.size());
    for (const auto& [id, endpoint] : locals_) local_ids.push_back(id);
  }
  for (EndpointId id : local_ids) destroy_endpoint(id);
  std::vector<std::thread> self_destroyed;
  {
    std::lock_guard lock(mutex_);
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

  std::lock_guard lock(mutex_);
  const EndpointId id = endpoint_ids_.next();
  by_addr_[{addr.sin_addr.s_addr, addr.sin_port}] = id;
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
  std::lock_guard lock(mutex_);
  const AddrKey key{addr.sin_addr.s_addr, addr.sin_port};
  if (auto it = by_addr_.find(key); it != by_addr_.end()) return it->second;
  const EndpointId id = endpoint_ids_.next();
  const HostId host = peer_hosts_.next();
  remotes_.emplace(id, RemotePeer{host, addr});
  by_addr_[key] = id;
  host_alive_.try_emplace(host, true);
  return id;
}

std::shared_ptr<UdpTransport::LocalEndpoint> UdpTransport::detach_local(EndpointId endpoint) {
  std::lock_guard lock(mutex_);
  auto it = locals_.find(endpoint);
  if (it == locals_.end()) return nullptr;
  std::shared_ptr<LocalEndpoint> victim = std::move(it->second);
  locals_.erase(it);
  by_addr_.erase({victim->bound.sin_addr.s_addr, victim->bound.sin_port});
  dedup_.erase(endpoint);
  std::erase_if(pending_, [endpoint](const auto& entry) {
    return entry.second.from == endpoint || entry.second.to == endpoint;
  });
  // Called from the endpoint's own callback: the thread cannot join
  // itself, and no other callback of the endpoint can be running.
  if (victim->receiver.get_id() == std::this_thread::get_id()) {
    self_destroyed_.push_back(std::move(victim->receiver));
  }
  return victim;
}

void UdpTransport::destroy_endpoint(EndpointId endpoint) {
  if (std::shared_ptr<LocalEndpoint> victim = detach_local(endpoint)) {
    victim->stopping.store(true);
    // Wakes a receiver blocked in recvmsg at once: reads of a read-shut
    // socket return empty. Linux does this for unconnected UDP sockets
    // too, though the call itself reports ENOTCONN.
    (void)::shutdown(victim->fd, SHUT_RD);
    // Waits out a callback in progress; not joinable when the callback
    // itself destroys its endpoint. The fd closes in ~LocalEndpoint, once
    // no receiver or sender holds the endpoint.
    if (victim->receiver.joinable()) victim->receiver.join();
    // No DATA frame of this endpoint will carry the acks it still owes,
    // and a peer left without them would retransmit into a closed socket
    // and presume this host dead.
    std::vector<Outgoing> acks;
    {
      std::lock_guard lock(mutex_);
      take_ack_frames_locked(victim, std::chrono::steady_clock::time_point::max(), acks);
    }
    send_acks(acks);
    return;
  }
  std::lock_guard lock(mutex_);
  auto it = remotes_.find(endpoint);
  if (it == remotes_.end()) return;
  by_addr_.erase({it->second.addr.sin_addr.s_addr, it->second.addr.sin_port});
  dedup_.erase(endpoint);
  std::erase_if(pending_,
                [endpoint](const auto& entry) { return entry.second.to == endpoint; });
  remotes_.erase(it);
}

void UdpTransport::unicast(EndpointId from, EndpointId to, Payload message) {
  auto encoded = std::make_shared<std::vector<std::uint8_t>>();
  const bool ok = encode_payload(message, *encoded);
  send_datagram(from, to, ok ? std::shared_ptr<const std::vector<std::uint8_t>>{encoded}
                             : nullptr);
}

void UdpTransport::multicast(EndpointId from, std::span<const EndpointId> to, Payload message) {
  if (to.empty()) return;
  auto encoded = std::make_shared<std::vector<std::uint8_t>>();
  const bool ok = encode_payload(message, *encoded);
  const std::shared_ptr<const std::vector<std::uint8_t>> shared =
      ok ? encoded : std::shared_ptr<const std::vector<std::uint8_t>>{};
  // One independent datagram (own seq, own retransmit state) per member.
  for (EndpointId dst : to) send_datagram(from, dst, shared);
}

void UdpTransport::send_datagram(
    EndpointId from, EndpointId to,
    const std::shared_ptr<const std::vector<std::uint8_t>>& encoded) {
  sent_.fetch_add(1, std::memory_order_relaxed);
  if (sent_counter_ != nullptr) sent_counter_->add();
  std::shared_ptr<LocalEndpoint> src;  // keeps the fd open across the sendto
  std::shared_ptr<std::vector<std::uint8_t>> frame;
  sockaddr_in dst{};
  {
    std::lock_guard lock(mutex_);
    auto from_it = locals_.find(from);
    if (from_it == locals_.end()) {  // sender destroyed with a reply in flight
      count_drop();
      return;
    }
    src = from_it->second;
    HostId to_host{};
    if (auto local_it = locals_.find(to); local_it != locals_.end()) {
      dst = local_it->second->bound;
      to_host = local_it->second->host;
    } else if (auto remote_it = remotes_.find(to); remote_it != remotes_.end()) {
      dst = remote_it->second.addr;
      to_host = remote_it->second.host;
    } else {
      count_drop();
      return;
    }
    if (encoded == nullptr) {  // unserializable body
      count_drop();
      return;
    }

    // The frame carries the acks this endpoint owes the destination.
    thread_local std::vector<std::uint64_t> acks;
    acks.clear();
    if (auto it = src->owed_acks.find({dst.sin_addr.s_addr, dst.sin_port});
        it != src->owed_acks.end()) {
      it->second.take(acks);
      if (it->second.seqs.empty()) src->owed_acks.erase(it);
    }
    const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::size_t header = frame_header_bytes(acks.size());
    frame = std::make_shared<std::vector<std::uint8_t>>(header + encoded->size());
    write_frame_header(frame->data(), kFrameData, seq, acks);
    std::memcpy(frame->data() + header, encoded->data(), encoded->size());

    if (config_.reliable) {
      // Register the pending entry BEFORE the first transmission: on
      // loopback the ack can beat any bookkeeping done after sendto, and
      // a pending entry inserted late is an orphan the timer loop then
      // resends spuriously.
      const auto now = std::chrono::steady_clock::now();
      Pending pending;
      pending.from = from;
      pending.to = to;
      pending.to_host = to_host;
      pending.addr = dst;
      pending.frame = frame;
      pending.wait = config_.retransmit_initial;
      pending.next_resend = now + config_.retransmit_initial;
      pending_.emplace(seq, std::move(pending));
    }
  }
  (void)::sendto(src->fd, frame->data(), frame->size(), 0,
                 reinterpret_cast<const sockaddr*>(&dst), sizeof dst);
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
    count_kernel_drops(endpoint, msg);
    if (n == 0) continue;  // an empty datagram
    handle_frame(endpoint, {src.sin_addr.s_addr, src.sin_port},
                 {buf.data(), static_cast<std::size_t>(n)});
  }
}

void UdpTransport::count_kernel_drops(LocalEndpoint* endpoint, msghdr& msg) {
  for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr; c = CMSG_NXTHDR(&msg, c)) {
    if (c->cmsg_level != SOL_SOCKET || c->cmsg_type != SO_RXQ_OVFL) continue;
    std::uint32_t total = 0;
    std::memcpy(&total, CMSG_DATA(c), sizeof total);
    const std::uint32_t fresh = total - endpoint->kernel_drops;  // wraps like the kernel's
    endpoint->kernel_drops = total;
    if (fresh != 0) {
      queue_dropped_.fetch_add(fresh, std::memory_order_relaxed);
      count_drop(fresh);
    }
  }
}

void UdpTransport::handle_frame(LocalEndpoint* endpoint, const AddrKey& source,
                                std::span<const std::uint8_t> bytes) {
  // Runts, foreign formats and other frame versions are counted drops.
  if (bytes.size() < kFrameFixedBytes || get_u32(bytes.data()) != kFrameMagic ||
      bytes[4] != kFrameVersion || bytes.size() < frame_header_bytes(bytes[14]) ||
      (bytes[5] != kFrameData && bytes[5] != kFrameAck)) {
    count_drop();
    return;
  }
  const std::size_t header = frame_header_bytes(bytes[14]);
  EndpointId from{};
  bool fresh = false;
  std::vector<std::pair<HostId, bool>> notifications;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t off = kFrameFixedBytes; off < header; off += 8) {
      pending_.erase(get_u64(bytes.data() + off));
    }
    if (bytes[5] == kFrameAck) {
      if (auto it = by_addr_.find(source); it != by_addr_.end()) {
        set_host_alive_locked(endpoint_host_locked(it->second), true, notifications);
      }
    } else {
      const std::uint64_t seq = get_u64(bytes.data() + 6);
      from = lookup_or_learn_locked(source);
      set_host_alive_locked(endpoint_host_locked(from), true, notifications);
      // Owe the ack, duplicates included: a lost ack is repaired by
      // acking the retransmit.
      auto [owed, first] = endpoint->owed_acks.try_emplace(source);
      if (first) owed->second.since = std::chrono::steady_clock::now();
      owed->second.seqs.push_back(seq);
      Dedup& dedup = dedup_[from];
      // Anything below the prune floor was already delivered once (its
      // entry just aged out of `seen`), so a straggler retransmit down
      // there must be refused without consulting the set.
      fresh = seq >= dedup.floor && dedup.seen.insert(seq).second;
      if (fresh) {
        dedup.max_seen = std::max(dedup.max_seen, seq);
        if (dedup.seen.size() > config_.dedup_capacity &&
            dedup.max_seen > config_.dedup_window) {
          dedup.floor = std::max(dedup.floor, dedup.max_seen - config_.dedup_window);
          const std::uint64_t floor = dedup.floor;
          std::erase_if(dedup.seen, [floor](std::uint64_t s) { return s < floor; });
        }
      }
    }
  }
  notify_host_state(notifications);
  if (!fresh) return;  // an ACK frame, or a duplicate

  std::optional<Payload> payload = decode_payload(bytes.subspan(header));
  if (!payload.has_value()) {  // foreign version or corrupt datagram
    count_drop();
    return;
  }
  delivered_.fetch_add(1, std::memory_order_relaxed);
  if (delivered_counter_ != nullptr) delivered_counter_->add();
  endpoint->on_receive(from, *payload);
}

void UdpTransport::take_ack_frames_locked(const std::shared_ptr<LocalEndpoint>& endpoint,
                                          std::chrono::steady_clock::time_point owed_since,
                                          std::vector<Outgoing>& out) {
  std::vector<std::uint64_t> batch;
  for (auto it = endpoint->owed_acks.begin(); it != endpoint->owed_acks.end();) {
    LocalEndpoint::OwedAcks& owed = it->second;
    if (owed.since > owed_since) {  // a DATA frame may still carry them
      ++it;
      continue;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = it->first.first;
    addr.sin_port = it->first.second;
    while (!owed.seqs.empty()) {
      owed.take(batch);
      auto frame = std::make_shared<std::vector<std::uint8_t>>(frame_header_bytes(batch.size()));
      write_frame_header(frame->data(), kFrameAck, 0, batch);
      out.push_back({endpoint, addr, std::move(frame)});
    }
    it = endpoint->owed_acks.erase(it);
  }
}

void UdpTransport::send_acks(const std::vector<Outgoing>& acks) {
  for (const Outgoing& ack : acks) {
    acks_sent_.fetch_add(1, std::memory_order_relaxed);
    if (acks_sent_counter_ != nullptr) acks_sent_counter_->add();
    (void)::sendto(ack.src->fd, ack.frame->data(), ack.frame->size(), 0,
                   reinterpret_cast<const sockaddr*>(&ack.addr), sizeof ack.addr);
  }
}

bool UdpTransport::acks_may_be_behind_locked(const Pending& pending,
                                             const LocalEndpoint& from) const {
  // A callback that blocks a local receiver leaves its socket unread:
  // the sender's, where the ack may wait, or a local destination's, where
  // the frame may wait. A local destination that has read the frame owes
  // the ack until its next ACK frame or DATA frame to the sender.
  if (has_unread(from.fd)) return true;
  auto to_it = locals_.find(pending.to);
  if (to_it == locals_.end()) return false;
  const LocalEndpoint& to = *to_it->second;
  return has_unread(to.fd) ||
         to.owed_acks.contains({from.bound.sin_addr.s_addr, from.bound.sin_port});
}

void UdpTransport::timer_loop() {
  std::vector<Outgoing> resends;
  std::vector<Outgoing> acks;
  while (true) {
    resends.clear();
    acks.clear();
    std::vector<std::pair<HostId, bool>> notifications;
    {
      std::lock_guard lock(mutex_);
      const auto now = std::chrono::steady_clock::now();
      for (auto it = pending_.begin(); it != pending_.end();) {
        Pending& pending = it->second;
        if (now < pending.next_resend) {
          ++it;
          continue;
        }
        auto from_it = locals_.find(pending.from);
        if (from_it == locals_.end()) {  // sender endpoint gone: forget the packet
          it = pending_.erase(it);
          continue;
        }
        if (pending.attempts >= config_.max_attempts) {
          if (acks_may_be_behind_locked(pending, *from_it->second)) {  // judged at a later scan
            ++it;
            continue;
          }
          // Retransmit budget exhausted: the datagram is lost for good
          // and the destination is presumed dead — the same liveness
          // signal a crashed host raises on the simulated Lan.
          count_drop();
          set_host_alive_locked(pending.to_host, false, notifications);
          it = pending_.erase(it);
          continue;
        }
        ++pending.attempts;
        resends.push_back({from_it->second, pending.addr, pending.frame});
        pending.wait = Duration{static_cast<std::int64_t>(
            std::llround(static_cast<double>(count_us(pending.wait)) *
                         config_.retransmit_backoff))};
        pending.next_resend = now + pending.wait;
        ++it;
      }
      // Acks no DATA frame carried in time go out alone.
      for (const auto& [id, endpoint] : locals_) {
        take_ack_frames_locked(endpoint, now - ack_delay_, acks);
      }
    }
    for (const Outgoing& resend : resends) {
      retransmitted_.fetch_add(1, std::memory_order_relaxed);
      if (retransmit_counter_ != nullptr) retransmit_counter_->add();
      (void)::sendto(resend.src->fd, resend.frame->data(), resend.frame->size(), 0,
                     reinterpret_cast<const sockaddr*>(&resend.addr), sizeof resend.addr);
    }
    send_acks(acks);
    notify_host_state(notifications);

    // Waking every ack_delay_ sends an owed ack within 2 x ack_delay_ <=
    // retransmit_initial / 2, before its frame's first retransmit.
    std::unique_lock lock(timer_mutex_);
    if (timer_cv_.wait_for(lock, ack_delay_,
                           [this] { return stopping_.load(std::memory_order_relaxed); })) {
      return;
    }
  }
}

EndpointId UdpTransport::lookup_or_learn_locked(const AddrKey& source) {
  if (auto it = by_addr_.find(source); it != by_addr_.end()) return it->second;
  const EndpointId id = endpoint_ids_.next();
  const HostId host = peer_hosts_.next();
  RemotePeer peer;
  peer.host = host;
  peer.addr.sin_family = AF_INET;
  peer.addr.sin_addr.s_addr = source.first;
  peer.addr.sin_port = source.second;
  remotes_.emplace(id, peer);
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
    std::lock_guard lock(mutex_);
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
  std::lock_guard lock(mutex_);
  host_state_subscribers_.push_back(std::move(fn));
}

bool UdpTransport::host_alive(HostId host) const {
  std::lock_guard lock(mutex_);
  auto it = host_alive_.find(host);
  return it == host_alive_.end() ? true : it->second;
}

HostId UdpTransport::endpoint_host(EndpointId endpoint) const {
  std::lock_guard lock(mutex_);
  return endpoint_host_locked(endpoint);
}

bool UdpTransport::endpoint_exists(EndpointId endpoint) const {
  std::lock_guard lock(mutex_);
  return locals_.contains(endpoint) || remotes_.contains(endpoint);
}

void UdpTransport::set_telemetry(obs::Telemetry* telemetry) {
  std::lock_guard lock(mutex_);
  if (telemetry == nullptr) {
    sent_counter_ = nullptr;
    delivered_counter_ = nullptr;
    dropped_counter_ = nullptr;
    retransmit_counter_ = nullptr;
    acks_sent_counter_ = nullptr;
    return;
  }
  auto& metrics = telemetry->metrics();
  sent_counter_ = &metrics.counter("lan.sent");
  delivered_counter_ = &metrics.counter("lan.delivered");
  dropped_counter_ = &metrics.counter("lan.dropped");
  retransmit_counter_ = &metrics.counter("lan.retransmits");
  acks_sent_counter_ = &metrics.counter("lan.acks_sent");
}

std::uint16_t UdpTransport::endpoint_port(EndpointId endpoint) const {
  std::lock_guard lock(mutex_);
  auto it = locals_.find(endpoint);
  AQUA_REQUIRE(it != locals_.end(), "endpoint_port needs a local endpoint");
  return it->second->port;
}

}  // namespace aqua::net
