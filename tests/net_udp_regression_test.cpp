// Regression tests for two UdpTransport defects, and the frame version:
//
//  1. Shutdown latency: the retransmit loop used to sleep a full
//     retransmit_tick between scans, so destroying the transport blocked
//     for up to one tick. The loop now waits on a condition variable the
//     destructor signals; teardown must be prompt even with a huge tick.
//
//  2. Dedup prune floor: pruning the per-source seen-set used to ERASE
//     old sequence numbers outright, so a straggler retransmit of an
//     evicted sequence was re-accepted and delivered twice. Sequences
//     below the prune floor must be refused without consulting the set.
//
//  3. Frame version: a frame of another version (v1 had no ack list) is
//     refused as a counted drop, never parsed as the current layout.
#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/payload.h"
#include "net/wire.h"

namespace aqua::net {
namespace {

using Clock = std::chrono::steady_clock;

// AQDF data-frame header, mirrored from the transport's wire layout:
// [u32 magic "AQDF"][u8 version][u8 type][u64 seq][u8 n][n x u64 acked
// seq]. Version 1 had no ack list: its header ended after the seq.
constexpr std::uint32_t kMagic = 0x46445141;
constexpr std::uint8_t kVersion = 2;
constexpr std::uint8_t kTypeData = 1;

std::vector<std::uint8_t> make_data_frame(std::uint64_t seq, std::uint8_t version = kVersion) {
  std::vector<std::uint8_t> body;
  EXPECT_TRUE(encode_payload(Payload::make(std::string{"ping"}, 16), body));
  const std::size_t header = version == 1 ? 14 : 15;  // v2: an empty ack list
  std::vector<std::uint8_t> frame(header + body.size());
  for (std::size_t i = 0; i < 4; ++i) frame[i] = static_cast<std::uint8_t>(kMagic >> (8 * i));
  frame[4] = version;
  frame[5] = kTypeData;
  for (std::size_t i = 0; i < 8; ++i) frame[6 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  std::memcpy(frame.data() + header, body.data(), body.size());
  return frame;
}

/// A raw loopback socket: one stable (address, port) source, full control
/// over the sequence numbers it emits.
class RawSender {
 public:
  RawSender() {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  }
  ~RawSender() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_seq(std::uint16_t dest_port, std::uint64_t seq, std::uint8_t version = kVersion) {
    const std::vector<std::uint8_t> frame = make_data_frame(seq, version);
    sockaddr_in dest{};
    dest.sin_family = AF_INET;
    dest.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
    dest.sin_port = ::htons(dest_port);
    EXPECT_EQ(::sendto(fd_, frame.data(), frame.size(), 0,
                       reinterpret_cast<const sockaddr*>(&dest), sizeof dest),
              static_cast<ssize_t>(frame.size()));
  }

 private:
  int fd_ = -1;
};

bool wait_for_count(const std::atomic<std::size_t>& counter, std::size_t expected) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (Clock::now() < deadline) {
    if (counter.load() >= expected) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return counter.load() >= expected;
}

TEST(UdpRegressionTest, DestructionIsPromptDespiteHugeRetransmitTick) {
  const auto start = Clock::now();
  {
    UdpTransportConfig cfg;
    cfg.retransmit_tick = sec(30);  // pre-fix: teardown slept this long
    UdpTransport udp{cfg};
    const EndpointId a = udp.create_endpoint(HostId{1}, [](EndpointId, const Payload&) {});
    // An unackable peer keeps a retransmit pending, so the loop is
    // genuinely mid-cycle when the destructor runs.
    const EndpointId ghost_bind = udp.create_endpoint(HostId{2}, [](EndpointId, const Payload&) {});
    const std::uint16_t dead_port = udp.endpoint_port(ghost_bind);
    udp.destroy_endpoint(ghost_bind);
    const EndpointId ghost = udp.register_peer("127.0.0.1", dead_port);
    udp.unicast(a, ghost, Payload::make(std::string{"hello"}, 16));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const auto elapsed = Clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(UdpRegressionTest, DedupFloorRefusesReplayOfEvictedSequences) {
  UdpTransportConfig cfg;
  cfg.dedup_capacity = 4;
  cfg.dedup_window = 4;
  UdpTransport udp{cfg};
  std::atomic<std::size_t> delivered{0};
  const EndpointId sink =
      udp.create_endpoint(HostId{1}, [&](EndpointId, const Payload&) { delivered.fetch_add(1); });
  const std::uint16_t port = udp.endpoint_port(sink);

  RawSender sender;
  // 1..9 from one source: the seen-set overflows capacity 4, the prune
  // floor advances to max_seen - window = 5, and 1..4 age out of the set.
  for (std::uint64_t seq = 1; seq <= 9; ++seq) sender.send_seq(port, seq);
  ASSERT_TRUE(wait_for_count(delivered, 9));
  EXPECT_EQ(delivered.load(), 9u);

  // A straggler retransmit of an evicted sequence (3 < floor). Pre-fix
  // the erased entry made this look fresh and it was delivered again.
  sender.send_seq(port, 3);
  // A retransmit of a sequence still in the set: plain duplicate.
  sender.send_seq(port, 9);
  // A fresh sequence proves the path is still live (and flushes any
  // wrongly re-accepted straggler ahead of it into `delivered`).
  sender.send_seq(port, 10);
  ASSERT_TRUE(wait_for_count(delivered, 10));
  // Let any wrongly re-accepted straggler drain before counting.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Exactly one new delivery: the replays were refused.
  EXPECT_EQ(delivered.load(), 10u);

  udp.destroy_endpoint(sink);
}

TEST(UdpRegressionTest, VersionOneFrameIsRefusedAsACountedDrop) {
  UdpTransport udp;
  std::atomic<std::size_t> delivered{0};
  const EndpointId sink =
      udp.create_endpoint(HostId{1}, [&](EndpointId, const Payload&) { delivered.fetch_add(1); });
  const std::uint16_t port = udp.endpoint_port(sink);

  RawSender sender;
  sender.send_seq(port, 1, /*version=*/1);
  // A current frame behind it proves the v1 frame was read (and refused).
  sender.send_seq(port, 2);
  ASSERT_TRUE(wait_for_count(delivered, 1));
  EXPECT_EQ(delivered.load(), 1u);
  EXPECT_EQ(udp.messages_delivered(), 1u);
  EXPECT_EQ(udp.messages_dropped(), 1u);
  EXPECT_EQ(udp.messages_queue_dropped(), 0u);
}

}  // namespace
}  // namespace aqua::net
