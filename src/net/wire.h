// Versioned wire serialization of net::Payload for socket transports.
//
// The simulated Lan hands Payload objects across endpoints by pointer, so
// the type-erased std::any body never needs marshalling. A real transport
// does: every datagram carries
//
//   [u32 magic "AQWP"] [u8 version] [u8 body tag] [i64 declared wire size]
//   [SpanContext: u64 trace_id, u64 parent_span_id, u8 leg, u64 replica]
//   [body fields, tag-specific]
//
// little-endian, packed byte-by-byte (no struct punning, so the format is
// identical across compilers). The body tag covers the proto:: gateway
// messages (§5.4.1) plus string/int64 bodies used by tests and benches.
// Unknown tags and truncated buffers decode to std::nullopt — a peer
// speaking a newer version degrades to a counted drop, never UB.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/payload.h"

namespace aqua::net {

inline constexpr std::uint32_t kWireMagic = 0x50575141;  // "AQWP" little-endian
// v2: Request grew chunk/code_k/code_id and Reply grew chunk/code_id for
// MDS-coded divisible jobs. The fields are appended, but the trailing
// r.done() check means a v1 peer would misparse them — so the version
// bumps and v1 buffers are rejected like any foreign format.
// v3: PerfData grew sample_seq so repositories can reject retransmitted
// UDP replies carrying stale queue-length samples.
inline constexpr std::uint8_t kWireVersion = 3;

/// Serialize `payload` (body + span stamp + declared size) into `out`
/// (cleared first, then resized once to the encoding's length, so a
/// reused buffer allocates nothing). Returns false when the body holds a
/// type the wire format cannot carry — the caller should count a drop,
/// not crash.
bool encode_payload(const Payload& payload, std::vector<std::uint8_t>& out);

/// Parse-back half of encode_payload. std::nullopt on a foreign magic,
/// unsupported version, unknown body tag, or truncated buffer.
std::optional<Payload> decode_payload(std::span<const std::uint8_t> bytes);

}  // namespace aqua::net
