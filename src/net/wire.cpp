#include "net/wire.h"

#include <cstring>
#include <string>

#include "proto/messages.h"

namespace aqua::net {
namespace {

enum class BodyTag : std::uint8_t {
  kEmpty = 0,
  kRequest = 1,
  kReply = 2,
  kPerfUpdate = 3,
  kSubscribe = 4,
  kAnnounce = 5,
  kText = 6,
  kInt64 = 7,
  kCancel = 8,
};

/// Adds up the bytes a Writer would write, so the buffer is sized once.
class Sizer {
 public:
  void u8(std::uint8_t) { n_ += 1; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void i64(std::int64_t) { n_ += 8; }
  void duration(Duration) { n_ += 8; }
  void str(const std::string& s) { n_ += 4 + s.size(); }

  [[nodiscard]] std::size_t bytes() const { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Writes into a buffer a Sizer has already measured.
class Writer {
 public:
  explicit Writer(std::uint8_t* out) : out_(out) {}

  void u8(std::uint8_t v) { *out_++ = v; }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) *out_++ = static_cast<std::uint8_t>(v >> (8 * i));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) *out_++ = static_cast<std::uint8_t>(v >> (8 * i));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void duration(Duration d) { i64(count_us(d)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    if (!s.empty()) std::memcpy(out_, s.data(), s.size());
    out_ += s.size();
  }

 private:
  std::uint8_t* out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool done() const { return ok_ && pos_ == bytes_.size(); }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return bytes_[pos_++];
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  Duration duration() { return Duration{i64()}; }
  std::string str() {
    const std::uint32_t n = u32();
    if (!need(n)) return {};
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

 private:
  bool need(std::size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

template <typename W>
void write_perf(W& w, const proto::PerfData& perf) {
  w.duration(perf.service_time);
  w.duration(perf.queuing_delay);
  w.i64(perf.queue_length);
  w.u64(perf.sample_seq);
}

proto::PerfData read_perf(Reader& r) {
  proto::PerfData perf;
  perf.service_time = r.duration();
  perf.queuing_delay = r.duration();
  perf.queue_length = r.i64();
  perf.sample_seq = r.u64();
  return perf;
}

/// The body tag of `payload`, or nullopt when the wire cannot carry it.
std::optional<BodyTag> body_tag(const Payload& payload) {
  if (payload.empty()) return BodyTag::kEmpty;
  if (payload.get_if<proto::Request>() != nullptr) return BodyTag::kRequest;
  if (payload.get_if<proto::Reply>() != nullptr) return BodyTag::kReply;
  if (payload.get_if<proto::PerfUpdate>() != nullptr) return BodyTag::kPerfUpdate;
  if (payload.get_if<proto::Subscribe>() != nullptr) return BodyTag::kSubscribe;
  if (payload.get_if<proto::Announce>() != nullptr) return BodyTag::kAnnounce;
  if (payload.get_if<proto::Cancel>() != nullptr) return BodyTag::kCancel;
  if (payload.get_if<std::string>() != nullptr) return BodyTag::kText;
  if (payload.get_if<std::int64_t>() != nullptr) return BodyTag::kInt64;
  return std::nullopt;
}

/// Writes the whole encoding through `w`: a Sizer or a Writer.
template <typename W>
void write_payload(W& w, const Payload& payload, BodyTag tag) {
  w.u32(kWireMagic);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(tag));
  w.i64(payload.wire_bytes());

  const obs::SpanContext& span = payload.span();
  w.u64(span.trace_id);
  w.u64(span.parent_span_id);
  w.u8(static_cast<std::uint8_t>(span.leg));
  w.u64(span.replica.value());

  switch (tag) {
    case BodyTag::kEmpty:
      break;
    case BodyTag::kRequest: {
      const auto& m = *payload.get_if<proto::Request>();
      w.u64(m.id.value());
      w.u64(m.client.value());
      w.str(m.method);
      w.i64(m.argument);
      w.u32(m.chunk);
      w.u32(m.code_k);
      w.u64(m.code_id);
      break;
    }
    case BodyTag::kReply: {
      const auto& m = *payload.get_if<proto::Reply>();
      w.u64(m.request.value());
      w.u64(m.replica.value());
      w.str(m.method);
      w.i64(m.result);
      write_perf(w, m.perf);
      w.u32(m.chunk);
      w.u64(m.code_id);
      break;
    }
    case BodyTag::kPerfUpdate: {
      const auto& m = *payload.get_if<proto::PerfUpdate>();
      w.u64(m.replica.value());
      w.str(m.method);
      write_perf(w, m.perf);
      break;
    }
    case BodyTag::kSubscribe: {
      const auto& m = *payload.get_if<proto::Subscribe>();
      w.u64(m.client.value());
      w.u64(m.reply_to.value());
      break;
    }
    case BodyTag::kAnnounce: {
      const auto& m = *payload.get_if<proto::Announce>();
      w.u64(m.replica.value());
      w.u64(m.endpoint.value());
      break;
    }
    case BodyTag::kCancel: {
      const auto& m = *payload.get_if<proto::Cancel>();
      w.u64(m.request.value());
      w.u64(m.client.value());
      w.str(m.method);
      break;
    }
    case BodyTag::kText:
      w.str(*payload.get_if<std::string>());
      break;
    case BodyTag::kInt64:
      w.i64(*payload.get_if<std::int64_t>());
      break;
  }
}

}  // namespace

bool encode_payload(const Payload& payload, std::vector<std::uint8_t>& out) {
  out.clear();
  const std::optional<BodyTag> tag = body_tag(payload);
  if (!tag.has_value()) return false;
  Sizer sizer;
  write_payload(sizer, payload, *tag);
  out.resize(sizer.bytes());
  Writer writer(out.data());
  write_payload(writer, payload, *tag);
  return true;
}

std::optional<Payload> decode_payload(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  if (r.u32() != kWireMagic) return std::nullopt;
  if (r.u8() != kWireVersion) return std::nullopt;
  const auto tag = static_cast<BodyTag>(r.u8());
  const std::int64_t wire_bytes = r.i64();
  if (!r.ok() || wire_bytes < 0) return std::nullopt;

  obs::SpanContext span;
  span.trace_id = r.u64();
  span.parent_span_id = r.u64();
  const std::uint8_t leg = r.u8();
  if (leg > static_cast<std::uint8_t>(obs::SpanKind::kLateReply)) return std::nullopt;
  span.leg = static_cast<obs::SpanKind>(leg);
  span.replica = ReplicaId{r.u64()};

  Payload payload;
  switch (tag) {
    case BodyTag::kEmpty:
      // A bodyless payload always declares zero wire bytes.
      break;
    case BodyTag::kRequest: {
      proto::Request m;
      m.id = RequestId{r.u64()};
      m.client = ClientId{r.u64()};
      m.method = r.str();
      m.argument = r.i64();
      m.chunk = r.u32();
      m.code_k = r.u32();
      m.code_id = r.u64();
      payload = Payload::make(m, wire_bytes);
      break;
    }
    case BodyTag::kReply: {
      proto::Reply m;
      m.request = RequestId{r.u64()};
      m.replica = ReplicaId{r.u64()};
      m.method = r.str();
      m.result = r.i64();
      m.perf = read_perf(r);
      m.chunk = r.u32();
      m.code_id = r.u64();
      payload = Payload::make(m, wire_bytes);
      break;
    }
    case BodyTag::kPerfUpdate: {
      proto::PerfUpdate m;
      m.replica = ReplicaId{r.u64()};
      m.method = r.str();
      m.perf = read_perf(r);
      payload = Payload::make(m, wire_bytes);
      break;
    }
    case BodyTag::kSubscribe: {
      proto::Subscribe m;
      m.client = ClientId{r.u64()};
      m.reply_to = EndpointId{r.u64()};
      payload = Payload::make(m, wire_bytes);
      break;
    }
    case BodyTag::kAnnounce: {
      proto::Announce m;
      m.replica = ReplicaId{r.u64()};
      m.endpoint = EndpointId{r.u64()};
      payload = Payload::make(m, wire_bytes);
      break;
    }
    case BodyTag::kCancel: {
      proto::Cancel m;
      m.request = RequestId{r.u64()};
      m.client = ClientId{r.u64()};
      m.method = r.str();
      payload = Payload::make(m, wire_bytes);
      break;
    }
    case BodyTag::kText:
      payload = Payload::make(r.str(), wire_bytes);
      break;
    case BodyTag::kInt64:
      payload = Payload::make(r.i64(), wire_bytes);
      break;
    default:
      return std::nullopt;
  }
  if (!r.done()) return std::nullopt;
  payload.set_span(span);
  return payload;
}

}  // namespace aqua::net
