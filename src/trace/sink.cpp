#include "trace/sink.hpp"

#include <bit>
#include <ostream>

namespace librisk::trace {

JsonlSink::JsonlSink(std::ostream& os, const TraceMeta& meta, SinkOptions options)
    : os_(&os), writer_(os), options_(options) {
  writer_.begin()
      .field("trace", "librisk")
      .field("version", static_cast<std::uint64_t>(kLrtVersion))
      .field("policy", meta.policy)
      .field("seed", meta.seed);
  // Written even when false-by-omission would do: the meta line is the one
  // place readers learn whether event lines carry margins.
  if (options_.margins) writer_.field("margins", true);
  writer_.end();
}

void JsonlSink::write(const Event& event) {
  writer_.begin()
      .field("t", event.time)
      .field("kind", to_string(event.kind))
      .field("job", event.job)
      .field("node", static_cast<std::int64_t>(event.node));
  if (event.reason != RejectionReason::None)
    writer_.field("reason", to_string(event.reason));
  writer_.field("a", event.a).field("b", event.b);
  // Margins are written unconditionally (0.0 included) when enabled, so a
  // margin-bearing file has one shape, not a per-event optional.
  if (options_.margins) writer_.field("margin", event.margin);
  writer_.end();
}

void JsonlSink::close() { os_->flush(); }

BinarySink::BinarySink(std::ostream& os, const TraceMeta& meta,
                       SinkOptions options)
    : os_(&os), options_(options) {
  put_bytes(kLrtMagic, sizeof kLrtMagic);
  put_u8(kLrtVersion);
  put_u8(static_cast<std::uint8_t>(options_.margins ? kLrtFlagMargins : 0));
  put_varint(meta.policy.size());
  put_bytes(meta.policy.data(), meta.policy.size());
  put_varint(meta.seed);
}

BinarySink::~BinarySink() { close(); }

void BinarySink::put_bytes(const char* data, std::size_t n) {
  os_->write(data, static_cast<std::streamsize>(n));
  for (std::size_t i = 0; i < n; ++i) {
    hash_ ^= static_cast<std::uint8_t>(data[i]);
    hash_ *= kFnvPrime;
  }
}

void BinarySink::put_u8(std::uint8_t v) {
  const char c = static_cast<char>(v);
  put_bytes(&c, 1);
}

void BinarySink::put_varint(std::uint64_t v) {
  char buf[10];
  std::size_t n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  buf[n++] = static_cast<char>(v);
  put_bytes(buf, n);
}

void BinarySink::put_zigzag(std::int64_t v) { put_varint(zigzag_encode(v)); }

void BinarySink::put_f64(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((bits >> (8 * i)) & 0xFF);
  put_bytes(buf, 8);
}

void BinarySink::write(const Event& event) {
  put_u8(static_cast<std::uint8_t>(event.kind));
  put_u8(static_cast<std::uint8_t>(event.reason));
  put_zigzag(event.node);
  put_zigzag(event.job);
  put_f64(event.time);
  put_f64(event.a);
  put_f64(event.b);
  if (options_.margins) put_f64(event.margin);
  ++count_;
}

void BinarySink::close() {
  if (closed_) return;
  closed_ = true;
  put_u8(0);  // end-of-stream marker (no EventKind uses 0)
  put_varint(count_);
  // The checksum covers everything written so far, including the count.
  const std::uint64_t sum = hash_;
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
  os_->write(buf, 8);
  os_->flush();
}

}  // namespace librisk::trace
