// Trace sinks: where Event records go (docs/TRACING.md has the format spec).
//
// Three implementations with very different cost profiles:
//   NullSink   — discards everything; discards() lets the Recorder skip even
//                constructing the Event, so an attached-but-null recorder
//                costs one predictable branch per emission site.
//   JsonlSink  — one JSON object per line via json::LineWriter; greppable,
//                jq-able, ~10x larger than binary.
//   BinarySink — compact varint-encoded .lrt file with a checksummed footer;
//                byte-identical across same-seed runs, the determinism oracle
//                `librisk-sim trace diff` operates on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "support/json.hpp"
#include "trace/event.hpp"

namespace librisk::trace {

/// .lrt container constants. The magic names the container family, the
/// version byte the layout: v1 is the seed format, v2 adds a header flags
/// byte and (when flag bit 0 is set) a per-event margin payload. Writers
/// emit v2; readers accept both (docs/TRACING.md "Format v2").
inline constexpr char kLrtMagic[4] = {'L', 'R', 'T', '1'};
inline constexpr std::uint8_t kLrtVersionV1 = 1;
inline constexpr std::uint8_t kLrtVersion = 2;
/// v2 header flags bit 0: every event record carries a trailing f64 margin.
inline constexpr std::uint8_t kLrtFlagMargins = 0x01;
/// v2 header flags bit 1: reserved. No writer sets it; readers accept it
/// and ignore it (record layout is the same either way), so files that
/// declared overload event kinds with it still load.
inline constexpr std::uint8_t kLrtFlagOverload = 0x02;
/// FNV-1a 64-bit, computed incrementally over every byte that precedes the
/// checksum itself (header, events, end marker, event count).
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Per-sink format options shared by both encoders.
struct SinkOptions {
  /// Serialise each event's margin (v2 flag bit 0 / JSONL "margin" field).
  /// Off by default: margin-free v2 events are byte-compatible with what a
  /// margin-unaware emitter produces, so determinism oracles keep working
  /// across runs that do and do not compute margins.
  bool margins = false;
};

class Sink {
 public:
  virtual ~Sink() = default;
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  virtual void write(const Event& event) = 0;
  /// Finalises the output (footer, flush). Idempotent; safe to skip for
  /// sinks whose destructor closes them.
  virtual void close() {}
  /// True when write() provably ignores its argument. The Recorder caches
  /// this at attach time and skips event construction entirely, which is
  /// what keeps the default configuration's hot path unperturbed.
  [[nodiscard]] virtual bool discards() const noexcept { return false; }

 protected:
  Sink() = default;
};

class NullSink final : public Sink {
 public:
  void write(const Event&) override {}
  [[nodiscard]] bool discards() const noexcept override { return true; }
};

/// JSON Lines: a meta line, then one object per event. `reason` is omitted
/// when None so the common case stays short; readers default it.
class JsonlSink final : public Sink {
 public:
  JsonlSink(std::ostream& os, const TraceMeta& meta, SinkOptions options = {});
  void write(const Event& event) override;
  void close() override;

 private:
  std::ostream* os_;
  json::LineWriter writer_;
  SinkOptions options_;
};

/// Binary .lrt v2. Layout (all integers varint unless noted):
///   header:  magic "LRT1", u8 version (2), u8 flags, varint policy
///            length + bytes, varint seed
///   events:  u8 kind (nonzero), u8 reason, zigzag node, zigzag job,
///            raw LE64 bits of time, a, b
///            [+ raw LE64 bits of margin when flags bit 0 is set]
///   footer:  u8 0x00 end marker, varint event count, u64 LE FNV-1a of all
///            preceding bytes
/// v1 (the seed format) differs only in the version byte and the absence of
/// the flags byte and margin payload; trace::read_lrt accepts both.
/// Doubles are stored as raw bit patterns, never formatted, so identical
/// decisions serialise to identical bytes — the property trace-diff relies on.
class BinarySink final : public Sink {
 public:
  BinarySink(std::ostream& os, const TraceMeta& meta, SinkOptions options = {});
  ~BinarySink() override;
  void write(const Event& event) override;
  void close() override;

 private:
  void put_bytes(const char* data, std::size_t n);
  void put_u8(std::uint8_t v);
  void put_varint(std::uint64_t v);
  void put_zigzag(std::int64_t v);
  void put_f64(double v);

  std::ostream* os_;
  SinkOptions options_;
  std::uint64_t hash_ = kFnvOffset;
  std::uint64_t count_ = 0;
  bool closed_ = false;
};

/// Zigzag mapping for signed varints: small magnitudes of either sign
/// encode in one byte (-1 -> 1, 1 -> 2, ...).
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace librisk::trace
