#include "trace/reader.hpp"

#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>

#include "support/json.hpp"
#include "trace/sink.hpp"

namespace librisk::trace {

namespace {

/// Cursor over the fully-buffered .lrt bytes. Buffering first keeps the
/// incremental checksum trivial (hash bytes as they are consumed) and makes
/// "trailing bytes" detection exact.
class LrtCursor {
 public:
  explicit LrtCursor(std::string bytes) : bytes_(std::move(bytes)) {}

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

  std::uint8_t take_u8() {
    need(1);
    const auto v = static_cast<std::uint8_t>(bytes_[pos_]);
    absorb(1);
    return v;
  }

  std::uint64_t take_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (shift >= 64) throw TraceError("varint too long (corrupt trace)");
      const std::uint8_t byte = take_u8();
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  }

  std::int64_t take_zigzag() { return zigzag_decode(take_varint()); }

  double take_f64() {
    need(8);
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
      bits |= static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(bytes_[pos_ + static_cast<std::size_t>(i)]))
              << (8 * i);
    absorb(8);
    return std::bit_cast<double>(bits);
  }

  std::string take_string(std::size_t n) {
    need(n);
    std::string s = bytes_.substr(pos_, n);
    absorb(n);
    return s;
  }

  /// Reads 8 raw bytes WITHOUT hashing them — the stored checksum itself.
  std::uint64_t take_checksum() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    pos_ += 8;
    return v;
  }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > bytes_.size())
      throw TraceError("truncated trace: wanted " + std::to_string(n) +
                       " byte(s) at offset " + std::to_string(pos_));
  }
  void absorb(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= static_cast<std::uint8_t>(bytes_[pos_ + i]);
      hash_ *= kFnvPrime;
    }
    pos_ += n;
  }

  std::string bytes_;
  std::size_t pos_ = 0;
  std::uint64_t hash_ = kFnvOffset;
};

std::string slurp(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

TraceError jsonl_error(std::size_t line_no, const std::string& what) {
  return TraceError("JSONL trace line " + std::to_string(line_no) + ": " + what);
}

/// `key` as an integral value in [lo, hi) — the range on which the cast to
/// the field's integer type is defined — or a TraceError naming the line.
double integral_field(const json::Value& v, const std::string& key,
                      double fallback, double lo, double hi,
                      std::size_t line_no) {
  const double x = v.number_or(key, fallback);
  if (!(x >= lo && x < hi) || x != std::floor(x))
    throw jsonl_error(line_no, "\"" + key + "\" is not an integer in range");
  return x;
}

constexpr double kTwoPow63 = 9223372036854775808.0;

Event event_from_json(const json::Value& v, std::size_t line_no) {
  const json::Value* kind = v.find("kind");
  if (kind == nullptr) throw jsonl_error(line_no, "missing \"kind\"");
  Event e;
  try {
    e.kind = parse_event_kind(kind->as_string());
    e.time = v.number_or("t", 0.0);
    e.job = static_cast<std::int64_t>(
        integral_field(v, "job", -1.0, -kTwoPow63, kTwoPow63, line_no));
    e.node = static_cast<std::int32_t>(v.int_or("node", -1));
    e.a = v.number_or("a", 0.0);
    e.b = v.number_or("b", 0.0);
    e.margin = v.number_or("margin", 0.0);
    if (const json::Value* reason = v.find("reason"); reason != nullptr)
      e.reason = parse_rejection_reason(reason->as_string());
  } catch (const std::invalid_argument& err) {
    throw jsonl_error(line_no, err.what());
  } catch (const json::ParseError& err) {
    throw jsonl_error(line_no, err.what());
  }
  return e;
}

/// Fills `data`'s header fields from the meta line. Versions other than the
/// two .lrt versions read_lrt accepts are rejected here too.
void meta_from_json(const json::Value& v, std::size_t line_no, TraceData& data) {
  try {
    if (v.string_or("trace", "") != "librisk")
      throw TraceError("not a librisk JSONL trace (missing meta line)");
    data.meta.policy = v.string_or("policy", "");
    data.meta.seed = static_cast<std::uint64_t>(
        integral_field(v, "seed", 0.0, 0.0, 2.0 * kTwoPow63, line_no));
    const double version = v.number_or("version", kLrtVersionV1);
    if (version != kLrtVersionV1 && version != kLrtVersion)
      throw jsonl_error(line_no, "unsupported trace version " +
                                     json::Value(version).dump());
    data.version = static_cast<std::uint8_t>(version);
    data.has_margins = v.bool_or("margins", false);
  } catch (const json::ParseError& err) {
    throw jsonl_error(line_no, err.what());
  }
}

}  // namespace

TraceData read_lrt(std::istream& in) {
  LrtCursor cur(slurp(in));

  char magic[4];
  for (char& c : magic) c = static_cast<char>(cur.take_u8());
  if (std::string_view(magic, 4) != std::string_view(kLrtMagic, 4))
    throw TraceError("not an .lrt trace (bad magic)");
  const std::uint8_t version = cur.take_u8();
  if (version != kLrtVersionV1 && version != kLrtVersion)
    throw TraceError("unsupported .lrt version " + std::to_string(version));

  TraceData data;
  data.version = version;
  // v2 grew a header flags byte; v1 files go straight to the policy name.
  if (version >= 2) {
    const std::uint8_t flags = cur.take_u8();
    // Bit 1 (kLrtFlagOverload) is reserved: accepted, layout unchanged.
    if ((flags & ~(kLrtFlagMargins | kLrtFlagOverload)) != 0)
      throw TraceError("unknown .lrt header flags " + std::to_string(flags));
    data.has_margins = (flags & kLrtFlagMargins) != 0;
  }
  const std::uint64_t name_len = cur.take_varint();
  if (name_len > 4096) throw TraceError("implausible policy-name length (corrupt trace)");
  data.meta.policy = cur.take_string(static_cast<std::size_t>(name_len));
  data.meta.seed = cur.take_varint();

  for (;;) {
    const std::uint8_t raw_kind = cur.take_u8();
    if (raw_kind == 0) break;  // end-of-stream marker
    if (!valid_event_kind(raw_kind))
      throw TraceError("unknown event kind " + std::to_string(raw_kind) +
                       " at offset " + std::to_string(cur.pos() - 1));
    Event e;
    e.kind = static_cast<EventKind>(raw_kind);
    const std::uint8_t raw_reason = cur.take_u8();
    if (!valid_rejection_reason(raw_reason))
      throw TraceError("unknown rejection reason " + std::to_string(raw_reason));
    e.reason = static_cast<RejectionReason>(raw_reason);
    e.node = static_cast<std::int32_t>(cur.take_zigzag());
    e.job = cur.take_zigzag();
    e.time = cur.take_f64();
    e.a = cur.take_f64();
    e.b = cur.take_f64();
    if (data.has_margins) e.margin = cur.take_f64();
    data.events.push_back(e);
  }

  const std::uint64_t count = cur.take_varint();
  if (count != data.events.size())
    throw TraceError("event-count mismatch: footer says " + std::to_string(count) +
                     ", stream held " + std::to_string(data.events.size()));
  const std::uint64_t expected = cur.hash();
  const std::uint64_t stored = cur.take_checksum();
  if (stored != expected) throw TraceError("checksum mismatch (corrupt trace)");
  if (cur.pos() != cur.size())
    throw TraceError("trailing bytes after trace footer");
  return data;
}

TraceData read_jsonl(std::istream& in) {
  TraceData data;
  std::string line;
  std::size_t line_no = 0;
  bool saw_meta = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    json::Value v;
    try {
      v = json::parse(line);
    } catch (const json::ParseError& err) {
      throw jsonl_error(line_no, err.what());
    }
    if (!saw_meta) {
      meta_from_json(v, line_no, data);
      saw_meta = true;
      continue;
    }
    data.events.push_back(event_from_json(v, line_no));
  }
  if (!saw_meta) throw TraceError("empty JSONL trace (no meta line)");
  return data;
}

TraceData read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceError("cannot open trace file: " + path);
  char magic[4] = {};
  in.read(magic, 4);
  const bool binary =
      in.gcount() == 4 && std::string_view(magic, 4) == std::string_view(kLrtMagic, 4);
  in.clear();
  in.seekg(0);
  return binary ? read_lrt(in) : read_jsonl(in);
}

}  // namespace librisk::trace
