// Readers for both trace encodings, plus the file-level dispatcher used by
// the `librisk-sim trace` subcommands. Strict by design: a truncated or
// bit-flipped .lrt must fail loudly (TraceError), never yield a shorter
// event list — a diff tool that silently accepts damage is not an oracle.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/event.hpp"

namespace librisk::trace {

class TraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct TraceData {
  TraceMeta meta;
  std::vector<Event> events;
  /// Container version the file declared (1 = seed format, 2 = current).
  std::uint8_t version = 0;
  /// True when every event carried a serialised margin (v2 flag bit 0 /
  /// JSONL meta "margins"); false for v1 files and margin-free v2 files,
  /// whose events read back with margin == 0.0.
  bool has_margins = false;
};

/// Parses a binary .lrt stream, version 1 or 2. Throws TraceError on bad
/// magic, unknown version/flags/kind/reason, truncation, event-count
/// mismatch, checksum mismatch, or trailing bytes.
[[nodiscard]] TraceData read_lrt(std::istream& in);

/// Parses a JSONL trace (meta line first). Throws TraceError on a missing or
/// foreign meta line and on malformed event lines.
[[nodiscard]] TraceData read_jsonl(std::istream& in);

/// Opens `path` and dispatches on content: "LRT1" magic -> binary, anything
/// else -> JSONL. Throws TraceError when the file cannot be opened.
[[nodiscard]] TraceData read_trace_file(const std::string& path);

}  // namespace librisk::trace
