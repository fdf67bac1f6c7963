// Standard Workload Format (SWF) reader/writer.
//
// SWF is the Parallel Workloads Archive's 18-field line format; the paper's
// workload is the SDSC SP2 trace in this format. The parser maps the fields
// librisk uses (submit, run time, requested time = user estimate, requested
// processors) and preserves provenance fields. Deadlines are *not* part of
// SWF — the paper synthesises them (see workload/deadlines.hpp); our writer
// can optionally carry them in a librisk comment extension so synthetic
// traces round-trip exactly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "workload/job.hpp"

namespace librisk::workload::swf {

/// Thrown on malformed SWF input.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Both readers drop jobs whose runtime or processor count is missing (-1)
/// or zero — the usual cleaning step before simulation.
struct ReadOptions {
  /// When an estimate is missing (-1), substitute the actual runtime
  /// (the archive's recommended fallback). If false, such jobs are dropped.
  bool estimate_fallback_to_runtime = true;
  /// Keep at most the *last* n jobs of the trace (0 = all). The paper uses
  /// the last 3000 jobs of SDSC SP2.
  std::size_t last_n = 0;
};

/// Parses an SWF stream. Comment lines (';') are ignored except for the
/// librisk deadline extension `;librisk-deadline: <id> <deadline> <urgency>`.
/// Jobs are returned in submit order with submit times rebased to 0.
[[nodiscard]] std::vector<Job> read(std::istream& in, const ReadOptions& opts = {});

/// Convenience: parses a file by path.
[[nodiscard]] std::vector<Job> read_file(const std::string& path,
                                         const ReadOptions& opts = {});

struct StreamOptions {
  /// When an estimate is missing (-1), substitute the actual runtime.
  /// If false, such jobs are dropped.
  bool estimate_fallback_to_runtime = true;
  /// Reject traces whose kept jobs are not submit-ordered. Streaming replay
  /// feeds an online engine that (correctly) refuses out-of-order arrivals,
  /// so the default fails fast at the parse with a line number instead of
  /// deep inside the simulation. Submit times are rebased so the first
  /// returned job arrives at t = 0 (matching the batch reader); with this
  /// off, a later job may end up with a negative submit time.
  bool require_monotone = true;
};

/// Line-at-a-time SWF reader: the streaming counterpart of read(). Holds
/// one Job and the not-yet-matched deadline notes — never the whole trace —
/// so replay memory is bounded by the simulation's resident set, not the
/// trace length. Unlike the batch reader it cannot sort or take a tail
/// subset (`last_n`); it expects a submit-ordered trace (see
/// StreamOptions::require_monotone). Deadline notes are matched and
/// discarded as their job lines arrive; write() interleaves each note
/// immediately before its job line so the pending-note map stays small.
class SwfStream {
 public:
  /// Streams from a caller-owned istream (must outlive the SwfStream).
  explicit SwfStream(std::istream& in, const StreamOptions& opts = {});
  /// Streams from a file; throws ParseError if it cannot be opened.
  explicit SwfStream(const std::string& path, const StreamOptions& opts = {});
  SwfStream(const SwfStream&) = delete;
  SwfStream& operator=(const SwfStream&) = delete;
  ~SwfStream();

  /// Parses forward to the next kept job; false at end of input.
  /// Throws ParseError (with the 1-based line number) on malformed input:
  /// truncated lines, non-numeric fields, or — when require_monotone —
  /// out-of-order submit times.
  [[nodiscard]] bool next(Job& job);

  /// 1-based number of the last line consumed (0 before the first next()).
  [[nodiscard]] int line_no() const noexcept { return line_no_; }
  [[nodiscard]] std::size_t jobs_returned() const noexcept { return returned_; }
  /// Jobs dropped by the cleaning rules (invalid fields / estimate fallback).
  [[nodiscard]] std::size_t jobs_skipped() const noexcept { return skipped_; }
  /// Deadline notes read but not yet matched to a job line. Bounded (≤ 1)
  /// for traces written by write(); a legacy all-notes-in-header trace keeps
  /// them pending until their jobs arrive.
  [[nodiscard]] std::size_t pending_notes() const noexcept { return notes_.size(); }

 private:
  struct Note {
    double deadline = 0.0;
    Urgency urgency = Urgency::Unspecified;
  };

  std::unique_ptr<std::istream> owned_;  ///< set by the path constructor
  std::istream* in_;
  StreamOptions opts_;
  std::string line_;
  std::vector<std::string_view> tokens_;
  std::map<std::int64_t, Note> notes_;
  int line_no_ = 0;
  std::size_t returned_ = 0;
  std::size_t skipped_ = 0;
  double base_ = 0.0;             ///< first kept job's raw submit time
  double last_raw_submit_ = 0.0;  ///< monotonicity watermark (pre-rebase)
  std::int64_t last_id_ = -1;     ///< job that set the watermark…
  int last_line_ = 0;             ///< …and the line it came from
};

struct WriteOptions {
  /// Emit `;librisk-deadline:` comments so deadlines survive a round-trip.
  /// Each note is written immediately before its job's line, keeping the
  /// streaming reader's pending-note memory O(1).
  bool include_deadlines = true;
  /// Free-text header comment lines (each emitted as "; <line>").
  std::vector<std::string> header;
};

/// Writes jobs as SWF (18 fields, unknown fields as -1).
void write(std::ostream& out, const std::vector<Job>& jobs,
           const WriteOptions& opts = {});

/// Convenience: writes a file by path (throws on I/O failure).
void write_file(const std::string& path, const std::vector<Job>& jobs,
                const WriteOptions& opts = {});

}  // namespace librisk::workload::swf
