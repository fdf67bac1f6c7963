// Flight recorder: the last N admission decisions with wall-clock timing,
// kept in a fixed ring for post-hoc incident diagnosis (docs/OBSERVABILITY.md
// "Flight recorder").
//
// The concurrent gateway (core::AdmissionGateway) decides jobs on its drive
// thread while producers only see a coarse SubmitStatus. When a shed spike
// or a latency stall hits, the aggregate counters say *that* it happened but
// not *what* the decisions around it looked like. The flight recorder keeps
// exactly that: a bounded ring of the most recent decisions — verdict,
// reason, chosen node, sigma, admission margin, queue wait and decide
// latency — plus two wall-clock histograms (queue-wait and decide latency)
// that the gateway merges into its registry at close() for OpenMetrics
// export.
//
// Threading: record() is called from the single drive thread; snapshot(),
// the histogram copies and dump() may be called from any thread (the
// monitoring path). A plain mutex guards the ring — the drive loop takes it
// once per decision, never under a producer-visible lock, so producers are
// unaffected (docs/CONCURRENCY.md).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "trace/event.hpp"

namespace librisk::obs {

/// Decision verdict as the gateway saw it (mirrors
/// core::AdmissionOutcome::Verdict, plus Shed for fast-rejected jobs that
/// never reached the engine — obs sits below core, so the enum is restated
/// here rather than included).
enum class FlightVerdict : std::uint8_t {
  Accepted,
  Queued,
  Rejected,
  Shed,
  /// Admitted through the DowngradeQoS bend (core/overload.hpp).
  DegradedAdmit,
};

[[nodiscard]] const char* to_string(FlightVerdict verdict) noexcept;

/// One decision as recorded by the gateway drive loop.
struct FlightEntry {
  std::int64_t job_id = -1;
  FlightVerdict verdict = FlightVerdict::Queued;
  trace::RejectionReason reason = trace::RejectionReason::None;
  std::int32_t node = -1;     ///< placement; -1 when not accepted/reported
  double sigma = -1.0;        ///< tentative sigma; -1 when none ran
  double margin = 0.0;        ///< chosen-node admission margin (accepts)
  double sim_time = 0.0;      ///< simulation clock at the decision
  double queue_wait = 0.0;    ///< wall seconds from enqueue to decision
  double decide_latency = 0.0;  ///< wall seconds the drive loop spent deciding
};

struct FlightConfig {
  /// Ring capacity; 0 disables recording entirely (record() is a no-op and
  /// the histograms stay empty).
  std::size_t capacity = 256;
  /// Wall-clock histogram range: sub-microsecond to 100 s covers both the
  /// lock-free fast path and a badly stalled queue.
  HistogramConfig latency{.min_value = 1e-7, .max_value = 100.0};
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightConfig config = {});

  /// Drive-thread side: appends one decision, overwriting the oldest once
  /// the ring is full, and feeds the latency histograms.
  void record(const FlightEntry& entry);

  /// Monitoring side: copies the retained entries, oldest first.
  [[nodiscard]] std::vector<FlightEntry> snapshot() const;
  /// Decisions ever offered to record() (>= snapshot().size()).
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::size_t capacity() const noexcept {
    return config_.capacity;
  }
  [[nodiscard]] const FlightConfig& config() const noexcept { return config_; }

  /// Histogram copies (consistent under the ring lock). Empty-config copies
  /// when disabled.
  [[nodiscard]] Histogram queue_wait_histogram() const;
  [[nodiscard]] Histogram decide_histogram() const;

  /// Human rendering of snapshot() plus the latency quantiles — what the
  /// gateway writes on a shed spike and `replay` prints on demand.
  [[nodiscard]] std::string dump() const;

  void clear();

 private:
  FlightConfig config_;
  mutable std::mutex mutex_;
  std::vector<FlightEntry> ring_;  ///< fixed size once full; next_ wraps
  std::size_t next_ = 0;
  std::uint64_t recorded_ = 0;
  Histogram queue_wait_;
  Histogram decide_;
};

}  // namespace librisk::obs
