// Structured event records for the decision-audit trace (docs/TRACING.md).
//
// One Event is a flat, fixed-layout record of something the simulation
// decided or executed: a job moving through its lifecycle, one node being
// evaluated during an admission scan, or the share model recomputing rates.
// Events are plain values — deterministic runs produce identical event
// sequences, which is what makes a trace file a byte-level determinism and
// equivalence oracle (trace::first_divergence, `librisk-sim trace diff`).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/types.hpp"

namespace librisk::trace {

/// What happened. Values are part of the on-disk format (.lrt stores them
/// as a single byte); 0 is reserved as the binary end-of-stream marker.
enum class EventKind : std::uint8_t {
  JobSubmitted = 1,  ///< job arrived (node = num_procs, a = deadline, b = estimate)
  JobAdmitted = 2,   ///< admission accepted (node = first chosen, a = #suitable, b = its fit)
  JobRejected = 3,   ///< admission refused (reason set, a = #suitable, b = num_procs)
  JobStarted = 4,    ///< executor began running it (node = first node, a = #nodes, b = estimate)
  JobFinished = 5,   ///< completed (a = lateness: finish - absolute deadline)
  JobKilled = 6,     ///< terminated at its estimate (a = work done)
  JobOverrun = 7,    ///< exhausted estimate, re-estimated (a = bump count, b = new estimate)
  NodeEvaluated = 8, ///< admission probed one node (a = sigma or -1, b = total share)
  ShareRealloc = 9,  ///< proportional shares recomputed (a = #running jobs)
  /// Overload events (core/overload.hpp): emitted only when a degraded
  /// mode other than HardReject is configured, so default traces never
  /// carry them. JobDeferred is decoded but never written, so traces that
  /// carry it still load.
  ModeTransition = 10,   ///< governor flipped (node = engaged 1/0, a = utilization, b = mode value)
  JobDeferred = 11,      ///< shortfall parked for retry (reason = failed test, a = retry time, b = deferral #)
  JobDegradedAdmit = 12, ///< degraded mode admitted a shortfall (reason = test bent, node = first chosen, a = sigma or -1, b = fit)
};
inline constexpr int kEventKindCount = 12;

/// Why an admission test said no — the per-decision attribution the paper's
/// aggregate metrics hide. For NodeEvaluated events, None means the node
/// was suitable; a reason names the failed test.
enum class RejectionReason : std::uint8_t {
  None = 0,                ///< not a rejection / node suitable
  ShareOverflow = 1,       ///< Libra's Eq. 2 total-share test failed
  RiskSigma = 2,           ///< LibraRisk's sigma test (Eq. 6) failed
  NoSuitableNode = 3,      ///< structurally impossible: needs more nodes than exist
  DeadlineInfeasible = 4,  ///< estimate-based feasibility test failed (EDF/QoPS family)
};
inline constexpr int kRejectionReasonCount = 5;

[[nodiscard]] std::string_view to_string(EventKind kind) noexcept;
[[nodiscard]] std::string_view to_string(RejectionReason reason) noexcept;
/// Inverse of to_string; throws std::invalid_argument on unknown names.
[[nodiscard]] EventKind parse_event_kind(std::string_view name);
[[nodiscard]] RejectionReason parse_rejection_reason(std::string_view name);
[[nodiscard]] bool valid_event_kind(std::uint8_t raw) noexcept;
[[nodiscard]] bool valid_rejection_reason(std::uint8_t raw) noexcept;

/// One trace record. The payload fields `a` and `b` are kind-specific (see
/// EventKind comments); fields that do not apply hold their defaults so
/// identical decisions always serialise to identical bytes.
struct Event {
  sim::SimTime time = 0.0;
  std::int64_t job = -1;  ///< -1 for events not tied to a job (ShareRealloc)
  double a = 0.0;
  double b = 0.0;
  EventKind kind = EventKind::JobSubmitted;
  RejectionReason reason = RejectionReason::None;
  std::int32_t node = -1;
  /// Signed headroom of the decisive admission test (format v2 payload,
  /// docs/TRACING.md "Margins"): >= 0 passed with that much slack, < 0
  /// failed by that much. 0.0 when the emitter computed no margin; only
  /// serialised when the sink was opened with margins enabled.
  double margin = 0.0;

  friend bool operator==(const Event&, const Event&) = default;
};

/// Run-level identification stored in every trace file's header.
struct TraceMeta {
  std::string policy;
  std::uint64_t seed = 0;

  friend bool operator==(const TraceMeta&, const TraceMeta&) = default;
};

}  // namespace librisk::trace
