#include "trace/event.hpp"

#include <stdexcept>

namespace librisk::trace {

std::string_view to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::JobSubmitted: return "job_submitted";
    case EventKind::JobAdmitted: return "job_admitted";
    case EventKind::JobRejected: return "job_rejected";
    case EventKind::JobStarted: return "job_started";
    case EventKind::JobFinished: return "job_finished";
    case EventKind::JobKilled: return "job_killed";
    case EventKind::JobOverrun: return "job_overrun";
    case EventKind::NodeEvaluated: return "node_evaluated";
    case EventKind::ShareRealloc: return "share_realloc";
    case EventKind::ModeTransition: return "mode_transition";
    case EventKind::JobDeferred: return "job_deferred";
    case EventKind::JobDegradedAdmit: return "job_degraded_admit";
  }
  return "?";
}

std::string_view to_string(RejectionReason reason) noexcept {
  switch (reason) {
    case RejectionReason::None: return "none";
    case RejectionReason::ShareOverflow: return "share_overflow";
    case RejectionReason::RiskSigma: return "risk_sigma";
    case RejectionReason::NoSuitableNode: return "no_suitable_node";
    case RejectionReason::DeadlineInfeasible: return "deadline_infeasible";
  }
  return "?";
}

std::string_view to_string(Verdict verdict) noexcept {
  switch (verdict) {
    case Verdict::Accepted: return "accepted";
    case Verdict::Queued: return "queued";
    case Verdict::Rejected: return "rejected";
    case Verdict::DegradedAdmit: return "degraded_admit";
    case Verdict::Shed: return "shed";
  }
  return "?";
}

EventKind parse_event_kind(std::string_view name) {
  for (int raw = 1; raw <= kEventKindCount; ++raw) {
    const auto kind = static_cast<EventKind>(raw);
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown trace event kind: " + std::string(name));
}

RejectionReason parse_rejection_reason(std::string_view name) {
  for (int raw = 0; raw < kRejectionReasonCount; ++raw) {
    const auto reason = static_cast<RejectionReason>(raw);
    if (name == to_string(reason)) return reason;
  }
  throw std::invalid_argument("unknown rejection reason: " + std::string(name));
}

bool valid_event_kind(std::uint8_t raw) noexcept {
  return raw >= 1 && raw <= kEventKindCount;
}

bool valid_rejection_reason(std::uint8_t raw) noexcept {
  return raw < kRejectionReasonCount;
}

}  // namespace librisk::trace
