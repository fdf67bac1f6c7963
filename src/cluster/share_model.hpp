// The deadline-based proportional processor-share model (paper Eq. 1-2).
//
// A job with remaining work W (reference-seconds) and remaining deadline D
// (wall seconds) requires share s = W / D of a reference-speed processor
// (Eq. 1). This file holds the pure share arithmetic used both by the
// time-shared executor (reality) and by the admission controls (belief /
// prediction), so the two can never drift apart accidentally.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

namespace librisk::cluster {

/// How a time-shared node divides its capacity among resident jobs.
enum class ExecutionMode {
  /// Strict Libra pacing (default): each job runs at exactly its required
  /// share (deadline-proportional), scaled down only when demands exceed
  /// capacity. "The new job starts execution immediately based on its
  /// allocated share" — paper Section 3.1.
  ProportionalPacing,
  /// GridSim-style time sharing ablation: capacity split *equally* among
  /// resident jobs (processor sharing), ignoring shares.
  EqualShare,
};

struct ShareModelConfig {
  ExecutionMode mode = ExecutionMode::ProportionalPacing;
  /// Remaining deadlines are clamped below at this many seconds when
  /// computing shares, so a job at or past its deadline demands a huge but
  /// finite share (capped at a whole node by the executor) instead of
  /// dividing by zero. Must be small relative to deadlines or pacing
  /// under-allocates the final stretch of healthy jobs. [cal]
  double deadline_clamp = 1.0;
  /// When a running job exhausts its estimate without finishing, the
  /// scheduler re-estimates the remaining work as this fraction of the
  /// original estimate (repeatedly). Models "the RMS observes the job is
  /// still running". [cal]
  double overrun_bump_fraction = 0.10;
  /// Kill-at-limit policy: terminate a job the moment it exhausts its
  /// estimate instead of letting it overrun (what the real SDSC SP2 did —
  /// the reason its trace shows a spike at estimate == runtime). Off by
  /// default: the paper's simulation lets jobs run to completion.
  bool kill_at_estimate = false;
  /// ProportionalPacing only. When true (default), spare capacity is
  /// redistributed proportionally to demands, so jobs run ahead of their
  /// deadline pace when the node has headroom — this is what lets a job
  /// whose user under-estimated the runtime absorb the overrun before its
  /// deadline. When false, nodes run each job at exactly its required share
  /// (strict pacing: every job finishes right at its deadline, and any
  /// overrun is fatal). EqualShare mode is inherently work-conserving.
  bool work_conserving = true;

  void validate() const;
};

/// Required share of a processor with speed factor `speed` (reference-
/// seconds per wall second): W / (max(D, clamp) * speed), floored at 0.
/// Deliberately *not* capped at 1: a result above 1 means the job cannot
/// meet its deadline on this node, which the admission tests (Eq. 2) must
/// see. Executors cap the value at the node's capacity when allocating.
[[nodiscard]] double required_share(double remaining_work, double remaining_deadline,
                                    double deadline_clamp, double speed = 1.0) noexcept;

/// Eq. 2: total share demanded on a node.
[[nodiscard]] double total_share(std::span<const double> shares) noexcept;

/// Capacity actually allocated to each demand on one node (fractions of the
/// node). Work-conserving: a_i = s_i / max(sum, 1) plus the proportional
/// spare, which collapses to a_i = s_i / sum (the node is never idle while
/// work remains). Non-work-conserving: a_i = s_i / max(sum, 1).
[[nodiscard]] std::vector<double> allocate_capacity(std::span<const double> demands,
                                                    bool work_conserving) noexcept;

/// Allocation a single demand would receive on a node where the other
/// demands sum to `other_total` (avoids building vectors in hot paths):
/// demand / allocation_divisor(...), or 0 for a demand <= 0.
[[nodiscard]] double allocate_one(double demand, double other_total,
                                  bool work_conserving) noexcept;

/// The divisor of allocate_one: the node's total demand (the others floored
/// at 0), or max(total, 1) when not work-conserving. Monotone in
/// `other_total`, so among nodes that give `demand` the same numerator the
/// smallest allocation is the one at the largest divisor. Inline: the
/// executor's rate pass evaluates it once per node a task spans.
[[nodiscard]] inline double allocation_divisor(double demand, double other_total,
                                               bool work_conserving) noexcept {
  const double sum = demand + std::max(other_total, 0.0);
  return work_conserving ? sum : std::max(sum, 1.0);
}

}  // namespace librisk::cluster
