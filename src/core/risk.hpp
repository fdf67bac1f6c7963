// The risk-of-deadline-delay metric (paper Section 3.2, Eq. 3-6).
//
// Pure functions over small value types so every formula is unit-testable
// against hand-computed examples (including the paper's own worked example:
// delay 40 s with remaining deadline 10 s gives deadline_delay 5; the same
// delay with remaining deadline 20 s gives 3).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

namespace librisk::core {

/// What an admission control knows about one job on a node when it
/// evaluates the node: how much work the scheduler believes remains and how
/// much wall-clock remains until the job's absolute deadline (negative when
/// the deadline has already passed).
struct RiskJobInput {
  double remaining_work = 0.0;      ///< reference-seconds, >= 0
  double remaining_deadline = 0.0;  ///< seconds; may be negative
  /// Observed execution rate (reference-seconds per second) for a job
  /// already running on the node; kNewJob for the job under admission,
  /// whose rate must be predicted from the node's spare capacity.
  double current_rate = kNewJob;

  static constexpr double kNewJob = -1.0;
};

struct RiskConfig {
  /// Deadline clamp shared with the share model (see ShareModelConfig).
  double deadline_clamp = 1.0;
  /// How completion times on the node are predicted (Algorithm 1, line 4):
  ///  - CurrentRate (default): residents finish their remaining work at the
  ///    rate they are *observed* to run at ("based on current workload"),
  ///    so a node polluted by an overrun job shows real, heterogeneous
  ///    delays; the job under admission is predicted at min(required share,
  ///    node spare capacity) — zero spare means an enormous predicted delay
  ///    and therefore sigma > 0 against any on-time resident.
  ///  - ProcessorSharing: equal-split time sharing (GridSim TimeShared
  ///    ablation, pairs with ExecutionMode::EqualShare).
  ///  - ProportionalShare: every job at its required share, scaled down
  ///    uniformly on overload; spare capacity is not redistributed. Note the
  ///    degeneracy: a uniform squeeze inflates every deadline_delay by the
  ///    same factor, so sigma stays 0 on uniformly overloaded nodes — kept
  ///    for the ablation study only.
  enum class Prediction { CurrentRate, ProcessorSharing, ProportionalShare };
  Prediction prediction = Prediction::CurrentRate;
  /// Relaxation of the zero-risk test: a node is suitable when
  /// sigma <= sigma_threshold + kTolerance (paper: exactly 0). Raising it
  /// trades deadline safety for acceptance; see bench/ablation_risk_threshold.
  /// The test is the literal Eq. 6 one, and σ alone decides: a node
  /// carrying a *single* predicted-late job still has sigma == 0, so a job
  /// whose (over)estimated share exceeds a whole node can be admitted onto
  /// an otherwise-empty node — a salvage lane where it runs at full speed
  /// and, because user estimates are usually inflated, typically still
  /// meets its deadline. This is the mechanism behind LibraRisk's reported
  /// gains on short-deadline jobs; Libra's Eq. 2 test rejects those jobs
  /// outright.
  double sigma_threshold = 0.0;
  /// Numeric tolerance of the zero-risk test.
  static constexpr double kTolerance = 1e-9;
};

/// Eq. 3 clamped at zero: a job completing before its deadline has no delay.
[[nodiscard]] inline double job_delay(double finish_time, double submit_time,
                                      double deadline) noexcept {
  return std::max(0.0, (finish_time - submit_time) - deadline);
}

/// Eq. 4: impact of a delay on the remaining deadline; >= 1, equal to 1 iff
/// the delay is zero. The remaining deadline is clamped below at
/// `deadline_clamp` so jobs at/past their deadline register large but finite
/// impact.
///
/// Inline (like the helpers below) so the executor's aggregate pass in
/// cluster/timeshared.cpp can share the one definition without linking
/// against librisk_core — bit-identity between the cached aggregates and the
/// scalar kernel rests on both sides evaluating these exact expressions.
[[nodiscard]] inline double deadline_delay_metric(double delay,
                                                  double remaining_deadline,
                                                  double deadline_clamp) noexcept {
  const double rd = std::max(remaining_deadline, deadline_clamp);
  return (std::max(delay, 0.0) + rd) / rd;
}

/// An effectively-starved job's predicted completion offset: far enough out
/// to dominate any deadline, small enough to stay numerically benign.
inline constexpr double kStarvedFinish = 1e15;

/// CurrentRate finish offset of a *resident* job (observed rate, Algorithm 1
/// line 4). Exactly the resident branch of the scalar assess_node loop.
[[nodiscard]] inline double resident_finish_current_rate(double remaining_work,
                                                         double rate) noexcept {
  if (remaining_work <= 0.0) return 0.0;
  const double finish = rate > 0.0 ? remaining_work / rate : kStarvedFinish;
  return std::min(finish, kStarvedFinish);
}

/// Predicted delay from a finish offset: past-deadline jobs believed
/// finished are already late by their overshoot.
[[nodiscard]] inline double delay_from_finish_offset(double remaining_work,
                                                     double remaining_deadline,
                                                     double finish_offset) noexcept {
  if (remaining_work > 0.0)
    return std::max(0.0, finish_offset - remaining_deadline);
  if (remaining_deadline < 0.0) return -remaining_deadline;
  return 0.0;
}

/// Eq. 4 deadline_delay of a *resident* under the CurrentRate prediction:
/// its observed-rate finish offset turned into a delay. The one expression
/// both ResidentRiskAggregates::fold and the executor's per-task terms use.
[[nodiscard]] inline double resident_deadline_delay(double remaining_work,
                                                    double remaining_deadline,
                                                    double rate,
                                                    double deadline_clamp) noexcept {
  const double finish = resident_finish_current_rate(remaining_work, rate);
  const double delay =
      delay_from_finish_offset(remaining_work, remaining_deadline, finish);
  return deadline_delay_metric(delay, remaining_deadline, deadline_clamp);
}

/// Eq. 6 from the in-order power sums, exactly as the scalar kernel computes
/// it: population stddev via sqrt(max(0, E[x^2] - E[x]^2)), 0 below two
/// samples.
[[nodiscard]] inline double sigma_from_sums(double dd_sum, double dd_sum_sq,
                                            std::size_t n) noexcept {
  if (n < 2) return 0.0;
  const double dn = static_cast<double>(n);
  const double m = dd_sum / dn;
  return std::sqrt(std::max(0.0, dd_sum_sq / dn - m * m));
}

/// Candidate-independent risk aggregates over one node's residents under the
/// CurrentRate prediction: the left-fold (resident start order) power sums
/// of Eq. 4's deadline_delay and Eq. 1's required shares. Because resident
/// finish predictions under CurrentRate do not depend on the job under
/// admission, an executor can fold these once per (node, instant) and the
/// batched kernel completes any candidate's assessment in O(1) by appending
/// the candidate's terms last — reproducing the scalar kernel's accumulation
/// order, hence its bits (docs/MODEL.md "SoA layout and the batched
/// kernel").
struct ResidentRiskAggregates {
  double share_sum = 0.0;    ///< Σ required_share, in resident order
  double dd_sum = 0.0;       ///< Σ dd_i (Eq. 4), in resident order
  double dd_sum_sq = 0.0;    ///< Σ dd_i^2, in resident order
  double dd_max = 0.0;       ///< left-fold max from 0.0 (dd >= 1 if any)
  /// Min over residents (any fold order; feeds only the conservative spread
  /// bound, which is not bit-constrained). +inf when there are no residents.
  double dd_min = std::numeric_limits<double>::infinity();
  std::size_t count = 0;     ///< residents folded in
  bool computed = false;     ///< false when the producer skipped this part

  /// Folds one resident in, in start order, with the exact expressions of
  /// the scalar assess_node CurrentRate loop. `share` must already be
  /// required_share(remaining_work, remaining_deadline, clamp, speed) for
  /// the same clamp/speed the consumer's RiskConfig will use.
  void fold(double share, double remaining_work, double remaining_deadline,
            double rate, double deadline_clamp) noexcept {
    add(share, resident_deadline_delay(remaining_work, remaining_deadline,
                                       rate, deadline_clamp));
  }
  /// fold() with the resident's deadline_delay already computed.
  void add(double share, double dd) noexcept {
    share_sum += share;
    dd_sum += dd;
    dd_sum_sq += dd * dd;
    dd_max = std::max(dd_max, dd);
    dd_min = std::min(dd_min, dd);
    ++count;
  }
};

/// The batch-level early-exit bound (conservative necessary condition for
/// suitability): a population of N values with spread S = max - min has
/// sigma >= S / sqrt(2N), and adding the admission candidate can only widen
/// the spread, so when the residents' spread alone forces
/// sigma > sigma_threshold + kTolerance the node can be rejected without
/// evaluating the candidate. Shared by the kernel and the conservativeness
/// property test. `n_with_candidate` counts residents + 1. The comparison
/// carries a ~5e-10 relative slack so rounding in the exact test's σ can
/// never make the bound over-reject, and a degenerate (<= 0) threshold
/// disables the bound outright: there the exact σ may round to 0 on a
/// rounding-scale spread, which no finite slack covers.
[[nodiscard]] inline bool sigma_bound_rejects(double dd_max, double dd_min,
                                              std::size_t n_with_candidate,
                                              const RiskConfig& config) noexcept {
  const double threshold =
      std::max(0.0, config.sigma_threshold + RiskConfig::kTolerance);
  if (threshold <= 0.0) return false;  // degenerate rule; exact test decides
  const double spread = dd_max - dd_min;
  if (!(spread > 0.0)) return false;  // empty/uniform (or min still +inf)
  return spread * spread >
         threshold * threshold * (2.0 + 1e-9) *
             static_cast<double>(n_with_candidate);
}

/// Full assessment of one node (Algorithm 1, lines 2-6): predicted delay
/// and deadline_delay per job, plus Eq. 5-6 aggregates.
struct RiskAssessment {
  std::vector<double> predicted_delay;
  std::vector<double> deadline_delay;
  double total_share = 0.0;  ///< Eq. 2 over the same inputs
  double mu = 0.0;           ///< Eq. 5
  double sigma = 0.0;        ///< Eq. 6
  double max_deadline_delay = 0.0;

  [[nodiscard]] bool zero_risk(const RiskConfig& config) const noexcept;
};

/// Result of a workspace-based assessment. The spans alias the workspace
/// passed to assess_node and are invalidated by the next assessment with
/// (or resize of) that workspace — copy out anything that must persist.
struct RiskAssessmentView {
  std::span<const double> predicted_delay;
  std::span<const double> deadline_delay;
  double total_share = 0.0;  ///< Eq. 2 over the same inputs
  double mu = 0.0;           ///< Eq. 5
  double sigma = 0.0;        ///< Eq. 6
  double max_deadline_delay = 0.0;

  [[nodiscard]] bool zero_risk(const RiskConfig& config) const noexcept;
};

/// Reusable scratch memory for the non-allocating assess_node overload.
/// Buffers are grow-only: after the first few assessments at a given node
/// population, no assessment allocates. A workspace is cheap to hold per
/// scheduler; it is not thread-safe — one workspace per thread.
///
/// `inputs` is a caller-side staging buffer (clear + push the node's
/// residents and the admission candidate, then pass it as the jobs span);
/// the remaining buffers are owned by assess_node and aliased by the
/// returned RiskAssessmentView.
class RiskWorkspace {
 public:
  std::vector<RiskJobInput> inputs;

 private:
  std::vector<double> shares_;
  std::vector<double> predicted_delay_;
  std::vector<double> deadline_delay_;
  std::vector<double> finish_;
  std::vector<std::size_t> order_;

  friend RiskAssessmentView assess_node(std::span<const RiskJobInput>,
                                        const RiskConfig&, double, double,
                                        RiskWorkspace&);
};

/// Non-allocating assessment (the admission hot path): identical arithmetic
/// to the allocating overload — same operations in the same order, so
/// results are bit-identical — but all per-job storage lives in `workspace`.
[[nodiscard]] RiskAssessmentView assess_node(std::span<const RiskJobInput> jobs,
                                             const RiskConfig& config,
                                             double speed_factor,
                                             double available_capacity,
                                             RiskWorkspace& workspace);

/// One node of a batched assessment, as structure-of-arrays spans over
/// executor-owned storage (cluster::NodeStateView exposes exactly this
/// layout). Spans must be index-aligned and ordered by resident start time;
/// `remaining_work` is the estimate the caller admits against (LibraRisk:
/// the current, overrun-bumped one). An input whose computed `aggregates`
/// are used (the CurrentRate prediction) may leave all three spans empty:
/// the aggregates carry the resident count.
struct NodeRiskInput {
  std::span<const double> remaining_work;
  std::span<const double> remaining_deadline;
  std::span<const double> rate;
  double speed_factor = 1.0;
  double available_capacity = 1.0;
  /// Optional O(1) fast path: candidate-independent aggregates folded by the
  /// producer in resident order. Only pass when the producer's clamp/speed
  /// match `config` (RiskConfig::deadline_clamp equal to the executor's) and
  /// the prediction is CurrentRate with `remaining_work` the estimate the
  /// aggregates were folded over; assess_nodes checks `computed` but cannot
  /// verify those preconditions. Null → per-resident loop.
  const ResidentRiskAggregates* aggregates = nullptr;
};

/// Per-node outcome of assess_nodes. Unlike RiskAssessmentView there are no
/// per-job arrays: the batch path exists for the admission scan, which only
/// consumes the Eq. 5-6 aggregates and the Eq. 2 fit key.
struct NodeRiskVerdict {
  bool suitable = false;
  /// The conservative spread bound rejected the node without evaluating the
  /// candidate; sigma/total_share/mu/max_deadline_delay are NOT computed
  /// (left at their sentinel values below). Only possible when
  /// AssessNodesOptions::allow_bound_skip is set.
  bool bound_skipped = false;
  bool aggregate_path = false;  ///< O(1) cached-aggregate evaluation used
  double sigma = -1.0;
  double total_share = -1.0;  ///< Eq. 2 fit key (residents + candidate)
  double mu = -1.0;
  double max_deadline_delay = -1.0;
};

struct AssessNodesOptions {
  /// Permit the spread bound to reject nodes without computing sigma.
  /// Decisions are unchanged (the bound is a proven necessary condition,
  /// tests/test_risk_batch.cpp holds it to that), but skipped nodes report
  /// no sigma — callers that must observe sigma for every scanned node
  /// (e.g. while emitting node_evaluated trace events) leave this off.
  bool allow_bound_skip = false;
};

/// Batched assessment of one admission candidate against many nodes — the
/// hot path behind the LibraRisk scan (docs/API.md "Batched risk
/// assessment"). Per node: the O(1) cached-aggregate path when
/// `aggregates` is supplied, otherwise a branch-light fused loop over the
/// SoA spans (CurrentRate), otherwise the scalar workspace kernel staged
/// through `workspace.inputs` (ProcessorSharing / ProportionalShare). Every
/// path reproduces the scalar assess_node bit-for-bit. `verdicts` must have
/// at least `nodes.size()` entries.
void assess_nodes(std::span<const NodeRiskInput> nodes, double candidate_work,
                  double candidate_deadline, const RiskConfig& config,
                  RiskWorkspace& workspace, std::span<NodeRiskVerdict> verdicts,
                  const AssessNodesOptions& options = {});

/// Convenience wrapper over the workspace overload: allocates a fresh
/// RiskAssessment per call. Tests-only convenience — the non-test call
/// sites migrated to the workspace overload (hot paths) or assess_nodes
/// (batch scans); new code should do the same, this wrapper allocates three
/// vectors per call.
[[nodiscard]] RiskAssessment assess_node(std::span<const RiskJobInput> jobs,
                                         const RiskConfig& config,
                                         double speed_factor = 1.0,
                                         double available_capacity = 1.0);

/// Completion offsets (seconds from now) of jobs with the given remaining
/// works when a node of speed `speed_factor` splits capacity equally among
/// unfinished jobs (processor sharing). Returned in input order.
[[nodiscard]] std::vector<double> processor_sharing_finish_times(
    std::span<const double> works, double speed_factor);

/// In-place variant: writes the offsets into `finish` (resized to match)
/// using `order_scratch` for the rank sort; no allocation once both vectors
/// have grown to the node population.
void processor_sharing_finish_times_into(std::span<const double> works,
                                         double speed_factor,
                                         std::vector<std::size_t>& order_scratch,
                                         std::vector<double>& finish);

}  // namespace librisk::core
