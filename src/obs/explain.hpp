// Decision provenance: per-submission margin records (docs/OBSERVABILITY.md
// "Decision provenance & margins").
//
// The admission path decides with inequalities — total share vs capacity
// (Eq. 2), sigma vs the risk threshold (Eq. 6), best-case finish vs the
// deadline — but the aggregate surfaces only keep the verdicts. An
// ExplainRecorder captures the *margins*: for every decision, each
// candidate node the scan touched with the signed headroom of its decisive
// test, plus a job-level margin that says what it would have taken to flip
// the decision.
//
// It is a trace::Sink folding the trace event stream, the one decision
// record: attach it through a trace::Recorder in Hooks::trace, or write a
// recorded .lrt file's events into it — the same fold either way, so
// `librisk-sim explain` and `trace explain` print the same records.
// JobSubmitted opens a pending record, NodeEvaluated adds a node margin,
// JobAdmitted/JobRejected close it at the decision instant, and JobStarted
// drops a space-shared admission (that family accepts by starting a job,
// with no decision event), so memory stays bounded by the wait queue. Like
// any live sink it forces exact sigmas (no batch spread-bound skip), which
// alters effort counters but is proven decision-neutral
// (tests/test_explain.cpp holds traces byte-identical).
//
// Margin sign convention (shared with trace Event::margin, see
// docs/TRACING.md "Margins"): margin >= 0 means the test passed with that
// much slack, margin < 0 means it failed by that much.
//   TotalShare node:  capacity - total_share_after_acceptance
//   ZeroRisk node:    sigma_threshold - sigma   (tolerance excluded: the
//                     engine's test is sigma <= threshold + tolerance, so a
//                     node passes iff margin >= -tolerance)
//   Deadline reject:  allowed_finish - best_case_finish
//   Job-level reject: -(k-th smallest node deficit), k = num_procs -
//                     suitable_count — the smallest per-node improvement
//                     that would have yielded enough suitable nodes.
//
// The recorder also folds every sigma evaluation into running extremes
// (SigmaExtremes): the largest sigma that passed and the smallest that
// failed. Those two numbers certify a threshold interval on which *every*
// verdict — hence the whole decision trajectory — is invariant, which is
// what exp::sweep_sigma_thresholds exploits to recompute the paper's
// risk-knob curve from one run (docs/MODEL.md "threshold stability").
//
// Thread affinity: single-threaded, written only from the thread driving
// the simulator (the gateway's drive thread in concurrent front-ends), like
// every other sink.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hpp"
#include "trace/event.hpp"
#include "trace/sink.hpp"

namespace librisk::obs {

/// One candidate node's admission-test outcome inside one decision.
struct NodeMargin {
  std::int32_t node = -1;
  bool suitable = false;
  /// The failed test when !suitable; None when suitable.
  trace::RejectionReason test = trace::RejectionReason::None;
  /// Sigma the test saw; -1 when no sigma was computed (TotalShare).
  double sigma = -1.0;
  /// Eq. 2 fit key (total share after acceptance); -1 when not computed.
  double share = -1.0;
  /// Signed headroom of the decisive test (see header comment).
  double margin = 0.0;
};

/// One admission decision (Accepted or Rejected) with its margin context.
/// An accept's node/sigma/margin are the engine's AdmissionOutcome; a
/// reject's margin is the job-level one (header comment), 0.0 when none
/// applies (e.g. NoSuitableNode).
struct DecisionExplain : trace::DecisionRecord {
  sim::SimTime time = 0.0;  ///< the decision instant
  int num_procs = 1;
  double deadline = 0.0;  ///< relative deadline at submission
  double estimate = 0.0;  ///< scheduler runtime estimate at submission
  int suitable = 0;       ///< suitable nodes the scan found
  /// Per-node margins in scan order; empty for policies without a node
  /// scan (EDF family) or when ExplainConfig::keep_nodes is off.
  std::vector<NodeMargin> nodes;
};

/// Running extremes over every sigma evaluation a recorder observed. The
/// zero-risk test is sigma <= threshold + tolerance, monotone in sigma, so
/// all verdicts — and with them the whole deterministic decision trajectory
/// — are unchanged for any probe threshold T' with
///   pass_max <= T' + tolerance  and  !(fail_min <= T' + tolerance),
/// evaluated in the engine's own floating-point expressions (covers()).
struct SigmaExtremes {
  double pass_max = -std::numeric_limits<double>::infinity();
  double fail_min = std::numeric_limits<double>::infinity();
  std::uint64_t passes = 0;
  std::uint64_t fails = 0;

  /// True when every recorded sigma verdict is provably identical at
  /// `threshold` (same tolerance as the recorded run).
  [[nodiscard]] bool covers(double threshold, double tolerance) const noexcept {
    const bool passes_hold = passes == 0 || pass_max <= threshold + tolerance;
    const bool fails_hold = fails == 0 || !(fail_min <= threshold + tolerance);
    return passes_hold && fails_hold;
  }
};

struct ExplainConfig {
  /// Decisions retained (ring; the oldest is dropped). 0 keeps nothing —
  /// extremes and counts are still maintained, which is all the
  /// counterfactual sweep needs.
  std::size_t capacity = 256;
  /// Retain only this job's decisions (-1 = all). Filters retention only;
  /// extremes always see every evaluation.
  std::int64_t only_job = -1;
  /// Retain only rejections.
  bool only_rejections = false;
  /// Keep the per-node margin vectors (the bulk of the memory).
  bool keep_nodes = true;
};

class ExplainRecorder final : public trace::Sink {
 public:
  explicit ExplainRecorder(ExplainConfig config = {});

  /// Folds one trace event (see header comment); other kinds are ignored.
  void write(const trace::Event& event) override;

  [[nodiscard]] const ExplainConfig& config() const noexcept { return config_; }
  /// Retained decisions, oldest first.
  [[nodiscard]] const std::deque<DecisionExplain>& decisions() const noexcept {
    return ring_;
  }
  /// Most recent retained decision for `job_id`; nullptr when absent.
  [[nodiscard]] const DecisionExplain* find(std::int64_t job_id) const noexcept;
  [[nodiscard]] const SigmaExtremes& sigma_extremes() const noexcept {
    return extremes_;
  }
  /// Decisions offered for retention / dropped by capacity or filters.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  void clear();

 private:
  /// Closes and retains the job's pending record (JobAdmitted/JobRejected).
  void decide(const trace::Event& event);

  ExplainConfig config_;
  std::deque<DecisionExplain> ring_;
  /// Submitted jobs awaiting their decision event (the current scan, or a
  /// space-shared wait queue); jobs the filters never retain get none.
  std::unordered_map<std::int64_t, DecisionExplain> pending_;
  SigmaExtremes extremes_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

/// The smallest per-node improvement that would have admitted a rejected
/// job (0.0 for accepted decisions): max(0, -margin) in the job-level
/// convention.
[[nodiscard]] double required_improvement(const DecisionExplain& d) noexcept;

/// Multi-line human rendering: verdict, job-level margin, what it would
/// have taken, and the per-node margin table (when retained). Shared by
/// `librisk-sim explain` and `trace explain`.
[[nodiscard]] std::string describe(const DecisionExplain& d);

}  // namespace librisk::obs
