// Libra and LibraRisk: deadline-based proportional-share admission controls
// (paper Sections 3.1 and 3.3).
//
// Both run jobs on the time-shared proportional-share executor and decide
// accept/reject at submission. They differ in two dials (paper Section 3.3):
//
//   admission test per node:
//     TotalShare (Libra, Eq. 2): the node is suitable iff the sum of
//       raw-estimate-based shares, including the new job, fits in the node's
//       capacity. Jobs that have overrun their estimate contribute *zero*
//       share — this is the "idealistic assumption of accurate runtime
//       estimates" the paper criticises.
//     ZeroRisk (LibraRisk, Eq. 4-6 / Algorithm 1): the node is suitable iff
//       the risk of deadline delay is zero when the new job is temporarily
//       added, evaluated against the scheduler's *current* knowledge
//       (including overrun re-estimates).
//
//   node selection among suitable nodes:
//     BestFit (Libra): least capacity left after acceptance — saturate
//       nodes to their maximum.
//     FirstFit (LibraRisk, Algorithm 1): zero-risk nodes in node order.
//     WorstFit: most capacity left first (load-levelling ablation).
#pragma once

#include <string>
#include <unordered_map>

#include "cluster/timeshared.hpp"
#include "core/overload.hpp"
#include "core/risk.hpp"
#include "core/scheduler.hpp"

namespace librisk::core {

struct LibraConfig {
  enum class Admission { TotalShare, ZeroRisk };
  enum class Selection { BestFit, FirstFit, WorstFit };

  Admission admission = Admission::TotalShare;
  Selection selection = Selection::BestFit;
  /// Share capacity of each node (1.0 = the whole processor).
  double capacity = 1.0;
  /// Which remaining-work estimate the admission test reads: the raw user
  /// estimate (Libra's Eq. 1) or the scheduler's current overrun-adjusted
  /// estimate. Libra defaults to Raw, LibraRisk to Current.
  cluster::TimeSharedExecutor::EstimateKind estimate_kind =
      cluster::TimeSharedExecutor::EstimateKind::Raw;
  /// Risk parameters (ZeroRisk admission only).
  RiskConfig risk;
  /// Numeric tolerance on the capacity test.
  double tolerance = 1e-9;
  /// Graceful-degradation catalog entry (core/overload.hpp). HardReject —
  /// the default — reproduces the paper's behavior exactly; other modes
  /// bend the shortfall path while the load threshold is exceeded.
  /// Degraded re-scans run the normal scan's node_suitable arithmetic.
  OverloadConfig overload;

  /// The paper's Libra: total-share admission, best-fit, raw estimates.
  static LibraConfig libra();
  /// The paper's LibraRisk: zero-risk admission, node-order selection,
  /// overrun-aware estimates.
  static LibraConfig libra_risk();
};

class LibraScheduler final : public Scheduler {
 public:
  /// The executor's completion events feed the collector; the scheduler
  /// installs its own completion handler on `executor`.
  LibraScheduler(sim::Simulator& simulator, cluster::TimeSharedExecutor& executor,
                 Collector& collector, LibraConfig config, std::string name);

  void on_job_submitted(const Job& job) override;
  [[nodiscard]] std::string_view name() const noexcept override { return name_; }

  /// Evaluates a node's suitability for a job right now: the per-node test
  /// of the admission scan, also exposed for decision introspection. It
  /// changes no decision state; only the effort counters tick. Returns the
  /// fit key used for selection via `fit` (total share after acceptance).
  /// `sigma_out`, when non-null, receives the sigma the decision saw (-1
  /// for the TotalShare test, which has no sigma).
  [[nodiscard]] bool node_suitable(cluster::NodeId node, const Job& job,
                                   double& fit,
                                   double* sigma_out = nullptr) const;

  [[nodiscard]] const LibraConfig& config() const noexcept { return config_; }
  /// Hot-path counters since construction (see AdmissionStats).
  [[nodiscard]] const AdmissionStats& admission_stats() const noexcept {
    return stats_;
  }

 protected:
  /// Registers admission counters as pull metrics, scan/response
  /// histograms, the cumulative "admission" series and the per-node
  /// "nodes" series (residents, shares, tentative sigma).
  void on_telemetry(obs::Telemetry& telemetry) override;

 private:
  struct Candidate {
    cluster::NodeId node;
    double fit;    // total share after acceptance; higher = fuller
    double sigma;  // sigma the suitability test saw (-1 for TotalShare)
  };

  [[nodiscard]] double new_job_share(const Job& job, cluster::NodeId node) const;
  /// The reason a failed per-node scan (or a shortfall rejection) carries:
  /// the admission test that said no.
  [[nodiscard]] trace::RejectionReason scan_reason() const noexcept;
  /// Signed headroom of the decisive admission test for a scanned node
  /// (obs::NodeMargin convention): TotalShare: capacity - fit;
  /// ZeroRisk: sigma_threshold - sigma.
  [[nodiscard]] double node_margin(double fit, double sigma) const noexcept {
    return config_.admission == LibraConfig::Admission::TotalShare
               ? config_.capacity - fit
               : config_.risk.sigma_threshold - sigma;
  }
  /// Shortfall-rejection bookkeeping shared by the submission and salvage
  /// retry paths: rebuilds the failing-node deficits from scan_metric_,
  /// takes the k-th smallest (k = num_procs - suitable_count — the smallest
  /// improvement that would have admitted), feeds the near-miss counters,
  /// and returns the job margin (-deficit; 0.0 when unquantifiable). Reject
  /// path only, so the scan loops stay store-only.
  [[nodiscard]] double reject_job_margin(const Job& job, int suitable_count);
  /// Moves the `count` best candidates of suitable_ to its front in
  /// (fit, node id) order — fullest first for BestFit, emptiest first for
  /// WorstFit, ties to the lower node id — leaving the rest unordered.
  /// FirstFit keeps the scan's node order.
  void select_prefix(int count);
  /// The submission path proper. It stays out of line from
  /// on_job_submitted: with its body merged under the ScopedPhase, GCC 12
  /// compiled the Eq. 2 scan ~10% slower (bench/e2e libra-1024, 10 pairs).
  void submit(const Job& job);
  /// ZeroRisk candidate scan through core::assess_nodes over adaptive node
  /// chunks; fills suitable_ and maintains the same per-consumed-node
  /// counters and trace events as the scalar scan, in node order.
  void scan_zero_risk_batched(const Job& job, sim::SimTime now, bool tracing,
                              bool can_stop_early);

  // ---- overload-catalog consult sites (core/overload.hpp) ----
  // Every helper below is only reachable when a non-HardReject mode is
  // configured (overload_enabled_), so the default path stays byte-identical
  // to pre-catalog builds.

  /// The Libra-family load signal: admitted-but-unfinished share demand vs
  /// total share capacity (cluster size x per-node capacity).
  [[nodiscard]] LoadSignal load_signal() const noexcept {
    return LoadSignal{inflight_share_,
                      static_cast<double>(executor_.cluster().size()) *
                          config_.capacity};
  }
  /// Per-submission governor pulse + the ShedTail pre-check. Returns true
  /// when the job was shed (fully accounted as a rejection).
  [[nodiscard]] bool shed_or_pulse(const Job& job, sim::SimTime now);
  /// Shortfall consult: called when the normal scan came up short. Applies
  /// the engaged mode's bend (relaxed re-scan, QoS downgrade, or deferral);
  /// returns true when the job was admitted or parked, false to fall
  /// through to the normal reject path.
  [[nodiscard]] bool try_degraded(const Job& job, sim::SimTime now);
  /// Full-cluster re-scan with a (possibly) relaxed sigma threshold and a
  /// (possibly) rewritten deadline, with the Eq. 2 share cap enforced on
  /// every candidate (catalog flag kForbidAdmitPastEq2). Admits on success.
  [[nodiscard]] bool rescan_and_admit(const Job& job, sim::SimTime now,
                                      double sigma_threshold, double deadline,
                                      trace::RejectionReason bent);
  /// Admits the job over the first num_procs entries of suitable_ with the
  /// degraded provenance (stats, Decision mark, JobDegradedAdmit event).
  /// `run` is the job handed to the executor — the degraded copy for
  /// DowngradeQoS, `job` itself otherwise.
  void degraded_admit_prepared(const Job& job, const Job& run,
                               sim::SimTime now, trace::RejectionReason bent);
  /// DeferToSalvage: parks the job and schedules its retry.
  void defer_job(const Job& job, sim::SimTime now);
  /// Salvage-lane retry: re-runs the NORMAL test (DeferToSalvage may bend
  /// neither risk nor deadline); re-parks or finally rejects at_dispatch.
  void retry_deferred(std::int64_t job_id);
  /// Inflight-share bookkeeping feeding load_signal().
  void track_inflight(const Job& job,
                      const std::vector<cluster::NodeId>& nodes);
  void release_inflight(std::int64_t job_id);
  /// Completion/kill epilogue under an enabled catalog: releases the
  /// inflight contribution and, for a DowngradeQoS job, restores the
  /// original deadline before the collector judges lateness.
  void resolve_overload(const Job& job, sim::SimTime when, bool killed);

  sim::Simulator& sim_;
  cluster::TimeSharedExecutor& executor_;
  Collector& collector_;
  LibraConfig config_;
  std::string name_;
  mutable AdmissionStats stats_;
  /// Per-scheduler scratch for the admission scan (grow-only, reused every
  /// submission; mutable because node_suitable() is a const query).
  mutable RiskWorkspace workspace_;
  std::vector<Candidate> suitable_;
  /// Per-node decisive metric of the current scan, indexed by node: fit
  /// (TotalShare) or sigma (ZeroRisk; +inf for a bound-skipped node, whose
  /// shortfall is unquantifiable). One flat store per scanned node keeps
  /// the hot loop branch-free; a rejection — which always scans the whole
  /// cluster — rebuilds the failing-node deficits from it after the fact.
  std::vector<double> scan_metric_;
  /// Reject-path scratch for those rebuilt deficits (reused allocation).
  std::vector<double> fail_deficit_;
  /// Decided once at construction: whether the executor's cached
  /// ResidentRiskAggregates can stand in for the per-resident fold (ZeroRisk
  /// + CurrentRate + Current estimates + matching deadline clamps), and the
  /// minimal NodeStateParts the admission scan needs from node_state().
  bool use_aggregates_ = false;
  cluster::NodeStateParts scan_parts_ = cluster::kStateAll;
  /// Grow-only buffers for the batched ZeroRisk scan.
  struct BatchEntry {
    cluster::NodeId node;
    bool empty;
  };
  std::vector<NodeRiskInput> batch_inputs_;
  std::vector<NodeRiskVerdict> batch_verdicts_;
  std::vector<BatchEntry> batch_meta_;

  // ---- overload-catalog state (all idle under HardReject) ----
  /// mode != HardReject, decided once at construction; every consult site
  /// guards on it so the default path never touches the state below.
  bool overload_enabled_ = false;
  OverloadGovernor governor_;
  /// Fastest node speed, for the ShedTail required-share bound (a job's
  /// cheapest possible per-node share is on the fastest node).
  double max_speed_ = 1.0;
  /// Degraded re-scan scratch: rescan_and_admit builds candidates here so a
  /// failed bend leaves suitable_ (and the normal reject accounting that
  /// reads it) untouched; swapped into suitable_ on success only.
  std::vector<Candidate> rescan_suitable_;
  /// Admitted-but-unfinished share demand (sum over running jobs of their
  /// admission-time share on every chosen node); the load signal numerator.
  double inflight_share_ = 0.0;
  std::unordered_map<std::int64_t, double> inflight_contrib_;
  /// DowngradeQoS: the executor borrows Job pointers until completion, so
  /// the deadline-extended copy needs stable scheduler-owned storage. The
  /// completion/kill handler restores `original_deadline` before the
  /// collector judges lateness, and erases the entry last (its `const Job&`
  /// parameter aliases the map-owned copy).
  struct DowngradedJob {
    Job job;
    double original_deadline;
  };
  std::unordered_map<std::int64_t, DowngradedJob> downgraded_;
  /// DeferToSalvage parking lot. The engine slab keeps a parked job's
  /// storage alive while it is Pending, same contract EDF's queue relies on.
  struct Parked {
    const Job* job;
    int deferrals;
  };
  std::unordered_map<std::int64_t, Parked> parked_;

  /// Telemetry-registered sinks (null when telemetry is not attached; the
  /// registry owns the histograms).
  obs::Histogram* scan_nodes_hist_ = nullptr;
  obs::Histogram* response_hist_ = nullptr;

  /// Per-node sampler body: residents/shares/tentative sigma per node.
  void sample_nodes(obs::Series& series, sim::SimTime now) const;
};

}  // namespace librisk::core
