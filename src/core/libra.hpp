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

#include "cluster/timeshared.hpp"
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
  /// Shortfall-rejection bookkeeping: rebuilds the failing-node deficits
  /// from scan_metric_, takes the k-th smallest (k = num_procs -
  /// suitable_count — the smallest improvement that would have admitted),
  /// feeds the near-miss counters, and returns the job margin (-deficit;
  /// 0.0 when unquantifiable). Reject path only, so the scan loops stay
  /// store-only.
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

  /// Telemetry-registered sinks (null when telemetry is not attached; the
  /// registry owns the histograms).
  obs::Histogram* scan_nodes_hist_ = nullptr;
  obs::Histogram* response_hist_ = nullptr;

  /// Per-node sampler body: residents/shares/tentative sigma per node.
  void sample_nodes(obs::Series& series, sim::SimTime now) const;
};

}  // namespace librisk::core
