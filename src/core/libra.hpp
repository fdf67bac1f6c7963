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

  /// Share capacity of each node in the TotalShare test (the whole
  /// processor), and that test's numeric tolerance.
  static constexpr double kCapacity = 1.0;
  static constexpr double kTolerance = 1e-9;

  Admission admission = Admission::TotalShare;
  Selection selection = Selection::BestFit;
  /// Risk parameters (ZeroRisk admission only). The scheduler takes the
  /// deadline clamp from its executor's share model, whatever this holds.
  RiskConfig risk;

  /// The paper's Libra: total-share admission, best-fit.
  static LibraConfig libra();
  /// The paper's LibraRisk: zero-risk admission, node-order selection.
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

  /// Evaluates a node's suitability for a job right now: the per-node form
  /// of the admission test, whose bits the scans reproduce in bulk,
  /// exposed for decision introspection and as the tests' reference. It
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
               ? LibraConfig::kCapacity - fit
               : config_.risk.sigma_threshold - sigma;
  }
  /// Shortfall-rejection bookkeeping: rebuilds the failing-node deficits
  /// from the scanned classes' verdicts, takes the k-th smallest (k =
  /// num_procs - suitable_count — the smallest improvement that would have
  /// admitted), feeds the near-miss counters, and returns the job margin
  /// (-deficit; 0.0 when unquantifiable). Reject path only, so the scan
  /// loops stay store-only.
  [[nodiscard]] double reject_job_margin(const Job& job, int suitable_count);
  /// Moves the `count` best candidates of suitable_ to its front in
  /// (fit, node id) order — fullest first for BestFit, emptiest first for
  /// WorstFit, ties to the lower node id — leaving the rest unordered.
  /// FirstFit orders by node id; the ZeroRisk scan already stops in node
  /// order.
  void select_prefix(int count);
  /// The submission path proper. It stays out of line from
  /// on_job_submitted: with its body merged under the ScopedPhase, GCC 12
  /// compiled the Eq. 2 scan ~10% slower (bench/e2e libra-1024, 10 pairs).
  void submit(const Job& job);
  /// ZeroRisk candidate scan through core::assess_nodes over adaptive node
  /// chunks, one assessment per node class; fills suitable_ and maintains
  /// the per-consumed-node counters and trace events in node order.
  void scan_zero_risk_batched(const Job& job, sim::SimTime now, bool tracing,
                              bool can_stop_early);
  /// Eq. 2 candidate scan: one fit per node class, read from the class
  /// view on its first occupied member, and one per speed for the idle
  /// nodes (each speed's empty class). Fills suitable_ with every suitable
  /// occupied node and each suitable empty class's num_procs lowest-id
  /// members; returns the cluster-wide suitable count.
  [[nodiscard]] int scan_total_share(const Job& job);
  /// After an Eq. 2 scan (and, on accept, select_prefix): counts the nodes
  /// the decision covers in node order — all of them, except that a
  /// FirstFit accept stops at its last chosen node — and, when tracing,
  /// emits their node_evaluated events in node order.
  void cover_total_share(const Job& job, sim::SimTime now, bool tracing,
                         bool accepted);

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
  /// One node class's verdict in the current submission, shared by its
  /// members: equal classes fold equal bits (cluster::TimeSharedExecutor
  /// "node classes"), so each is assessed once.
  struct ClassVerdict {
    std::uint64_t submission = 0;  ///< stats_.submissions when filled
    bool suitable = false;
    bool empty = false;          ///< no resident (ZeroRisk's empty-node skip)
    bool bound_skipped = false;  ///< σ-spread bound: sigma not computed
    double fit = 0.0;    ///< total share after acceptance (the fit key)
    double sigma = -1.0; ///< sigma the test saw (-1 for TotalShare)
    int offer = 0;       ///< Eq. 2 empty class: members still to offer
  };
  /// Indexed by class id (grow-only). A rejection — which always covers
  /// the whole cluster — rebuilds the failing-node deficits from the
  /// verdicts of scanned_, the distinct classes the scan met.
  std::vector<ClassVerdict> class_verdict_;
  std::vector<cluster::TimeSharedExecutor::ClassId> scanned_;
  /// Reject-path scratch for those rebuilt deficits (reused allocation).
  std::vector<double> fail_deficit_;
  /// Decided once at construction: whether the executor's cached
  /// ResidentRiskAggregates can stand in for the per-resident fold (ZeroRisk
  /// + CurrentRate), and the minimal NodeStateParts the admission scan
  /// needs from node_state().
  bool use_aggregates_ = false;
  cluster::NodeStateParts scan_parts_ = cluster::kStateAll;
  /// Grow-only buffers for the batched ZeroRisk scan; batch entry i is
  /// the class at scanned_[scanned_.size() - batch size + i].
  std::vector<NodeRiskInput> batch_inputs_;
  std::vector<NodeRiskVerdict> batch_verdicts_;

  /// Telemetry-registered sinks (null when telemetry is not attached; the
  /// registry owns the histograms).
  obs::Histogram* scan_nodes_hist_ = nullptr;
  obs::Histogram* response_hist_ = nullptr;

  /// Per-node sampler body: residents/shares/tentative sigma per node.
  void sample_nodes(obs::Series& series, sim::SimTime now) const;
};

}  // namespace librisk::core
