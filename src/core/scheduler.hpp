// Common interface for deadline-constrained job admission controls and the
// trace driver that feeds them.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "metrics/collector.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"
#include "support/hooks.hpp"
#include "trace/recorder.hpp"
#include "workload/job.hpp"

namespace librisk::core {

using metrics::Collector;
using workload::Job;

/// Counters over the admission hot path, reset-free and monotonic; cheap
/// enough to maintain unconditionally. The stats shape both scheduler
/// families share (LibraScheduler, SpaceSharedScheduler): queryable from
/// the scheduler and surfaced by `librisk-sim run`, `examples/diagnose` and
/// ScenarioResult. The node-scan counters stay 0 for the space-shared
/// family, which has no per-node admission scan.
struct AdmissionStats {
  std::uint64_t submissions = 0;      ///< jobs offered to the admission test
  std::uint64_t accepted = 0;
  std::uint64_t rejections = 0;
  /// Nodes a decision covered, in node order: the whole cluster, except
  /// that a FirstFit accept stops at its last chosen node.
  std::uint64_t nodes_scanned = 0;
  std::uint64_t assessments = 0;      ///< full share/risk evaluations run
  /// Idle nodes decided without a risk or share assessment of their own
  /// (ZeroRisk empty views; Eq. 2 empty classes, one fit per speed). For
  /// Libra, assessments + empty_node_skips == nodes_scanned: every covered
  /// node is one or the other.
  std::uint64_t empty_node_skips = 0;
  std::uint64_t early_exits = 0;      ///< FirstFit scans stopped before the last node
  /// Of `assessments`, those served by the batched core::assess_nodes kernel
  /// (ZeroRisk scans; the remainder went through the scalar per-node path).
  std::uint64_t batched_assessments = 0;
  /// Nodes rejected by the batch σ-spread bound without a full evaluation
  /// (untraced ZeroRisk scans only — tracing needs the exact σ, so traced
  /// runs evaluate every node and this stays 0). These nodes still count in
  /// `nodes_scanned` but not in `assessments`.
  std::uint64_t nodes_batch_skipped = 0;
  /// Rejections attributed by reason (sums to `rejections`):
  std::uint64_t rejected_share_overflow = 0;   ///< Eq. 2 total-share shortfall (Libra)
  std::uint64_t rejected_risk_sigma = 0;       ///< sigma-test shortfall (LibraRisk)
  std::uint64_t rejected_no_suitable_node = 0; ///< needs more nodes than the cluster has
  std::uint64_t rejected_deadline_infeasible = 0; ///< space-shared deadline tests (EDF, QoPS)
  /// Near-miss rejections, attributed by the decisive test: the job-level
  /// deficit (the k-th smallest failing-node shortfall, k = num_procs -
  /// suitable — i.e. the smallest improvement that would have admitted) was
  /// within 5% / 10% of the test's scale (share: node capacity; sigma:
  /// max(sigma_threshold, 1); deadline: the job's relative deadline). The
  /// 10% counters include the 5% ones. Exact when margins are observed
  /// (a trace sink attached); conservative — an undercount — when the
  /// batch spread bound skipped exact sigmas, same caveat as
  /// `nodes_batch_skipped`.
  std::uint64_t near_miss_share_5 = 0;
  std::uint64_t near_miss_share_10 = 0;
  std::uint64_t near_miss_sigma_5 = 0;
  std::uint64_t near_miss_sigma_10 = 0;
  std::uint64_t near_miss_deadline_5 = 0;   ///< dispatch-time deadline rejections
  std::uint64_t near_miss_deadline_10 = 0;
  /// Overload outcomes (core/overload.hpp); all 0 under HardReject and for
  /// every policy without a dispatch-time deadline test. `degraded_admits`
  /// is a subset of `accepted` (the job IS running, it just got there
  /// through a relaxed deadline) — the per-reason sums stay exact.
  std::uint64_t degraded_admits = 0;       ///< admissions via a degraded-mode bend
  std::uint64_t overload_activations = 0;  ///< governor flips into degraded operation

  /// Derived views shared by every stats surface (CLI, diagnose, telemetry)
  /// so the arithmetic lives in exactly one place. All are 0 when the
  /// denominator is 0.
  [[nodiscard]] double scans_per_submission() const noexcept {
    return submissions > 0 ? static_cast<double>(nodes_scanned) /
                                 static_cast<double>(submissions)
                           : 0.0;
  }
  [[nodiscard]] double accept_rate() const noexcept {
    return submissions > 0
               ? static_cast<double>(accepted) / static_cast<double>(submissions)
               : 0.0;
  }
  [[nodiscard]] std::uint64_t near_miss_5() const noexcept {
    return near_miss_share_5 + near_miss_sigma_5 + near_miss_deadline_5;
  }
  [[nodiscard]] std::uint64_t near_miss_10() const noexcept {
    return near_miss_share_10 + near_miss_sigma_10 + near_miss_deadline_10;
  }
};

/// A cluster RMS policy: receives each job at its submission instant and is
/// responsible for eventually resolving it in the collector (reject, or
/// start + complete). Implementations drive their own executors off the
/// shared Simulator.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Called exactly once per job, at job.submit_time, after the collector
  /// has recorded the submission.
  virtual void on_job_submitted(const Job& job) = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Placement detail of the most recent admission decision, for
  /// AdmissionEngine::submit's per-job outcome. Valid only while
  /// `job_id` matches the job just submitted — policies that queue instead
  /// of deciding at submission leave it untouched (the engine checks the id
  /// and reports such jobs as queued). Rejection *reasons* travel through
  /// the collector record, which survives later overwrites; this struct
  /// carries what the collector cannot: the node the job landed on and the
  /// tentative sigma its admission test saw.
  struct Decision {
    std::int64_t job_id = -1;
    std::int32_t node = -1;  ///< first selected node; -1 when none
    double sigma = -1.0;     ///< tentative sigma (Eq. 6); -1 when no sigma test ran
    /// Chosen-node admission margin (signed headroom of the decisive test,
    /// obs::NodeMargin convention); 0.0 when the policy computes none.
    double margin = 0.0;
    /// The admission went through a degraded-mode bend (core/overload.hpp):
    /// the job failed the normal test and DowngradeQoS admitted it anyway.
    /// The engine reports such jobs as Verdict::DegradedAdmit.
    bool degraded = false;
    /// No in-library scheduler sets this and the engine ignores it (a
    /// parked job reads as Queued). It stays only because bench/e2e's
    /// timing decorator forwards it through note_deferred(); delete both
    /// with the next change to that benchmark.
    bool deferred = false;
  };
  [[nodiscard]] const Decision& last_decision() const noexcept {
    return last_decision_;
  }

  /// Attaches the observation hooks (docs/TRACING.md, docs/OBSERVABILITY.md)
  /// in one shot: the trace recorder receives admission events, and a
  /// non-null telemetry makes the scheduler register its counters as pull
  /// metrics and contribute samplers via on_telemetry(). Call at most once,
  /// before the first submission; both hooks are optional and a null hook
  /// costs one branch per hook site.
  void attach(const Hooks& hooks) {
    trace_ = hooks.trace;
    telemetry_ = hooks.telemetry;
    profiler_ = hooks.telemetry != nullptr ? &hooks.telemetry->profiler() : nullptr;
    if (hooks.telemetry != nullptr) on_telemetry(*hooks.telemetry);
  }

 protected:
  Scheduler() = default;

  /// Registration hook: add pull metrics, series and samplers. Called once
  /// from attach() with a telemetry that outlives the run.
  virtual void on_telemetry(obs::Telemetry& telemetry) { (void)telemetry; }

  /// Records the placement of an accepted job for last_decision().
  void note_decision(std::int64_t job_id, std::int32_t node, double sigma,
                     double margin = 0.0, bool degraded = false) noexcept {
    last_decision_ = Decision{job_id, node, sigma, margin, degraded, false};
  }

  /// Records that `job_id` was parked without a placement (see
  /// Decision::deferred).
  void note_deferred(std::int64_t job_id) noexcept {
    last_decision_ = Decision{job_id, -1, -1.0, 0.0, false, true};
  }

  /// Borrowed, may be null; subclasses emit admission events through it.
  trace::Recorder* trace_ = nullptr;
  /// Borrowed, may be null.
  obs::Telemetry* telemetry_ = nullptr;
  /// Cached &telemetry_->profiler(), null when telemetry is absent — so
  /// ScopedPhase sites pay a single null check.
  obs::PhaseProfiler* profiler_ = nullptr;

 private:
  Decision last_decision_;
};

/// Batch driver: submits every job of a validated, submit-ordered trace and
/// drains the simulation to completion. A thin loop over
/// core::AdmissionEngine (engine.hpp) in borrowed mode — the engine copies
/// each job into its own storage, so the vector only needs to outlive the
/// call itself. `hooks.trace` receives a JobSubmitted event per arrival
/// (before the scheduler sees the job); `hooks.telemetry` is armed on the
/// simulator (metronome sampling + queue-depth gauge), the drain is timed
/// as the `run` phase, and a terminal sample is taken at end-of-run time.
/// The hooks must be the same ones already attached to the scheduler stack
/// (PolicyOptions::hooks wires both when the stack comes from the factory).
void run_trace(sim::Simulator& simulator, Scheduler& scheduler,
               Collector& collector, const std::vector<Job>& jobs,
               const Hooks& hooks = {});

}  // namespace librisk::core
