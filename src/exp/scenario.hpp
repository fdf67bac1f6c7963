// One simulation run = one Scenario: workload knobs + cluster + policy.
// run_scenario() is the pure entry point the sweeps, tests and examples
// share — same seed, same parameters, same numbers, every time.
#pragma once

#include <cstdint>

#include "core/engine.hpp"
#include "core/factory.hpp"
#include "metrics/collector.hpp"
#include "trace/event.hpp"
#include "workload/synthetic.hpp"

namespace librisk::exp {

struct Scenario {
  /// Workload generation (trace, estimates, deadlines, inaccuracy).
  workload::PaperWorkloadConfig workload;
  /// Cluster shape (paper: 128 nodes at SPEC rating 168).
  int nodes = 128;
  double rating = 168.0;
  /// Heterogeneous override: per-node SPEC ratings (normalised to `rating`).
  /// When non-empty it defines the cluster and `nodes` is ignored.
  std::vector<double> node_ratings;
  /// Admission-control policy under test.
  core::Policy policy = core::Policy::LibraRisk;
  core::PolicyOptions options;
  /// Root seed; every random stream derives from it.
  std::uint64_t seed = 1;
  /// Steady-state methodology: fraction of the submission span excluded
  /// from the metrics at each end (jobs still run; they are just not
  /// measured). 0 = measure everything, the paper's convention.
  double warmup_fraction = 0.0;
  double cooldown_fraction = 0.0;
};

/// Per-job outcome kept alongside the aggregate summary, enabling
/// diagnosis (e.g. were the late jobs the under-estimated ones themselves,
/// or well-estimated victims squeezed by a co-located overrun?). The
/// decision fields (reason, node, sigma) come from the engine's per-job
/// AdmissionOutcome — run_jobs submits eagerly and keeps each verdict.
struct JobOutcome {
  std::int64_t id = 0;
  metrics::JobFate fate{};
  /// Submit-time verdict; DegradedAdmit marks a DowngradeQoS admission (the
  /// job's final word is still `fate`). Renderers must not fold it into
  /// plain accepted — it is the job the overload mode exists to account
  /// for.
  trace::Verdict verdict = trace::Verdict::Queued;
  double delay = 0.0;
  double slowdown = 0.0;
  bool underestimated = false;  ///< user_estimate < actual_runtime
  workload::Urgency urgency{};
  /// Which admission test said no (None unless the fate is a rejection).
  trace::RejectionReason reason = trace::RejectionReason::None;
  /// First node an accepted job was placed on; -1 when rejected or when
  /// the policy does not report placement at admission.
  std::int32_t node = -1;
  /// Tentative sigma the admission test saw; -1 when no sigma test ran.
  double sigma = -1.0;
  /// Chosen-node admission margin for accepts (signed headroom of the
  /// decisive test); 0.0 when the policy computes none.
  double margin = 0.0;
};

struct ScenarioResult {
  metrics::RunSummary summary;
  std::vector<JobOutcome> outcomes;
  std::uint64_t events_processed = 0;
  /// Admission counters; the node-scan ones stay 0 for space-shared policies.
  core::AdmissionStats admission;
  /// Execution-kernel effort counters (all-zero for space-shared policies).
  cluster::KernelStats kernel;
  /// Wall-clock phase profile; empty() unless options.hooks.telemetry was set.
  obs::ProfileReport profile;
};

/// Generates the workload, runs the policy on it, returns the summary
/// (with utilization filled in).
[[nodiscard]] ScenarioResult run_scenario(const Scenario& scenario);

/// Same, but over a caller-provided job list (e.g. a parsed SWF trace).
/// Jobs must be validated and submit-ordered.
[[nodiscard]] ScenarioResult run_jobs(const Scenario& scenario,
                                      const std::vector<workload::Job>& jobs);

}  // namespace librisk::exp
