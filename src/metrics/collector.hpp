// Per-job accounting and the paper's two evaluation metrics.
//
// Section 5: (i) percentage of jobs with deadlines fulfilled = jobs
// completed within their specified deadline / *total jobs submitted*;
// (ii) average slowdown = mean over *fulfilled jobs only* of
// response time / minimum runtime.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <vector>

#include "support/stats.hpp"
#include "trace/event.hpp"
#include "workload/job.hpp"

namespace librisk::metrics {

using workload::Job;
using sim::SimTime;

/// Terminal state of a submitted job.
enum class JobFate : std::uint8_t {
  Pending = 0,          ///< submitted, not yet resolved
  RejectedAtSubmit,     ///< admission control refused at submission
  RejectedAtDispatch,   ///< EDF-style rejection when selected for execution
  FulfilledInTime,      ///< completed within deadline
  CompletedLate,        ///< completed after deadline (deadline violated)
  Killed,               ///< terminated at its estimate (kill-at-limit mode)
};

[[nodiscard]] const char* to_string(JobFate fate) noexcept;

/// Completion this close to the deadline (seconds) still counts as
/// fulfilled: proportional-share pacing finishes jobs *exactly* at their
/// deadline, so sub-second arithmetic residue must not read as a violation.
inline constexpr double kDelayTolerance = 0.5;

/// Records copy the job fields they report on instead of keeping a
/// `const Job*`: a streaming driver (core::AdmissionEngine) reclaims Job
/// storage as soon as a job resolves, so a retained pointer would dangle by
/// summarize() time.
struct JobRecord {
  JobFate fate = JobFate::Pending;
  SimTime submit_time = 0.0;
  SimTime start_time = 0.0;    ///< valid when started
  SimTime finish_time = 0.0;   ///< valid when completed
  double min_runtime = 0.0;    ///< best-case runtime on its allocated nodes
  double delay = 0.0;          ///< Eq. 3, valid when completed
  bool started = false;
  // Copied at submission (see above).
  int num_procs = 0;
  workload::Urgency urgency = workload::Urgency::Unspecified;
  bool underestimated = false;  ///< user_estimate < actual_runtime
  /// Which admission test said no (None unless fate is a rejection) — the
  /// per-job attribution that used to require diffing AdmissionStats
  /// counters around each submission.
  trace::RejectionReason reject_reason = trace::RejectionReason::None;

  [[nodiscard]] double response_time() const noexcept {
    return finish_time - submit_time;
  }
  [[nodiscard]] double slowdown() const noexcept {
    return min_runtime > 0.0 ? response_time() / min_runtime : 0.0;
  }
};

/// Aggregate results of one simulation run.
struct RunSummary {
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  std::size_t rejected_at_submit = 0;
  std::size_t rejected_at_dispatch = 0;
  std::size_t fulfilled = 0;
  std::size_t completed_late = 0;
  std::size_t killed = 0;

  /// Paper metric (i), in percent of submitted jobs.
  double fulfilled_pct = 0.0;
  /// Paper metric (ii): mean slowdown over fulfilled jobs.
  double avg_slowdown_fulfilled = 0.0;
  /// Mean slowdown over every completed job (diagnostic).
  double avg_slowdown_completed = 0.0;
  /// Mean delay (Eq. 3) over late jobs; 0 when none.
  double avg_delay_late = 0.0;
  /// Tail behaviour (0 when no fulfilled/late jobs respectively): the p95
  /// slowdown answers "how bad is service for the unluckiest accepted
  /// jobs", the max delay bounds the worst broken promise.
  double p95_slowdown_fulfilled = 0.0;
  double max_delay = 0.0;
  /// Fulfilled percentage within each urgency class.
  double fulfilled_pct_high_urgency = 0.0;
  double fulfilled_pct_low_urgency = 0.0;
  /// Simulation makespan: last completion (or last submission) time.
  SimTime makespan = 0.0;
  /// Delivered-work utilization over [0, makespan], when the scenario
  /// provides it (0 otherwise).
  double utilization = 0.0;
};

class Collector {
 public:
  /// Every job must be announced exactly once before any other record_* call.
  void record_submitted(const Job& job, SimTime now);
  void record_rejected(const Job& job, SimTime now, bool at_dispatch,
                       trace::RejectionReason reason = trace::RejectionReason::None);
  /// `min_runtime`: the job's best-case runtime on the nodes it received.
  void record_started(const Job& job, SimTime now, double min_runtime);
  void record_completed(const Job& job, SimTime finish);
  /// Kill-at-limit termination (started, never finished its work).
  void record_killed(const Job& job, SimTime when);

  /// True when every submitted job reached a terminal fate.
  [[nodiscard]] bool all_resolved() const noexcept;

  /// Observers fired once per job the instant it reaches a terminal fate
  /// (rejected, completed, or killed), with the job's id, in registration
  /// order. core::AdmissionEngine registers one to reclaim job storage;
  /// core::AdmissionGateway registers another to audit the jobs it shed
  /// (each must resolve as a rejection). Callbacks must not call back into
  /// this Collector. remove_resolution_observer() is safe while other
  /// observers stay registered (tokens are stable); it must not be called
  /// from inside an observer.
  using ResolutionObserver = std::function<void(std::int64_t)>;
  using ObserverId = std::size_t;
  ObserverId add_resolution_observer(ResolutionObserver observer);
  void remove_resolution_observer(ObserverId id);
  [[nodiscard]] const JobRecord& record(std::int64_t job_id) const;
  [[nodiscard]] const std::map<std::int64_t, JobRecord>& records() const noexcept {
    return records_;
  }

  [[nodiscard]] RunSummary summarize() const;

  /// Steady-state methodology: only jobs submitted inside [begin, end] are
  /// counted (warmup/cooldown exclusion; Feitelson's recommendation for
  /// open-system experiments). Jobs outside still executed — they shaped
  /// the system state — they are just not measured.
  struct MeasurementWindow {
    SimTime begin = 0.0;
    SimTime end = std::numeric_limits<SimTime>::infinity();
  };
  [[nodiscard]] RunSummary summarize(const MeasurementWindow& window) const;

 private:
  JobRecord& fetch(const Job& job, bool must_exist);
  void resolved(const Job& job);
  std::map<std::int64_t, JobRecord> records_;
  std::size_t resolved_ = 0;
  /// Fan-out slots; a removed observer leaves a null slot so ObserverId
  /// tokens stay stable (slots are reused by the next add).
  std::vector<ResolutionObserver> observers_;
};

/// Summary over the union of several collectors' records, as if every job
/// had been recorded in one collector — the paper metrics are sums and
/// record-weighted means, so a federation's K per-shard collectors
/// aggregate exactly (no mean-of-means bias). Collector::summarize is the
/// single-collector special case; job ids must be disjoint across inputs
/// (each job lives in exactly one shard).
[[nodiscard]] RunSummary summarize_all(
    const std::vector<const Collector*>& collectors,
    const Collector::MeasurementWindow& window = {});

}  // namespace librisk::metrics
