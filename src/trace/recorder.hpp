// trace::Recorder — the handle schedulers and executors emit through.
//
// A Recorder wraps one Sink behind typed emit helpers so call sites read as
// statements about what happened (`trace_->job_rejected(...)`) rather than
// struct assembly. Every helper starts with `if (!enabled_) return;` where
// enabled_ is cached at attach time from Sink::discards() — with the default
// NullSink (or no recorder at all) an emission site costs one predictable
// branch and constructs nothing, which is how the admission hot path stays
// zero-allocation and bit-identical (guarded by test_golden_decisions and
// bench/micro_trace.cpp's <=2% budget).
//
// Ownership: the Recorder borrows the Sink; callers keep both alive for the
// duration of the run and call sink.close() (or let BinarySink's destructor)
// when done. Everything here is single-threaded, like the simulator.
#pragma once

#include <cstdint>

#include "sim/types.hpp"
#include "trace/event.hpp"
#include "trace/sink.hpp"

namespace librisk::trace {

class Recorder {
 public:
  Recorder() = default;
  explicit Recorder(Sink& sink) { attach(sink); }

  void attach(Sink& sink) {
    sink_ = &sink;
    enabled_ = !sink.discards();
  }

  /// False when emissions would be discarded — callers computing extra
  /// payload (e.g. the sigma out-param in node_suitable) gate on this.
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  void job_submitted(sim::SimTime t, std::int64_t job, int num_procs,
                     double deadline, double estimate) {
    if (!enabled_) return;
    emit({t, job, deadline, estimate, EventKind::JobSubmitted,
          RejectionReason::None, num_procs});
  }

  /// The three decision-carrying emitters take an optional margin — the
  /// signed headroom of the decisive admission test (Event::margin). Call
  /// sites that compute no margin (FCFS/QoPS family) use the 0.0 default;
  /// the payload only reaches disk when the sink enabled margins.
  void job_admitted(sim::SimTime t, std::int64_t job, int first_node,
                    int suitable, double fit, double margin = 0.0) {
    if (!enabled_) return;
    emit({t, job, static_cast<double>(suitable), fit, EventKind::JobAdmitted,
          RejectionReason::None, first_node, margin});
  }

  void job_rejected(sim::SimTime t, std::int64_t job, RejectionReason reason,
                    int suitable, int num_procs, double margin = 0.0) {
    if (!enabled_) return;
    emit({t, job, static_cast<double>(suitable),
          static_cast<double>(num_procs), EventKind::JobRejected, reason, -1,
          margin});
  }

  void node_evaluated(sim::SimTime t, std::int64_t job, int node,
                      RejectionReason reason, double sigma, double share,
                      double margin = 0.0) {
    if (!enabled_) return;
    emit({t, job, sigma, share, EventKind::NodeEvaluated, reason, node, margin});
  }

  void job_started(sim::SimTime t, std::int64_t job, int first_node,
                   int num_nodes, double estimate) {
    if (!enabled_) return;
    emit({t, job, static_cast<double>(num_nodes), estimate,
          EventKind::JobStarted, RejectionReason::None, first_node});
  }

  void job_finished(sim::SimTime t, std::int64_t job, double lateness) {
    if (!enabled_) return;
    emit({t, job, lateness, 0.0, EventKind::JobFinished, RejectionReason::None,
          -1});
  }

  void job_killed(sim::SimTime t, std::int64_t job, double work_done) {
    if (!enabled_) return;
    emit({t, job, work_done, 0.0, EventKind::JobKilled, RejectionReason::None,
          -1});
  }

  void job_overrun(sim::SimTime t, std::int64_t job, int bumps,
                   double new_estimate) {
    if (!enabled_) return;
    emit({t, job, static_cast<double>(bumps), new_estimate,
          EventKind::JobOverrun, RejectionReason::None, -1});
  }

  void share_realloc(sim::SimTime t, int running_jobs) {
    if (!enabled_) return;
    emit({t, -1, static_cast<double>(running_jobs), 0.0,
          EventKind::ShareRealloc, RejectionReason::None, -1});
  }

  // Overload-catalog emitters (core/overload.hpp). Only a non-HardReject
  // governor reaches these, so default traces keep their pre-catalog bytes.

  /// The overload governor flipped between normal and degraded operation.
  void mode_transition(sim::SimTime t, int mode, bool engaged,
                       double utilization) {
    if (!enabled_) return;
    emit({t, -1, utilization, static_cast<double>(mode),
          EventKind::ModeTransition, RejectionReason::None, engaged ? 1 : 0});
  }

  /// DeferToSalvage parked a shortfall job; `reason` names the test that
  /// failed, `retry_time` when the salvage retry fires, `deferral` which
  /// retry this will be (1-based).
  void job_deferred(sim::SimTime t, std::int64_t job, RejectionReason reason,
                    double retry_time, int deferral) {
    if (!enabled_) return;
    emit({t, job, retry_time, static_cast<double>(deferral),
          EventKind::JobDeferred, reason, -1});
  }

  /// A degraded mode admitted a job that failed the normal test; `reason`
  /// names the test the mode was licensed to bend.
  void job_degraded_admit(sim::SimTime t, std::int64_t job,
                          RejectionReason reason, int first_node, double sigma,
                          double fit, double margin = 0.0) {
    if (!enabled_) return;
    emit({t, job, sigma, fit, EventKind::JobDegradedAdmit, reason, first_node,
          margin});
  }

 private:
  void emit(const Event& event) { sink_->write(event); }

  Sink* sink_ = nullptr;
  bool enabled_ = false;
};

}  // namespace librisk::trace
