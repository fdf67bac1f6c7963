#include "core/gateway.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cluster/share_model.hpp"
#include "obs/telemetry.hpp"
#include "support/check.hpp"
#include "support/log.hpp"

namespace librisk::core {

AdmissionGateway::AdmissionGateway(GatewayConfig config)
    : config_(std::move(config)),
      queue_(config_.queue_capacity),
      flight_(obs::FlightConfig{.capacity = config_.flight_capacity}) {
  LIBRISK_CHECK(config_.engine.cluster.has_value(),
                "the gateway requires an owning-mode EngineConfig (cluster "
                "set): its drive thread must be the engine's only user");
  LIBRISK_CHECK(config_.granularity > 0, "granularity must be positive");
  LIBRISK_CHECK(config_.aggregate_headroom > 0.0, "headroom must be positive");

  // Derive the certificate parameters before the cluster is moved into the
  // engine. Each mirrors the policy's own admission expression exactly —
  // same floating-point operations, same tolerances — so the monotonicity
  // argument in docs/CONCURRENCY.md applies to the computed values, not
  // just the real-number idealisation.
  const cluster::Cluster& cluster = *config_.engine.cluster;
  model_.cluster_size = cluster.size();
  model_.max_speed = cluster.max_speed_factor();
  switch (config_.engine.policy) {
    case Policy::Libra:
      // Eq. 2 on the fastest node with an empty resident set is a lower
      // bound on every node's total-share test. Capacity/tolerance are
      // LibraConfig::libra() defaults, which make_scheduler never
      // overrides; the clamp is the executor's share model.
      model_.share_test = true;
      model_.deadline_clamp = config_.engine.options.share_model.deadline_clamp;
      model_.share_capacity = LibraConfig{}.capacity;
      model_.share_tolerance = LibraConfig{}.tolerance;
      break;
    case Policy::Edf:
    case Policy::EdfBackfill:
      // deadline_feasible() at the earliest possible `now` (the submit
      // instant) with the fastest node; the factory always turns the
      // dispatch-time deadline test on for these two. DowngradeQoS re-tests
      // that shortfall against an extended deadline, which breaks the
      // certificate's "no now implies no later" premise, so only
      // HardReject keeps it.
      model_.deadline_test =
          config_.engine.options.overload.mode == DegradedMode::HardReject;
      model_.slack_factor = 1.0;
      break;
    case Policy::Qops:
      // The candidate's own completion bound inside qops_feasible():
      // start >= submit, finish >= submit + estimate/max_speed.
      model_.deadline_test = true;
      model_.slack_factor = config_.engine.options.qops_slack_factor;
      break;
    case Policy::LibraRisk:  // sigma-only salvage lane admits any share on
    case Policy::EdfNoAC:    // an empty node / no admission test at all —
    case Policy::Fcfs:       // no sound C2 certificate exists; C1 only.
    case Policy::Easy:
      break;
  }
  const double budget = config_.aggregate_headroom * cluster.total_speed_factor() *
                        static_cast<double>(config_.granularity);
  share_budget_scaled_ = static_cast<std::uint64_t>(std::min(budget, 9.0e18));

  Hooks hooks = config_.engine.options.hooks;
  engine_ = make_engine(std::move(config_.engine));

  // Subtract-on-resolve: fires on the drive thread (the only thread that
  // steps the engine), so the accumulator has a single writer. Jobs the
  // gate or the engine rejected at submit have no entry — the map guard
  // makes underflow structurally impossible.
  observer_id_ = engine_->collector().add_resolution_observer(
      [this](std::int64_t id) {
        // Deferred audit: a pre-shed job the engine queued must resolve as
        // a rejection (for the EDF family that happens at dispatch time);
        // any shed job that actually ran falsifies a certificate.
        const auto shed_it = shed_pending_.find(id);
        if (shed_it != shed_pending_.end()) {
          const metrics::JobFate fate = engine_->collector().record(id).fate;
          if (fate != metrics::JobFate::RejectedAtSubmit &&
              fate != metrics::JobFate::RejectedAtDispatch)
            audit_violations_.fetch_add(1, std::memory_order_relaxed);
          shed_pending_.erase(shed_it);
        }
        const auto it = contributions_.find(id);
        if (it == contributions_.end()) return;
        share_scaled_.store(share_scaled_.load(std::memory_order_relaxed) -
                                it->second,
                            std::memory_order_release);
        contributions_.erase(it);
      });

  if (hooks.telemetry != nullptr) {
    obs::Registry& reg = hooks.telemetry->registry();
    reg.counter_fn("gateway_submitted", "jobs offered to the gateway",
                   [this] { return submitted_.load(std::memory_order_relaxed); });
    reg.counter_fn("gateway_fast_rejected", "jobs shed by the fast-reject gate",
                   [this] { return fast_rejected_.load(std::memory_order_relaxed); });
    reg.counter_fn("gateway_enqueued", "jobs handed to the drive thread",
                   [this] { return enqueued_.load(std::memory_order_relaxed); });
    reg.counter_fn("gateway_decided", "engine decisions made",
                   [this] { return decided_.load(std::memory_order_relaxed); });
    reg.counter_fn(
        "gateway_audit_violations",
        "fast-shed jobs the exact path admitted (certificate failures)",
        [this] { return audit_violations_.load(std::memory_order_relaxed); });
    reg.counter_fn("gateway_queue_high_water", "peak drive-queue occupancy",
                   [this] { return static_cast<std::uint64_t>(queue_.high_water()); });
    reg.gauge_fn("gateway_queue_depth", "current drive-queue occupancy",
                 [this] { return static_cast<double>(queue_.size()); });
    reg.gauge_fn("gateway_inflight_share",
                 "in-flight share accumulator (processor units)", [this] {
                   return static_cast<double>(
                              share_scaled_.load(std::memory_order_relaxed)) /
                          static_cast<double>(config_.granularity);
                 });
    reg.gauge_fn("gateway_inflight_share_peak",
                 "in-flight share accumulator high-water mark (processor "
                 "units)",
                 [this] {
                   return static_cast<double>(share_peak_.value()) /
                          static_cast<double>(config_.granularity);
                 });
    reg.counter_fn("gateway_shed_no_suitable_node",
                   "sheds by certificate C1 (larger than the cluster)",
                   [this] { return shed_no_node_.load(std::memory_order_relaxed); });
    reg.counter_fn("gateway_shed_share",
                   "sheds by certificate C2-share (Eq. 2 lower bound)",
                   [this] { return shed_share_.load(std::memory_order_relaxed); });
    reg.counter_fn("gateway_shed_deadline",
                   "sheds by certificate C2-deadline (best-case finish)",
                   [this] { return shed_deadline_.load(std::memory_order_relaxed); });
    reg.counter_fn("gateway_shed_aggregate",
                   "sheds by the aggregate accumulator (Aggressive only)",
                   [this] { return shed_aggregate_.load(std::memory_order_relaxed); });
    reg.counter_fn("gateway_shed_spikes",
                   "shed-spike threshold crossings observed",
                   [this] { return spike_events_.load(std::memory_order_relaxed); });
    reg.counter_fn(
        "gateway_degraded_admits",
        "engine decisions that were degraded-mode admissions",
        [this] { return degraded_admits_.load(std::memory_order_relaxed); });
    reg.gauge_fn("gateway_overload_mode",
                 "configured degraded mode (wire value; 0 = hard-reject)",
                 [mode = config_.engine.options.overload.mode] {
                   return static_cast<double>(mode);
                 });
    if (config_.flight_capacity > 0) {
      // Registry-owned sinks the flight histograms merge into at close():
      // the recorder's own copies stay mutex-guarded for live snapshots,
      // the registry ones feed the OpenMetrics render.
      queue_wait_hist_ =
          &reg.histogram("gateway_queue_wait_seconds",
                         "wall seconds from enqueue to decision",
                         flight_.config().latency);
      decide_hist_ = &reg.histogram("gateway_decide_seconds",
                                    "drive-loop wall seconds per decision",
                                    flight_.config().latency);
    }
  }

  drive_thread_ = std::thread([this] { drive(); });
}

AdmissionGateway::~AdmissionGateway() {
  try {
    close();
  } catch (...) {
    // A drive-thread error surfaces from close(); in a destructor the best
    // we can do is not terminate. Callers who care call close() themselves.
  }
}

std::uint64_t AdmissionGateway::scaled_share(
    const workload::Job& job) const noexcept {
  const double min_share =
      cluster::required_share(job.scheduler_estimate, job.deadline,
                              model_.deadline_clamp, model_.max_speed);
  // Fixed-point in double first (floor keeps truncation deterministic),
  // clamped below the uint64 range before the cast — a near-zero deadline
  // can push the share to ~1e18 and beyond.
  const double scaled = static_cast<double>(job.num_procs) *
                        std::floor(static_cast<double>(config_.granularity) *
                                   min_share);
  return static_cast<std::uint64_t>(std::min(scaled, 9.0e18));
}

AdmissionGateway::Certificate AdmissionGateway::classify(
    const workload::Job& job) const noexcept {
  // C1: structurally impossible on every policy.
  if (job.num_procs > model_.cluster_size) return Certificate::NoNode;
  // C2-share: Eq. 2's per-node total is resident + new_share with
  // resident >= 0, and new_share is antitone in node speed — so the
  // fastest-node empty-cluster share is a lower bound on every node's
  // test value (both monotonicities hold under IEEE round-to-nearest).
  if (model_.share_test) {
    const double share =
        cluster::required_share(job.scheduler_estimate, job.deadline,
                                model_.deadline_clamp, model_.max_speed);
    if (share > model_.share_capacity + model_.share_tolerance)
      return Certificate::Share;
  }
  // C2-deadline: the dispatch-time test compares now + estimate/max_speed
  // against submit + slack*deadline + eps, and `now >= submit` at every
  // evaluation; IEEE addition is weakly monotone, so failing at
  // now == submit implies failing at every later now.
  if (model_.deadline_test) {
    const double best_finish =
        job.submit_time + job.scheduler_estimate / model_.max_speed;
    const double allowed =
        job.submit_time + model_.slack_factor * job.deadline;
    if (best_finish > allowed + sim::kTimeEpsilon)
      return Certificate::Deadline;
  }
  // C3: aggregate saturation — NOT a certificate (per-node admission can
  // admit under aggregate overload); sheds only when explicitly unsound.
  if (config_.shedding == GatewayConfig::Shedding::Aggressive) {
    const std::uint64_t c = scaled_share(job);
    const std::uint64_t spent = share_scaled_.load(std::memory_order_acquire);
    if (c > share_budget_scaled_ || spent > share_budget_scaled_ - c)
      return Certificate::Aggregate;
  }
  return Certificate::None;
}

std::optional<trace::RejectionReason> AdmissionGateway::fast_reject_reason(
    const workload::Job& job) const noexcept {
  switch (classify(job)) {
    case Certificate::None:
      return std::nullopt;
    case Certificate::NoNode:
      return trace::RejectionReason::NoSuitableNode;
    case Certificate::Share:
    case Certificate::Aggregate:
      return trace::RejectionReason::ShareOverflow;
    case Certificate::Deadline:
      return trace::RejectionReason::DeadlineInfeasible;
  }
  return std::nullopt;
}

void AdmissionGateway::note_shed_spike() noexcept {
  const std::uint64_t now_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  const std::uint64_t window_ns =
      static_cast<std::uint64_t>(config_.shed_spike_window * 1e9);
  std::uint64_t start = spike_window_start_ns_.load(std::memory_order_relaxed);
  if (now_ns - start > window_ns) {
    // Rotate the window; the one winning producer resets the count. Racing
    // losers keep counting into the fresh window — the detector is
    // deliberately approximate (relaxed, never blocking).
    if (spike_window_start_ns_.compare_exchange_strong(
            start, now_ns, std::memory_order_relaxed))
      spike_count_.store(0, std::memory_order_relaxed);
  }
  const std::uint64_t in_window =
      spike_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (in_window == config_.shed_spike_threshold) {
    spike_events_.fetch_add(1, std::memory_order_relaxed);
    spike_pending_.store(true, std::memory_order_release);
  }
}

SubmitStatus AdmissionGateway::submit(const workload::Job& job) {
  if (closed_.load(std::memory_order_acquire)) return SubmitStatus::Closed;
  const Certificate cert = classify(job);
  if (cert != Certificate::None) {
    if (config_.audit_shed) {
      // Replay the shed job through the exact path: byte-identity with an
      // ungated run, plus a live audit of the certificate.
      if (!queue_.push(QueueItem{job, /*pre_shed=*/true,
                                 std::chrono::steady_clock::now()}))
        return SubmitStatus::Closed;
      enqueued_.fetch_add(1, std::memory_order_relaxed);
    }
    submitted_.fetch_add(1, std::memory_order_relaxed);
    fast_rejected_.fetch_add(1, std::memory_order_relaxed);
    switch (cert) {
      case Certificate::NoNode:
        shed_no_node_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Certificate::Share:
        shed_share_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Certificate::Deadline:
        shed_deadline_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Certificate::Aggregate:
        shed_aggregate_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Certificate::None:
        break;
    }
    if (config_.shed_spike_threshold > 0) note_shed_spike();
    return SubmitStatus::FastRejected;
  }
  if (!queue_.push(QueueItem{job, /*pre_shed=*/false,
                             std::chrono::steady_clock::now()}))
    return SubmitStatus::Closed;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  return SubmitStatus::Enqueued;
}

void AdmissionGateway::drive() {
  try {
    QueueItem item;
    while (queue_.pop(item)) {
      const std::chrono::steady_clock::time_point decide_start =
          std::chrono::steady_clock::now();
      workload::Job job = std::move(item.job);
      // Multi-producer interleaving can deliver a job stamped earlier than
      // one already submitted; clamp to the watermark (and the clock) so
      // the engine's monotonicity contract holds. With one producer the
      // stream is already monotone and both clamps are the identity —
      // that is the byte-identity case.
      job.submit_time =
          std::max({job.submit_time, last_submit_, engine_->now()});
      const AdmissionOutcome outcome = engine_->submit(job);
      last_submit_ = job.submit_time;
      decided_.fetch_add(1, std::memory_order_relaxed);
      if (outcome.verdict == AdmissionOutcome::Verdict::DegradedAdmit)
        degraded_admits_.fetch_add(1, std::memory_order_relaxed);
      if (item.pre_shed && !outcome.rejected()) {
        if (outcome.accepted()) {
          // Started at its arrival instant: the certificate is plainly wrong.
          audit_violations_.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Queued: the EDF family decides feasibility at dispatch, so the
          // verdict is not in yet — audit it when the job resolves.
          shed_pending_.insert(job.id);
        }
      }
      if (!outcome.rejected()) {
        // Add-on-admit — unless the job already resolved inside its own
        // arrival step (zero-runtime completion), in which case the
        // observer has already fired and an add here would never be
        // subtracted.
        const metrics::JobRecord& rec = engine_->collector().record(job.id);
        if (rec.fate == metrics::JobFate::Pending) {
          const std::uint64_t c = scaled_share(job);
          if (c > 0) {
            contributions_.emplace(job.id, c);
            const std::uint64_t next =
                share_scaled_.load(std::memory_order_relaxed) + c;
            share_scaled_.store(next, std::memory_order_release);
            share_peak_.observe(next);
          }
        }
      }
      if (config_.flight_capacity > 0) {
        obs::FlightEntry entry;
        entry.job_id = job.id;
        entry.verdict =
            item.pre_shed ? obs::FlightVerdict::Shed
            : outcome.verdict == AdmissionOutcome::Verdict::DegradedAdmit
                ? obs::FlightVerdict::DegradedAdmit
            : outcome.accepted() ? obs::FlightVerdict::Accepted
            : outcome.rejected() ? obs::FlightVerdict::Rejected
                                 : obs::FlightVerdict::Queued;
        entry.reason = outcome.reason;
        entry.node = outcome.node;
        entry.sigma = outcome.sigma;
        entry.margin = outcome.margin;
        entry.sim_time = job.submit_time;
        entry.queue_wait =
            std::chrono::duration<double>(decide_start - item.enqueued_at)
                .count();
        entry.decide_latency = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   decide_start)
                                   .count();
        flight_.record(entry);
      }
      // Shed-spike dump, issued from the drive thread so the log line and
      // the flight snapshot come from one place.
      if (spike_pending_.exchange(false, std::memory_order_acq_rel)) {
        LIBRISK_LOG(Warn) << "gateway: shed spike (>= "
                          << config_.shed_spike_threshold << " sheds within "
                          << config_.shed_spike_window << " s)\n"
                          << flight_.dump();
      }
    }
  } catch (...) {
    drive_error_ = std::current_exception();
    // Unblock producers waiting on a full queue; their pushes fail Closed.
    queue_.close();
  }
}

void AdmissionGateway::close() {
  closed_.store(true, std::memory_order_release);
  queue_.close();
  if (!join_done_) {
    if (drive_thread_.joinable()) drive_thread_.join();
    join_done_ = true;
  }
  if (drive_error_ != nullptr) {
    std::exception_ptr error = drive_error_;
    drive_error_ = nullptr;
    std::rethrow_exception(error);
  }
  // Fold the flight latency histograms into the registry-owned sinks before
  // the engine seals telemetry (the OpenMetrics render reads the registry).
  if (!flight_merged_) {
    flight_merged_ = true;
    if (queue_wait_hist_ != nullptr)
      queue_wait_hist_->merge(flight_.queue_wait_histogram());
    if (decide_hist_ != nullptr)
      decide_hist_->merge(flight_.decide_histogram());
  }
  if (!engine_->finished()) engine_->finish();
}

GatewayStats AdmissionGateway::stats() const {
  GatewayStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.fast_rejected = fast_rejected_.load(std::memory_order_relaxed);
  s.enqueued = enqueued_.load(std::memory_order_relaxed);
  s.decided = decided_.load(std::memory_order_relaxed);
  s.audit_violations = audit_violations_.load(std::memory_order_relaxed);
  s.queue_high_water = static_cast<std::uint64_t>(queue_.high_water());
  s.share_scaled_now = share_scaled_.load(std::memory_order_relaxed);
  s.share_scaled_peak = share_peak_.value();
  s.shed_no_suitable_node = shed_no_node_.load(std::memory_order_relaxed);
  s.shed_share = shed_share_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.shed_aggregate = shed_aggregate_.load(std::memory_order_relaxed);
  s.shed_spikes = spike_events_.load(std::memory_order_relaxed);
  s.flight_recorded = flight_.recorded();
  s.degraded_admits = degraded_admits_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace librisk::core
