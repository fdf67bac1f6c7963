#include "core/engine.hpp"

#include <utility>

#include "support/check.hpp"

namespace librisk::core {

const char* to_string(AdmissionOutcome::Verdict verdict) noexcept {
  switch (verdict) {
    case AdmissionOutcome::Verdict::Accepted: return "accepted";
    case AdmissionOutcome::Verdict::Queued: return "queued";
    case AdmissionOutcome::Verdict::Rejected: return "rejected";
    case AdmissionOutcome::Verdict::DegradedAdmit: return "degraded_admit";
  }
  return "?";
}

AdmissionEngine::AdmissionEngine(cluster::Cluster cluster, Policy policy,
                                 const PolicyOptions& options)
    : owned_cluster_(std::make_unique<cluster::Cluster>(std::move(cluster))),
      owned_sim_(std::make_unique<sim::Simulator>()),
      owned_collector_(std::make_unique<Collector>()),
      stack_(make_scheduler(policy, *owned_sim_, *owned_cluster_,
                            *owned_collector_, options)),
      sim_(*owned_sim_),
      collector_(*owned_collector_),
      scheduler_(stack_->scheduler()),
      hooks_(options.hooks),
      cluster_size_(owned_cluster_->size()) {
  observer_id_ = collector_.add_resolution_observer(
      [this](std::int64_t id) { resolved_backlog_.push_back(id); });
  if (hooks_.telemetry != nullptr) hooks_.telemetry->arm(sim_);
}

AdmissionEngine::AdmissionEngine(sim::Simulator& simulator, Scheduler& scheduler,
                                 Collector& collector, const Hooks& hooks)
    : sim_(simulator),
      collector_(collector),
      scheduler_(scheduler),
      hooks_(hooks) {
  observer_id_ = collector_.add_resolution_observer(
      [this](std::int64_t id) { resolved_backlog_.push_back(id); });
  if (hooks_.telemetry != nullptr) hooks_.telemetry->arm(sim_);
}

AdmissionEngine::~AdmissionEngine() {
  // The observer captures `this`; a borrowed collector outlives the engine.
  collector_.remove_resolution_observer(observer_id_);
}

std::unique_ptr<AdmissionEngine> make_engine(EngineConfig config) {
  const bool borrowed = config.simulator != nullptr || config.scheduler != nullptr ||
                        config.collector != nullptr;
  if (borrowed) {
    LIBRISK_CHECK(!config.cluster.has_value(),
                  "EngineConfig names both modes: cluster set and components borrowed");
    LIBRISK_CHECK(config.simulator != nullptr && config.scheduler != nullptr &&
                      config.collector != nullptr,
                  "borrowed-mode EngineConfig needs simulator, scheduler and "
                  "collector all set");
    // new over make_unique: the constructors are private (friend access).
    return std::unique_ptr<AdmissionEngine>(new AdmissionEngine(
        *config.simulator, *config.scheduler, *config.collector, config.hooks));
  }
  LIBRISK_CHECK(config.cluster.has_value(),
                "EngineConfig names no mode: set cluster (owning) or "
                "simulator+scheduler+collector (borrowed)");
  return std::unique_ptr<AdmissionEngine>(new AdmissionEngine(
      std::move(*config.cluster), config.policy, config.options));
}

sim::EventId AdmissionEngine::enqueue(const workload::Job& job) {
  LIBRISK_CHECK(!finished_, "submit after finish() on job " << job.id);
  job.validate();
  LIBRISK_CHECK(submitted_ == 0 || job.submit_time >= last_submit_,
                "job " << job.id << " submitted out of order: submit time "
                       << job.submit_time << " after a job at " << last_submit_);
  LIBRISK_CHECK(job.submit_time >= sim_.now() - sim::kTimeEpsilon,
                "job " << job.id << " submitted in the past: submit time "
                       << job.submit_time << ", engine clock " << sim_.now());

  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  slab_[slot] = job;
  const bool inserted = index_.emplace(job.id, slot).second;
  LIBRISK_CHECK(inserted, "duplicate job id " << job.id << " in stream");
  peak_live_ = std::max(peak_live_, index_.size());
  ++submitted_;
  last_submit_ = job.submit_time;

  const workload::Job* stored = &slab_[slot];
  return sim_.at(stored->submit_time, sim::EventPriority::Arrival, [this, stored] {
    collector_.record_submitted(*stored, sim_.now());
    if (hooks_.trace != nullptr)
      hooks_.trace->job_submitted(sim_.now(), stored->id, stored->num_procs,
                                  stored->deadline, stored->scheduler_estimate);
    scheduler_.on_job_submitted(*stored);
  });
}

AdmissionOutcome AdmissionEngine::submit(const workload::Job& job) {
  const sim::EventId arrival = enqueue(job);
  const std::int64_t id = job.id;
  {
    obs::ScopedPhase phase(
        hooks_.telemetry != nullptr ? &hooks_.telemetry->profiler() : nullptr,
        obs::Phase::Run);
    // Runs the batch prefix of this arrival — everything that precedes it
    // in the deterministic (time, priority, seq) total order, equal-time
    // completions included — then the arrival itself and nothing after, so
    // eager submission cannot reorder decisions relative to the batch
    // drive (docs/MODEL.md §"engine stepping").
    sim_.run_through(arrival);
  }
  reclaim();
  return outcome_of(id);
}

AdmissionOutcome AdmissionEngine::outcome_of(std::int64_t job_id) const {
  const metrics::JobRecord& r = collector_.record(job_id);
  AdmissionOutcome out;
  out.job_id = job_id;
  switch (r.fate) {
    case metrics::JobFate::RejectedAtSubmit:
    case metrics::JobFate::RejectedAtDispatch:
      out.verdict = AdmissionOutcome::Verdict::Rejected;
      out.reason = r.reject_reason;
      return out;
    case metrics::JobFate::Pending:
      out.verdict = r.started ? AdmissionOutcome::Verdict::Accepted
                              : AdmissionOutcome::Verdict::Queued;
      break;
    case metrics::JobFate::FulfilledInTime:
    case metrics::JobFate::CompletedLate:
    case metrics::JobFate::Killed:
      // Zero-runtime jobs can complete inside their own arrival step.
      out.verdict = AdmissionOutcome::Verdict::Accepted;
      break;
  }
  // The placement note is only trustworthy for the job just decided:
  // policies overwrite it per admission, and queueing policies never
  // write it at all — the id guard covers both. A degraded admission
  // upgrades Accepted to DegradedAdmit.
  const Scheduler::Decision& d = scheduler_.last_decision();
  if (d.job_id == job_id &&
      out.verdict == AdmissionOutcome::Verdict::Accepted) {
    out.node = d.node;
    out.sigma = d.sigma;
    out.margin = d.margin;
    if (d.degraded) out.verdict = AdmissionOutcome::Verdict::DegradedAdmit;
  }
  return out;
}

std::uint64_t AdmissionEngine::advance_to(sim::SimTime t) {
  std::uint64_t n;
  {
    obs::ScopedPhase phase(
        hooks_.telemetry != nullptr ? &hooks_.telemetry->profiler() : nullptr,
        obs::Phase::Run);
    n = sim_.run_before(t);
  }
  reclaim();
  return n;
}

std::uint64_t AdmissionEngine::step_until(sim::SimTime t) {
  std::uint64_t n;
  {
    obs::ScopedPhase phase(
        hooks_.telemetry != nullptr ? &hooks_.telemetry->profiler() : nullptr,
        obs::Phase::Run);
    n = sim_.run_until(t);
  }
  reclaim();
  return n;
}

std::uint64_t AdmissionEngine::drain() {
  std::uint64_t n;
  {
    obs::ScopedPhase phase(
        hooks_.telemetry != nullptr ? &hooks_.telemetry->profiler() : nullptr,
        obs::Phase::Run);
    n = sim_.run();
  }
  reclaim();
  return n;
}

void AdmissionEngine::finish() {
  if (finished_) return;
  drain();
  if (hooks_.telemetry != nullptr) {
    hooks_.telemetry->finish(sim_.now());
    // Pull metrics and samplers borrow the scheduler/executor/simulator,
    // which often die before the caller-owned hub does — freeze terminal
    // values now so the hub stays readable afterwards.
    hooks_.telemetry->seal();
  }
  LIBRISK_CHECK(collector_.all_resolved(),
                "engine drained with unresolved jobs (scheduler "
                    << scheduler_.name() << ")");
  finished_ = true;
}

void AdmissionEngine::reclaim() {
  for (const std::int64_t id : resolved_backlog_) {
    const auto it = index_.find(id);
    LIBRISK_CHECK(it != index_.end(), "resolved job " << id << " not in slab");
    free_.push_back(it->second);
    index_.erase(it);
  }
  resolved_backlog_.clear();
}

sim::SimTime AdmissionEngine::now() const noexcept { return sim_.now(); }
bool AdmissionEngine::idle() const noexcept { return sim_.idle(); }
std::uint64_t AdmissionEngine::events_processed() const noexcept {
  return sim_.events_processed();
}

metrics::RunSummary AdmissionEngine::summary() const {
  metrics::RunSummary s = collector_.summarize();
  if (stack_ != nullptr && sim_.now() > 0.0 && cluster_size_ > 0) {
    s.utilization = stack_->busy_node_seconds(sim_.now()) /
                    (static_cast<double>(cluster_size_) * sim_.now());
  }
  return s;
}

AdmissionStats AdmissionEngine::admission_stats() const {
  return stack_ != nullptr ? stack_->admission_stats() : AdmissionStats{};
}

cluster::KernelStats AdmissionEngine::kernel_stats() const {
  return stack_ != nullptr ? stack_->kernel_stats() : cluster::KernelStats{};
}

double AdmissionEngine::busy_node_seconds() const {
  return stack_ != nullptr ? stack_->busy_node_seconds(sim_.now()) : 0.0;
}

}  // namespace librisk::core
