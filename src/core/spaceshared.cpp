#include "core/spaceshared.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/log.hpp"

namespace librisk::core {

SpaceSharedScheduler::SpaceSharedScheduler(sim::Simulator& simulator,
                                           cluster::SpaceSharedExecutor& executor,
                                           Collector& collector,
                                           DispatchConfig config, std::string name)
    : sim_(simulator),
      executor_(executor),
      collector_(collector),
      config_(config),
      name_(std::move(name)) {
  LIBRISK_CHECK(!config_.qops_slack || *config_.qops_slack >= 1.0,
                "slack factor must be at least 1");
  governor_ = OverloadGovernor(config_.overload);
  // The dispatch-time deadline test is the one rejection site with a
  // deadline to bend; without it DowngradeQoS reduces to HardReject.
  overload_enabled_ = config_.deadline_test && governor_.enabled();
  executor_.set_completion_handler([this](const Job& job, sim::SimTime finish) {
    running_.erase(job.id);
    collector_.record_completed(job, finish);
    dispatch();  // freed processors may admit the queue head
  });
  executor_.set_kill_handler([this](const Job& job, sim::SimTime when) {
    running_.erase(job.id);
    collector_.record_killed(job, when);
    dispatch();
  });
}

double SpaceSharedScheduler::best_runtime(const Job& job) const {
  return job.scheduler_estimate / executor_.cluster().max_speed_factor();
}

bool SpaceSharedScheduler::deadline_feasible(const Job& job) const {
  const sim::SimTime now = sim_.now();
  if (now > job.absolute_deadline()) return false;  // deadline expired
  return now + best_runtime(job) <= job.absolute_deadline() + sim::kTimeEpsilon;
}

double SpaceSharedScheduler::deadline_margin(const Job& job) const {
  return job.absolute_deadline() - (sim_.now() + best_runtime(job));
}

std::vector<const Job*>::const_iterator SpaceSharedScheduler::queue_slot(
    const Job& job) const {
  if (config_.order == QueueOrder::Arrival) return queue_.end();
  // (absolute deadline, job id) is a strict total order, so the front of
  // the sorted queue is the unique earliest-deadline job.
  return std::upper_bound(queue_.begin(), queue_.end(), &job,
                          [](const Job* a, const Job* b) {
                            if (a->absolute_deadline() != b->absolute_deadline())
                              return a->absolute_deadline() < b->absolute_deadline();
                            return a->id < b->id;
                          });
}

void SpaceSharedScheduler::on_job_submitted(const Job& job) {
  // The recorder arrives via attach() after construction; borrow it lazily.
  if (overload_enabled_) governor_.attach(trace_);
  ++stats_.submissions;
  // A request larger than the machine can never run; even EDF-NoAC must
  // reject it or the queue head would block forever.
  if (job.num_procs > executor_.cluster().size()) {
    reject(job, trace::RejectionReason::NoSuitableNode, /*at_dispatch=*/false);
    return;
  }
  if (config_.qops_slack && !qops_feasible(job)) {
    reject(job, trace::RejectionReason::DeadlineInfeasible, /*at_dispatch=*/false);
    return;
  }
  queue_.insert(queue_slot(job), &job);
  dispatch();
}

void SpaceSharedScheduler::reject(const Job& job, trace::RejectionReason reason,
                                  bool at_dispatch, double margin) {
  ++stats_.rejections;
  if (reason == trace::RejectionReason::NoSuitableNode)
    ++stats_.rejected_no_suitable_node;
  else
    ++stats_.rejected_deadline_infeasible;
  collector_.record_rejected(job, sim_.now(), at_dispatch, reason);
  if (trace_ != nullptr)
    trace_->job_rejected(sim_.now(), job.id, reason, 0, job.num_procs, margin);
  if (explain_ != nullptr) {
    explain_->begin(sim_.now(), job.id, job.num_procs, job.deadline,
                    job.scheduler_estimate);
    explain_->finish_reject(reason, 0, margin);
  }
  LIBRISK_LOG(Debug) << name_ << ": rejected job " << job.id
                     << (at_dispatch ? " at dispatch" : " at submission");
}

void SpaceSharedScheduler::start_job(const Job& job) {
  ++stats_.accepted;
  if (overload_enabled_) {
    const auto it = downgraded_deadline_.find(job.id);
    if (it != downgraded_deadline_.end()) {
      // The job got here on a granted deadline extension: degraded-admit
      // provenance. The Job itself is untouched — it may simply finish late
      // and the collector judges it against the submitted deadline.
      ++stats_.degraded_admits;
      note_decision(job.id, /*node=*/-1, /*sigma=*/-1.0, /*margin=*/0.0,
                    /*degraded=*/true);
      if (trace_ != nullptr)
        trace_->job_degraded_admit(sim_.now(), job.id,
                                   trace::RejectionReason::DeadlineInfeasible,
                                   /*first_node=*/-1, /*sigma=*/-1.0,
                                   /*fit=*/0.0);
      downgraded_deadline_.erase(it);
    }
  }
  std::vector<cluster::NodeId> nodes = executor_.take_free_nodes(job.num_procs);
  double slowest = sim::kTimeInfinity;
  for (const cluster::NodeId n : nodes)
    slowest = std::min(slowest, executor_.cluster().speed_factor(n));
  collector_.record_started(job, sim_.now(), job.actual_runtime / slowest);
  running_[job.id] =
      Release{sim_.now() + job.scheduler_estimate / slowest, job.num_procs};
  executor_.start(job, std::move(nodes));
}

std::vector<SpaceSharedScheduler::Release> SpaceSharedScheduler::releases() const {
  const sim::SimTime now = sim_.now();
  std::vector<Release> out;
  out.reserve(running_.size());
  for (const auto& [id, release] : running_)
    out.push_back(Release{std::max(release.time, now), release.procs});
  std::sort(out.begin(), out.end(),
            [](const Release& a, const Release& b) { return a.time < b.time; });
  return out;
}

SpaceSharedScheduler::Reservation SpaceSharedScheduler::head_reservation(
    const Job& head) const {
  int available = executor_.free_count();
  Reservation res;
  res.shadow_time = sim_.now();
  for (const Release& r : releases()) {
    if (available >= head.num_procs) break;
    available += r.procs;
    res.shadow_time = r.time;
  }
  LIBRISK_CHECK(available >= head.num_procs,
                "reservation impossible: releases never free enough nodes");
  res.extra_nodes = available - head.num_procs;
  return res;
}

bool SpaceSharedScheduler::qops_feasible(const Job& candidate) const {
  std::vector<Release> pending_releases = releases();
  std::vector<const Job*> pending(queue_.begin(), queue_.end());
  pending.insert(pending.begin() + (queue_slot(candidate) - queue_.begin()),
                 &candidate);

  // Started pending jobs join the release list (kept sorted by a simple
  // insertion; sizes here are small).
  int free = executor_.free_count();
  sim::SimTime clock = sim_.now();
  std::size_t next_release = 0;
  for (const Job* job : pending) {
    while (free < job->num_procs) {
      if (next_release >= pending_releases.size()) return false;  // can never start
      clock = std::max(clock, pending_releases[next_release].time);
      free += pending_releases[next_release].procs;
      ++next_release;
    }
    const sim::SimTime finish = clock + best_runtime(*job);
    const double allowed = job->submit_time + *config_.qops_slack * job->deadline;
    if (finish > allowed + sim::kTimeEpsilon) return false;
    free -= job->num_procs;
    const Release r{finish, job->num_procs};
    const auto pos = std::upper_bound(
        pending_releases.begin() + static_cast<std::ptrdiff_t>(next_release),
        pending_releases.end(), r,
        [](const Release& a, const Release& b) { return a.time < b.time; });
    pending_releases.insert(pos, r);
  }
  return true;
}

void SpaceSharedScheduler::dispatch() {
  while (!queue_.empty()) {
    const Job* head = queue_.front();
    if (config_.deadline_test && !deadline_feasible(*head) &&
        !(overload_enabled_ && try_degrade_head(*head))) {
      // The relaxed admission control: reject only at selection time. The
      // margin is the best-case-finish headroom (< 0 on this path); the
      // near-miss scale is the job's own deadline window.
      if (overload_enabled_) downgraded_deadline_.erase(head->id);
      const double margin = deadline_margin(*head);
      const double deficit = -margin;
      if (deficit <= 0.05 * head->deadline) ++stats_.near_miss_deadline_5;
      if (deficit <= 0.10 * head->deadline) ++stats_.near_miss_deadline_10;
      reject(*head, trace::RejectionReason::DeadlineInfeasible,
             /*at_dispatch=*/true, margin);
      queue_.erase(queue_.begin());
      continue;
    }
    if (executor_.free_count() >= head->num_procs) {
      queue_.erase(queue_.begin());
      start_job(*head);
      continue;
    }
    if (!config_.backfilling || !backfill(*head)) return;  // head-of-line blocking
  }
}

bool SpaceSharedScheduler::backfill(const Job& head) {
  // Candidates in queue order: a later job may start now iff (by
  // estimates) it finishes before the head's reservation or fits on the
  // nodes the head will not need. An infeasible candidate is skipped, not
  // rejected — it is only rejected once selected as the head.
  const Reservation res = head_reservation(head);
  for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
    const Job* candidate = *it;
    if (executor_.free_count() < candidate->num_procs) continue;
    const bool fits_window = sim_.now() + best_runtime(*candidate) <=
                             res.shadow_time + sim::kTimeEpsilon;
    const bool fits_extra = candidate->num_procs <= res.extra_nodes;
    if (!fits_window && !fits_extra) continue;
    if (config_.deadline_test && !deadline_feasible(*candidate)) continue;
    queue_.erase(it);
    start_job(*candidate);
    return true;
  }
  return false;
}

LoadSignal SpaceSharedScheduler::load_signal() const noexcept {
  const int size = executor_.cluster().size();
  return LoadSignal{static_cast<double>(size - executor_.free_count()),
                    static_cast<double>(size)};
}

bool SpaceSharedScheduler::try_degrade_head(const Job& job) {
  const sim::SimTime now = sim_.now();
  governor_.evaluate(now, load_signal());
  stats_.overload_activations = governor_.activations();
  const auto it = downgraded_deadline_.find(job.id);
  const bool granted = it != downgraded_deadline_.end();
  // A fresh extension needs the governor engaged; a previously granted one
  // is sticky — later passes honor it even after the load drops, so the
  // job's fate never depends on when capacity happened to free up relative
  // to a disengagement (determinism stays trivial; fairness stays sane).
  if (!granted && !governor_.engaged()) return false;
  const sim::SimTime effective =
      granted ? it->second
              : job.submit_time +
                    job.deadline * governor_.config().downgrade_factor;
  if (now > effective) return false;
  if (now + best_runtime(job) > effective + sim::kTimeEpsilon) return false;
  if (!granted) downgraded_deadline_.emplace(job.id, effective);
  return true;
}

}  // namespace librisk::core
