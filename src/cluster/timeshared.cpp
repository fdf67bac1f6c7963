#include "cluster/timeshared.hpp"

#include <algorithm>
#include <bit>

#include "obs/telemetry.hpp"
#include "support/check.hpp"
#include "support/log.hpp"

namespace librisk::cluster {

namespace {
/// Work comparison slack, reference-seconds. Load-bearing, not just slop:
/// demand_of floors a running job's remaining estimate at this value. An
/// interleaved event can settle a task arbitrarily close to its expiry
/// boundary; without the floor its demand then collapses toward zero, the
/// recomputed rate strands the last ulp-sized sliver of estimate hundreds
/// of seconds away, and once there every work_at() read rounds to the
/// estimate exactly (zero demand, no escape). The floor keeps such a task
/// moving so its exact-target boundary fires promptly. 1e-6 sits comfortably
/// between ulp(est) for trace-scale estimates (~1e-9) and the smallest
/// meaningful work quantum.
constexpr double kWorkEpsilon = 1e-6;

bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(std::span<const double> a, std::span<const double> b) noexcept {
  return std::ranges::equal(a, b, [](double x, double y) { return same_bits(x, y); });
}

/// Bitwise equality of two node views. Every scalar is deterministic even
/// when its part was not requested; the gated share columns are compared
/// only when populated.
bool same_view(const NodeStateView& a, const NodeStateView& b) noexcept {
  const core::ResidentRiskAggregates& ra = a.risk_current;
  const core::ResidentRiskAggregates& rb = b.risk_current;
  return a.parts == b.parts && a.residents == b.residents &&
         std::ranges::equal(a.jobs, b.jobs) &&
         same_bits(a.remaining_raw, b.remaining_raw) &&
         same_bits(a.remaining_current, b.remaining_current) &&
         same_bits(a.remaining_deadline, b.remaining_deadline) &&
         same_bits(a.rate, b.rate) &&
         ((a.parts & kStateSharesRaw) == 0 || same_bits(a.share_raw, b.share_raw)) &&
         ((a.parts & kStateSharesCurrent) == 0 ||
          same_bits(a.share_current, b.share_current)) &&
         same_bits(a.total_share_raw, b.total_share_raw) &&
         same_bits(a.total_share_current, b.total_share_current) &&
         same_bits(a.available_capacity, b.available_capacity) &&
         same_bits(a.min_remaining_deadline, b.min_remaining_deadline) &&
         same_bits(ra.share_sum, rb.share_sum) && same_bits(ra.dd_sum, rb.dd_sum) &&
         same_bits(ra.dd_sum_sq, rb.dd_sum_sq) && same_bits(ra.dd_max, rb.dd_max) &&
         same_bits(ra.dd_min, rb.dd_min) && ra.count == rb.count &&
         ra.computed == rb.computed;
}
}  // namespace

double TaskView::remaining_estimate_raw() const noexcept {
  return std::max(job->scheduler_estimate - work_done, 0.0);
}

double TaskView::remaining_estimate_current() const noexcept {
  return std::max(est_current - work_done, 0.0);
}

double TaskView::remaining_deadline(sim::SimTime now) const noexcept {
  return job->absolute_deadline() - now;
}

TimeSharedExecutor::TimeSharedExecutor(sim::Simulator& simulator,
                                       const Cluster& cluster,
                                       ShareModelConfig config)
    : sim_(simulator), cluster_(cluster), config_(config) {
  config_.validate();
  const auto n = static_cast<std::size_t>(cluster_.size());
  node_jobs_.resize(n);
  node_tasks_.resize(n);
  node_serial_.assign(n, 1);
  node_cache_.resize(n);
  occupied_.pos.assign(n, -1);
  node_start_stamp_.assign(n, 0);
  node_demand_.assign(n, 0.0);
  node_touched_serial_.assign(n, 0);
  node_demand_serial_.assign(n, 0);
  last_settle_ = sim_.now();
}

void TimeSharedExecutor::set_completion_handler(CompletionHandler handler) {
  on_completion_ = std::move(handler);
}

void TimeSharedExecutor::set_overrun_handler(OverrunHandler handler) {
  on_overrun_ = std::move(handler);
}

void TimeSharedExecutor::set_kill_handler(KillHandler handler) {
  on_kill_ = std::move(handler);
}

void TimeSharedExecutor::start(const Job& job, std::vector<NodeId> nodes) {
  job.validate();
  LIBRISK_CHECK(static_cast<int>(nodes.size()) == job.num_procs,
                "job " << job.id << " needs " << job.num_procs << " nodes, got "
                       << nodes.size());
  LIBRISK_CHECK(!is_running(job.id), "job " << job.id << " already running");
  for (const NodeId n : nodes)
    LIBRISK_CHECK(n >= 0 && n < cluster_.size(), "node " << n << " out of range");
  // A fresh stamp per call, so marks left by a call that threw are stale.
  const std::uint64_t stamp = ++start_stamp_;
  for (const NodeId n : nodes) {
    LIBRISK_CHECK(node_start_stamp_[static_cast<std::size_t>(n)] != stamp,
                  "job " << job.id << " assigned duplicate nodes");
    node_start_stamp_[static_cast<std::size_t>(n)] = stamp;
  }

  Task task;
  task.job = &job;
  task.nodes = std::move(nodes);
  task.start_time = sim_.now();
  task.est_current = job.scheduler_estimate;
  task.actual_total = job.actual_runtime;
  task.anchor_time = sim_.now();
  const auto [it, inserted] = tasks_.emplace(job.id, std::move(task));
  LIBRISK_CHECK(inserted, "job " << job.id << " already running");
  Task* const started = &it->second;
  for (const NodeId n : started->nodes) {
    std::vector<Task*>& residents = node_tasks_[n];
    node_jobs_[n].push_back(job.id);
    residents.push_back(started);
    ++node_serial_[n];
    if (residents.size() == 1) occupied_.add(n);
    if (residents.size() == 2) share_node(residents.front());
    if (residents.size() >= 2) share_node(started);
    start_touched_.push_back(n);
  }
  if (trace_ != nullptr)
    trace_->job_started(sim_.now(), job.id, it->second.nodes.front(),
                        job.num_procs, job.scheduler_estimate);
  ++epoch_;
  pending_start_realloc_ = true;
  settle_and_reschedule();
}

void TimeSharedExecutor::sync() { settle_and_reschedule(); }

bool TimeSharedExecutor::is_running(JobId id) const noexcept {
  return tasks_.contains(id);
}

const std::vector<JobId>& TimeSharedExecutor::node_jobs(NodeId node) const {
  LIBRISK_CHECK(node >= 0 && node < cluster_.size(), "node " << node << " out of range");
  return node_jobs_[node];
}

TaskView TimeSharedExecutor::view(JobId id) const {
  const auto it = tasks_.find(id);
  LIBRISK_CHECK(it != tasks_.end(), "job " << id << " not running");
  const Task& t = it->second;
  TaskView v;
  v.job = t.job;
  v.nodes = t.nodes;
  v.start_time = t.start_time;
  v.work_done = work_at(t, sim_.now());
  v.est_original = t.job->scheduler_estimate;
  v.est_current = t.est_current;
  v.overrun_bumps = t.bumps;
  v.rate = t.rate;
  return v;
}

void TimeSharedExecutor::rebuild_node_cache(NodeId node, NodeCache& cache,
                                            NodeStateParts parts) const {
  ++stats_.view_rebuilds;
  // Parts the cache still holds validly are folded into the rebuild rather
  // than dropped (a narrower request after a wider one keeps the wider).
  fill_node_cache(node, cache,
                  parts | (view_fresh(cache, node) ? cache.view.parts : 0),
                  /*memo=*/true);
}

void TimeSharedExecutor::fill_node_cache(NodeId node, NodeCache& cache,
                                         NodeStateParts parts, bool memo) const {
  const double speed = cluster_.speed_factor(node);
  const std::vector<Task*>& residents = node_tasks_[static_cast<std::size_t>(node)];
  const std::size_t n = residents.size();

  // An empty node's view is so cheap that it always carries every part.
  NodeStateParts want = parts;
  if ((want & kStateRiskAggregates) != 0) want |= kStateSharesCurrent;
  if (n == 0) want = kStateAll;
  const bool want_raw = (want & kStateSharesRaw) != 0;
  const bool want_cur = (want & kStateSharesCurrent) != 0;
  const bool want_cap = (want & kStateCapacity) != 0;
  const bool want_agg = (want & kStateRiskAggregates) != 0;
  const bool want_cols = (want & kStateColumns) != 0;
  const bool equal_share = config_.mode == ExecutionMode::EqualShare;
  const bool want_demand = want_cap && !equal_share;
  const TermParts terms_wanted =
      kTermBase | (want_raw ? kTermShareRaw : 0) |
      (want_cur ? kTermShareCurrent : 0) | (want_agg ? kTermDelay : 0) |
      (want_demand ? kTermDemand : 0);

  if (want_cols) {
    cache.jobs.resize(n);
    cache.remaining_raw.resize(n);
    cache.remaining_current.resize(n);
    cache.remaining_deadline.resize(n);
    cache.rate.resize(n);
    cache.share_raw.resize(n);
    cache.share_current.resize(n);
  }
  double total_raw = 0.0;
  double total_current = 0.0;
  double demand = 0.0;
  double min_deadline = sim::kTimeInfinity;
  core::ResidentRiskAggregates agg;
  TaskTerms fresh;
  for (std::size_t i = 0; i < n; ++i) {
    const Task* t = residents[i];
    const TaskTerms* terms = &fresh;
    if (memo)
      terms = &task_terms(*t, speed, terms_wanted);
    else
      compute_terms(*t, speed, terms_wanted, fresh);
    min_deadline = std::min(min_deadline, terms->remaining_deadline);
    if (want_raw) total_raw += terms->share_raw;
    if (want_cur) {
      total_current += terms->share_current;
      if (want_agg) agg.add(terms->share_current, terms->deadline_delay);
    }
    if (want_demand) demand += terms->demand;
    if (want_cols) {
      cache.jobs[i] = t->job;
      cache.remaining_raw[i] = terms->remaining_raw;
      cache.remaining_current[i] = terms->remaining_current;
      cache.remaining_deadline[i] = terms->remaining_deadline;
      cache.rate[i] = t->rate;
      if (want_raw) cache.share_raw[i] = terms->share_raw;
      if (want_cur) cache.share_current[i] = terms->share_current;
    }
  }
  agg.computed = want_agg;

  cache.epoch = epoch_;
  cache.at = sim_.now();
  cache.serial = node_serial_[static_cast<std::size_t>(node)];
  // An aggregate-only view exposes no columns (their storage may still hold
  // an earlier read's).
  const auto column = [want_cols](const auto& storage) {
    return want_cols ? std::span(storage) : decltype(std::span(storage)){};
  };
  cache.view.jobs = column(cache.jobs);
  cache.view.remaining_raw = column(cache.remaining_raw);
  cache.view.remaining_current = column(cache.remaining_current);
  cache.view.remaining_deadline = column(cache.remaining_deadline);
  cache.view.rate = column(cache.rate);
  cache.view.share_raw = column(cache.share_raw);
  cache.view.share_current = column(cache.share_current);
  cache.view.total_share_raw = total_raw;
  cache.view.total_share_current = total_current;
  // EqualShare has no notion of reserved shares: a non-empty node is fully
  // used. Pacing modes report the *guaranteed* leftover (1 - total demand)
  // even when work-conserving, because spare redistribution is a bonus a
  // new job cannot rely on.
  cache.view.available_capacity = equal_share
                                      ? (n == 0 ? 1.0 : 0.0)
                                      : std::max(0.0, 1.0 - demand);
  cache.view.min_remaining_deadline = min_deadline;
  cache.view.risk_current = agg;
  cache.view.residents = n;
  cache.view.parts = want;
}

const TimeSharedExecutor::TaskTerms& TimeSharedExecutor::task_terms(
    const Task& task, double speed, TermParts want) const {
  TaskTerms& terms = task.terms;
  const TermParts have = memo_parts(terms, speed);
  const TermParts missing = (want | kTermBase) & ~have;
  if (missing != 0) {
    compute_terms(task, speed, missing, terms);
    terms.epoch = epoch_;
    terms.at = sim_.now();
    terms.speed = speed;
    terms.held = have | missing;
  }
  return terms;
}

void TimeSharedExecutor::compute_terms(const Task& task, double speed,
                                       TermParts parts, TaskTerms& terms) const {
  const sim::SimTime now = sim_.now();
  const double clamp = config_.deadline_clamp;
  if ((parts & kTermBase) != 0) {
    const double work = work_at(task, now);
    terms.remaining_raw = std::max(task.job->scheduler_estimate - work, 0.0);
    terms.remaining_current = std::max(task.est_current - work, 0.0);
    terms.remaining_deadline = task.job->absolute_deadline() - now;
  }
  if ((parts & kTermDelay) != 0)
    terms.deadline_delay = core::resident_deadline_delay(
        terms.remaining_current, terms.remaining_deadline, task.rate, clamp);
  if ((parts & kTermShareRaw) != 0)
    terms.share_raw = required_share(terms.remaining_raw,
                                     terms.remaining_deadline, clamp, speed);
  if ((parts & kTermShareCurrent) != 0)
    terms.share_current = required_share(
        terms.remaining_current, terms.remaining_deadline, clamp, speed);
  if ((parts & kTermDemand) != 0)
    terms.demand = std::min(1.0, demand_of(task, now) / speed);
}

double TimeSharedExecutor::demand_of(const Task& task, sim::SimTime now) const {
  // EqualShare (GridSim time sharing): every resident job weighs the same,
  // so allocation collapses to capacity / n.
  if (config_.mode == ExecutionMode::EqualShare) return 1.0;
  // ProportionalPacing: demand at reference speed (per-node speed applied
  // by the caller), capped at 1 — a job cannot consume more than a whole
  // node, however far behind its deadline it is. The floor at kWorkEpsilon
  // (see above) is bitwise inert except within the final epsilon of the
  // estimate, where it prevents the demand from collapsing.
  const double rem_work =
      std::max(task.est_current - work_at(task, now), kWorkEpsilon);
  return std::min(1.0, required_share(rem_work,
                                      task.job->absolute_deadline() - now,
                                      config_.deadline_clamp));
}

void TimeSharedExecutor::reanchor(Task& task, sim::SimTime now) {
  if (now == task.anchor_time) return;
  const double progress = task.rate * (now - task.anchor_time);
  delivered_ += progress * static_cast<double>(task.job->num_procs);
  if (timeline_ != nullptr) {
    for (const NodeId n : task.nodes)
      timeline_->record(TimelineSegment{task.job->id, n, task.anchor_time, now,
                                        task.rate});
  }
  task.anchor_work += progress;
  task.anchor_time = now;
  ++stats_.reanchors;
}

void TimeSharedExecutor::refresh_boundary(Task& task) {
  // Boundaries target the exact work limits. Ties resolve to completion, so
  // a job whose estimate exactly equals its runtime completes rather than
  // bumping. The max with 0 guards against the instant-of-boundary rounding
  // case producing an event in the past.
  const double to_completion =
      (task.actual_total - task.anchor_work) / task.rate;
  const double to_expiry = (task.est_current - task.anchor_work) / task.rate;
  if (to_expiry < to_completion) {
    task.boundary = task.anchor_time + std::max(to_expiry, 0.0);
    task.boundary_is_expiry = true;
  } else {
    task.boundary = task.anchor_time + std::max(to_completion, 0.0);
    task.boundary_is_expiry = false;
  }
}

void TimeSharedExecutor::remove_task_from_nodes(Task& task) {
  for (const NodeId n : task.nodes) {
    auto& jobs = node_jobs_[n];
    jobs.erase(std::remove(jobs.begin(), jobs.end(), task.job->id), jobs.end());
    auto& tasks = node_tasks_[n];
    if (tasks.size() >= 2) unshare_node(&task);
    tasks.erase(std::remove(tasks.begin(), tasks.end(), &task), tasks.end());
    ++node_serial_[n];
    if (tasks.size() == 1) unshare_node(tasks.front());
    if (tasks.empty()) occupied_.remove(n);
  }
  if (task.heap_pos >= 0) bheap_remove(&task);
}

void TimeSharedExecutor::touch_node(NodeId node) {
  if (node_touched_serial_[static_cast<std::size_t>(node)] == settle_serial_)
    return;
  node_touched_serial_[static_cast<std::size_t>(node)] = settle_serial_;
  touched_nodes_.push_back(node);
}

void TimeSharedExecutor::mark_dirty(Task* task) {
  if (task->dirty_serial == settle_serial_) return;
  task->dirty_serial = settle_serial_;
  dirty_.emplace_back(task->job->id, task);
}

void TimeSharedExecutor::share_node(Task* task) {
  if (task->shared_nodes++ > 0) return;
  task->contended_pos = static_cast<std::int32_t>(contended_.size());
  contended_.push_back(task);
}

void TimeSharedExecutor::unshare_node(Task* task) {
  if (--task->shared_nodes > 0) return;
  Task* const last = contended_.back();
  contended_[static_cast<std::size_t>(task->contended_pos)] = last;
  last->contended_pos = task->contended_pos;
  contended_.pop_back();
  task->contended_pos = -1;
}

void TimeSharedExecutor::NodeSet::add(NodeId node) {
  pos[static_cast<std::size_t>(node)] = static_cast<std::int32_t>(nodes.size());
  nodes.push_back(node);
}

void TimeSharedExecutor::NodeSet::remove(NodeId node) {
  const std::int32_t slot = pos[static_cast<std::size_t>(node)];
  const NodeId last = nodes.back();
  nodes[static_cast<std::size_t>(slot)] = last;
  pos[static_cast<std::size_t>(last)] = slot;
  nodes.pop_back();
  pos[static_cast<std::size_t>(node)] = -1;
}

bool TimeSharedExecutor::boundary_before(const Task* a, const Task* b) noexcept {
  if (a->boundary != b->boundary) return a->boundary < b->boundary;
  return a->job->id < b->job->id;  // deterministic tie order
}

void TimeSharedExecutor::bheap_sift_up(std::size_t pos) {
  Task* const t = bheap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!boundary_before(t, bheap_[parent])) break;
    bheap_[pos] = bheap_[parent];
    bheap_[pos]->heap_pos = static_cast<std::int32_t>(pos);
    pos = parent;
  }
  bheap_[pos] = t;
  t->heap_pos = static_cast<std::int32_t>(pos);
}

void TimeSharedExecutor::bheap_sift_down(std::size_t pos) {
  Task* const t = bheap_[pos];
  const std::size_t n = bheap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && boundary_before(bheap_[child + 1], bheap_[child]))
      ++child;
    if (!boundary_before(bheap_[child], t)) break;
    bheap_[pos] = bheap_[child];
    bheap_[pos]->heap_pos = static_cast<std::int32_t>(pos);
    pos = child;
  }
  bheap_[pos] = t;
  t->heap_pos = static_cast<std::int32_t>(pos);
}

void TimeSharedExecutor::bheap_update(Task* task) {
  ++stats_.boundary_updates;
  if (task->heap_pos < 0) {
    task->heap_pos = static_cast<std::int32_t>(bheap_.size());
    bheap_.push_back(task);
    bheap_sift_up(static_cast<std::size_t>(task->heap_pos));
    return;
  }
  // The boundary may have moved either way (a bump pushes it later, a rate
  // increase pulls it earlier): sift both directions.
  const auto pos = static_cast<std::size_t>(task->heap_pos);
  bheap_sift_up(pos);
  bheap_sift_down(static_cast<std::size_t>(task->heap_pos));
}

void TimeSharedExecutor::bheap_remove(Task* task) {
  const auto pos = static_cast<std::size_t>(task->heap_pos);
  const std::size_t last = bheap_.size() - 1;
  if (pos != last) {
    bheap_[pos] = bheap_[last];
    bheap_[pos]->heap_pos = static_cast<std::int32_t>(pos);
    bheap_.pop_back();
    // The moved-in entry may belong either above or below its new spot; at
    // most one of the two sifts moves it.
    bheap_sift_down(pos);
    bheap_sift_up(pos);
  } else {
    bheap_.pop_back();
  }
  task->heap_pos = -1;
}

void TimeSharedExecutor::attach(const Hooks& hooks) {
  trace_ = hooks.trace;
  obs::Telemetry* telemetry = hooks.telemetry;
  profiler_ = telemetry != nullptr ? &telemetry->profiler() : nullptr;
  if (telemetry == nullptr) return;

  obs::Registry& reg = telemetry->registry();
  reg.counter_fn("kernel_settles", "settle passes (events + syncs)",
                 [this] { return stats_.settles; });
  reg.counter_fn("kernel_global_recomputes",
                 "settles that recomputed every task",
                 [this] { return stats_.global_recomputes; });
  reg.counter_fn("kernel_tasks_recomputed", "demand/rate recomputations",
                 [this] { return stats_.tasks_recomputed; });
  reg.counter_fn("kernel_tasks_skipped",
                 "resident-settle pairs left untouched",
                 [this] { return stats_.tasks_skipped; });
  reg.counter_fn("kernel_reanchors", "work anchors advanced (rate changes)",
                 [this] { return stats_.reanchors; });
  reg.counter_fn("kernel_boundary_updates",
                 "boundary-heap insert/move operations",
                 [this] { return stats_.boundary_updates; });
  reg.counter_fn("kernel_view_rebuilds",
                 "node_state() cache rebuilds",
                 [this] { return stats_.view_rebuilds; });
  reg.gauge_fn("running_jobs", "jobs currently executing",
               [this] { return static_cast<double>(tasks_.size()); });
  reg.gauge_fn("delivered_node_seconds",
               "reference-work delivered so far",
               [this] { return delivered_; });

  // Per-tick kernel effort deltas (work done per sampling interval).
  obs::Series& series = telemetry->add_series(
      "kernel", {"time", "settles", "recomputed", "skipped", "reanchors",
                 "boundary_updates", "running"});
  telemetry->add_sampler([this, &series, prev = KernelStats{}](
                             sim::SimTime now) mutable {
    series.append({now, static_cast<double>(stats_.settles - prev.settles),
                   static_cast<double>(stats_.tasks_recomputed -
                                       prev.tasks_recomputed),
                   static_cast<double>(stats_.tasks_skipped -
                                       prev.tasks_skipped),
                   static_cast<double>(stats_.reanchors - prev.reanchors),
                   static_cast<double>(stats_.boundary_updates -
                                       prev.boundary_updates),
                   static_cast<double>(tasks_.size())});
    prev = stats_;
  });
}

void TimeSharedExecutor::settle_and_reschedule() {
  obs::ScopedPhase phase(profiler_, obs::Phase::Settle);
  const sim::SimTime now = sim_.now();
  LIBRISK_CHECK(now - last_settle_ >= -sim::kTimeEpsilon,
                "executor clock ran backwards");
  const bool time_advanced = now > last_settle_ && !tasks_.empty();
  last_settle_ = now;
  ++stats_.settles;
  const std::uint64_t serial = ++settle_serial_;
  touched_nodes_.clear();
  dirty_.clear();
  due_.clear();

  // Nodes that gained a resident since the last settle (start() records
  // them; usually the settle directly after the start consumes them).
  for (const NodeId n : start_touched_) touch_node(n);
  start_touched_.clear();

  // Phase 1: pop due boundaries off the heap and classify them in
  // ascending job id order, whatever order the heap yields them in.
  while (!bheap_.empty() && bheap_.front()->boundary <= now) {
    Task* const t = bheap_.front();
    bheap_remove(t);
    due_.push_back(t);
  }
  std::sort(due_.begin(), due_.end(),
            [](const Task* a, const Task* b) { return a->job->id < b->job->id; });

  auto completed = std::move(completed_buf_);
  auto killed = std::move(killed_buf_);
  auto overruns = std::move(overrun_buf_);
  completed.clear();
  killed.clear();
  overruns.clear();

  const bool pacing = config_.mode == ExecutionMode::ProportionalPacing;
  for (Task* const t : due_) {
    reanchor(*t, now);
    if (!t->boundary_is_expiry) {
      completed.push_back(t->job);
      for (const NodeId n : t->nodes) touch_node(n);
      remove_task_from_nodes(*t);
      tasks_.erase(t->job->id);
      continue;
    }
    if (config_.kill_at_estimate) {
      LIBRISK_CHECK(on_kill_ != nullptr,
                    "kill_at_estimate requires a kill handler");
      killed.push_back(Killed{t->job, t->anchor_work});
      for (const NodeId n : t->nodes) touch_node(n);
      remove_task_from_nodes(*t);
      tasks_.erase(t->job->id);
      continue;
    }
    // User under-estimate: the scheduler observes the job still running
    // and extends its estimate (DESIGN.md §3.2). One bump always clears
    // the boundary because the increment is a fraction of the original
    // estimate, which is >= 1 s by Job::validate.
    t->est_current += config_.overrun_bump_fraction * t->job->scheduler_estimate;
    ++t->bumps;
    t->bump_pending = true;
    overruns.push_back(Overrun{t->job, t->bumps, t->est_current});
    LIBRISK_LOG(Debug) << "job " << t->job->id << " overran estimate (bump "
                       << t->bumps << ") at t=" << now;
    // The bumped job's demand changed; under pacing that shifts the
    // allocation of every co-resident. Under EqualShare only its own
    // boundary moves.
    mark_dirty(t);
    if (pacing)
      for (const NodeId n : t->nodes) touch_node(n);
  }

  // Invalidate the node caches whenever the observable state changed: work
  // advanced, membership shrank, or an overrun bump re-estimated a job (any
  // of which also moves rates, recomputed below).
  const bool changed = time_advanced || !completed.empty() || !killed.empty() ||
                       !overruns.empty();
  if (changed) ++epoch_;

  // Phase 2: build the dirty set — the tasks whose demand or allocation can
  // have changed since their last recompute (docs/MODEL.md gives the
  // argument for why this set is exhaustive).
  const bool work_conserving =
      config_.work_conserving || config_.mode == ExecutionMode::EqualShare;
  const bool demand_drift = pacing && time_advanced;
  if (demand_drift && !work_conserving) {
    // Strict pacing: every allocation tracks its own drifting demand, so
    // time advance dirties everything. Fall back to a global recompute.
    ++stats_.global_recomputes;
    for (auto& [id, t] : tasks_) mark_dirty(&t);
  } else {
    if (demand_drift) {
      // Work-conserving pacing: an isolated task's allocation is exactly
      // 1.0 whatever its demand (d / (d + 0) == 1), so drift only matters
      // where residents contend — the tasks with a shared node.
      for (Task* const t : contended_) mark_dirty(t);
    }
    for (const NodeId n : touched_nodes_)
      for (Task* const t : node_tasks_[n]) mark_dirty(t);
  }
  std::sort(dirty_.begin(), dirty_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  stats_.tasks_recomputed += dirty_.size();
  stats_.tasks_skipped += tasks_.size() - dirty_.size();

  for (const auto& [id, t] : dirty_) {
    // The rate is the min over the task's nodes of its allocation times
    // the node speed. Along a run of equal-speed nodes the numerator is one
    // capped demand and the speed one factor, and correctly rounded ÷ and ×
    // are monotone, so the run's min is one division by its largest
    // divisor (docs/MODEL.md §3.1).
    double rate = sim::kTimeInfinity;
    const std::vector<NodeId>& nodes = t->nodes;
    for (std::size_t i = 0; i < nodes.size();) {
      const double speed = cluster_.speed_factor(nodes[i]);
      const double here = task_terms(*t, speed, kTermDemand).demand;
      double divisor = 0.0;
      for (; i < nodes.size() && cluster_.speed_factor(nodes[i]) == speed; ++i) {
        const auto n = static_cast<std::size_t>(nodes[i]);
        // A node's demand total, summed on its first visit this settle in
        // resident start order (docs/MODEL.md §3.1). Every resident's
        // capped demand comes from its terms memo, computed once per speed:
        // nothing here changes a task's demand, because a reanchor at `now`
        // leaves work_at(now) bitwise unchanged.
        if (node_demand_serial_[n] != serial) {
          node_demand_serial_[n] = serial;
          double sum = 0.0;
          for (const Task* const r : node_tasks_[n])
            sum += task_terms(*r, speed, kTermDemand).demand;
          node_demand_[n] = sum;
        }
        divisor = std::max(divisor, allocation_divisor(here, node_demand_[n] - here,
                                                       work_conserving));
      }
      const double alloc = here > 0.0 ? here / divisor : 0.0;
      rate = std::min(rate, alloc * speed);
    }
    LIBRISK_CHECK(rate > 0.0 && rate < sim::kTimeInfinity,
                  "job " << t->job->id << " has no execution rate (demand="
                         << demand_of(*t, now) << ", boundary=" << t->boundary
                         << ", now=" << now << ")");
    if (rate != t->rate) {
      reanchor(*t, now);
      t->rate = rate;
      refresh_boundary(*t);
      bheap_update(t);
    } else if (t->bump_pending) {
      refresh_boundary(*t);
      bheap_update(t);
    }
    t->bump_pending = false;
  }

  // Phase 3: keep exactly one pending boundary event, rescheduled only when
  // the heap minimum actually moved (the common case — a settle that
  // touched nothing near the minimum — keeps the event in place).
  const sim::SimTime next_boundary =
      bheap_.empty() ? sim::kTimeInfinity : bheap_.front()->boundary;
  if (next_boundary == sim::kTimeInfinity) {
    if (pending_boundary_.valid()) {
      sim_.cancel(pending_boundary_);
      pending_boundary_ = sim::EventId{};
    }
  } else if (!pending_boundary_.valid() ||
             pending_boundary_time_ != next_boundary) {
    if (pending_boundary_.valid()) sim_.cancel(pending_boundary_);
    pending_boundary_ = sim_.at(next_boundary, sim::EventPriority::Completion,
                                [this] {
                                  pending_boundary_ = sim::EventId{};
                                  settle_and_reschedule();
                                });
    pending_boundary_time_ = next_boundary;
  }

  // Trace: one ShareRealloc per settle that actually moved observable state
  // (membership, work, or a just-started job), not per sync() no-op.
  if (trace_ != nullptr && (changed || pending_start_realloc_) && !tasks_.empty())
    trace_->share_realloc(now, static_cast<int>(tasks_.size()));
  pending_start_realloc_ = false;

  notify_and_reclaim(completed, killed, overruns, now);
}

void TimeSharedExecutor::notify_and_reclaim(std::vector<const Job*>& completed,
                                            std::vector<Killed>& killed,
                                            std::vector<Overrun>& overruns,
                                            sim::SimTime now) {
  // Phase 4: notify. Handlers run after internal state is consistent, so
  // they may call start()/sync() reentrantly (a nested settle swaps in the
  // then-empty member buffers and returns them before we reclaim). Trace
  // events fire immediately before the matching handler so reentrant starts
  // interleave in decision order.
  for (const Overrun& o : overruns) {
    if (trace_ != nullptr)
      trace_->job_overrun(now, o.job->id, o.bumps, o.est_current);
    if (on_overrun_) on_overrun_(*o.job, o.bumps);
  }
  for (const Killed& k : killed) {
    if (trace_ != nullptr) trace_->job_killed(now, k.job->id, k.work_done);
    on_kill_(*k.job, now);
  }
  for (const Job* const job : completed) {
    if (trace_ != nullptr)
      trace_->job_finished(now, job->id, now - job->absolute_deadline());
    if (on_completion_) on_completion_(*job, now);
  }
  completed.clear();
  killed.clear();
  overruns.clear();
  completed_buf_ = std::move(completed);
  killed_buf_ = std::move(killed);
  overrun_buf_ = std::move(overruns);
}

void TimeSharedExecutor::check_invariants() const {
  // Node lists and task node sets agree.
  std::size_t listed = 0;
  for (NodeId n = 0; n < cluster_.size(); ++n) {
    for (const JobId id : node_jobs_[static_cast<std::size_t>(n)]) {
      const auto it = tasks_.find(id);
      LIBRISK_CHECK(it != tasks_.end(), "node list references dead job " << id);
      const auto& nodes = it->second.nodes;
      LIBRISK_CHECK(std::find(nodes.begin(), nodes.end(), n) != nodes.end(),
                    "node list / task nodes disagree for job " << id);
      ++listed;
    }
  }
  for (NodeId n = 0; n < cluster_.size(); ++n) {
    const auto& ids = node_jobs_[static_cast<std::size_t>(n)];
    const auto& ptrs = node_tasks_[static_cast<std::size_t>(n)];
    LIBRISK_CHECK(ids.size() == ptrs.size(),
                  "node " << n << " id/task lists out of sync");
    for (std::size_t i = 0; i < ids.size(); ++i)
      LIBRISK_CHECK(ptrs[i]->job->id == ids[i],
                    "node " << n << " task pointer mismatch at slot " << i);
  }
  // The occupied index holds exactly the nodes with residents.
  std::size_t occupied = 0;
  for (NodeId n = 0; n < cluster_.size(); ++n) {
    const std::int32_t pos = occupied_.pos[static_cast<std::size_t>(n)];
    LIBRISK_CHECK(node_tasks_[static_cast<std::size_t>(n)].empty() == (pos < 0),
                  "node " << n << " occupied index out of date");
    if (pos < 0) continue;
    LIBRISK_CHECK(static_cast<std::size_t>(pos) < occupied_.nodes.size() &&
                      occupied_.nodes[static_cast<std::size_t>(pos)] == n,
                  "node " << n << " occupied position stale");
    ++occupied;
  }
  LIBRISK_CHECK(occupied == occupied_.nodes.size(),
                "node list of the occupied index out of sync");

  // The contended set holds exactly the tasks with a shared node.
  std::size_t contended = 0;
  for (const auto& [id, task] : tasks_) {
    const auto shared = std::ranges::count_if(task.nodes, [this](NodeId n) {
      return node_tasks_[static_cast<std::size_t>(n)].size() >= 2;
    });
    LIBRISK_CHECK(task.shared_nodes == shared,
                  "job " << id << " shared-node count out of date");
    LIBRISK_CHECK((task.contended_pos >= 0) == (shared > 0),
                  "job " << id << " contended membership out of date");
    if (task.contended_pos < 0) continue;
    LIBRISK_CHECK(static_cast<std::size_t>(task.contended_pos) < contended_.size() &&
                      contended_[static_cast<std::size_t>(task.contended_pos)] == &task,
                  "job " << id << " contended position stale");
    ++contended;
  }
  LIBRISK_CHECK(contended == contended_.size(), "contended set out of sync");

  std::size_t expected = 0;
  std::size_t queued = 0;
  for (const auto& [id, task] : tasks_) {
    expected += task.nodes.size();
    const double work = work_at(task, last_settle_);
    LIBRISK_CHECK(work >= -kWorkEpsilon, "negative work for job " << id);
    LIBRISK_CHECK(work <= task.actual_total + 1.0,
                  "work far past completion for job " << id);
    LIBRISK_CHECK(task.rate >= 0.0, "negative rate");
    LIBRISK_CHECK(task.est_current >= task.job->scheduler_estimate - kWorkEpsilon,
                  "estimate shrank for job " << id);
    if (task.rate > 0.0) {
      // The boundary must be exactly what refresh_boundary would derive
      // from the anchor (it is never recomputed between rate changes).
      const double to_completion =
          (task.actual_total - task.anchor_work) / task.rate;
      const double to_expiry =
          (task.est_current - task.anchor_work) / task.rate;
      const bool expiry = to_expiry < to_completion;
      const sim::SimTime boundary =
          task.anchor_time + std::max(expiry ? to_expiry : to_completion, 0.0);
      LIBRISK_CHECK(task.boundary == boundary &&
                        task.boundary_is_expiry == expiry,
                    "stale boundary for job " << id);
    }
    if (task.heap_pos >= 0) {
      ++queued;
      LIBRISK_CHECK(static_cast<std::size_t>(task.heap_pos) < bheap_.size() &&
                        bheap_[static_cast<std::size_t>(task.heap_pos)] == &task,
                    "boundary-heap position stale for job " << id);
    } else {
      // Between settles every running task is queued (only mid-settle due
      // processing pops them); a rate of 0 means the task was started but
      // never settled, which cannot be observed from outside.
      LIBRISK_CHECK(task.rate == 0.0,
                    "running job " << id << " missing from the boundary heap");
    }
  }
  LIBRISK_CHECK(listed == expected, "node lists and tasks out of sync");
  LIBRISK_CHECK(queued == bheap_.size(), "boundary heap size out of sync");
  for (std::size_t i = 1; i < bheap_.size(); ++i)
    LIBRISK_CHECK(!boundary_before(bheap_[i], bheap_[(i - 1) / 2]),
                  "boundary heap order violated at slot " << i);

  // Reference rates: every settled rate equals, bit for bit, the per-node
  // allocate_one loop that the rate pass's one division per equal-speed run
  // replaces, evaluated at the last settle.
  const bool work_conserving =
      config_.work_conserving || config_.mode == ExecutionMode::EqualShare;
  for (const auto& [id, task] : tasks_) {
    if (task.rate == 0.0) continue;  // started, never settled
    const double d = demand_of(task, last_settle_);
    double rate = sim::kTimeInfinity;
    for (const NodeId n : task.nodes) {
      const double speed = cluster_.speed_factor(n);
      double node_demand = 0.0;
      for (const Task* const r : node_tasks_[static_cast<std::size_t>(n)])
        node_demand += std::min(1.0, demand_of(*r, last_settle_) / speed);
      const double demand_here = std::min(1.0, d / speed);
      const double alloc =
          allocate_one(demand_here, node_demand - demand_here, work_conserving);
      rate = std::min(rate, alloc * speed);
    }
    LIBRISK_CHECK(same_bits(rate, task.rate),
                  "job " << id << " runs at " << task.rate
                         << ", the per-node reference gives " << rate);
  }

  // Term memos: every term a view on one of the task's nodes would take
  // from the memo equals a from-scratch computation at that node's speed.
  for (const auto& [id, task] : tasks_) {
    for (const NodeId n : task.nodes) {
      const double speed = cluster_.speed_factor(n);
      const TermParts served = memo_parts(task.terms, speed);
      if (served == 0) continue;
      TaskTerms fresh;
      compute_terms(task, speed, served, fresh);
      const TaskTerms& memo = task.terms;
      const auto same = [served](TermParts part, double a, double b) {
        return (served & part) == 0 || same_bits(a, b);
      };
      const bool memo_fresh =
          same(kTermBase, memo.remaining_raw, fresh.remaining_raw) &&
          same(kTermBase, memo.remaining_current, fresh.remaining_current) &&
          same(kTermBase, memo.remaining_deadline, fresh.remaining_deadline) &&
          same(kTermDelay, memo.deadline_delay, fresh.deadline_delay) &&
          same(kTermShareRaw, memo.share_raw, fresh.share_raw) &&
          same(kTermShareCurrent, memo.share_current, fresh.share_current) &&
          same(kTermDemand, memo.demand, fresh.demand);
      LIBRISK_CHECK(memo_fresh,
                    "job " << id << " would serve stale terms on node " << n);
    }
  }

  // Cache soundness: a view node_state() would serve without rebuilding
  // must equal a rebuild of the same parts, bit for bit. The rebuild
  // bypasses the term memos, so they are never compared with themselves.
  NodeCache rebuilt;
  for (NodeId n = 0; n < cluster_.size(); ++n) {
    const NodeCache& cache = node_cache_[static_cast<std::size_t>(n)];
    if (!view_fresh(cache, n)) continue;
    fill_node_cache(n, rebuilt, cache.view.parts, /*memo=*/false);
    LIBRISK_CHECK(same_view(cache.view, rebuilt.view),
                  "node " << n << " would serve a stale cached view");
  }
}

}  // namespace librisk::cluster
