#include "cluster/timeshared.hpp"

#include <algorithm>
#include <bit>
#include <set>

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

/// A class key's hash: FNV-1a over the speed's bits and the resident ids,
/// so appending a resident extends a class's hash in one step.
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
std::uint64_t key_seed(double speed) noexcept {
  return (std::bit_cast<std::uint64_t>(speed) ^ 0xcbf29ce484222325ULL) * kFnvPrime;
}
std::uint64_t key_step(std::uint64_t hash, JobId id) noexcept {
  return (hash ^ static_cast<std::uint64_t>(id)) * kFnvPrime;
}

bool same_bits(std::span<const double> a, std::span<const double> b) noexcept {
  return std::ranges::equal(a, b, [](double x, double y) { return same_bits(x, y); });
}

/// Bitwise equality of two node views. Every scalar is deterministic even
/// when its part was not requested.
bool same_view(const NodeStateView& a, const NodeStateView& b) noexcept {
  const core::ResidentRiskAggregates& ra = a.risk_current;
  const core::ResidentRiskAggregates& rb = b.risk_current;
  return a.parts == b.parts && a.residents == b.residents &&
         std::ranges::equal(a.jobs, b.jobs) &&
         same_bits(a.remaining_raw, b.remaining_raw) &&
         same_bits(a.remaining_current, b.remaining_current) &&
         same_bits(a.remaining_deadline, b.remaining_deadline) &&
         same_bits(a.rate, b.rate) &&
         same_bits(a.total_share_raw, b.total_share_raw) &&
         same_bits(a.total_share_current, b.total_share_current) &&
         same_bits(a.available_capacity, b.available_capacity) &&
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
  // Every node starts in the empty class of its speed.
  node_class_.resize(n);
  for (NodeId node = 0; node < cluster_.size(); ++node) {
    const double speed = cluster_.speed_factor(node);
    const auto it = std::ranges::find_if(empty_classes_, [&](ClassId c) {
      return classes_[c].speed == speed;
    });
    ClassId c = it != empty_classes_.end() ? *it : -1;
    if (c < 0) {
      c = new_class(speed);
      classes_[c].hash = key_seed(speed);
      classes_[c].empty = c;
      empty_classes_.push_back(c);
    }
    node_class_[node] = c;
    ++classes_[c].members;
  }
  // A live class other than the empty ones has a member, except the one a
  // move has just made for the node about to join it, so at most
  // n + 1 + |empty| are live at once and at most n + 1 slots are free.
  // Reserving the slots spares start() the moves of every class that
  // growing the vector would cost (pages are touched only as classes are
  // made).
  const std::size_t most = n + 1 + empty_classes_.size();
  class_index_.assign(std::bit_ceil(2 * most), -1);
  for (const ClassId c : empty_classes_) index_insert(c);
  classes_.reserve(most);
  free_classes_.reserve(n + 1);
  occupied_.pos.assign(n, -1);
  node_start_stamp_.assign(n, 0);
  node_touched_serial_.assign(n, 0);
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
  const std::uint64_t stamp = ++move_serial_;
  for (const NodeId n : nodes) {
    LIBRISK_CHECK(node_start_stamp_[static_cast<std::size_t>(n)] != stamp,
                  "job " << job.id << " assigned duplicate nodes");
    node_start_stamp_[static_cast<std::size_t>(n)] = stamp;
  }

  Task task;
  task.job = &job;
  task.nodes = std::move(nodes);
  task.start_time = sim_.now();
  task.started = stamp;
  task.est_current = job.scheduler_estimate;
  task.actual_total = job.actual_runtime;
  task.anchor_time = sim_.now();
  const auto [it, inserted] = tasks_.emplace(job.id, std::move(task));
  LIBRISK_CHECK(inserted, "job " << job.id << " already running");
  Task* const started = &it->second;
  // The gang's nodes in one class move together to that class plus the
  // job: one new class per distinct old class.
  for (const NodeId n : started->nodes) {
    const ClassId from = node_class_[n];
    if (classes_[from].move_serial != stamp) {
      const ClassId to = class_joined(from, started);
      classes_[from].move_serial = stamp;
      classes_[from].move_to = to;
    }
    const ClassId to = classes_[from].move_to;
    const std::vector<Task*>& residents = classes_[to].tasks;
    if (residents.size() == 2) share_node(residents.front());
    if (residents.size() >= 2) share_node(started);
    move_node(n, from, to);
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
  return classes_[node_class(node)].jobs;
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

void TimeSharedExecutor::rebuild_view(const NodeClass& c,
                                      NodeStateParts parts) const {
  ++stats_.view_rebuilds;
  // Parts the cache still holds validly are folded into the rebuild rather
  // than dropped (a narrower request after a wider one keeps the wider).
  fill_view(c.speed, c.tasks, c.cache,
            parts | (view_fresh(c) ? c.cache.view.parts : 0), /*memo=*/true);
}

void TimeSharedExecutor::fill_view(double speed,
                                   std::span<const Task* const> residents,
                                   ViewCache& cache, NodeStateParts parts,
                                   bool memo) const {
  const std::size_t n = residents.size();

  // An empty class's view is so cheap that it always carries every part.
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
  }
  double total_raw = 0.0;
  double total_current = 0.0;
  double demand = 0.0;
  core::ResidentRiskAggregates agg;
  TaskTerms fresh;
  for (std::size_t i = 0; i < n; ++i) {
    const Task* t = residents[i];
    const TaskTerms* terms = &fresh;
    if (memo)
      terms = &task_terms(*t, speed, terms_wanted);
    else
      compute_terms(*t, speed, terms_wanted, fresh);
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
    }
  }
  agg.computed = want_agg;

  cache.epoch = epoch_;
  cache.at = sim_.now();
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
  cache.view.total_share_raw = total_raw;
  cache.view.total_share_current = total_current;
  // EqualShare has no notion of reserved shares: a non-empty node is fully
  // used. Pacing modes report the *guaranteed* leftover (1 - total demand)
  // even when work-conserving, because spare redistribution is a bonus a
  // new job cannot rely on.
  cache.view.available_capacity = equal_share
                                      ? (n == 0 ? 1.0 : 0.0)
                                      : std::max(0.0, 1.0 - demand);
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
  // Every member of a class holding the task is one of its nodes, so each
  // such class empties into the class without the task: one lookup per
  // distinct old class.
  const std::uint64_t move = ++move_serial_;
  for (const NodeId n : task.nodes) {
    const ClassId from = node_class_[n];
    if (classes_[from].move_serial != move) {
      const std::vector<Task*>& residents = classes_[from].tasks;
      const auto pos = static_cast<std::size_t>(
          std::ranges::find(residents, &task) - residents.begin());
      const ClassId to = class_left(from, pos);
      classes_[from].move_serial = move;
      classes_[from].move_to = to;
    }
    const ClassId to = classes_[from].move_to;
    if (classes_[from].tasks.size() >= 2) unshare_node(&task);
    const std::vector<Task*>& left = classes_[to].tasks;
    if (left.size() == 1) unshare_node(left.front());
    move_node(n, from, to);
  }
  if (task.heap_pos >= 0) bheap_remove(&task);
}

TimeSharedExecutor::ClassId TimeSharedExecutor::new_class(double speed) {
  ClassId id = 0;
  if (free_classes_.empty()) {
    id = static_cast<ClassId>(classes_.size());
    classes_.emplace_back();
  } else {
    id = free_classes_.back();
    free_classes_.pop_back();
  }
  NodeClass& c = classes_[id];
  c.speed = speed;
  c.jobs.clear();
  c.tasks.clear();
  c.members = 0;
  c.cache.epoch = 0;
  c.cache.view.parts = 0;
  c.touch_serial = 0;
  c.demand_serial = 0;
  c.rate_visit = 0;
  c.move_serial = 0;
  c.move_to = -1;
  return id;
}

TimeSharedExecutor::ClassId TimeSharedExecutor::class_joined(ClassId from,
                                                             Task* task) {
  const ClassId id = new_class(classes_[from].speed);
  const NodeClass& base = classes_[from];
  NodeClass& c = classes_[id];
  c.jobs.assign(base.jobs.begin(), base.jobs.end());
  c.jobs.push_back(task->job->id);
  c.tasks.assign(base.tasks.begin(), base.tasks.end());
  c.tasks.push_back(task);
  c.hash = key_step(base.hash, task->job->id);
  c.empty = base.empty;
  index_insert(id);
  return id;
}

TimeSharedExecutor::ClassId TimeSharedExecutor::class_left(ClassId from,
                                                           std::size_t pos) {
  const NodeClass& base = classes_[from];
  if (base.jobs.size() == 1) return base.empty;  // the lone resident leaves
  const auto gap = static_cast<std::ptrdiff_t>(pos);
  std::uint64_t hash = key_seed(base.speed);
  for (std::size_t i = 0; i < base.jobs.size(); ++i)
    if (i != pos) hash = key_step(hash, base.jobs[i]);
  const std::size_t mask = class_index_.size() - 1;
  for (std::size_t slot = index_home(hash);; slot = (slot + 1) & mask) {
    const ClassId id = class_index_[slot];
    if (id < 0) break;
    const NodeClass& c = classes_[id];
    if (c.hash == hash && c.speed == base.speed &&
        c.jobs.size() + 1 == base.jobs.size() &&
        std::equal(base.jobs.begin(), base.jobs.begin() + gap, c.jobs.begin()) &&
        std::equal(base.jobs.begin() + gap + 1, base.jobs.end(),
                   c.jobs.begin() + gap))
      return id;
  }
  const ClassId id = new_class(base.speed);
  const NodeClass& old = classes_[from];  // new_class may move it
  NodeClass& c = classes_[id];
  c.jobs.assign(old.jobs.begin(), old.jobs.end());
  c.jobs.erase(c.jobs.begin() + gap);
  c.tasks.assign(old.tasks.begin(), old.tasks.end());
  c.tasks.erase(c.tasks.begin() + gap);
  c.hash = hash;
  c.empty = old.empty;
  index_insert(id);
  return id;
}

void TimeSharedExecutor::move_node(NodeId node, ClassId from, ClassId to) {
  NodeClass& src = classes_[from];
  NodeClass& dst = classes_[to];
  node_class_[node] = to;
  ++dst.members;
  if (src.jobs.empty())
    occupied_.add(node);
  else if (dst.jobs.empty())
    occupied_.remove(node);
  // The empty classes stay, members or not; any other class is recycled.
  if (--src.members > 0 || src.jobs.empty()) return;
  index_erase(from);
  src.jobs.clear();
  src.tasks.clear();
  free_classes_.push_back(from);
}

std::size_t TimeSharedExecutor::index_home(std::uint64_t hash) const noexcept {
  // splitmix64's finaliser: FNV's low bits alone cluster on dense ids.
  hash ^= hash >> 30;
  hash *= 0xbf58476d1ce4e5b9ULL;
  hash ^= hash >> 27;
  hash *= 0x94d049bb133111ebULL;
  hash ^= hash >> 31;
  return static_cast<std::size_t>(hash) & (class_index_.size() - 1);
}

void TimeSharedExecutor::index_insert(ClassId id) {
  const std::size_t mask = class_index_.size() - 1;
  std::size_t slot = index_home(classes_[id].hash);
  while (class_index_[slot] >= 0) slot = (slot + 1) & mask;
  class_index_[slot] = id;
}

void TimeSharedExecutor::index_erase(ClassId id) {
  const std::size_t mask = class_index_.size() - 1;
  std::size_t hole = index_home(classes_[id].hash);
  while (class_index_[hole] != id) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home lies cyclically in (hole, slot].
  for (std::size_t slot = (hole + 1) & mask; class_index_[slot] >= 0;
       slot = (slot + 1) & mask) {
    const ClassId moved = class_index_[slot];
    const std::size_t home = index_home(classes_[moved].hash);
    if (((slot - home) & mask) >= ((slot - hole) & mask)) {
      class_index_[hole] = moved;
      hole = slot;
    }
  }
  class_index_[hole] = -1;
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

  // Invalidate the class views whenever the observable state changed: work
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
    // A touched node's residents now are its class's, marked once per
    // class.
    for (const NodeId n : touched_nodes_) {
      NodeClass& c = classes_[node_class_[n]];
      if (c.touch_serial == serial) continue;
      c.touch_serial = serial;
      for (Task* const t : c.tasks) mark_dirty(t);
    }
  }
  std::sort(dirty_.begin(), dirty_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  stats_.tasks_recomputed += dirty_.size();
  stats_.tasks_skipped += tasks_.size() - dirty_.size();

  for (const auto& [id, t] : dirty_) {
    // The rate is the min over the task's nodes of its allocation times
    // the node speed. A node's allocation is its class's, so each class
    // the task spans gives one divisor. Along a run of equal-speed nodes
    // the numerator is one capped demand and the speed one factor, and
    // correctly rounded ÷ and × are monotone, so the run's min is one
    // division by its largest divisor (docs/MODEL.md §3.1).
    const std::uint64_t visit = ++rate_visit_;
    double rate = sim::kTimeInfinity;
    const std::vector<NodeId>& nodes = t->nodes;
    for (std::size_t i = 0; i < nodes.size();) {
      const auto class_of = [this](NodeId n) -> NodeClass& {
        return classes_[node_class_[n]];
      };
      const double speed = class_of(nodes[i]).speed;
      const double here = task_terms(*t, speed, kTermDemand).demand;
      double divisor = 0.0;
      bool divided = false;  // false when every class of the run was seen
      for (; i < nodes.size(); ++i) {
        NodeClass& c = class_of(nodes[i]);
        if (c.speed != speed) break;
        if (c.rate_visit == visit) continue;
        c.rate_visit = visit;
        // A class's demand total, summed on its first visit this settle in
        // resident start order (docs/MODEL.md §3.1). Every resident's
        // capped demand comes from its terms memo, computed once per speed:
        // nothing here changes a task's demand, because a reanchor at `now`
        // leaves work_at(now) bitwise unchanged.
        if (c.demand_serial != serial) {
          c.demand_serial = serial;
          double sum = 0.0;
          for (const Task* const r : c.tasks)
            sum += task_terms(*r, speed, kTermDemand).demand;
          c.demand = sum;
        }
        divisor = std::max(divisor, allocation_divisor(here, c.demand - here,
                                                       work_conserving));
        divided = true;
      }
      if (!divided) continue;
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
  // Each node's resident list, rebuilt from the tasks' node lists in start
  // order, is its class's, and the class has the node's speed.
  std::vector<std::vector<const Task*>> residents(
      static_cast<std::size_t>(cluster_.size()));
  std::size_t expected = 0;
  for (const auto& [id, task] : tasks_) {
    expected += task.nodes.size();
    for (const NodeId n : task.nodes) residents[n].push_back(&task);
  }
  for (auto& list : residents)
    std::ranges::sort(list, [](const Task* a, const Task* b) { return a->started < b->started; });
  std::vector<std::int32_t> members(classes_.size(), 0);
  std::size_t listed = 0;
  for (NodeId n = 0; n < cluster_.size(); ++n) {
    const ClassId id = node_class_[n];
    LIBRISK_CHECK(id >= 0 && static_cast<std::size_t>(id) < classes_.size(),
                  "node " << n << " has no class");
    const NodeClass& c = classes_[id];
    ++members[id];
    LIBRISK_CHECK(c.speed == cluster_.speed_factor(n),
                  "node " << n << " is in class " << id << " of another speed");
    const std::vector<const Task*>& list = residents[n];
    LIBRISK_CHECK(c.jobs.size() == list.size() && c.tasks.size() == list.size(),
                  "node " << n << " class " << id << " holds the wrong residents");
    for (std::size_t i = 0; i < list.size(); ++i)
      LIBRISK_CHECK(c.tasks[i] == list[i] && c.jobs[i] == list[i]->job->id,
                    "node " << n << " class " << id << " disagrees at slot " << i);
    listed += list.size();
  }

  // Member counts, the free list and the interning index agree, and no two
  // live classes share a key.
  std::vector<bool> free(classes_.size(), false);
  for (const ClassId id : free_classes_) {
    LIBRISK_CHECK(!free[id], "class " << id << " freed twice");
    free[id] = true;
  }
  std::vector<bool> empty(classes_.size(), false);
  for (const ClassId id : empty_classes_) empty[id] = true;
  std::set<std::pair<double, std::vector<JobId>>> keys;
  std::size_t live = 0;
  for (std::size_t id = 0; id < classes_.size(); ++id) {
    const NodeClass& c = classes_[id];
    LIBRISK_CHECK(c.members == members[id], "class " << id << " member count out of date");
    LIBRISK_CHECK(empty[id] == (c.jobs.empty() && !free[id]),
                  "class " << id << " empty-class status out of date");
    if (free[id]) {
      LIBRISK_CHECK(c.members == 0 && c.jobs.empty(), "free class " << id << " in use");
      continue;
    }
    LIBRISK_CHECK(c.members > 0 || empty[id], "class " << id << " live without members");
    LIBRISK_CHECK(c.empty >= 0 && empty[c.empty] && classes_[c.empty].speed == c.speed,
                  "class " << id << " names the wrong empty class");
    LIBRISK_CHECK(keys.emplace(c.speed, c.jobs).second,
                  "class " << id << " duplicates another live class's key");
    std::uint64_t hash = key_seed(c.speed);
    for (const JobId job : c.jobs) hash = key_step(hash, job);
    LIBRISK_CHECK(c.hash == hash, "class " << id << " hash out of date");
    const std::size_t mask = class_index_.size() - 1;
    std::size_t slot = index_home(hash);
    while (class_index_[slot] >= 0 && class_index_[slot] != static_cast<ClassId>(id))
      slot = (slot + 1) & mask;
    LIBRISK_CHECK(class_index_[slot] == static_cast<ClassId>(id),
                  "class " << id << " unreachable in the index");
    ++live;
  }
  LIBRISK_CHECK(static_cast<std::size_t>(std::ranges::count_if(
                    class_index_, [](ClassId id) { return id >= 0; })) == live,
                "class index holds dead classes");

  // The occupied index holds exactly the nodes with residents.
  std::size_t occupied = 0;
  for (NodeId n = 0; n < cluster_.size(); ++n) {
    const std::int32_t pos = occupied_.pos[static_cast<std::size_t>(n)];
    LIBRISK_CHECK(residents[n].empty() == (pos < 0),
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
    const auto shared = std::ranges::count_if(task.nodes, [&](NodeId n) {
      return residents[n].size() >= 2;
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

  std::size_t queued = 0;
  for (const auto& [id, task] : tasks_) {
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
      for (const Task* const r : residents[n])
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

  // Cache soundness: a class view node_state() would serve without
  // rebuilding must equal a rebuild of the same parts at each member, from
  // the member's own speed and rebuilt resident list, bit for bit. The
  // rebuild bypasses the term memos, so they are never compared with
  // themselves.
  ViewCache rebuilt;
  for (NodeId n = 0; n < cluster_.size(); ++n) {
    const NodeClass& c = classes_[node_class_[n]];
    if (!view_fresh(c)) continue;
    fill_view(cluster_.speed_factor(n), residents[n],
              rebuilt, c.cache.view.parts, /*memo=*/false);
    LIBRISK_CHECK(same_view(c.cache.view, rebuilt.view),
                  "node " << n << " would serve a stale cached view");
  }
}

}  // namespace librisk::cluster
