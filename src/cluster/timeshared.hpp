// Time-shared node executor: runs gang jobs under the deadline-based
// proportional processor-share model (the Libra/LibraRisk substrate).
//
// Execution model (DESIGN.md §3.2):
//  - Every running job i demands share s_i = required_share(remaining
//    scheduler-estimated work, remaining deadline) on each of its nodes.
//  - Each node allocates capacity a_ij = s_i / Σ s (work-conserving) and a
//    gang job progresses at the minimum allocated rate across its nodes.
//  - Rates are piecewise-constant between events; every arrival, completion
//    and estimate-expiry triggers a settle and the executor keeps exactly
//    one pending "next boundary" event.
//  - When a job exhausts its estimate without completing (user under-
//    estimate), the scheduler's estimate is bumped by overrun_bump_fraction
//    of the original and an overrun notification fires. This divergence
//    between the *raw estimate* (what Libra believes, Eq. 1) and the
//    *current estimate* (what the node is actually contending with) is the
//    phenomenon the paper's risk metric manages.
//
// Execution kernel (docs/MODEL.md "incremental execution kernel"): a settle
// does work proportional to what the triggering event touched, not to the
// resident population. Work is never stepped forward; each task carries an
// anchor (anchor_work, anchor_time) and its work at any instant is
// anchor_work + rate * (t - anchor_time), re-anchored only when the rate
// changes. Completion/expiry instants live in an intrusive binary min-heap
// keyed by absolute boundary time, so due tasks pop in O(log n) and the
// next-boundary event reschedules only when the minimum actually moves.
// Only the dirty set — residents of nodes whose membership or contention
// changed — gets its demand and rate recomputed; everyone else is skipped
// (KernelStats counts both). Strict (non-work-conserving) pacing is the one
// regime where time advance dirties every task; it recomputes them all.
// A gang job's per-instant terms (remaining work and deadline, shares,
// deadline-delay term, capped demand) are computed once per task, not once
// per node it spans: the task memoises them per (state epoch, instant, node
// speed), and each node view and the settle fold the memoised values.
// Nodes in the same state are evaluated once, too: a node class is one
// (node speed, resident list in start order), interned so that equal keys
// share one id. The resident list, the admission view and the settle's
// demand total live on the class, and a gang's nodes move from class to
// class together (docs/MODEL.md §3.1 "One evaluation per node class").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/share_model.hpp"
#include "cluster/timeline.hpp"
#include "core/risk.hpp"  // header-only value types (ResidentRiskAggregates)
#include "sim/simulator.hpp"
#include "support/check.hpp"
#include "support/hooks.hpp"
#include "trace/recorder.hpp"
#include "workload/job.hpp"

namespace librisk::obs {
class Telemetry;
class PhaseProfiler;
}

namespace librisk::cluster {

using workload::Job;
using JobId = std::int64_t;

/// Read-only snapshot of a running job, as observable by an admission
/// control (no field leaks the job's actual runtime).
struct TaskView {
  const Job* job = nullptr;
  std::vector<NodeId> nodes;
  sim::SimTime start_time = 0.0;
  double work_done = 0.0;       ///< reference-seconds executed so far
  double est_original = 0.0;    ///< scheduler estimate at start
  double est_current = 0.0;     ///< estimate including overrun bumps
  int overrun_bumps = 0;
  double rate = 0.0;            ///< current ref-seconds per second

  /// Remaining work by the *raw* user/scheduler estimate (Libra's belief,
  /// Eq. 1): zero once the job has run past its estimate.
  [[nodiscard]] double remaining_estimate_raw() const noexcept;
  /// Remaining work by the current (bumped) estimate — always > 0 while
  /// running.
  [[nodiscard]] double remaining_estimate_current() const noexcept;
  /// Seconds until the job's absolute deadline (negative if past it).
  [[nodiscard]] double remaining_deadline(sim::SimTime now) const noexcept;
};

/// Selector for which derived parts of a NodeStateView a caller needs.
/// The resident count is always built; each flag below gates one part so
/// policies that never read a part never pay for it: the per-resident
/// columns, or one divide-per-resident family.
/// Flags accumulate in the cache: requesting a part another caller already
/// built this instant is free.
using NodeStateParts = std::uint8_t;
inline constexpr NodeStateParts kStateSharesRaw = 1;      ///< total_share_raw
inline constexpr NodeStateParts kStateSharesCurrent = 2;  ///< total_share_current
inline constexpr NodeStateParts kStateCapacity = 4;       ///< available_capacity
inline constexpr NodeStateParts kStateRiskAggregates = 8; ///< risk_current (implies SharesCurrent)
inline constexpr NodeStateParts kStateColumns = 16;       ///< the per-resident spans
inline constexpr NodeStateParts kStateAll = 31;

/// Cached per-node aggregates + resident snapshot in structure-of-arrays
/// layout: index i across every span describes the i-th resident (in start
/// order), so the σ-risk assessment and share summation stream over
/// contiguous doubles instead of hopping through an array of structs.
/// The spans are the Columns part: a view read without it is
/// aggregate-only, its spans empty and its resident count in count().
/// The view and its spans belong to the node's class (every node of one
/// speed holding one resident list shares them), and they stay valid until
/// the executor's state next changes (start/completion/overrun/kill/sync
/// that advances work) — i.e. for the duration of one admission scan, not
/// across submissions.
struct NodeStateView {
  std::span<const Job* const> jobs;             ///< in start order
  std::span<const double> remaining_raw;        ///< raw-estimate remaining work (Eq. 1 belief)
  std::span<const double> remaining_current;    ///< overrun-bumped remaining work
  std::span<const double> remaining_deadline;   ///< seconds to absolute deadline (may be < 0)
  std::span<const double> rate;                 ///< current ref-seconds per second
  double total_share_raw = 0.0;      ///< total demanded share, raw estimates (Eq. 2) [SharesRaw]
  double total_share_current = 0.0;  ///< total demanded share, current estimates [SharesCurrent]
  /// Fraction of capacity not allocated to jobs (always 0 in
  /// work-conserving modes, which use everything). [Capacity]
  double available_capacity = 1.0;
  /// Left-fold of the CurrentRate σ-risk resident terms in start order
  /// (share_current / observed rate), ready for core::assess_nodes'
  /// O(1)-per-node aggregate path. [RiskAggregates]
  core::ResidentRiskAggregates risk_current;
  std::size_t residents = 0;  ///< resident count, with or without Columns
  NodeStateParts parts = 0;  ///< which gated parts above are populated

  [[nodiscard]] std::size_t count() const noexcept { return residents; }
  [[nodiscard]] bool empty() const noexcept { return residents == 0; }
};

/// Execution-kernel effort counters, AdmissionStats-style: cumulative over
/// the executor's lifetime, cheap enough to keep always-on. The skip ratio
/// (tasks_skipped vs tasks_recomputed) is the incremental kernel's win.
struct KernelStats {
  std::uint64_t settles = 0;           ///< settle passes (events + syncs)
  std::uint64_t global_recomputes = 0; ///< settles that recomputed every task
  std::uint64_t tasks_recomputed = 0;  ///< demand/rate recomputations
  std::uint64_t tasks_skipped = 0;     ///< resident-settle pairs left untouched
  std::uint64_t reanchors = 0;         ///< work anchors advanced (rate changes)
  std::uint64_t boundary_updates = 0;  ///< boundary-heap insert/move operations
  /// node_state() calls that had to rebuild the view of the node's class
  /// (the rest were served from the cache, including every read of another
  /// member of a class already built). Deterministic, like the above;
  /// reads by observers (the telemetry per-node sampler) count too.
  std::uint64_t view_rebuilds = 0;

  /// Derived views shared by every stats surface (CLI, diagnose, telemetry)
  /// so the arithmetic lives in exactly one place. All are 0 when the
  /// denominator is 0 (space-shared policies never drive this executor).
  [[nodiscard]] double recomputes_per_settle() const noexcept {
    return settles > 0 ? static_cast<double>(tasks_recomputed) /
                             static_cast<double>(settles)
                       : 0.0;
  }
  /// Fraction (%) of resident-settle pairs the dirty-set pass left
  /// untouched — the incremental kernel's win.
  [[nodiscard]] double skip_pct() const noexcept {
    const std::uint64_t touched = tasks_recomputed + tasks_skipped;
    return touched > 0 ? 100.0 * static_cast<double>(tasks_skipped) /
                             static_cast<double>(touched)
                       : 0.0;
  }
};

class TimeSharedExecutor {
 public:
  using CompletionHandler = std::function<void(const Job&, sim::SimTime finish)>;
  using OverrunHandler = std::function<void(const Job&, int bumps)>;
  using KillHandler = std::function<void(const Job&, sim::SimTime when)>;
  /// Identifies a node class (see node_class()).
  using ClassId = std::int32_t;

  TimeSharedExecutor(sim::Simulator& simulator, const Cluster& cluster,
                     ShareModelConfig config = {});

  /// Completion callback (fires once per job, at its finish instant, after
  /// the executor has removed it from its nodes).
  void set_completion_handler(CompletionHandler handler);
  /// Optional: estimate-expiry callback.
  void set_overrun_handler(OverrunHandler handler);
  /// Required when config.kill_at_estimate is set: fires instead of the
  /// overrun bump when a job exhausts its estimate (the job is removed).
  void set_kill_handler(KillHandler handler);

  /// Optional: stream execution segments into `recorder` (nullptr to stop).
  /// The recorder must outlive the executor or the detach call. Segments
  /// are emitted per constant-rate stretch (anchor to anchor), so they are
  /// coarser than one-per-event but tile each job's execution exactly.
  void set_timeline_recorder(TimelineRecorder* recorder) noexcept {
    timeline_ = recorder;
  }

  /// Attaches the optional observation hooks (support/hooks.hpp) as one
  /// value. A trace recorder receives lifecycle events
  /// (start/finish/kill/overrun/realloc; docs/TRACING.md). A telemetry hub
  /// (docs/OBSERVABILITY.md) gets the kernel effort counters as pull
  /// metrics, a per-tick "kernel" delta series, and settle passes timed as
  /// the `settle` phase. Both are borrowed and must outlive the executor.
  /// Null members detach (telemetry metric registrations are permanent).
  void attach(const Hooks& hooks);

  /// Starts `job` now on the given distinct nodes (job.num_procs of them).
  /// The caller (admission control) retains ownership of the Job, which
  /// must outlive completion.
  void start(const Job& job, std::vector<NodeId> nodes);

  /// Settles rates/boundaries at simulator time (call before inspecting
  /// views mid-simulation; completion events do this automatically).
  void sync();

  // ---- observation API (used by admission controls and tests) ----
  [[nodiscard]] std::size_t running_count() const noexcept { return tasks_.size(); }
  [[nodiscard]] bool is_running(JobId id) const noexcept;
  /// Jobs currently on a node, in start order (its class's list).
  [[nodiscard]] const std::vector<JobId>& node_jobs(NodeId node) const;
  /// The nodes with at least one resident, in unspecified order. Valid
  /// until the next start, completion or kill.
  [[nodiscard]] std::span<const NodeId> occupied_nodes() const noexcept {
    return occupied_.nodes;
  }
  /// The node's class: nodes of one speed holding the same resident list
  /// in the same order share one id, and with it one view. An id stays the
  /// node's until the next start, completion or kill that touches it; the
  /// id of a class whose last member leaves is reused.
  [[nodiscard]] ClassId node_class(NodeId node) const {
    LIBRISK_CHECK(node >= 0 && node < cluster_.size(), "node " << node << " out of range");
    return node_class_[node];
  }
  /// One more than the largest class id: a size for per-class arrays.
  [[nodiscard]] std::size_t class_count() const noexcept { return classes_.size(); }
  /// The number of nodes in a class.
  [[nodiscard]] int class_size(ClassId id) const { return class_at(id).members; }
  /// The node speed of a class.
  [[nodiscard]] double class_speed(ClassId id) const { return class_at(id).speed; }
  /// The class of idle nodes of each distinct node speed, in order of the
  /// speed's lowest node id. These classes live as long as the executor.
  [[nodiscard]] std::span<const ClassId> empty_classes() const noexcept {
    return empty_classes_;
  }
  [[nodiscard]] TaskView view(JobId id) const;
  /// Resident snapshot + aggregates for one node: the view of its class,
  /// so two members of one class return the same object. A populated
  /// class's view is valid for one (state epoch, instant) pair: any start,
  /// completion, overrun, kill or time advance anywhere rebuilds it on its
  /// next read. An empty class's view depends on nothing that changes, so
  /// it is built once and served to every idle node of its speed. Each
  /// requested part is computed at most once per validity window (parts
  /// accumulate in the cache); KernelStats::view_rebuilds counts the
  /// rebuilds. Call sync() first mid-simulation, like the other views.
  [[nodiscard]] const NodeStateView& node_state(
      NodeId node, NodeStateParts parts = kStateAll) const;
  /// Monotonic counter bumped whenever observable execution state changes
  /// (start, completion, overrun bump, kill, or work advancing under sync).
  /// Snapshot it to detect staleness of previously read views.
  [[nodiscard]] std::uint64_t state_epoch() const noexcept { return epoch_; }

  /// Reference-work delivered so far, for utilization accounting.
  [[nodiscard]] double delivered_node_seconds() const noexcept { return delivered_; }
  [[nodiscard]] const Cluster& cluster() const noexcept { return cluster_; }
  [[nodiscard]] const ShareModelConfig& config() const noexcept { return config_; }
  /// Cumulative execution-kernel effort counters.
  [[nodiscard]] const KernelStats& kernel_stats() const noexcept { return stats_; }

  /// Validates internal invariants (tests / failure injection); throws
  /// CheckError on violation. Every node's class has the node's speed and
  /// the resident list rebuilt from the tasks' node lists in start order,
  /// and no two live classes share a key. Includes cache soundness: every
  /// class view node_state() would serve without rebuilding equals a
  /// from-scratch rebuild at each member bit for bit, and every memoised
  /// task term a view would use equals a fresh one. Every settled rate
  /// must equal, bit for bit, the per-node allocate_one reference at the
  /// last settle.
  void check_invariants() const;

 private:
  /// Which TaskTerms a read needs; kTermBase comes with every read.
  using TermParts = std::uint8_t;
  static constexpr TermParts kTermBase = 1;          ///< remaining_* terms
  static constexpr TermParts kTermDelay = 2;         ///< deadline_delay
  static constexpr TermParts kTermShareRaw = 4;      ///< share_raw [speed]
  static constexpr TermParts kTermShareCurrent = 8;  ///< share_current [speed]
  static constexpr TermParts kTermDemand = 16;       ///< demand [speed]
  static constexpr TermParts kTermSpeedFree = kTermBase | kTermDelay;

  /// What a class view or the settle derives from one resident at an
  /// instant, memoised on the Task: valid for one (state epoch, instant),
  /// the [speed] terms for one node speed too. Each class the task is in
  /// folds the same values, so every sum keeps its bits. Sound for the
  /// reason the populated-class view cache is: a settle that changes rates
  /// bumps the epoch before its rate pass, and reads only the
  /// rate-independent demand there.
  struct TaskTerms {
    std::uint64_t epoch = 0;  ///< key: state epoch (0 = never computed)
    sim::SimTime at = 0.0;    ///< key: instant
    double speed = 0.0;       ///< key of the [speed] terms
    TermParts held = 0;       ///< terms valid under the key
    double remaining_raw = 0.0;       ///< raw-estimate remaining work
    double remaining_current = 0.0;   ///< bumped-estimate remaining work
    double remaining_deadline = 0.0;  ///< seconds to the absolute deadline
    double deadline_delay = 0.0;  ///< CurrentRate Eq. 4 term at the task's rate
    double share_raw = 0.0;       ///< Eq. 1 share of remaining_raw
    double share_current = 0.0;   ///< Eq. 1 share of remaining_current
    double demand = 0.0;          ///< capped pacing demand, min(1, demand_of / speed)
  };

  struct Task {
    const Job* job;
    std::vector<NodeId> nodes;
    sim::SimTime start_time;
    std::uint64_t started = 0;  ///< start() call serial: orders residents
    double est_current;
    double actual_total;
    double rate = 0.0;
    int bumps = 0;
    /// Anchored lazy work: work at time t is anchor_work + rate *
    /// (t - anchor_time) for t since the anchor. The anchor advances only
    /// when the rate changes (exact under piecewise-constant rates), so
    /// unaffected tasks cost nothing per settle.
    double anchor_work = 0.0;
    sim::SimTime anchor_time = 0.0;
    /// Absolute instant of the next completion-or-expiry (min of the two);
    /// the boundary-heap key. Invariant under unchanged rate by
    /// construction: derived from the anchor, not from "now".
    sim::SimTime boundary = sim::kTimeInfinity;
    bool boundary_is_expiry = false;
    /// Overrun bump this settle: boundary must refresh even if the rate
    /// comes out bitwise-unchanged.
    bool bump_pending = false;
    std::int32_t heap_pos = -1;      ///< boundary-heap slot, -1 = not queued
    std::uint64_t dirty_serial = 0;  ///< settle serial when last marked dirty
    std::int32_t shared_nodes = 0;   ///< nodes of this task with >= 2 residents
    std::int32_t contended_pos = -1; ///< slot in contended_, -1 = absent
    mutable TaskTerms terms;         ///< see TaskTerms
  };
  struct Killed {
    const Job* job;
    double work_done;
  };
  struct Overrun {
    const Job* job;
    int bumps;
    double est_current;
  };

  void settle_and_reschedule();

  /// Canonical lazy-work read; every consumer goes through this one
  /// expression so a deferred read is bitwise an eager one.
  [[nodiscard]] double work_at(const Task& task, sim::SimTime now) const noexcept {
    return task.anchor_work + task.rate * (now - task.anchor_time);
  }
  /// Moves the anchor to `now`, crediting delivered work and emitting the
  /// closed constant-rate timeline segment. No-op when already anchored at
  /// `now`; the anchor update matches work_at(now) bitwise.
  void reanchor(Task& task, sim::SimTime now);
  /// Recomputes boundary/boundary_is_expiry from the anchor (rate must be
  /// set). Ties resolve to completion.
  void refresh_boundary(Task& task);
  [[nodiscard]] double demand_of(const Task& task, sim::SimTime now) const;
  /// The terms of `task.terms` a read on a node of speed `speed` may take
  /// from the memo: none once its (epoch, instant) has passed, and only
  /// the speed-free ones on a node of another speed.
  [[nodiscard]] TermParts memo_parts(const TaskTerms& terms,
                                     double speed) const noexcept {
    if (terms.epoch != epoch_ || terms.at != sim_.now()) return 0;
    return terms.speed == speed ? terms.held : terms.held & kTermSpeedFree;
  }
  /// `task`'s terms on a node of speed `speed` (at least `want`), computing
  /// into the memo only what it does not hold.
  const TaskTerms& task_terms(const Task& task, double speed,
                              TermParts want) const;
  /// Computes the `parts` of `terms` for `task` at the current instant on a
  /// node of speed `speed`, from scratch (the others read the base terms,
  /// which `terms` must hold or `parts` include).
  void compute_terms(const Task& task, double speed, TermParts parts,
                     TaskTerms& terms) const;
  /// Moves every node of `task` from its class to the class without it.
  void remove_task_from_nodes(Task& task);
  void notify_and_reclaim(std::vector<const Job*>& completed,
                          std::vector<Killed>& killed,
                          std::vector<Overrun>& overruns, sim::SimTime now);

  // Dirty-set bookkeeping.
  void touch_node(NodeId node);
  void mark_dirty(Task* task);
  /// `task` gained / lost a node it shares with another resident.
  void share_node(Task* task);
  void unshare_node(Task* task);

  /// A dense subset of the nodes with a per-node position index, for O(1)
  /// membership updates; iteration order is unspecified.
  struct NodeSet {
    std::vector<NodeId> nodes;
    std::vector<std::int32_t> pos;  ///< slot in `nodes`, -1 = absent
    void add(NodeId node);
    void remove(NodeId node);
  };

  // Intrusive binary min-heap of running tasks keyed by (boundary, job id).
  [[nodiscard]] static bool boundary_before(const Task* a, const Task* b) noexcept;
  void bheap_sift_up(std::size_t pos);
  void bheap_sift_down(std::size_t pos);
  void bheap_update(Task* task);
  void bheap_remove(Task* task);

  /// Lazily rebuilt admission view of a class (see node_state()). SoA
  /// columns are grow-only storage the view's spans alias.
  struct ViewCache {
    std::uint64_t epoch = 0;  ///< state epoch at build; 0 = never built
    sim::SimTime at = 0.0;    ///< instant of build
    std::vector<const Job*> jobs;
    std::vector<double> remaining_raw;
    std::vector<double> remaining_current;
    std::vector<double> remaining_deadline;
    std::vector<double> rate;
    NodeStateView view;
  };

  /// A node class: one node speed and one resident list in start order
  /// (the key), shared by every node in that state. Its nodes hold the
  /// same jobs and run at the same speed, so one view and one demand total
  /// serve them all. The slot of a class whose last member leaves goes on
  /// a free list for reuse; every vector in it only grows.
  struct NodeClass {
    double speed = 0.0;
    std::vector<JobId> jobs;   ///< resident ids in start order
    std::vector<Task*> tasks;  ///< parallel to `jobs`
    std::uint64_t hash = 0;    ///< of the key, for the interning index
    std::int32_t members = 0;  ///< nodes in the class
    ClassId empty = -1;        ///< the empty class of this speed
    mutable ViewCache cache;
    /// Settle scratch, stamped with the settle serial: the dirty-set pass
    /// marks a class's tasks once, and its demand total (resident start
    /// order) is summed on its first read.
    std::uint64_t touch_serial = 0;
    std::uint64_t demand_serial = 0;
    double demand = 0.0;
    std::uint64_t rate_visit = 0;  ///< rate-pass visit that took its divisor
    /// Where this class's nodes go in the move stamped `move_serial`.
    std::uint64_t move_serial = 0;
    ClassId move_to = -1;
  };
  [[nodiscard]] const NodeClass& class_at(ClassId id) const {
    LIBRISK_CHECK(id >= 0 && static_cast<std::size_t>(id) < classes_.size(),
                  "class " << id << " out of range");
    return classes_[id];
  }
  /// Whether `c`'s cached view still describes it, for the parts it holds.
  [[nodiscard]] bool view_fresh(const NodeClass& c) const noexcept {
    return c.jobs.empty() ? c.cache.epoch != 0
                          : c.cache.epoch == epoch_ && c.cache.at == sim_.now();
  }
  /// Counts a rebuild and refills `c`'s view with `parts` plus whatever
  /// parts it already holds validly.
  void rebuild_view(const NodeClass& c, NodeStateParts parts) const;
  /// Fills `cache` with exactly `parts` (all parts when there is no
  /// resident) for `residents` on a node of speed `speed`, from their
  /// memoised terms, or from scratch when `memo` is false.
  void fill_view(double speed, std::span<const Task* const> residents,
                 ViewCache& cache, NodeStateParts parts, bool memo) const;

  // Class interning: an open-addressing index from key to live class.
  /// A free slot (or a new one) made ready for a class of `speed`.
  ClassId new_class(double speed);
  /// The class of `from`'s key with `task` appended. Always a new class:
  /// no live class holds a job that is only now starting.
  ClassId class_joined(ClassId from, Task* task);
  /// The class of `from`'s key without its resident at `pos`: the live
  /// class with that key, or a new one.
  ClassId class_left(ClassId from, std::size_t pos);
  /// Moves `node` between classes, maintaining member counts, the
  /// occupied set and the free list.
  void move_node(NodeId node, ClassId from, ClassId to);
  [[nodiscard]] std::size_t index_home(std::uint64_t hash) const noexcept;
  void index_insert(ClassId id);
  void index_erase(ClassId id);

  sim::Simulator& sim_;
  const Cluster& cluster_;
  ShareModelConfig config_;
  CompletionHandler on_completion_;
  OverrunHandler on_overrun_;
  KillHandler on_kill_;

  std::map<JobId, Task> tasks_;  // ordered => deterministic iteration
  std::uint64_t epoch_ = 1;
  /// Class slots, live or free; Task pointers in them are stable because
  /// std::map nodes are.
  std::vector<NodeClass> classes_;
  std::vector<ClassId> node_class_;     ///< node -> its class
  std::vector<ClassId> empty_classes_;  ///< one per distinct speed
  std::vector<ClassId> free_classes_;   ///< recyclable slots
  /// Open-addressing (linear probing) index of the live classes by key;
  /// -1 = empty slot. Sized at construction to twice the most classes that
  /// can be live at once (one per node, one being made, and the empty
  /// ones), so it never grows.
  std::vector<ClassId> class_index_;
  sim::SimTime last_settle_ = 0.0;
  sim::EventId pending_boundary_{};
  sim::SimTime pending_boundary_time_ = 0.0;
  double delivered_ = 0.0;
  TimelineRecorder* timeline_ = nullptr;
  trace::Recorder* trace_ = nullptr;
  obs::PhaseProfiler* profiler_ = nullptr;  ///< borrowed via attach()
  /// Makes the settle pass after a start() emit a ShareRealloc even though
  /// the start itself (not the settle) changed the membership.
  bool pending_start_realloc_ = false;

  mutable KernelStats stats_;  ///< mutable: node_state() counts view rebuilds
  std::uint64_t settle_serial_ = 0;
  std::vector<Task*> bheap_;            ///< boundary min-heap
  /// Tasks with at least one shared node (>= 2 residents): the only ones
  /// whose work-conserving pacing rates drift with time.
  std::vector<Task*> contended_;
  /// Nodes with >= 1 resident: the only ones an admission scan must read.
  NodeSet occupied_;
  /// start()'s duplicate-node check: a node already seen in the current
  /// call carries the call's stamp.
  std::vector<std::uint64_t> node_start_stamp_;
  /// Stamps each start() and removal: orders residents, and memoises the
  /// class a class's nodes move to within one call.
  std::uint64_t move_serial_ = 0;
  std::uint64_t rate_visit_ = 0;  ///< one stamp per rate-pass task visit
  /// Per-settle workspaces (member-owned so steady-state settles allocate
  /// nothing; serial stamps replace clearing).
  std::vector<std::uint64_t> node_touched_serial_;
  std::vector<NodeId> touched_nodes_;
  std::vector<NodeId> start_touched_;   ///< nodes gaining a task since last settle
  std::vector<Task*> due_;
  /// (job id, task): the sort key sits beside the pointer, so ordering the
  /// dirty set reads no Task.
  std::vector<std::pair<JobId, Task*>> dirty_;
  std::vector<const Job*> completed_buf_;
  std::vector<Killed> killed_buf_;
  std::vector<Overrun> overrun_buf_;
};

// Inline: every admission scan runs this check for every class it
// assesses, and most reads hit the cache.
inline const NodeStateView& TimeSharedExecutor::node_state(
    NodeId node, NodeStateParts parts) const {
  const NodeClass& c = classes_[node_class(node)];
  if ((parts & ~c.cache.view.parts) != 0 || !view_fresh(c)) rebuild_view(c, parts);
  return c.cache.view;
}

}  // namespace librisk::cluster
