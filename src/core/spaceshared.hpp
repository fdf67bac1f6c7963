// Space-shared dispatch: the paper's EDF baseline (Section 4) and the
// batch-scheduling family around it, as configurations of one scheduler.
//
// Jobs queue at submission. A dispatch pass runs whenever a job arrives or
// processors free: the queue head starts if enough processors are free,
// otherwise it blocks the jobs behind it (head-of-line blocking). Four
// dials select the policy; core/factory.cpp fills them per core::Policy:
//
//   Policy    order     deadline_test  backfilling  qops_slack
//   EDF       Deadline  yes            -            -
//   EDF-NoAC  Deadline  -              -            -
//   EDF-BF    Deadline  yes            yes          -
//   FCFS      Arrival   -              -            -
//   EASY      Arrival   -              yes          -
//   QoPS      Deadline  -              -            slack factor
//
// EDF's admission control is *relaxed*: a job is rejected only when it is
// selected, if its deadline has expired or its runtime estimate can no
// longer meet it. Because the queue is kept in deadline order, a
// later-arriving job with an earlier deadline displaces a waiting head —
// the "better selection choice" the paper credits EDF with. EDF-NoAC is the
// paper's Section 4 remark that EDF without that test performs far worse.
//
// FCFS and EASY (Mu'alem & Feitelson) are the standard baselines of the
// scheduling literature the paper cites: they show how throughput-oriented
// dispatch fares on deadline fulfilment, and EASY's reservations are a
// second consumer of runtime estimates.
//
// QoPS (Islam et al., Cluster 2004 — the paper's related work [6]) tests at
// *submission* whether, by estimates, every queued job and the newcomer can
// still finish within slack_factor x deadline. Slack > 1 is the "soft
// deadline" feature the paper contrasts with its hard-deadline focus; the
// collector still judges completions against the hard deadline.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/spaceshared.hpp"
#include "core/overload.hpp"
#include "core/scheduler.hpp"

namespace librisk::core {

/// Queue order, which is also the dispatch order.
enum class QueueOrder {
  Deadline,  ///< earliest absolute deadline first, ties to the lower job id
  Arrival,   ///< submission order
};

struct DispatchConfig {
  QueueOrder order = QueueOrder::Deadline;
  /// The relaxed admission control: reject the selected job when its
  /// deadline has expired or cannot be met by its estimate on the fastest
  /// node. When false, expired jobs run anyway and count as late.
  bool deadline_test = true;
  /// EASY backfilling: while the head waits for processors, a later job may
  /// start if, by runtime estimates, it cannot delay the head's reservation
  /// (and, with deadline_test, can still meet its own deadline).
  bool backfilling = false;
  /// When set, the QoPS admission test at submission with this slack
  /// factor (>= 1; exactly 1 enforces hard deadlines at admission).
  std::optional<double> qops_slack = std::nullopt;
  /// Overload mode (core/overload.hpp). The only rejection site with
  /// something to bend is the dispatch-time deadline test, so DowngradeQoS
  /// acts only with deadline_test (feasibility against deadline x
  /// downgrade_factor while engaged); without it every mode behaves
  /// exactly like HardReject (docs/OVERLOAD.md).
  OverloadConfig overload;
};

class SpaceSharedScheduler final : public Scheduler {
 public:
  SpaceSharedScheduler(sim::Simulator& simulator,
                       cluster::SpaceSharedExecutor& executor,
                       Collector& collector, DispatchConfig config,
                       std::string name);

  void on_job_submitted(const Job& job) override;
  [[nodiscard]] std::string_view name() const noexcept override { return name_; }

  [[nodiscard]] std::size_t queue_length() const noexcept { return queue_.size(); }
  [[nodiscard]] const DispatchConfig& config() const noexcept { return config_; }

  /// Counters in the shared AdmissionStats shape. There is no node scan, so
  /// only submissions/accepted/rejections, the reason attribution, the
  /// deadline near-miss pair (dispatch-time rejections) and the overload
  /// outcomes are populated. A job counts as accepted when it starts, and
  /// provenance records (Hooks::explain) are emitted for rejections only.
  [[nodiscard]] const AdmissionStats& admission_stats() const noexcept {
    return stats_;
  }

 private:
  /// Node release of a running job at its estimated completion.
  struct Release {
    sim::SimTime time;
    int procs;
  };
  /// EASY reservation for the waiting head.
  struct Reservation {
    sim::SimTime shadow_time = 0.0;  ///< estimated start of the head
    int extra_nodes = 0;             ///< free nodes beyond the head's need then
  };

  void dispatch();
  /// Starts the first later job that cannot delay the head's reservation;
  /// false when none qualifies.
  bool backfill(const Job& head);
  void start_job(const Job& job);
  /// The one rejection path: stats, collector, trace and explain.
  void reject(const Job& job, trace::RejectionReason reason, bool at_dispatch,
              double margin = 0.0);
  /// Where `job` goes in the queue to keep it in dispatch order.
  [[nodiscard]] std::vector<const Job*>::const_iterator queue_slot(
      const Job& job) const;

  /// The job's runtime estimate on the fastest node.
  [[nodiscard]] double best_runtime(const Job& job) const;
  /// True when the job, started now on the fastest free nodes, could still
  /// meet its deadline according to its runtime estimate.
  [[nodiscard]] bool deadline_feasible(const Job& job) const;
  /// Signed headroom of that test (obs::NodeMargin convention):
  /// absolute_deadline - (now + best_runtime).
  [[nodiscard]] double deadline_margin(const Job& job) const;
  /// Running jobs' releases in estimated-finish order; an estimate that
  /// already expired counts as "any moment now".
  [[nodiscard]] std::vector<Release> releases() const;
  [[nodiscard]] Reservation head_reservation(const Job& head) const;
  /// The QoPS test: forward-simulates the head-blocking dispatch by
  /// estimates — releases at estimated completions, pending jobs (plus
  /// `candidate`) starting in queue order when enough nodes are free — and
  /// requires every pending job to finish by submit + slack x deadline.
  [[nodiscard]] bool qops_feasible(const Job& candidate) const;

  // ---- overload consult (core/overload.hpp) ----
  /// Load signal: busy-processor fraction.
  [[nodiscard]] LoadSignal load_signal() const noexcept;
  /// DowngradeQoS consult at the dispatch rejection site: true when the
  /// selected job, infeasible at its submitted deadline, is feasible at the
  /// downgraded one — the job then keeps its granted extension (sticky in
  /// downgraded_deadline_) so later passes stay consistent even after the
  /// governor disengages.
  [[nodiscard]] bool try_degrade_head(const Job& job);

  sim::Simulator& sim_;
  cluster::SpaceSharedExecutor& executor_;
  Collector& collector_;
  DispatchConfig config_;
  std::string name_;
  AdmissionStats stats_;
  /// Waiting jobs in dispatch order (see queue_slot).
  std::vector<const Job*> queue_;
  /// Running jobs (job id -> estimated release), the knowledge EASY
  /// reservations and the QoPS forward simulation are built from. Ordered
  /// by id on purpose: releases() sorts a copy with std::sort, which is not
  /// stable, so the order of equal-time releases depends on this input
  /// order, and the golden digests pin it.
  std::map<std::int64_t, Release> running_;
  /// DowngradeQoS with the deadline test on; every other configuration
  /// keeps this false and the consult sites dead (byte-identity under
  /// HardReject).
  bool overload_enabled_ = false;
  OverloadGovernor governor_;
  /// Granted deadline extensions (job id -> effective absolute deadline);
  /// erased at start (with degraded-admit provenance) or final rejection.
  std::map<std::int64_t, sim::SimTime> downgraded_deadline_;
};

}  // namespace librisk::core
